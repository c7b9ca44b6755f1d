//! [`ResultStore`] — the cross-process, on-disk report cache of the
//! serving layer.
//!
//! Completed [`RunReport`]s are persisted under a store directory
//! (`results/store/` by convention), one file per canonical
//! [`JobKey`], so repeated fleet-wide queries are cache
//! hits *across service restarts*: a fresh
//! [`BatchService`](crate::BatchService) or
//! [`AsyncService`](crate::AsyncService) pointed at the same directory
//! serves the whole fleet without running a single simulation.
//!
//! The format is the same std-only machinery the golden snapshots use — a
//! versioned, line-oriented text rendering of every report field, one
//! counter per token. `u64` counters render exactly; `f64` fields use
//! Rust's shortest round-trip formatting, so a parsed report is
//! **bit-identical** to the one persisted. Files are written to a
//! temporary name and renamed into place, so concurrent processes never
//! observe a half-written entry.
//!
//! Trust boundary: files that fail to parse — truncated writes, foreign
//! bytes, stale formats — are *quarantined* (renamed to `*.corrupt`) and
//! reported as misses, never served. Only successful reports are ever
//! persisted; failed jobs have no representation here.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use grow_core::registry;
use grow_core::{
    ClusterProfile, LayerReport, MultiPeSummary, PhaseKind, PhasePeBusy, PhaseReport, RunReport,
    SchedulerKind,
};
use grow_sim::fault::{self, FaultSite};
use grow_sim::{CacheStats, TrafficClass, TrafficStats};

use crate::batch::JobKey;

/// Format tag of the current store layout; bump on incompatible changes
/// (old entries then quarantine on first touch and are recomputed).
const FORMAT_HEADER: &str = "grow-store v1";

/// Extension of live entries.
const ENTRY_EXT: &str = "report";

/// Counters of one store's lifetime (per process; the directory itself is
/// shared across processes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served (parsed and key-verified).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Reports written.
    pub persisted: u64,
    /// Unreadable/corrupt entries renamed to `*.corrupt` and skipped.
    pub quarantined: u64,
}

/// Outcome of a full-store audit — see [`ResultStore::scrub`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Entries that parsed, named this build's registry, and live at the
    /// path their embedded key hashes to.
    pub live: u64,
    /// Entries quarantined by this scrub (renamed to `*.corrupt`).
    pub quarantined: u64,
    /// Orphaned temporary files removed — the residue of a writer that
    /// died between `write` and `rename`.
    pub tmp_removed: u64,
    /// Other files left untouched (earlier `*.corrupt` evidence,
    /// subdirectories, foreign files).
    pub skipped: u64,
}

/// An on-disk [`RunReport`] cache keyed by canonical [`JobKey`]. See the
/// [module docs](self) for the format and trust model.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    stats: StoreStats,
}

impl ResultStore {
    /// Opens (creating if needed) the store directory.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error from creating the directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            stats: StoreStats::default(),
        })
    }

    /// The conventional store location, `results/store/`, relative to the
    /// working directory.
    pub fn default_dir() -> PathBuf {
        PathBuf::from("results").join("store")
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This process's lifetime counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Number of live entries currently on disk (quarantined files are not
    /// counted).
    pub fn len(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == ENTRY_EXT))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True when the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// File path an entry for `key` lives at: a 128-bit FNV-1a content
    /// hash of the canonical key string (two independent 64-bit streams),
    /// stable across processes and sessions. The full key is embedded in
    /// the entry and verified on load.
    pub fn entry_path(&self, key: &JobKey) -> PathBuf {
        let bytes = key.as_str().as_bytes();
        self.dir.join(format!(
            "{:016x}{:016x}.{ENTRY_EXT}",
            fnv1a64(bytes, 0xcbf2_9ce4_8422_2325),
            fnv1a64(bytes, 0x6c62_272e_07bb_0142)
        ))
    }

    /// Loads the report persisted for `key`, if a valid entry exists.
    /// Entries that fail to parse or that belong to a different key are
    /// quarantined (renamed to `*.corrupt`) and reported as a miss.
    pub fn load(&mut self, key: &JobKey) -> Option<RunReport> {
        let path = self.entry_path(key);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(_) => {
                self.stats.misses += 1;
                return None;
            }
        };
        // The 'store_read' fault injection site: an injected error makes
        // this entry read as corrupt (quarantine + miss, the job simply
        // recomputes); an injected panic unwinds into the caller's
        // supervisor, which fails the job as StoreCorrupt.
        if fault::check_scoped(FaultSite::StoreRead).is_err() {
            self.quarantine(&path);
            self.stats.misses += 1;
            return None;
        }
        match parse_entry(&text, key) {
            Ok(report) => {
                self.stats.hits += 1;
                Some(report)
            }
            Err(_) => {
                self.quarantine(&path);
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Persists `report` as the entry for `key` (overwriting any previous
    /// entry). The write goes to a temporary file first and is renamed
    /// into place, so a concurrent reader sees either the old entry or the
    /// new one, never a torn write.
    ///
    /// # Errors
    ///
    /// Returns any filesystem error; the store is left without a partial
    /// entry.
    pub fn persist(&mut self, key: &JobKey, report: &RunReport) -> io::Result<()> {
        let path = self.entry_path(key);
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        fs::write(&tmp, render_entry(key, report))?;
        // The 'store_write' fault injection site, deliberately placed
        // between write and rename: both the injected error and the
        // injected panic leave the temporary file orphaned — the exact
        // residue of a writer crashing mid-persist, which scrub() removes.
        if let Err(e) = fault::check_scoped(FaultSite::StoreWrite) {
            return Err(io::Error::other(e.to_string()));
        }
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                self.stats.persisted += 1;
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Removes every live entry (quarantined files are kept for
    /// inspection).
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error encountered.
    pub fn clear(&mut self) -> io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|x| x == ENTRY_EXT) {
                fs::remove_file(&path)?;
            }
        }
        Ok(())
    }

    /// Audits the whole store directory and repairs what it can:
    ///
    /// * every live `*.report` entry is parsed and its embedded key is
    ///   re-hashed — an entry that is unreadable, malformed, or filed
    ///   under the wrong name (bit rot, a foreign tool, a hash mismatch)
    ///   is quarantined exactly like a failed load;
    /// * orphaned `*.tmpNNN` files — the residue of a writer that died
    ///   between `write` and `rename` — are deleted;
    /// * everything else (earlier `*.corrupt` evidence, subdirectories)
    ///   is left untouched and counted as skipped.
    ///
    /// Deliberately *not* a fault injection point: scrub is the recovery
    /// protocol, so it must work on a store whose jobs are configured to
    /// fail. Directory order is sorted, so repeated scrubs of the same
    /// tree report identically.
    ///
    /// # Errors
    ///
    /// Returns the first filesystem error from listing the directory or
    /// removing a temporary file; quarantine failures are not errors (the
    /// entry is simply counted and retried on the next scrub).
    pub fn scrub(&mut self) -> io::Result<ScrubReport> {
        let mut report = ScrubReport::default();
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        paths.sort();
        for path in paths {
            if !path.is_file() {
                report.skipped += 1;
                continue;
            }
            let ext = path.extension().and_then(|x| x.to_str()).unwrap_or("");
            if ext.starts_with("tmp") {
                fs::remove_file(&path)?;
                report.tmp_removed += 1;
            } else if ext == ENTRY_EXT {
                let verified = fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| parse_entry_any(&text).ok())
                    .is_some_and(|(key, _)| self.entry_path(&key) == path);
                if verified {
                    report.live += 1;
                } else {
                    self.quarantine(&path);
                    report.quarantined += 1;
                }
            } else {
                report.skipped += 1;
            }
        }
        Ok(report)
    }

    fn quarantine(&mut self, path: &Path) {
        // Each corruption of the same key gets its own quarantine file
        // (`.corrupt`, `.corrupt.1`, ...): renaming over an earlier
        // quarantine would silently destroy the evidence it preserves.
        let mut target = {
            let mut t = path.as_os_str().to_owned();
            t.push(".corrupt");
            PathBuf::from(t)
        };
        let mut suffix = 0u32;
        while target.exists() {
            suffix += 1;
            let mut t = path.as_os_str().to_owned();
            t.push(format!(".corrupt.{suffix}"));
            target = PathBuf::from(t);
        }
        if fs::rename(path, &target).is_ok() {
            self.stats.quarantined += 1;
        }
    }
}

/// 64-bit FNV-1a over `bytes` from the given basis (two bases give two
/// independent streams — a cheap, dependency-free 128-bit content hash).
fn fnv1a64(bytes: &[u8], basis: u64) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Renders the full entry: header, key, and every report field, one
/// counter per token (the golden-snapshot discipline — a diff points at
/// the exact field that moved).
fn render_entry(key: &JobKey, report: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{FORMAT_HEADER}");
    let _ = writeln!(out, "key {}", key.as_str());
    let _ = writeln!(out, "engine {}", report.engine);
    let _ = writeln!(out, "exec {}", report.exec);
    match &report.multi_pe {
        Some(s) => {
            let _ = writeln!(
                out,
                "multi_pe {} {} {} {} {}",
                s.scheduler,
                s.pes,
                f64_token(s.makespan),
                f64_token(s.imbalance),
                f64_list(&s.per_pe_busy)
            );
        }
        None => {
            let _ = writeln!(out, "multi_pe none");
        }
    }
    let _ = writeln!(out, "layers {}", report.layers.len());
    for layer in &report.layers {
        render_phase(&mut out, &layer.combination);
        render_phase(&mut out, &layer.aggregation);
    }
    out
}

fn render_phase(out: &mut String, phase: &PhaseReport) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "phase {:?} {} {} {} {} {}",
        phase.kind,
        phase.cycles,
        phase.compute_busy,
        phase.mac_ops,
        phase.sram_reads_8b,
        phase.sram_writes_8b
    );
    let traffic: Vec<String> = TrafficClass::ALL
        .iter()
        .flat_map(|&class| {
            [
                phase.traffic.useful_bytes(class).to_string(),
                phase.traffic.fetched_bytes(class).to_string(),
                phase.traffic.requests(class).to_string(),
            ]
        })
        .collect();
    let _ = writeln!(out, "traffic {}", traffic.join(" "));
    let _ = writeln!(
        out,
        "cache {} {} {}",
        phase.cache.hits, phase.cache.misses, phase.cache.fills
    );
    let profiles: Vec<String> = phase
        .cluster_profiles
        .iter()
        .flat_map(|p| {
            [
                p.compute_cycles.to_string(),
                p.mem_bytes.to_string(),
                p.cycles.to_string(),
            ]
        })
        .collect();
    let _ = writeln!(out, "profiles {}", profiles.join(" "));
    match &phase.pe {
        Some(pe) => {
            let _ = writeln!(
                out,
                "pe {} {} {}",
                f64_token(pe.makespan),
                f64_token(pe.cluster_time),
                f64_list(&pe.per_pe_busy)
            );
        }
        None => {
            let _ = writeln!(out, "pe none");
        }
    }
}

/// `f64` as a single token. Rust's default formatting is the shortest
/// string that parses back to the exact same bits, so the store
/// round-trips floating-point fields losslessly.
fn f64_token(v: f64) -> String {
    format!("{v}")
}

fn f64_list(vs: &[f64]) -> String {
    let body: Vec<String> = vs.iter().map(|&v| f64_token(v)).collect();
    format!("[{}]", body.join(" "))
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Any deviation from the expected shape: the caller quarantines the file.
#[derive(Debug)]
struct Malformed;

type ParseResult<T> = Result<T, Malformed>;

fn parse_entry(text: &str, expect_key: &JobKey) -> ParseResult<RunReport> {
    let (key, report) = parse_entry_any(text)?;
    if key.as_str() != expect_key.as_str() {
        return Err(Malformed);
    }
    Ok(report)
}

/// Parses an entry without an expected key — the scrubber's view, which
/// discovers each entry's identity from the `key` line and re-verifies
/// the filename against it.
fn parse_entry_any(text: &str) -> ParseResult<(JobKey, RunReport)> {
    let mut lines = text.lines();
    if lines.next() != Some(FORMAT_HEADER) {
        return Err(Malformed);
    }
    let key_line = lines.next().ok_or(Malformed)?;
    let key = key_line.strip_prefix("key ").ok_or(Malformed)?;
    let engine_line = lines.next().ok_or(Malformed)?;
    let engine_name = engine_line.strip_prefix("engine ").ok_or(Malformed)?;
    // Resolve the persisted label to the registry's 'static name — an
    // entry naming an engine this build does not know is untrusted.
    let engine = registry::engine_by_name(engine_name)
        .map_err(|_| Malformed)?
        .name();
    let exec_line = lines.next().ok_or(Malformed)?;
    let exec = match exec_line.strip_prefix("exec ").ok_or(Malformed)? {
        "post_hoc" => "post_hoc",
        "e2e" => "e2e",
        _ => return Err(Malformed),
    };
    let multi_pe = parse_multi_pe(lines.next().ok_or(Malformed)?)?;
    let layers_line = lines.next().ok_or(Malformed)?;
    let layer_count: usize = layers_line
        .strip_prefix("layers ")
        .ok_or(Malformed)?
        .parse()
        .map_err(|_| Malformed)?;
    // An adversarial header must not drive unbounded preallocation.
    if layer_count > 4096 {
        return Err(Malformed);
    }
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let combination = parse_phase(&mut lines, PhaseKind::Combination)?;
        let aggregation = parse_phase(&mut lines, PhaseKind::Aggregation)?;
        layers.push(LayerReport {
            combination,
            aggregation,
        });
    }
    if lines.next().is_some() {
        return Err(Malformed); // trailing garbage
    }
    Ok((
        JobKey::from_raw(key.to_string()),
        RunReport {
            engine,
            layers,
            multi_pe,
            exec,
        },
    ))
}

fn parse_multi_pe(line: &str) -> ParseResult<Option<MultiPeSummary>> {
    let rest = line.strip_prefix("multi_pe ").ok_or(Malformed)?;
    if rest == "none" {
        return Ok(None);
    }
    let mut tokens = rest.split(' ');
    let scheduler = SchedulerKind::parse(tokens.next().ok_or(Malformed)?)
        .ok_or(Malformed)?
        .name();
    let pes = parse_token(tokens.next())?;
    let makespan = parse_f64(tokens.next())?;
    let imbalance = parse_f64(tokens.next())?;
    let per_pe_busy = parse_f64_list(&mut tokens)?;
    if tokens.next().is_some() {
        return Err(Malformed);
    }
    Ok(Some(MultiPeSummary {
        scheduler,
        pes,
        makespan,
        imbalance,
        per_pe_busy,
    }))
}

fn parse_phase<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    expect_kind: PhaseKind,
) -> ParseResult<PhaseReport> {
    let header = lines.next().ok_or(Malformed)?;
    let mut tokens = header.strip_prefix("phase ").ok_or(Malformed)?.split(' ');
    let kind = match tokens.next().ok_or(Malformed)? {
        "Combination" => PhaseKind::Combination,
        "Aggregation" => PhaseKind::Aggregation,
        _ => return Err(Malformed),
    };
    if kind != expect_kind {
        return Err(Malformed);
    }
    let mut phase = PhaseReport::new(kind);
    phase.cycles = parse_token(tokens.next())?;
    phase.compute_busy = parse_token(tokens.next())?;
    phase.mac_ops = parse_token(tokens.next())?;
    phase.sram_reads_8b = parse_token(tokens.next())?;
    phase.sram_writes_8b = parse_token(tokens.next())?;
    if tokens.next().is_some() {
        return Err(Malformed);
    }

    let traffic_line = lines.next().ok_or(Malformed)?;
    let mut tokens = traffic_line
        .strip_prefix("traffic ")
        .ok_or(Malformed)?
        .split(' ');
    let mut traffic = TrafficStats::new();
    for class in TrafficClass::ALL {
        let useful = parse_token(tokens.next())?;
        let fetched = parse_token(tokens.next())?;
        let requests = parse_token(tokens.next())?;
        traffic.record_bulk(class, useful, fetched, requests);
    }
    if tokens.next().is_some() {
        return Err(Malformed);
    }
    phase.traffic = traffic;

    let cache_line = lines.next().ok_or(Malformed)?;
    let mut tokens = cache_line
        .strip_prefix("cache ")
        .ok_or(Malformed)?
        .split(' ');
    phase.cache = CacheStats {
        hits: parse_token(tokens.next())?,
        misses: parse_token(tokens.next())?,
        fills: parse_token(tokens.next())?,
    };
    if tokens.next().is_some() {
        return Err(Malformed);
    }

    let profiles_line = lines.next().ok_or(Malformed)?;
    let rest = profiles_line.strip_prefix("profiles").ok_or(Malformed)?;
    let mut tokens = rest.split(' ').filter(|t| !t.is_empty()).peekable();
    while tokens.peek().is_some() {
        phase.cluster_profiles.push(ClusterProfile {
            compute_cycles: parse_token(tokens.next())?,
            mem_bytes: parse_token(tokens.next())?,
            cycles: parse_token(tokens.next())?,
        });
    }

    let pe_line = lines.next().ok_or(Malformed)?;
    let rest = pe_line.strip_prefix("pe ").ok_or(Malformed)?;
    phase.pe = if rest == "none" {
        None
    } else {
        let mut tokens = rest.split(' ');
        let makespan = parse_f64(tokens.next())?;
        let cluster_time = parse_f64(tokens.next())?;
        let per_pe_busy = parse_f64_list(&mut tokens)?;
        if tokens.next().is_some() {
            return Err(Malformed);
        }
        Some(PhasePeBusy {
            makespan,
            per_pe_busy,
            cluster_time,
        })
    };
    Ok(phase)
}

fn parse_token<T: std::str::FromStr>(token: Option<&str>) -> ParseResult<T> {
    token.ok_or(Malformed)?.parse().map_err(|_| Malformed)
}

fn parse_f64(token: Option<&str>) -> ParseResult<f64> {
    parse_token(token)
}

/// Parses the remainder of a `[a b c]` list emitted by [`f64_list`]; the
/// tokens arrive bracketed because the list was space-joined.
fn parse_f64_list<'a>(tokens: &mut impl Iterator<Item = &'a str>) -> ParseResult<Vec<f64>> {
    let mut out = Vec::new();
    let first = tokens.next().ok_or(Malformed)?;
    let mut token = first.strip_prefix('[').ok_or(Malformed)?.to_string();
    loop {
        if let Some(last) = token.strip_suffix(']') {
            if !last.is_empty() {
                out.push(last.parse().map_err(|_| Malformed)?);
            }
            return Ok(out);
        }
        if token.is_empty() {
            return Err(Malformed);
        }
        out.push(token.parse().map_err(|_| Malformed)?);
        token = tokens.next().ok_or(Malformed)?.to_string();
    }
}
