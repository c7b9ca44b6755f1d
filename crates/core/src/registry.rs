//! Engine registry: construct and run any accelerator model by name, with
//! configuration supplied as plain key-value overrides.
//!
//! This is the single entry point the bench harness, the examples, and
//! future serving layers drive engines through:
//!
//! ```
//! use grow_core::registry::{self, run_named};
//! use grow_core::{prepare, PartitionStrategy};
//! use grow_model::DatasetKey;
//!
//! let workload = DatasetKey::Cora.spec().scaled_to(300).instantiate(7);
//! let prepared = prepare(&workload, PartitionStrategy::None, 4096);
//! let report = run_named("grow", &prepared).unwrap();
//! assert_eq!(report.engine, "GROW");
//!
//! // Key-value overrides, e.g. straight from a CLI or a config file:
//! let engine = registry::engine_from_overrides(
//!     "grow",
//!     &[("hdn_cache_kb", "256"), ("runahead", "4")],
//! )
//! .unwrap();
//! assert!(engine.run(&prepared).total_cycles() > 0);
//! ```

use std::fmt;

use grow_sim::{DramConfig, FaultPlan};

use crate::exec_model::{ExecModelKind, EXEC_MODEL_NAMES};
use crate::schedule::{MultiPeConfig, SchedulerKind, SCHEDULER_NAMES};
use crate::{
    Accelerator, GammaConfig, GammaEngine, GcnaxConfig, GcnaxEngine, GrowConfig, GrowEngine,
    MatRaptorConfig, MatRaptorEngine, PreparedWorkload, ReplacementPolicy, RunReport, ShardRows,
};

/// Canonical lower-case names of the registered engines, in the paper's
/// comparison order.
pub const ENGINE_NAMES: [&str; 4] = ["grow", "gcnax", "matraptor", "gamma"];

/// Errors from engine construction or dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The engine name is not one of [`ENGINE_NAMES`].
    UnknownEngine(String),
    /// The override key is not recognized by the named engine.
    UnknownKey {
        /// Engine that rejected the key.
        engine: &'static str,
        /// The offending key.
        key: String,
    },
    /// The override value did not parse for its key.
    InvalidValue {
        /// Key whose value failed to parse.
        key: String,
        /// The offending value.
        value: String,
    },
    /// A textual override specification was not of the form `key=value`.
    MalformedOverride {
        /// The offending specification string.
        spec: String,
    },
    /// The `scheduler=` override named no registered scheduler (see
    /// [`SCHEDULER_NAMES`]).
    UnknownScheduler(String),
    /// The `exec=` override named no registered execution model (see
    /// [`EXEC_MODEL_NAMES`]).
    UnknownExecModel(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownEngine(name) => {
                write!(
                    f,
                    "unknown engine '{name}' (known: {})",
                    ENGINE_NAMES.join(", ")
                )
            }
            RegistryError::UnknownKey { engine, key } => {
                write!(f, "engine '{engine}' has no configuration key '{key}'")
            }
            RegistryError::InvalidValue { key, value } => {
                write!(f, "invalid value '{value}' for key '{key}'")
            }
            RegistryError::MalformedOverride { spec } => {
                write!(f, "malformed override '{spec}' (expected key=value)")
            }
            RegistryError::UnknownScheduler(name) => {
                write!(
                    f,
                    "unknown scheduler '{name}' (known: {})",
                    SCHEDULER_NAMES.join(", ")
                )
            }
            RegistryError::UnknownExecModel(name) => {
                write!(
                    f,
                    "unknown execution model '{name}' (known: {})",
                    EXEC_MODEL_NAMES.join(", ")
                )
            }
        }
    }
}

impl std::error::Error for RegistryError {}

fn parse<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, RegistryError> {
    value.parse().map_err(|_| RegistryError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    })
}

/// Applies the DRAM keys shared by every engine; returns `true` if `key`
/// was one of them.
fn apply_dram_key(dram: &mut DramConfig, key: &str, value: &str) -> Result<bool, RegistryError> {
    match key {
        "dram_gbps" => {
            // Bandwidth divides every transfer: zero, negative and
            // non-finite values would only panic later, mid-run.
            let gbps: f64 = parse(key, value)?;
            if !(gbps.is_finite() && gbps > 0.0) {
                return Err(RegistryError::InvalidValue {
                    key: key.to_string(),
                    value: value.to_string(),
                });
            }
            dram.bytes_per_cycle = gbps;
        }
        "dram_latency_cycles" => dram.latency_cycles = parse(key, value)?,
        "dram_request_overhead_cycles" => dram.request_overhead_cycles = parse(key, value)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Applies the multi-PE keys shared by every engine (`pes=N`,
/// `scheduler=rr|lpt|ws|ca`, `exec=post_hoc|e2e`, and the banked-memory
/// topology `channels=N` / `banks=N`); returns `true` if `key` was one of
/// them.
fn apply_schedule_key(
    cfg: &mut MultiPeConfig,
    key: &str,
    value: &str,
) -> Result<bool, RegistryError> {
    let positive = |key: &str, value: &str| -> Result<usize, RegistryError> {
        let n: usize = parse(key, value)?;
        if n == 0 {
            return Err(RegistryError::InvalidValue {
                key: key.to_string(),
                value: value.to_string(),
            });
        }
        Ok(n)
    };
    match key {
        "pes" => cfg.pes = positive(key, value)?,
        "channels" => cfg.topology.channels = positive(key, value)?,
        "banks" => cfg.topology.banks = positive(key, value)?,
        "scheduler" => {
            cfg.scheduler = SchedulerKind::parse(value)
                .ok_or_else(|| RegistryError::UnknownScheduler(value.to_string()))?;
        }
        "exec" => {
            cfg.exec = ExecModelKind::parse(value)
                .ok_or_else(|| RegistryError::UnknownExecModel(value.to_string()))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Applies the `shard_rows=off|auto|N` key shared by every engine (the
/// plan-pass sharding knob is engine-uniform since the [`crate::plan`]
/// port); returns `true` if `key` was it.
fn apply_shard_key(shard: &mut ShardRows, key: &str, value: &str) -> Result<bool, RegistryError> {
    if key != "shard_rows" {
        return Ok(false);
    }
    *shard = if value.eq_ignore_ascii_case("auto") {
        ShardRows::Auto
    } else if value.eq_ignore_ascii_case("off") {
        ShardRows::Off
    } else {
        ShardRows::from(parse::<usize>(key, value)?)
    };
    Ok(true)
}

/// Applies the `fault=off|spec[+spec..]` deterministic fault-injection
/// key shared by every engine (spec grammar:
/// `site:action[:nth[:attempts]]`, see [`grow_sim::fault::FaultPlan`]);
/// returns `true` if `key` was it.
fn apply_fault_key(fault: &mut FaultPlan, key: &str, value: &str) -> Result<bool, RegistryError> {
    if key != "fault" {
        return Ok(false);
    }
    *fault = FaultPlan::parse(value).map_err(|_| RegistryError::InvalidValue {
        key: key.to_string(),
        value: value.to_string(),
    })?;
    Ok(true)
}

fn grow_from(overrides: &[(&str, &str)]) -> Result<GrowEngine, RegistryError> {
    let mut cfg = GrowConfig::default();
    for &(key, value) in overrides {
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_shard_key(&mut cfg.shard_rows, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = parse(key, value)?,
            "hdn_cache_kb" => cfg.hdn_cache_bytes = parse::<u64>(key, value)? * 1024,
            "hdn_id_entries" => cfg.hdn_id_entries = parse(key, value)?,
            "ibuf_sparse_kb" => cfg.ibuf_sparse_bytes = parse::<u64>(key, value)? * 1024,
            "obuf_kb" => cfg.obuf_bytes = parse::<u64>(key, value)? * 1024,
            "runahead" => cfg.runahead = parse(key, value)?,
            "ldn_entries" => cfg.ldn_entries = parse(key, value)?,
            "lhs_id_entries" => cfg.lhs_id_entries = parse(key, value)?,
            "hdn_caching" => cfg.hdn_caching = parse(key, value)?,
            "replacement" => {
                cfg.replacement = match value.to_ascii_lowercase().as_str() {
                    "pinned" => ReplacementPolicy::Pinned,
                    "lru" => ReplacementPolicy::Lru,
                    _ => {
                        return Err(RegistryError::InvalidValue {
                            key: key.to_string(),
                            value: value.to_string(),
                        })
                    }
                }
            }
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "grow",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(GrowEngine::new(cfg))
}

fn gcnax_from(overrides: &[(&str, &str)]) -> Result<GcnaxEngine, RegistryError> {
    let mut cfg = GcnaxConfig::default();
    for &(key, value) in overrides {
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_shard_key(&mut cfg.shard_rows, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = parse(key, value)?,
            "tile_rows" => cfg.tile_rows = parse(key, value)?,
            "tile_cols" => cfg.tile_cols = parse(key, value)?,
            "dense_buffer_kb" => cfg.dense_buffer_bytes = parse::<u64>(key, value)? * 1024,
            "tile_fetch_depth" => cfg.tile_fetch_depth = parse(key, value)?,
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "gcnax",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(GcnaxEngine::new(cfg))
}

fn matraptor_from(overrides: &[(&str, &str)]) -> Result<MatRaptorEngine, RegistryError> {
    let mut cfg = MatRaptorConfig::default();
    for &(key, value) in overrides {
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_shard_key(&mut cfg.shard_rows, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = parse(key, value)?,
            "merge_factor" => cfg.merge_factor = parse(key, value)?,
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "matraptor",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(MatRaptorEngine::new(cfg))
}

fn gamma_from(overrides: &[(&str, &str)]) -> Result<GammaEngine, RegistryError> {
    let mut cfg = GammaConfig::default();
    for &(key, value) in overrides {
        if apply_dram_key(&mut cfg.dram, key, value)?
            || apply_schedule_key(&mut cfg.multi_pe, key, value)?
            || apply_shard_key(&mut cfg.shard_rows, key, value)?
            || apply_fault_key(&mut cfg.fault, key, value)?
        {
            continue;
        }
        match key {
            "mac_lanes" => cfg.mac_lanes = parse(key, value)?,
            "fiber_cache_kb" => cfg.fiber_cache_bytes = parse::<u64>(key, value)? * 1024,
            "merge_factor" => cfg.merge_factor = parse(key, value)?,
            _ => {
                return Err(RegistryError::UnknownKey {
                    engine: "gamma",
                    key: key.to_string(),
                })
            }
        }
    }
    Ok(GammaEngine::new(cfg))
}

/// Resolves `name` (case-insensitively) to its canonical [`ENGINE_NAMES`]
/// entry — the stable spelling job keys and caches should be built on.
///
/// # Errors
///
/// Returns [`RegistryError::UnknownEngine`] for unknown names.
pub fn canonical_name(name: &str) -> Result<&'static str, RegistryError> {
    ENGINE_NAMES
        .iter()
        .copied()
        .find(|n| n.eq_ignore_ascii_case(name))
        .ok_or_else(|| RegistryError::UnknownEngine(name.to_string()))
}

/// Splits a textual `key=value` override into its parts, trimming
/// whitespace around both — the form CLI flags, config files, and
/// `grow_serve` job definitions carry overrides in.
///
/// # Errors
///
/// Returns [`RegistryError::MalformedOverride`] when `spec` has no `=`,
/// or an empty key or value.
pub fn parse_override(spec: &str) -> Result<(String, String), RegistryError> {
    match spec.split_once('=') {
        Some((key, value)) if !key.trim().is_empty() && !value.trim().is_empty() => {
            Ok((key.trim().to_string(), value.trim().to_string()))
        }
        _ => Err(RegistryError::MalformedOverride {
            spec: spec.to_string(),
        }),
    }
}

/// Parses a list of `key=value` specifications (see [`parse_override`]).
///
/// # Errors
///
/// Returns the first [`RegistryError::MalformedOverride`] encountered.
pub fn parse_overrides<S: AsRef<str>>(specs: &[S]) -> Result<Vec<(String, String)>, RegistryError> {
    specs.iter().map(|s| parse_override(s.as_ref())).collect()
}

/// Builds an engine by (case-insensitive) name with its default
/// configuration modified by `overrides`.
///
/// # Errors
///
/// Returns [`RegistryError`] for unknown names, unknown keys, or values
/// that fail to parse.
pub fn engine_from_overrides(
    name: &str,
    overrides: &[(&str, &str)],
) -> Result<Box<dyn Accelerator>, RegistryError> {
    match name.to_ascii_lowercase().as_str() {
        "grow" => Ok(Box::new(grow_from(overrides)?)),
        "gcnax" => Ok(Box::new(gcnax_from(overrides)?)),
        "matraptor" => Ok(Box::new(matraptor_from(overrides)?)),
        "gamma" => Ok(Box::new(gamma_from(overrides)?)),
        _ => Err(RegistryError::UnknownEngine(name.to_string())),
    }
}

/// Builds a default-configured engine by (case-insensitive) name.
///
/// # Errors
///
/// Returns [`RegistryError::UnknownEngine`] for unknown names.
pub fn engine_by_name(name: &str) -> Result<Box<dyn Accelerator>, RegistryError> {
    engine_from_overrides(name, &[])
}

/// Runs the named engine (default configuration) on a prepared workload.
///
/// # Errors
///
/// Returns [`RegistryError::UnknownEngine`] for unknown names.
pub fn run_named(name: &str, workload: &PreparedWorkload) -> Result<RunReport, RegistryError> {
    Ok(engine_by_name(name)?.run(workload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{prepare, PartitionStrategy};
    use grow_model::DatasetKey;

    fn prepared() -> PreparedWorkload {
        let w = DatasetKey::Pubmed.spec().scaled_to(400).instantiate(3);
        prepare(&w, PartitionStrategy::None, 4096)
    }

    #[test]
    fn all_names_resolve_and_run() {
        let p = prepared();
        for name in ENGINE_NAMES {
            let report = run_named(name, &p).unwrap();
            assert!(report.total_cycles() > 0, "{name}");
        }
    }

    #[test]
    fn names_are_case_insensitive() {
        assert_eq!(engine_by_name("GROW").unwrap().name(), "GROW");
        assert_eq!(engine_by_name("MatRaptor").unwrap().name(), "MatRaptor");
    }

    #[test]
    fn unknown_engine_is_reported() {
        let err = engine_by_name("tpu").err().expect("unknown engine");
        assert_eq!(err, RegistryError::UnknownEngine("tpu".into()));
        assert!(err.to_string().contains("grow"));
    }

    #[test]
    fn overrides_change_behavior() {
        let p = prepared();
        let slow = engine_from_overrides("grow", &[("dram_gbps", "8")])
            .unwrap()
            .run(&p);
        let fast = engine_from_overrides("grow", &[("dram_gbps", "256")])
            .unwrap()
            .run(&p);
        assert!(slow.total_cycles() > fast.total_cycles());
        assert_eq!(slow.mac_ops(), fast.mac_ops());
    }

    #[test]
    fn overrides_match_typed_config() {
        let p = prepared();
        let via_registry = engine_from_overrides(
            "grow",
            &[
                ("hdn_cache_kb", "64"),
                ("runahead", "4"),
                ("replacement", "lru"),
            ],
        )
        .unwrap()
        .run(&p);
        let typed = GrowEngine::new(GrowConfig {
            hdn_cache_bytes: 64 * 1024,
            runahead: 4,
            replacement: ReplacementPolicy::Lru,
            ..GrowConfig::default()
        })
        .run(&p);
        assert_eq!(via_registry, typed);
    }

    #[test]
    fn unknown_key_and_bad_value_are_reported() {
        assert_eq!(
            engine_from_overrides("gcnax", &[("runahead", "4")])
                .err()
                .expect("must fail"),
            RegistryError::UnknownKey {
                engine: "gcnax",
                key: "runahead".into()
            }
        );
        assert_eq!(
            engine_from_overrides("grow", &[("runahead", "many")])
                .err()
                .expect("must fail"),
            RegistryError::InvalidValue {
                key: "runahead".into(),
                value: "many".into()
            }
        );
        assert_eq!(
            engine_from_overrides("grow", &[("replacement", "fifo")])
                .err()
                .expect("must fail"),
            RegistryError::InvalidValue {
                key: "replacement".into(),
                value: "fifo".into()
            }
        );
    }

    #[test]
    fn canonical_name_normalizes_case() {
        assert_eq!(canonical_name("GROW").unwrap(), "grow");
        assert_eq!(canonical_name("MatRaptor").unwrap(), "matraptor");
        assert_eq!(
            canonical_name("npu"),
            Err(RegistryError::UnknownEngine("npu".into()))
        );
    }

    #[test]
    fn parse_override_splits_and_trims() {
        assert_eq!(
            parse_override("runahead=4").unwrap(),
            ("runahead".into(), "4".into())
        );
        assert_eq!(
            parse_override(" hdn_cache_kb = 256 ").unwrap(),
            ("hdn_cache_kb".into(), "256".into())
        );
        // Values may themselves contain '=' (split at the first one).
        assert_eq!(parse_override("k=a=b").unwrap(), ("k".into(), "a=b".into()));
        for bad in ["runahead", "=4", "runahead=", " = ", ""] {
            assert_eq!(
                parse_override(bad),
                Err(RegistryError::MalformedOverride { spec: bad.into() }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn parse_overrides_reports_first_malformed() {
        let specs = ["mac_lanes=32".to_string(), "oops".to_string()];
        assert_eq!(
            parse_overrides(&specs),
            Err(RegistryError::MalformedOverride {
                spec: "oops".into()
            })
        );
        let good = ["a=1", "b=2"];
        assert_eq!(parse_overrides(&good).unwrap().len(), 2);
    }

    #[test]
    fn every_engine_accepts_shared_dram_keys() {
        for name in ENGINE_NAMES {
            assert!(
                engine_from_overrides(name, &[("dram_gbps", "64"), ("mac_lanes", "32")]).is_ok(),
                "{name}"
            );
        }
    }

    #[test]
    fn every_engine_accepts_shared_schedule_keys() {
        let p = prepared();
        for name in ENGINE_NAMES {
            for scheduler in crate::schedule::SCHEDULER_NAMES {
                let report = engine_from_overrides(name, &[("scheduler", scheduler), ("pes", "4")])
                    .unwrap_or_else(|e| panic!("{name}/{scheduler}: {e}"))
                    .run(&p);
                let summary = report.multi_pe.expect("summary attached");
                assert_eq!(summary.scheduler, scheduler);
                assert_eq!(summary.pes, 4);
                assert_eq!(summary.per_pe_busy.len(), 4);
            }
        }
    }

    #[test]
    fn scheduler_and_pes_overrides_are_validated() {
        assert_eq!(
            engine_from_overrides("grow", &[("scheduler", "bogus")])
                .err()
                .expect("must fail"),
            RegistryError::UnknownScheduler("bogus".into())
        );
        let message = RegistryError::UnknownScheduler("bogus".into()).to_string();
        for name in crate::schedule::SCHEDULER_NAMES {
            assert!(message.contains(name), "{message}");
        }
        for bad_pes in ["0", "-3", "many"] {
            assert_eq!(
                engine_from_overrides("gamma", &[("pes", bad_pes)])
                    .err()
                    .expect("must fail"),
                RegistryError::InvalidValue {
                    key: "pes".into(),
                    value: bad_pes.into()
                },
                "{bad_pes}"
            );
        }
    }

    #[test]
    fn every_engine_accepts_banked_topology_keys() {
        let p = prepared();
        for name in ENGINE_NAMES {
            let report = engine_from_overrides(
                name,
                &[
                    ("exec", "e2e"),
                    ("pes", "4"),
                    ("channels", "4"),
                    ("banks", "8"),
                ],
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run(&p);
            assert!(report.multi_pe_breakdown().is_some(), "{name}");
        }
    }

    #[test]
    fn banked_topology_overrides_are_validated() {
        for key in ["channels", "banks"] {
            for bad in ["0", "-3", "many"] {
                assert_eq!(
                    engine_from_overrides("grow", &[(key, bad)])
                        .err()
                        .expect("must fail"),
                    RegistryError::InvalidValue {
                        key: key.into(),
                        value: bad.into()
                    },
                    "{key}={bad}"
                );
            }
        }
    }

    #[test]
    fn scheduler_override_matches_typed_config() {
        let p = prepared();
        let via_registry = engine_from_overrides("grow", &[("scheduler", "ws"), ("pes", "8")])
            .unwrap()
            .run(&p);
        let typed = GrowEngine::new(GrowConfig {
            multi_pe: MultiPeConfig {
                pes: 8,
                scheduler: SchedulerKind::WorkStealing,
                ..MultiPeConfig::default()
            },
            ..GrowConfig::default()
        })
        .run(&p);
        assert_eq!(via_registry, typed);
    }

    #[test]
    fn exec_override_selects_the_execution_model() {
        let p = prepared();
        for name in ENGINE_NAMES {
            let post_hoc = engine_from_overrides(name, &[("exec", "post_hoc")])
                .unwrap()
                .run(&p);
            assert_eq!(post_hoc.exec, "post_hoc");
            let e2e = engine_from_overrides(name, &[("exec", "e2e"), ("pes", "4")])
                .unwrap()
                .run(&p);
            assert_eq!(e2e.exec, "e2e", "{name}");
            assert!(e2e.multi_pe_breakdown().is_some(), "{name}");
            assert!(post_hoc.multi_pe_breakdown().is_none(), "{name}");
        }
        assert_eq!(
            engine_from_overrides("grow", &[("exec", "sideways")])
                .err()
                .expect("must fail"),
            RegistryError::UnknownExecModel("sideways".into())
        );
        let message = RegistryError::UnknownExecModel("sideways".into()).to_string();
        for name in crate::exec_model::EXEC_MODEL_NAMES {
            assert!(message.contains(name), "{message}");
        }
    }

    #[test]
    fn shard_rows_accepts_auto_and_integers() {
        let p = prepared();
        for name in ENGINE_NAMES {
            let auto = engine_from_overrides(name, &[("shard_rows", "auto")])
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .run(&p);
            let fixed = engine_from_overrides(name, &[("shard_rows", "64")])
                .unwrap()
                .run(&p);
            let off = engine_from_overrides(name, &[("shard_rows", "0")])
                .unwrap()
                .run(&p);
            let off_word = engine_from_overrides(name, &[("shard_rows", "off")])
                .unwrap()
                .run(&p);
            // Sharding is a throughput knob: all four report identically.
            assert_eq!(auto, fixed, "{name}");
            assert_eq!(auto, off, "{name}");
            assert_eq!(auto, off_word, "{name}");
            assert_eq!(
                engine_from_overrides(name, &[("shard_rows", "many")])
                    .err()
                    .expect("must fail"),
                RegistryError::InvalidValue {
                    key: "shard_rows".into(),
                    value: "many".into()
                },
                "{name}"
            );
        }
    }
}
