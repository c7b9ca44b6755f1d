//! Metric names and units, order statistics, report hashing, and the
//! result line.

use std::fmt::Write as _;

use grow_core::RunReport;

/// End-to-end metrics (`--trace 0`), in output order, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("restart_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("sim_speedup_grow_vs_gcnax", "x"),
    ("sim_dram_ratio_grow_vs_gcnax", "x"),
];

/// Engines in registry order; each has `engine.<name>.run_s` and
/// `engine.<name>.sim_mcycles_per_s`.
pub const ENGINES: [&str; 4] = ["grow", "gcnax", "gamma", "matraptor"];

/// Per-layer metrics (`--trace 1`), in output order, with units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("graph.generate_s", "s"),
        ("graph.generate_ns_per_edge", "ns/edge"),
        ("model.features_s", "s"),
        ("partition.multilevel_s", "s"),
        ("partition.intra_edge_fraction", "ratio"),
        ("prepare.none_s", "s"),
        ("prepare.multilevel_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for engine in ENGINES {
        out.push((format!("engine.{engine}.run_s"), "s"));
        out.push((format!("engine.{engine}.sim_mcycles_per_s"), "Mcycles/s"));
    }
    out.extend(
        [
            ("engine.grow.plan_s", "s"),
            ("engine.grow.replay_s", "s"),
            ("plan_cache.hits", "count"),
            ("plan_cache.misses", "count"),
            ("plan_cache.hit_ratio", "ratio"),
            ("exec_model.e2e_run_s", "s"),
            ("exec.parallel_speedup", "x"),
            ("exec.busy_ratio", "ratio"),
            ("serve.simulations_run", "count"),
            ("serve.preparations_run", "count"),
            ("serve.sessions_created", "count"),
            ("serve.cache_hit_ratio", "ratio"),
            ("serve.store_hits", "count"),
            ("serve.retries", "count"),
            ("serve.jobs_in_flight_peak", "count"),
            ("serve.sim_ms_sum", "ms"),
            ("serve.wait_ms_p50", "ms"),
            ("store.load_us", "us"),
            ("store.persist_us", "us"),
            ("store.entry_bytes", "bytes"),
            ("store.hits", "count"),
            ("store.misses", "count"),
            ("store.persisted", "count"),
            ("store.quarantined", "count"),
            ("trace.coverage", "ratio"),
            ("trace.overhead", "ratio"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    out
}

/// Named metric values of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every metric
/// of `spec` with its unit. A metric missing from `values`, or one that
/// is not finite, makes the run incorrect rather than printing bad JSON.
pub fn result_line(
    mut correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(String, &str)],
    values: &Metrics,
) -> String {
    let mut metrics = String::new();
    for (i, (name, unit)) in spec.iter().enumerate() {
        let value = match values.get(name) {
            Some(v) if v.is_finite() => v,
            _ => {
                correct = false;
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit and always prints a decimal point.
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}"
    )
}

/// Linear-interpolation quantile (`q` in 0..=1) of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn fnv1a64(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Hash of a report's full rendering. `Debug` prints every counter and
/// every `f64` in shortest round-trip form (signed zeros included), so
/// equal hashes mean bit-identical reports up to a 64-bit collision.
pub fn report_hash(report: &RunReport) -> u64 {
    fnv1a64(format!("{report:?}").as_bytes(), FNV_BASIS)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
