//! The repository benchmark. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_reddit --seed 42 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).

mod drive;
mod fleet;
mod layers;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use grow_serve::{JobSpec, StoreStats};

use drive::{Iteration, Lifetime};
use fleet::{Fleet, Scale};
use layers::Reference;
use stats::{median, quantile, ratio, report_hash, Metrics};
use trace::Tracer;

/// The seed whose report digests are recorded in `expected_digests.txt`.
const DIGEST_SEED: u64 = 42;
const EXPECTED_DIGESTS: &str = include_str!("../expected_digests.txt");

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DIGEST_SEED,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !fleet::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            fleet::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Threads the simulator may use: 1 under `GROW_SERIAL`, else
/// `GROW_THREADS` or the hardware thread count. Refuses a `GROW_THREADS`
/// above the hardware count, so oversubscribed numbers are never recorded.
fn thread_budget(grow_threads: Option<&str>, serial: bool, hw: usize) -> Result<usize, String> {
    let threads = match grow_threads {
        None => hw,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > hw => {
                return Err(format!(
                    "GROW_THREADS={n} exceeds the {hw} hardware threads; unset it or set it to at most {hw}"
                ))
            }
            Ok(n) if n > 0 => n,
            _ => return Err(format!("GROW_THREADS='{v}' is not a positive integer")),
        },
    };
    Ok(if serial { 1 } else { threads })
}

fn effective_threads() -> Result<usize, String> {
    let serial = std::env::var_os("GROW_SERIAL").is_some_and(|v| !v.is_empty() && v != "0");
    thread_budget(
        std::env::var("GROW_THREADS").ok().as_deref(),
        serial,
        hardware_threads(),
    )
}

fn host_stamp() -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    // Only the repository this package sits in, never an enclosing one.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = Some(root.join(".git"))
        .filter(|git| git.exists())
        .and_then(|_| {
            std::process::Command::new("git")
                .arg("-C")
                .arg(&root)
                .args(["rev-parse", "--short=12", "HEAD"])
                .output()
                .ok()
        })
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "host: nproc={} GROW_SERIAL={} GROW_THREADS={} rustc=\"{}\" commit={commit}",
        hardware_threads(),
        env("GROW_SERIAL"),
        env("GROW_THREADS"),
        env!("PERFBENCH_RUSTC"),
    )
}

/// The outcome of one benchmark run.
pub struct RunOut {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub notes: Vec<String>,
}

/// Every job the fleet submits, set-up included, in submission order.
fn all_jobs(fleet: &Fleet) -> Vec<JobSpec> {
    fleet
        .setup
        .iter()
        .chain(&fleet.timed)
        .chain(&fleet.restart)
        .cloned()
        .collect()
}

/// Counts submissions and those that failed or whose report differs
/// from the reference pass.
fn check(iterations: &[Iteration], reference: &Reference, notes: &mut Vec<String>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for it in iterations {
        for (key, outcome) in it.lifetimes().flat_map(|l| &l.outcomes) {
            attempted += 1;
            let error = match outcome {
                Ok(hash) if reference.report(key).map(report_hash) == Some(*hash) => continue,
                Ok(_) => "report differs from the reference",
                Err(e) => e.as_str(),
            };
            failed += 1;
            if failed <= 10 {
                notes.push(format!("failed: {key}: {error}"));
            }
        }
    }
    (attempted, failed)
}

/// Compares the reference digest with the recorded one at the digest seed.
fn digest_ok(
    workload: &str,
    seed: u64,
    scale: Scale,
    reference: &Reference,
    notes: &mut Vec<String>,
) -> bool {
    let digest = format!("{:016x}", reference.digest());
    notes.push(format!("digest: {digest}"));
    if scale != Scale::Full || seed != DIGEST_SEED {
        return true;
    }
    let recorded = EXPECTED_DIGESTS
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(w, _)| *w == workload)
        .map(|(_, d)| d.trim());
    if recorded != Some(digest.as_str()) {
        notes.push(format!(
            "digest mismatch: recorded {recorded:?}, measured {digest}"
        ));
        return false;
    }
    true
}

/// `sim_speedup_grow_vs_gcnax` and `sim_dram_ratio_grow_vs_gcnax`, summed
/// over every default GROW job of the timed fleet on the primary strategy
/// and the default GCNAX job on the same workload's original order.
fn sim_ratios(fleet: &Fleet, reference: &Reference) -> (f64, f64) {
    let (mut grow_cycles, mut gcnax_cycles, mut grow_dram, mut gcnax_dram) =
        (0u64, 0u64, 0u64, 0u64);
    let defaults = fleet
        .timed
        .iter()
        .filter(|j| j.engine == "grow" && j.overrides.is_empty() && j.strategy == fleet.primary.2);
    for grow in defaults {
        let gcnax = JobSpec::new(grow.dataset, grow.seed, "gcnax");
        if let (Some(g), Some(x)) = (
            reference.report(grow.key().as_str()),
            reference.report(gcnax.key().as_str()),
        ) {
            grow_cycles += g.total_cycles();
            gcnax_cycles += x.total_cycles();
            grow_dram += g.dram_bytes();
            gcnax_dram += x.dram_bytes();
        }
    }
    (
        ratio(gcnax_cycles as f64, grow_cycles as f64),
        ratio(grow_dram as f64, gcnax_dram as f64),
    )
}

/// `--trace 0`: iterations until `seconds` have passed, then the
/// reference pass for the correctness gate.
pub fn measure(
    workload: &str,
    fleet: &Fleet,
    seed: u64,
    seconds: u64,
    scale: Scale,
) -> std::io::Result<RunOut> {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut iterations = Vec::new();
    let mut peak_rss_mb = 0.0;
    for index in 0.. {
        iterations.push(drive::iterate(fleet, workload, index)?);
        if index == 0 {
            // One cold iteration in a fresh process: later iterations
            // start from whatever the allocator kept from earlier ones.
            peak_rss_mb = stats::peak_rss_mb();
        }
        if started.elapsed() >= budget {
            break;
        }
    }
    let reference =
        layers::reference_pass(&all_jobs(fleet), fleet.primary, &mut Tracer::new(false));
    let mut notes = Vec::new();
    let (attempted, failed) = check(&iterations, &reference, &mut notes);
    let correct = failed == 0 && digest_ok(workload, seed, scale, &reference, &mut notes);

    let pick = |f: &dyn Fn(&Iteration) -> f64| iterations.iter().map(f).collect::<Vec<f64>>();
    let latency: Vec<f64> = iterations
        .iter()
        .flat_map(|i| i.timed.latency_ms.iter().copied())
        .collect();
    let (speedup, dram) = sim_ratios(fleet, &reference);
    let mut m = Metrics::default();
    m.set("wall_s", median(&pick(&|i| i.timed.wall_s)));
    m.set("setup_s", median(&pick(&|i| i.setup_s)));
    let restarts: Vec<f64> = iterations
        .iter()
        .flat_map(|i| i.restarts.iter().map(|l| l.wall_s))
        .collect();
    m.set("restart_s", median(&restarts));
    m.set("latency_p50_ms", quantile(&latency, 0.5));
    m.set("latency_p90_ms", quantile(&latency, 0.9));
    m.set("peak_rss_mb", peak_rss_mb);
    m.set(
        "ok_ratio",
        ratio((attempted - failed) as f64, attempted as f64),
    );
    m.set("sim_speedup_grow_vs_gcnax", speedup);
    m.set("sim_dram_ratio_grow_vs_gcnax", dram);
    let walls: Vec<String> = iterations
        .iter()
        .map(|i| format!("{:.3}", i.timed.wall_s))
        .collect();
    notes.push(format!("wall_s per iteration: {}", walls.join(" ")));
    notes.push(format!(
        "iterations: {}; latency samples: {}; failed_ratio: {}",
        iterations.len(),
        latency.len(),
        ratio(failed as f64, attempted as f64)
    ));
    Ok(RunOut {
        correct,
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

fn add_store(a: StoreStats, b: StoreStats) -> StoreStats {
    StoreStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        persisted: a.persisted + b.persisted,
        quarantined: a.quarantined + b.quarantined,
    }
}

/// `--trace 1`: one untraced iteration through the service, the
/// reference pass untraced and traced, then the single-layer probes.
pub fn traced(
    workload: &str,
    fleet: &Fleet,
    seed: u64,
    scale: Scale,
    threads: usize,
) -> std::io::Result<RunOut> {
    let iteration = drive::iterate(fleet, workload, 0)?;
    let jobs = all_jobs(fleet);
    let started = Instant::now();
    let untraced = layers::reference_pass(&jobs, fleet.primary, &mut Tracer::new(false));
    let untraced_s = started.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    let reference = layers::reference_pass(&jobs, fleet.primary, &mut tracer);
    let reference_s = started.elapsed().as_secs_f64();
    let probes = layers::probes(&reference, &mut tracer)?;
    let traced_s = started.elapsed().as_secs_f64();

    let mut notes = Vec::new();
    let iterations = [iteration];
    let (attempted, mut failed) = check(&iterations, &reference, &mut notes);
    let same = reference.jobs.len() == untraced.jobs.len()
        && reference
            .jobs
            .iter()
            .zip(&untraced.jobs)
            .all(|(a, b)| a.key == b.key && a.hash() == b.hash() && a.hash().is_some());
    if !same {
        notes.push("traced and untraced reference passes differ".into());
    }
    for m in &probes.mismatches {
        notes.push(format!("probe: {m}"));
    }
    failed += probes.mismatches.len() as u64;
    let correct = failed == 0 && same && digest_ok(workload, seed, scale, &reference, &mut notes);

    // Service-side counters of the timed lifetime and the first restart.
    let served = [&iterations[0].timed, &iterations[0].restarts[0]];
    let sum = |f: &dyn Fn(&Lifetime) -> f64| served.iter().map(|l| f(l)).sum::<f64>();
    let job_ms: Vec<f64> = served
        .iter()
        .flat_map(|l| l.job_wall_ms.iter().map(|w| w.unwrap_or(0.0)))
        .collect();
    let waits: Vec<f64> = served
        .iter()
        .flat_map(|l| {
            l.latency_ms
                .iter()
                .zip(&l.job_wall_ms)
                .map(|(lat, w)| lat - w.unwrap_or(0.0))
        })
        .collect();
    let store = served
        .iter()
        .fold(probes.store, |acc, l| add_store(acc, l.store));

    let mut m = Metrics::default();
    let generate_s = tracer.named("graph.generate");
    m.set("graph.generate_s", generate_s);
    m.set(
        "graph.generate_ns_per_edge",
        ratio(generate_s * 1e9, reference.edges as f64),
    );
    m.set("model.features_s", tracer.named("model.features"));
    m.set(
        "partition.multilevel_s",
        tracer.named("partition.multilevel"),
    );
    m.set("partition.intra_edge_fraction", probes.intra_edge_fraction);
    m.set("prepare.none_s", tracer.named("prepare.none"));
    m.set("prepare.multilevel_s", tracer.named("prepare.multilevel"));
    for engine in stats::ENGINES {
        let run_s = tracer.named(&format!("engine.{engine}"));
        let cycles: u64 = reference
            .jobs
            .iter()
            .filter(|j| j.engine == engine)
            .filter_map(|j| j.report.as_ref().ok())
            .map(|r| r.total_cycles())
            .sum();
        m.set(&format!("engine.{engine}.run_s"), run_s);
        m.set(
            &format!("engine.{engine}.sim_mcycles_per_s"),
            ratio(cycles as f64 * 1e-6, run_s),
        );
    }
    let (cold, warm) = (
        tracer.named("engine.grow.cold_scope"),
        tracer.named("engine.grow.warm_scope"),
    );
    m.set("engine.grow.plan_s", cold - warm);
    m.set("engine.grow.replay_s", warm);
    let hits = sum(&|l| l.stats.plan_cache_hits as f64);
    let misses = sum(&|l| l.plan_misses as f64);
    m.set("plan_cache.hits", hits);
    m.set("plan_cache.misses", misses);
    m.set("plan_cache.hit_ratio", ratio(hits, hits + misses));
    m.set("exec_model.e2e_run_s", tracer.named("exec_model.e2e"));
    m.set(
        "exec.parallel_speedup",
        ratio(tracer.named("exec.serial"), tracer.named("exec.parallel")),
    );
    m.set(
        "exec.busy_ratio",
        ratio(
            job_ms.iter().sum::<f64>(),
            sum(&|l| l.wall_s) * 1e3 * threads as f64,
        ),
    );
    m.set(
        "serve.simulations_run",
        sum(&|l| l.stats.simulations_run as f64),
    );
    m.set(
        "serve.preparations_run",
        sum(&|l| l.stats.preparations_run as f64),
    );
    m.set(
        "serve.sessions_created",
        sum(&|l| l.stats.sessions_created as f64),
    );
    m.set(
        "serve.cache_hit_ratio",
        ratio(
            sum(&|l| l.stats.cache_hits as f64),
            sum(&|l| l.stats.jobs_submitted as f64),
        ),
    );
    m.set("serve.store_hits", sum(&|l| l.stats.store_hits as f64));
    m.set("serve.retries", sum(&|l| l.stats.retries as f64));
    m.set(
        "serve.jobs_in_flight_peak",
        served
            .iter()
            .map(|l| l.stats.jobs_in_flight_peak as f64)
            .fold(0.0, f64::max),
    );
    m.set("serve.sim_ms_sum", job_ms.iter().sum());
    m.set("serve.wait_ms_p50", median(&waits));
    let per_entry_us = |name: &str| {
        let n = tracer.spans.iter().filter(|s| s.name == name).count();
        ratio(tracer.named(name) * 1e6, n as f64)
    };
    m.set("store.load_us", per_entry_us("store.load"));
    m.set("store.persist_us", per_entry_us("store.persist"));
    m.set("store.entry_bytes", probes.entry_bytes);
    m.set("store.hits", store.hits as f64);
    m.set("store.misses", store.misses as f64);
    m.set("store.persisted", store.persisted as f64);
    m.set("store.quarantined", store.quarantined as f64);
    m.set("trace.coverage", ratio(tracer.total(|_| true), traced_s));
    m.set(
        "trace.overhead",
        ratio(reference_s - untraced_s, untraced_s),
    );

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{workload}-seed{seed}.jsonl"));
    if scale == Scale::Full {
        tracer.write(&path)?;
        notes.push(format!("spans: {}", path.display()));
    }
    Ok(RunOut {
        correct,
        attempted,
        failed,
        metrics: m,
        notes,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                fleet::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = match effective_threads() {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_stamp());
    let fleet = fleet::fleet(&args.workload, args.seed, Scale::Full).expect("workload validated");
    let out = if args.trace {
        traced(&args.workload, &fleet, args.seed, Scale::Full, threads)
    } else {
        measure(&args.workload, &fleet, args.seed, args.seconds, Scale::Full)
    };
    let out = match out {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &out.notes {
        println!("{}: {note}", args.workload);
    }
    let spec: Vec<(String, &str)> = if args.trace {
        stats::per_layer()
    } else {
        stats::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, unit) in &spec {
        if let Some(v) = out.metrics.get(name) {
            println!("{}: {name} = {v} {unit}", args.workload);
        }
    }
    println!(
        "{}",
        stats::result_line(out.correct, out.attempted, out.failed, &spec, &out.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use layers::RefJob;

    fn assert_metrics(workload: &str, out: &RunOut, spec: &[(String, &str)]) {
        assert!(
            out.correct && out.failed == 0,
            "{workload}: {:?}",
            out.notes
        );
        let names: Vec<&str> = out.metrics.0.iter().map(|(n, _)| n.as_str()).collect();
        let expected: Vec<&str> = spec.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, expected, "{workload}: every metric, in order");
        let line = stats::result_line(out.correct, out.attempted, out.failed, spec, &out.metrics);
        assert!(line.starts_with("{\"correct\": true"), "{workload}: {line}");
        let contract = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json sits next to the benchmark directory");
        for (name, unit) in spec {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(contract.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn every_workload_emits_every_metric_at_tiny_scale() {
        let end_to_end: Vec<(String, &str)> = stats::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect();
        for workload in fleet::WORKLOADS {
            let fleet = fleet::fleet(workload, 3, Scale::Tiny).expect("known workload");
            let out = measure(workload, &fleet, 3, 0, Scale::Tiny).expect("tiny run");
            assert!(out.attempted > 0);
            assert_metrics(workload, &out, &end_to_end);
            let out = traced(workload, &fleet, 3, Scale::Tiny, 1).expect("tiny traced run");
            assert_metrics(workload, &out, &stats::per_layer());
        }
    }

    #[test]
    fn tracing_on_and_off_give_identical_reports() {
        for workload in fleet::WORKLOADS {
            let fleet = fleet::fleet(workload, 5, Scale::Tiny).expect("known workload");
            let jobs = all_jobs(&fleet);
            let off = layers::reference_pass(&jobs, fleet.primary, &mut Tracer::new(false));
            let mut tracer = Tracer::new(true);
            let on = layers::reference_pass(&jobs, fleet.primary, &mut tracer);
            assert!(!tracer.spans.is_empty());
            let hashes = |r: &Reference| r.jobs.iter().map(RefJob::hash).collect::<Vec<_>>();
            assert!(
                hashes(&off).iter().all(Option::is_some),
                "{workload}: every job ran"
            );
            assert_eq!(hashes(&off), hashes(&on), "{workload}");
        }
    }

    #[test]
    fn oversubscribed_thread_counts_are_refused() {
        assert_eq!(thread_budget(None, false, 2), Ok(2));
        assert_eq!(thread_budget(Some("1"), false, 2), Ok(1));
        assert_eq!(thread_budget(Some("2"), true, 2), Ok(1));
        assert!(thread_budget(Some("3"), false, 2).is_err());
        assert!(thread_budget(Some("0"), false, 2).is_err());
        assert!(thread_budget(Some("many"), false, 2).is_err());
    }

    #[test]
    fn arrangements_are_seeded() {
        let a = fleet::fleet("serve_restart", 9, Scale::Tiny).expect("known workload");
        let b = fleet::fleet("serve_restart", 9, Scale::Tiny).expect("known workload");
        let keys = |f: &Fleet, i| {
            f.submissions(i)
                .map(|l| l.iter().map(|(j, p)| (j.key(), *p)).collect::<Vec<_>>())
        };
        assert_eq!(keys(&a, 4), keys(&b, 4));
        assert_ne!(keys(&a, 4), keys(&a, 5));
        let [timed, restart] = a.submissions(0);
        assert_eq!((timed.len(), restart.len()), (104, 78));
    }
}
