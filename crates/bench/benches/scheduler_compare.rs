//! Scheduler-comparison bench (the Figure 24 scheduler axis): runs the
//! fluid multi-PE model's post-hoc projection under every cluster
//! scheduler (`rr`, `lpt`, `ws`, `ca`) across PE counts on synthetic
//! power-law workloads, timing each cell and recording its makespan and
//! load-imbalance ratio.
//!
//! Like the other benches this is a hand-rolled `harness = false` binary
//! (no crates.io access for Criterion). Run with
//! `cargo bench -p grow-bench --bench scheduler_compare`; a
//! machine-readable summary is written to `results/BENCH_figure24.json`
//! (override the directory with `BENCH_OUT=dir`).

use std::hint::black_box;

use grow_bench::{json, timing};
use grow_core::schedule::{power_law_profiles, SchedulerKind};
use grow_core::{multi_pe, ClusterProfile};

struct Cell {
    workload: &'static str,
    scheduler: &'static str,
    pes: usize,
    makespan: f64,
    imbalance: f64,
    speedup_vs_rr: f64,
    mean_ns: f64,
}

fn bench_workload(name: &'static str, profiles: &[ClusterProfile], rows: &mut Vec<Cell>) {
    for pes in [2usize, 4, 8, 16] {
        // RoundRobin is first in `ALL`, so the speedup baseline falls out
        // of the same loop.
        let mut rr_makespan = f64::NAN;
        for kind in SchedulerKind::ALL {
            let run = multi_pe::simulate_with(profiles, pes, 4.0, kind);
            if kind == SchedulerKind::RoundRobin {
                rr_makespan = run.makespan;
            }
            let t = timing::sample(10, || {
                black_box(multi_pe::simulate_with(profiles, pes, 4.0, kind).makespan);
            });
            println!(
                "{name:<18} {:<4} pes={pes:<3} makespan={:>14.0} imbalance={:>5.2} \
                 {:>10.1} us/iter",
                kind.name(),
                run.makespan,
                run.imbalance(),
                t.mean_ns / 1e3,
            );
            rows.push(Cell {
                workload: name,
                scheduler: kind.name(),
                pes,
                makespan: run.makespan,
                imbalance: run.imbalance(),
                speedup_vs_rr: rr_makespan / run.makespan,
                mean_ns: t.mean_ns,
            });
        }
    }
}

fn main() {
    let mut rows = Vec::new();
    // Two heavy-tailed cluster populations: many small clusters (fine
    // partitioning) and few coarse ones (where imbalance bites hardest).
    bench_workload("powerlaw_512_s42", &power_law_profiles(512, 42), &mut rows);
    bench_workload("powerlaw_48_s7", &power_law_profiles(48, 7), &mut rows);

    // Same row schema as the `figure24` experiment (which writes this
    // file from real dataset runs — `source` tells the two apart; the
    // bench rows additionally carry per-cell timing and name synthetic
    // workloads instead of datasets).
    let out_dir = std::env::var("BENCH_OUT").unwrap_or_else(|_| "results".into());
    let entries: Vec<String> = rows
        .iter()
        .map(|c| {
            json::object(&[
                ("workload", json::string(c.workload)),
                ("scheduler", json::string(c.scheduler)),
                ("pes", json::uint(c.pes as u64)),
                ("makespan", json::number(c.makespan)),
                ("imbalance", json::number(c.imbalance)),
                ("speedup_vs_rr", json::number(c.speedup_vs_rr)),
                ("mean_ns", json::number(c.mean_ns)),
            ])
        })
        .collect();
    let doc = json::object(&[
        ("source", json::string("bench")),
        ("rows", json::array(entries)),
    ]);
    let path = std::path::Path::new(&out_dir).join("BENCH_figure24.json");
    match std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, doc)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}
