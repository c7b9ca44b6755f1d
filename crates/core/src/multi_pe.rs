//! Multi-PE scaling model (Figure 24 / Section VII-F).
//!
//! The paper sweeps GROW from 1 to 16 processing engines "with a
//! proportional increase in memory bandwidth"; each PE processes different
//! graph clusters, and because "different PEs exhibit different memory
//! intensive phases at different times", PEs opportunistically use more
//! than their average bandwidth share — producing super-linear speedups on
//! the large graphs.
//!
//! This module reproduces that mechanism with a fluid (processor-sharing)
//! co-simulation over the per-cluster execution profiles that the detailed
//! single-PE simulator emits: every cluster-task needs `compute_cycles` of
//! MAC time and `mem_bytes` of DRAM transfer (overlapped); at any instant
//! the memory-demanding PEs split the shared channel by water-filling,
//! while compute-bound PEs leave their share to others.
//!
//! One event loop serves two entry points. [`simulate_with`] is the
//! post-hoc projection (the paper's Figure 24 methodology, used by
//! [`crate::schedule::summarize`] and the `fig24` curve);
//! [`simulate_e2e`] is the calibrated variant the end-to-end execution
//! model ([`crate::exec_model`]) composes phase cycle counts with, on the
//! uniform pipe or a banked channel topology. Which PE runs which cluster
//! is decided by [`SchedulerKind::dispatcher`] — see [`crate::schedule`]
//! for the policies (`rr`, `lpt`, `ws`, `ca`).

use grow_sim::{fault, DramConfig, MemTopology};

use crate::schedule::SchedulerKind;
use crate::ClusterProfile;

/// Full accounting of one fluid multi-PE simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiPeRun {
    /// Canonical name of the scheduler that assigned clusters to PEs.
    pub scheduler: &'static str,
    /// Number of processing engines simulated.
    pub pes: usize,
    /// Makespan in cycles: when the last PE finishes its last cluster.
    pub makespan: f64,
    /// Cycles each PE spent with a cluster in execution (the rest of the
    /// makespan it sat idle waiting for work).
    pub per_pe_busy: Vec<f64>,
    /// In-system execution time of each cluster, indexed like the input
    /// profiles. Every cluster occupies exactly one PE while executing, so
    /// these sum to the total busy time (the conservation law the property
    /// suite asserts).
    pub cluster_cycles: Vec<f64>,
}

impl MultiPeRun {
    /// Total busy cycles across PEs.
    pub fn busy_total(&self) -> f64 {
        self.per_pe_busy.iter().sum()
    }

    /// Load-imbalance ratio: busiest PE over mean PE busy time (1.0 for
    /// an empty, balanced, or degenerate run — never NaN).
    pub fn imbalance(&self) -> f64 {
        imbalance(&self.per_pe_busy)
    }
}

/// Load-imbalance ratio of per-PE busy times: busiest PE over mean PE busy
/// time. 1.0 means perfectly balanced; `pes` means one PE did all the
/// work. Defined as 1.0 for an empty fleet *and* for a degenerate one
/// whose busy total is zero or non-finite (a non-empty fleet of
/// zero-cycle clusters must not divide by 0.0 into a NaN).
pub(crate) fn imbalance(per_pe_busy: &[f64]) -> f64 {
    let total: f64 = per_pe_busy.iter().sum();
    // The NaN check matters: a poisoned busy vector would otherwise sail
    // through `<= 0.0` and propagate NaN out of the division.
    if total.is_nan() || total <= 0.0 || per_pe_busy.is_empty() {
        return 1.0;
    }
    let max = per_pe_busy.iter().cloned().fold(0.0f64, f64::max);
    max * per_pe_busy.len() as f64 / total
}

/// The post-hoc projection: simulates `pes` PEs working through
/// `profiles`, with cluster-to-PE assignment decided by `scheduler`,
/// against a shared memory channel of `pes * per_pe_bytes_per_cycle`.
/// Each task runs for `max(C, M/a)` cycles at allocated bandwidth `a`.
///
/// # Panics
///
/// Panics if `pes == 0` or the bandwidth is not positive.
pub fn simulate_with(
    profiles: &[ClusterProfile],
    pes: usize,
    per_pe_bytes_per_cycle: f64,
    scheduler: SchedulerKind,
) -> MultiPeRun {
    fluid(
        profiles,
        pes,
        per_pe_bytes_per_cycle,
        scheduler,
        false,
        &DramConfig::default(),
        MemTopology::default(),
    )
}

/// The end-to-end fluid co-simulation (`exec=e2e`): like
/// [`simulate_with`], but each cluster-task's duration is *calibrated
/// against its detailed standalone timeline* ([`ClusterProfile::cycles`]).
/// A task with detailed makespan `T`, MAC-busy `C`, and transfer `M` runs
/// for `max(C, M/a) + S` cycles at allocated bandwidth `a`, where
/// `S = T - max(C, M/B)` (with `B` the per-PE fair share) is the
/// serialization residue the overlap model cannot see — latency tails,
/// FIFO ordering, dependent stalls. At `a = B` the duration is exactly
/// `T`, so a 1-PE end-to-end run reproduces the detailed sequential
/// composition; at `a < B` memory-bound tasks stretch (contention) and at
/// `a > B` they shrink (borrowing idle bandwidth, the Section VII-F
/// super-linearity mechanism).
///
/// On any `topology` but the uniform `1x1` pipe, clusters interleave
/// across `topology.channels` by index, and each memory-active task pays
/// a per-request bank-conflict stall proportional to how many other
/// memory-active tasks share its home channel (amortized over
/// `topology.banks`; the per-request cost reuses
/// [`DramConfig::request_overhead_cycles`], see
/// [`MemTopology::conflict_penalty_per_byte`]). With one PE no two tasks
/// are ever co-resident, so no stall accrues. The `1x1` topology charges
/// no conflict term at all: it is *defined* as the idealized shared pipe
/// the committed e2e golden snapshots model.
///
/// # Panics
///
/// Panics if `pes == 0` or the bandwidth is not positive.
pub fn simulate_e2e(
    profiles: &[ClusterProfile],
    pes: usize,
    per_pe_bytes_per_cycle: f64,
    scheduler: SchedulerKind,
    dram: &DramConfig,
    topology: MemTopology,
) -> MultiPeRun {
    fluid(
        profiles,
        pes,
        per_pe_bytes_per_cycle,
        scheduler,
        true,
        dram,
        topology,
    )
}

/// The fluid event loop behind both entry points. `calibrated` adds each
/// task's serialization residue `S` (0 in the post-hoc projection);
/// `(dram, topology)` is the contention model, with a conflict term only
/// off the uniform pipe. Conflict terms are piecewise-constant between
/// completion events (the live set only changes there), so the
/// minimum-completion event stepping stays exact.
fn fluid(
    profiles: &[ClusterProfile],
    pes: usize,
    per_pe_bytes_per_cycle: f64,
    scheduler: SchedulerKind,
    calibrated: bool,
    dram: &DramConfig,
    topology: MemTopology,
) -> MultiPeRun {
    assert!(pes > 0, "at least one PE");
    assert!(per_pe_bytes_per_cycle > 0.0, "bandwidth must be positive");
    let total_bw = pes as f64 * per_pe_bytes_per_cycle;
    let banked = !topology.is_uniform();
    let mut dispatch = scheduler.dispatcher(profiles, pes, per_pe_bytes_per_cycle, topology);

    // Active task per PE: cluster index, compute total, mem total, serial
    // residue, fraction remaining, home channel (0 on the uniform pipe).
    struct Task {
        idx: usize,
        c: f64,
        m: f64,
        s: f64,
        w: f64,
        channel: usize,
    }
    let spawn = |i: usize| {
        let c = profiles[i].compute_cycles as f64;
        let m = profiles[i].mem_bytes as f64;
        // Serial residue of the detailed timeline beyond the overlap
        // model's fair-share estimate (0 in the uncalibrated projection).
        let s = if calibrated {
            (profiles[i].cycles as f64 - c.max(m / per_pe_bytes_per_cycle)).max(0.0)
        } else {
            0.0
        };
        Task {
            idx: i,
            c,
            m,
            s,
            w: 1.0,
            channel: topology.home_channel(i),
        }
    };
    // The `sched` fault site counts cluster hand-offs to PEs; the whole
    // dispatch loop runs on one thread, so the ordinal is leg-identical.
    let mut dispatched: u64 = 0;
    let mut active: Vec<Option<Task>> = (0..pes)
        .map(|p| {
            dispatch.next(p).map(|i| {
                dispatched += 1;
                fault::trip_at(fault::FaultSite::Sched, dispatched);
                spawn(i)
            })
        })
        .collect();
    let mut busy = vec![0.0f64; pes];
    let mut cluster_cycles = vec![0.0f64; profiles.len()];
    // Per-event scratch, reused across events.
    let mut live: Vec<usize> = Vec::with_capacity(pes);
    let mut order: Vec<(f64, usize)> = Vec::with_capacity(pes);
    let mut alloc = vec![0.0f64; pes];
    let mut rates = vec![0.0f64; pes];
    let mut channel_load = vec![0usize; topology.channels];

    let mut t = 0.0f64;
    loop {
        live.clear();
        live.extend((0..pes).filter(|&p| active[p].is_some()));
        if live.is_empty() {
            break;
        }
        // Memory-active co-residency per channel: how many live tasks with
        // traffic are homed on each channel right now.
        if banked {
            channel_load.fill(0);
            for &p in &live {
                let task = active[p].as_ref().expect("live");
                if task.m > 0.0 {
                    channel_load[task.channel] += 1;
                }
            }
        }

        // Demand: bandwidth at which the task becomes compute-bound.
        order.clear();
        order.extend(live.iter().map(|&p| {
            let task = active[p].as_ref().expect("live");
            let demand = if task.c <= 0.0 {
                f64::INFINITY
            } else {
                task.m / task.c
            };
            (demand, p)
        }));
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite-ish demands"));

        // Water-fill the aggregate bandwidth (address interleaving lets
        // any stream draw on the whole channel array; conflicts, not peak
        // bandwidth, are per-channel).
        let mut remaining = total_bw;
        let mut left = order.len();
        for &(demand, p) in &order {
            let share = remaining / left as f64;
            let a = demand.min(share);
            alloc[p] = a;
            remaining -= a;
            left -= 1;
        }

        // Per-task completion rate and the next completion event.
        let mut dt = f64::INFINITY;
        for &p in &live {
            let task = active[p].as_ref().expect("live");
            let mem_time = if task.m <= 0.0 {
                0.0
            } else if alloc[p] <= 0.0 {
                f64::INFINITY
            } else if banked {
                // Transfer time plus the expected bank-conflict stall for
                // sharing the home channel with `load - 1` other
                // memory-active tasks.
                let co_residents = channel_load[task.channel] - 1;
                task.m / alloc[p] + task.m * topology.conflict_penalty_per_byte(dram, co_residents)
            } else {
                task.m / alloc[p]
            };
            let duration = (task.c.max(mem_time) + task.s).max(1e-9);
            rates[p] = 1.0 / duration;
            dt = dt.min(task.w / rates[p]);
        }

        t += dt;
        for &p in &live {
            busy[p] += dt;
            let task = active[p].as_mut().expect("live");
            cluster_cycles[task.idx] += dt;
            task.w -= rates[p] * dt;
            if task.w <= 1e-9 {
                active[p] = dispatch.next(p).map(|i| {
                    dispatched += 1;
                    fault::trip_at(fault::FaultSite::Sched, dispatched);
                    spawn(i)
                });
            }
        }
    }
    MultiPeRun {
        scheduler: scheduler.name(),
        pes,
        makespan: t,
        per_pe_busy: busy,
        cluster_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(c: u64, m: u64) -> ClusterProfile {
        ClusterProfile {
            compute_cycles: c,
            mem_bytes: m,
            cycles: 0,
        }
    }

    #[test]
    fn single_pe_is_sum_of_maxima() {
        let profiles = [task(100, 50), task(10, 400)];
        // bw = 2 B/cycle: durations max(100, 25) = 100 and max(10, 200).
        let t = simulate_with(&profiles, 1, 2.0, SchedulerKind::RoundRobin).makespan;
        assert!((t - 300.0).abs() < 1e-6, "t = {t}");
    }

    /// Throughput at `pes` PEs normalized to one PE: the 1-PE makespan
    /// over the `pes`-PE makespan, bandwidth scaling with the PE count.
    fn normalized_throughput(profiles: &[ClusterProfile], pes: usize, bw: f64) -> f64 {
        let makespan = |pes| simulate_with(profiles, pes, bw, SchedulerKind::RoundRobin).makespan;
        makespan(1) / makespan(pes)
    }

    #[test]
    fn scaling_is_at_least_near_linear_for_homogeneous_tasks() {
        let profiles: Vec<ClusterProfile> = (0..64).map(|_| task(100, 100)).collect();
        for pes in [2, 4, 8] {
            let eff = normalized_throughput(&profiles, pes, 2.0) / pes as f64;
            assert!(eff > 0.9, "pes {pes} efficiency {eff}");
        }
    }

    #[test]
    fn heterogeneous_phases_scale_super_linearly() {
        // Compute-bound and memory-bound clusters interleaved so that at
        // any instant half the PEs need bandwidth and half do not: a single
        // PE wastes whichever resource the current cluster does not need,
        // while co-running PEs overlap them and memory-bound clusters
        // borrow idle bandwidth (Section VII-F's explanation of the
        // super-linear speedups). Task assignment is round-robin over 16
        // PEs, so tasks 0..16 are the PEs' first tasks and 16..32 their
        // second; give even PEs (compute, memory) and odd PEs the reverse.
        let first: Vec<ClusterProfile> = (0..16)
            .map(|p| {
                if p % 2 == 0 {
                    task(1000, 10)
                } else {
                    task(10, 1000)
                }
            })
            .collect();
        let second: Vec<ClusterProfile> = (0..16)
            .map(|p| {
                if p % 2 == 0 {
                    task(10, 1000)
                } else {
                    task(1000, 10)
                }
            })
            .collect();
        let profiles: Vec<ClusterProfile> = first.into_iter().chain(second).collect();
        let speedup = normalized_throughput(&profiles, 16, 1.0);
        assert!(
            speedup > 16.5,
            "expected super-linear scaling, got {speedup} at 16 PEs"
        );
    }

    #[test]
    fn zero_work_tasks_complete() {
        let profiles = [task(0, 0), task(5, 5)];
        let t = simulate_with(&profiles, 2, 1.0, SchedulerKind::RoundRobin).makespan;
        assert!(t.is_finite());
    }

    #[test]
    fn more_pes_never_slower() {
        let profiles: Vec<ClusterProfile> =
            (0..40).map(|i| task(50 + i * 3, 40 * (i % 5))).collect();
        let t = |pes| simulate_with(&profiles, pes, 4.0, SchedulerKind::RoundRobin).makespan;
        let (t1, t4, t16) = (t(1), t(4), t(16));
        assert!(t4 <= t1 && t16 <= t4, "t1 {t1}, t4 {t4}, t16 {t16}");
    }

    #[test]
    fn curve_normalizes_to_one_pe() {
        let profiles = [task(10, 10), task(20, 5)];
        assert_eq!(normalized_throughput(&profiles, 1, 1.0), 1.0);
    }

    #[test]
    fn work_stealing_balances_a_skewed_tail() {
        // 3 giant clusters then 61 small ones on 4 PEs: round-robin gives
        // PE 3 only small clusters while PEs 0..3 serialize behind the
        // giants; work-stealing spreads the small ones over whoever is
        // free.
        let profiles: Vec<ClusterProfile> = (0..64)
            .map(|i| if i < 3 { task(10_000, 0) } else { task(100, 0) })
            .collect();
        let rr = simulate_with(&profiles, 4, 4.0, SchedulerKind::RoundRobin);
        let ws = simulate_with(&profiles, 4, 4.0, SchedulerKind::WorkStealing);
        let lpt = simulate_with(&profiles, 4, 4.0, SchedulerKind::StaticLpt);
        assert!(
            ws.makespan < rr.makespan,
            "ws {} vs rr {}",
            ws.makespan,
            rr.makespan
        );
        assert!(
            lpt.makespan < rr.makespan,
            "lpt {} vs rr {}",
            lpt.makespan,
            rr.makespan
        );
        assert!(ws.imbalance() < rr.imbalance());
    }

    #[test]
    fn imbalance_is_one_for_zero_busy_totals_and_nan() {
        // Regression: a non-empty fleet of zero-cycle clusters has a 0.0
        // busy total; `max * len / total` must not produce NaN.
        let zero = MultiPeRun {
            scheduler: "rr",
            pes: 4,
            makespan: 0.0,
            per_pe_busy: vec![0.0; 4],
            cluster_cycles: vec![],
        };
        assert_eq!(zero.imbalance(), 1.0);
        assert!(!zero.imbalance().is_nan());
        // A poisoned busy vector must not propagate NaN either.
        let poisoned = MultiPeRun {
            per_pe_busy: vec![f64::NAN, 1.0],
            ..zero
        };
        assert_eq!(poisoned.imbalance(), 1.0);
        // The end-to-end phase breakdown shares the same guard.
        let phase = crate::report::PhasePeBusy {
            makespan: 0.0,
            per_pe_busy: poisoned.per_pe_busy.clone(),
            cluster_time: 0.0,
        };
        assert_eq!(phase.imbalance(), 1.0);
    }

    fn calibrated(c: u64, m: u64, bw: f64) -> ClusterProfile {
        // A plausible detailed timeline: overlap estimate + 10% residue.
        ClusterProfile {
            compute_cycles: c,
            mem_bytes: m,
            cycles: ((c as f64).max(m as f64 / bw) * 1.1) as u64,
        }
    }

    #[test]
    fn bank_conflicts_stretch_contended_memory_phases() {
        // Memory-bound tasks all homed on one channel: the banked model
        // must charge conflict stalls the idealized pipe does not.
        let profiles: Vec<ClusterProfile> = (0..16).map(|_| calibrated(10, 4000, 4.0)).collect();
        let dram = DramConfig::default();
        let uniform = MemTopology::default();
        let ideal = simulate_e2e(&profiles, 4, 4.0, SchedulerKind::RoundRobin, &dram, uniform);
        let banked = simulate_e2e(
            &profiles,
            4,
            4.0,
            SchedulerKind::RoundRobin,
            &dram,
            MemTopology::new(1, 8),
        );
        assert!(
            banked.makespan > ideal.makespan,
            "banked {} vs ideal {}",
            banked.makespan,
            ideal.makespan
        );
        // With one PE nothing is ever co-resident: no stall, identical run.
        let solo_ideal = simulate_e2e(&profiles, 1, 4.0, SchedulerKind::RoundRobin, &dram, uniform);
        let solo_banked = simulate_e2e(
            &profiles,
            1,
            4.0,
            SchedulerKind::RoundRobin,
            &dram,
            MemTopology::new(1, 8),
        );
        assert_eq!(solo_ideal, solo_banked);
    }

    #[test]
    fn more_channels_and_more_banks_never_slower() {
        let profiles = crate::schedule::power_law_profiles(96, 11);
        let dram = DramConfig::default();
        for kind in [SchedulerKind::RoundRobin, SchedulerKind::ContentionAware] {
            let mut prev = f64::INFINITY;
            for channels in [1usize, 2, 4, 8, 16] {
                let run = simulate_e2e(
                    &profiles,
                    8,
                    4.0,
                    kind,
                    &dram,
                    MemTopology::new(channels, 8),
                );
                assert!(
                    run.makespan <= prev * (1.0 + 1e-9),
                    "{}: channels={channels} slower ({} > {prev})",
                    kind.name(),
                    run.makespan
                );
                prev = run.makespan;
            }
            let mut prev = f64::INFINITY;
            for banks in [1usize, 2, 4, 8] {
                let run = simulate_e2e(&profiles, 8, 4.0, kind, &dram, MemTopology::new(4, banks));
                assert!(
                    run.makespan <= prev * (1.0 + 1e-9),
                    "{}: banks={banks} slower ({} > {prev})",
                    kind.name(),
                    run.makespan
                );
                prev = run.makespan;
            }
        }
    }

    #[test]
    fn busy_cycle_conservation_holds_under_banking() {
        let profiles = crate::schedule::power_law_profiles(64, 5);
        let run = simulate_e2e(
            &profiles,
            4,
            4.0,
            SchedulerKind::ContentionAware,
            &DramConfig::default(),
            MemTopology::new(4, 8),
        );
        let busy = run.busy_total();
        let cluster: f64 = run.cluster_cycles.iter().sum();
        assert!((busy - cluster).abs() / busy.max(1.0) < 1e-9);
        for &b in &run.per_pe_busy {
            assert!(b <= run.makespan * (1.0 + 1e-9));
        }
    }

    #[test]
    fn imbalance_is_one_when_balanced() {
        let profiles: Vec<ClusterProfile> = (0..8).map(|_| task(100, 0)).collect();
        let run = simulate_with(&profiles, 4, 4.0, SchedulerKind::RoundRobin);
        assert!((run.imbalance() - 1.0).abs() < 1e-9, "{}", run.imbalance());
        assert_eq!(
            MultiPeRun {
                per_pe_busy: vec![],
                ..run
            }
            .imbalance(),
            1.0
        );
    }
}
