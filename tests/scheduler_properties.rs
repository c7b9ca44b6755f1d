//! Seeded-sweep property tests for the multi-PE scheduling subsystem,
//! directly over the fluid model on synthetic power-law cluster
//! workloads (`grow::accel::schedule::power_law_profiles`):
//!
//! * work-stealing's makespan never exceeds round-robin's;
//! * every makespan respects the single-cluster lower bound (no cluster
//!   can finish faster than running alone on the full channel);
//! * busy-cycle conservation: per-PE busy cycles and per-cluster
//!   in-system cycles are two groupings of the same time;
//! * with one PE all three schedulers coincide;
//! * the fluid model's output is pinned bit for bit by an FNV-1a
//!   fingerprint over a fixed grid of workloads, schedulers, PE counts
//!   and memory topologies.
//!
//! Bandwidths are powers of two so the fluid arithmetic stays exact where
//! the properties claim exactness.

use grow::accel::multi_pe::{self, MultiPeRun};
use grow::accel::schedule::{power_law_profiles, SchedulerKind};
use grow::accel::ClusterProfile;
use grow::sim::{DramConfig, MemTopology};

const BW: f64 = 4.0;

/// The seeded sweep: heavy-tailed workloads of several sizes and seeds.
///
/// Greedy dispatch is a heuristic, not a theorem — in regimes where every
/// policy balances equally well (very few clusters, or two PEs fighting
/// over the channel), round-robin can win by contention-alignment luck.
/// The sweep samples the regime the scheduler exists for (clusters ≫
/// PEs, heavy tail), where work-stealing's dominance is robust; a model
/// change that flips one of these fixed seeds deserves a human look.
fn sweep() -> Vec<(String, Vec<ClusterProfile>)> {
    let mut out = Vec::new();
    for n in [24usize, 48, 64, 96, 257] {
        for seed in 1..=8u64 {
            out.push((format!("n{n}_s{seed}"), power_law_profiles(n, seed)));
        }
    }
    out
}

fn runs(profiles: &[ClusterProfile], pes: usize) -> [MultiPeRun; 4] {
    SchedulerKind::ALL.map(|kind| multi_pe::simulate_with(profiles, pes, BW, kind))
}

#[test]
fn work_stealing_never_loses_to_round_robin() {
    for (name, profiles) in sweep() {
        for pes in [1, 2, 3, 4, 8, 16] {
            let rr = multi_pe::simulate_with(&profiles, pes, BW, SchedulerKind::RoundRobin);
            let ws = multi_pe::simulate_with(&profiles, pes, BW, SchedulerKind::WorkStealing);
            assert!(
                ws.makespan <= rr.makespan * (1.0 + 1e-9),
                "{name}/pes={pes}: ws {} vs rr {}",
                ws.makespan,
                rr.makespan
            );
        }
    }
}

#[test]
fn makespan_respects_the_single_cluster_lower_bound() {
    for (name, profiles) in sweep() {
        for pes in [1, 4, 16] {
            let total_bw = pes as f64 * BW;
            // A cluster alone on the full channel cannot finish faster
            // than max(compute, transfer); the makespan covers the
            // slowest cluster's full execution at least.
            let bound = profiles
                .iter()
                .map(|p| (p.compute_cycles as f64).max(p.mem_bytes as f64 / total_bw))
                .fold(0.0f64, f64::max);
            for run in runs(&profiles, pes) {
                assert!(
                    run.makespan >= bound * (1.0 - 1e-9),
                    "{name}/{}/pes={pes}: makespan {} below bound {bound}",
                    run.scheduler,
                    run.makespan
                );
            }
        }
    }
}

#[test]
fn busy_cycles_are_conserved() {
    for (name, profiles) in sweep() {
        for pes in [1, 3, 8] {
            for run in runs(&profiles, pes) {
                let busy: f64 = run.per_pe_busy.iter().sum();
                let cluster: f64 = run.cluster_cycles.iter().sum();
                assert_eq!(run.cluster_cycles.len(), profiles.len());
                assert_eq!(run.per_pe_busy.len(), pes);
                let rel = (busy - cluster).abs() / busy.max(1.0);
                assert!(
                    rel < 1e-9,
                    "{name}/{}/pes={pes}: busy {busy} vs cluster {cluster}",
                    run.scheduler
                );
                // Each PE is busy at most the whole makespan; the busiest
                // defines a floor on it.
                for &b in &run.per_pe_busy {
                    assert!(b <= run.makespan * (1.0 + 1e-9));
                }
            }
        }
    }
}

#[test]
fn one_pe_makes_all_schedulers_identical() {
    for (name, profiles) in sweep() {
        let [rr, lpt, ws, ca] = runs(&profiles, 1);
        // One PE serializes the same per-cluster durations under every
        // policy; lpt, ws, and ca visit them in their own orders rather
        // than index order, so sums agree up to float accumulation order.
        let close = |a: f64, b: f64| (a - b).abs() / b.max(1.0) < 1e-9;
        for other in [&lpt, &ws, &ca] {
            assert!(
                close(other.makespan, rr.makespan),
                "{name}: {} makespan {} vs rr {}",
                other.scheduler,
                other.makespan,
                rr.makespan
            );
            for (i, (&a, &b)) in other
                .cluster_cycles
                .iter()
                .zip(&rr.cluster_cycles)
                .enumerate()
            {
                assert!(
                    close(a, b),
                    "{name}/{}: cluster {i} duration diverged",
                    other.scheduler
                );
            }
        }
    }
}

#[test]
fn contention_aware_handles_the_ws_contention_alignment_cases() {
    // The documented greedy-dispatch failure mode: with clusters barely
    // exceeding the PE count, heaviest-first dispatch can line up several
    // memory-bound clusters against each other on the channel, and
    // round-robin wins by contention-alignment luck. These fixed seeds are
    // committed examples of exactly that (ws strictly loses to rr);
    // contention-aware dispatch interleaves the classes and must not lose
    // to either policy here.
    let cases = [(8usize, 36u64, 2usize), (8, 36, 3), (8, 26, 3), (12, 2, 2)];
    for (n, seed, pes) in cases {
        let profiles = power_law_profiles(n, seed);
        let rr = multi_pe::simulate_with(&profiles, pes, BW, SchedulerKind::RoundRobin);
        let ws = multi_pe::simulate_with(&profiles, pes, BW, SchedulerKind::WorkStealing);
        let ca = multi_pe::simulate_with(&profiles, pes, BW, SchedulerKind::ContentionAware);
        assert!(
            ws.makespan > rr.makespan * (1.0 + 1e-9),
            "n{n}_s{seed}/pes={pes}: expected a ws-loses-to-rr case \
             (ws {} vs rr {})",
            ws.makespan,
            rr.makespan
        );
        assert!(
            ca.makespan <= rr.makespan * (1.0 + 1e-9),
            "n{n}_s{seed}/pes={pes}: ca {} vs rr {}",
            ca.makespan,
            rr.makespan
        );
        assert!(
            ca.makespan <= ws.makespan * (1.0 + 1e-9),
            "n{n}_s{seed}/pes={pes}: ca {} vs ws {}",
            ca.makespan,
            ws.makespan
        );
    }
}

#[test]
fn contention_aware_stays_near_round_robin_everywhere() {
    // ca is a heuristic like the rest: no dominance theorem. But across
    // the committed sweep it must never lose to round-robin by more than
    // a percent — the guardrail that keeps the interleaving from
    // regressing into a pathological policy.
    for (name, profiles) in sweep() {
        for pes in [2, 3, 4, 8, 16] {
            let rr = multi_pe::simulate_with(&profiles, pes, BW, SchedulerKind::RoundRobin);
            let ca = multi_pe::simulate_with(&profiles, pes, BW, SchedulerKind::ContentionAware);
            assert!(
                ca.makespan <= rr.makespan * 1.01,
                "{name}/pes={pes}: ca {} vs rr {}",
                ca.makespan,
                rr.makespan
            );
        }
    }
}

/// FNV-1a over the bit patterns of every `f64` a run reports.
fn fingerprint(hash: &mut u64, run: &MultiPeRun) {
    let words = std::iter::once(run.makespan)
        .chain(run.per_pe_busy.iter().copied())
        .chain(run.cluster_cycles.iter().copied());
    for word in words {
        for b in word.to_bits().to_le_bytes() {
            *hash ^= b as u64;
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn fluid_model_fingerprints_are_pinned() {
    // Recorded before the two fluid event loops were merged into one:
    // the post-hoc projection and the calibrated end-to-end model on the
    // uniform pipe and on three banked topologies must keep every bit.
    const EXPECTED: [(&str, u64); 5] = [
        ("post_hoc", 0xb82c_92f2_960b_981d),
        ("e2e_1x1", 0xfb1c_8981_3d99_0780),
        ("e2e_1x8", 0x1e41_6692_64d8_6f43),
        ("e2e_4x8", 0x86e4_f92d_f42d_3f1b),
        ("e2e_3x2", 0x0264_db22_04d6_0de5),
    ];
    let dram = DramConfig::default();
    // `None` is the post-hoc projection; `Some((channels, banks))` the
    // end-to-end model on that memory topology.
    let variants = [None, Some((1, 1)), Some((1, 8)), Some((4, 8)), Some((3, 2))];
    let mut actual = Vec::new();
    for (&(name, _), variant) in EXPECTED.iter().zip(variants) {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for n in [24usize, 96, 257] {
            for seed in 1..=3u64 {
                let profiles = power_law_profiles(n, seed);
                for kind in SchedulerKind::ALL {
                    for pes in [1usize, 3, 8, 16] {
                        let run = match variant {
                            None => multi_pe::simulate_with(&profiles, pes, BW, kind),
                            Some((channels, banks)) => multi_pe::simulate_e2e(
                                &profiles,
                                pes,
                                BW,
                                kind,
                                &dram,
                                MemTopology::new(channels, banks),
                            ),
                        };
                        fingerprint(&mut hash, &run);
                    }
                }
            }
        }
        actual.push((name, hash));
    }
    assert_eq!(actual, EXPECTED, "fluid model output drifted");
}
