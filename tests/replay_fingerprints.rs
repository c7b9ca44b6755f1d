//! Bit-level fingerprints of GROW's cycle-accurate aggregation replay:
//! the runahead tables, the FIFO channel and the MAC array as the miss
//! path drives them.
//!
//! The golden snapshots run the Table III defaults, where a 400- or
//! 600-node graph fits the HDN cache and the LDN table rarely fills.
//! This grid sweeps the knobs that shape the miss path instead — the
//! runahead degree, both table capacities, HDN caching, the replacement
//! policy and the channel bandwidth — and folds every run's full report
//! into one FNV-1a hash per (dataset, caching, replacement) cell. The
//! bandwidths 100 and 7.5 GB/s make the per-request transfer time a
//! non-integer, so completion cycles land on `ceil` ties. A 32 KB HDN
//! cache makes the cached runs mix hits and misses at these sizes.

use grow::accel::registry;
use grow::accel::{prepare, PartitionStrategy, PreparedWorkload};
use grow::model::DatasetKey;

/// FNV-1a over the report's full `Debug` rendering, which prints every
/// counter and the shortest round-trip form of every `f64`.
fn fnv(hash: &mut u64, text: &str) {
    for &b in text.as_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn workloads() -> [(&'static str, PreparedWorkload); 2] {
    // Reddit's surrogate is so dense that 100 nodes already give ~10k
    // non-zeros, over three clusters.
    let pubmed = DatasetKey::Pubmed.spec().scaled_to(800).instantiate(11);
    let reddit = DatasetKey::Reddit.spec().scaled_to(100).instantiate(42);
    [
        ("pubmed", prepare(&pubmed, PartitionStrategy::None, 4096)),
        (
            "reddit",
            prepare(
                &reddit,
                PartitionStrategy::Multilevel { cluster_nodes: 40 },
                4096,
            ),
        ),
    ]
}

#[test]
fn replay_fingerprints_are_pinned() {
    // Recorded with the linear-scan runahead tables and per-request
    // granularity rounding; any faster replay must keep every bit. With
    // HDN caching off the two replacement policies must agree.
    const EXPECTED: [(&str, u64); 8] = [
        ("pubmed/cache=true/pinned", 0x7941_2b29_b440_1d81),
        ("pubmed/cache=true/lru", 0xab2b_e34d_1ee6_34ba),
        ("pubmed/cache=false/pinned", 0x2320_3e72_f79a_4593),
        ("pubmed/cache=false/lru", 0x2320_3e72_f79a_4593),
        ("reddit/cache=true/pinned", 0x353e_75ec_a2b3_140d),
        ("reddit/cache=true/lru", 0x6c71_657e_2aa2_6b83),
        ("reddit/cache=false/pinned", 0xdbb7_0deb_0b68_1198),
        ("reddit/cache=false/lru", 0xdbb7_0deb_0b68_1198),
    ];
    let mut actual = Vec::new();
    for (name, workload) in workloads() {
        for caching in ["true", "false"] {
            for replacement in ["pinned", "lru"] {
                let mut hash = 0xcbf2_9ce4_8422_2325u64;
                for runahead in ["1", "4", "16"] {
                    for ldn in ["1", "2", "16"] {
                        for lhs in ["1", "4", "64"] {
                            for gbps in ["128", "100", "7.5"] {
                                let engine = registry::engine_from_overrides(
                                    "grow",
                                    &[
                                        ("hdn_cache_kb", "32"),
                                        ("hdn_caching", caching),
                                        ("replacement", replacement),
                                        ("runahead", runahead),
                                        ("ldn_entries", ldn),
                                        ("lhs_id_entries", lhs),
                                        ("dram_gbps", gbps),
                                    ],
                                )
                                .unwrap();
                                fnv(&mut hash, &format!("{:?}", engine.run(&workload)));
                            }
                        }
                    }
                }
                let cell = format!("{name}/cache={caching}/{replacement}");
                actual.push((cell, hash));
            }
        }
    }
    let expected: Vec<(String, u64)> = EXPECTED.iter().map(|&(c, h)| (c.to_string(), h)).collect();
    assert_eq!(actual, expected, "GROW replay output drifted");
}
