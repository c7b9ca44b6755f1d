//! Medium-scale fingerprints of the preprocessing path: graph generation,
//! multilevel partitioning and `prepare` (relabel, `A + I`, HDN lists).
//!
//! The golden snapshots cover 400- and 600-node graphs, far below the
//! sizes where the generator and the partitioner switch to their
//! large-graph code paths. These cases are big enough to take them — a
//! dense Reddit-shaped graph, a sparse Yelp-shaped one and a Graph500
//! R-MAT graph — and pin every output array by an FNV-1a hash. The
//! constants were recorded with the original sort-based implementation,
//! so any faster rewrite has to reproduce its bits exactly, with the
//! thread fan-out on and forced off.

use grow::accel::{prepare, PartitionStrategy, PreparedWorkload};
use grow::graph::{Graph, RmatGraphSpec};
use grow::model::{DatasetKey, DatasetSpec, GcnWorkload};
use grow::partition::{multilevel_partition, MultilevelConfig};
use grow::sim::exec::{with_mode, with_workers, ExecMode};
use grow::sparse::PARALLEL_MIN_NNZ;

/// FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn usizes(&mut self, words: &[usize]) -> &mut Fnv {
        self.bytes(&(words.len() as u64).to_le_bytes());
        for &w in words {
            self.bytes(&(w as u64).to_le_bytes());
        }
        self
    }

    fn u32s(&mut self, words: &[u32]) -> &mut Fnv {
        self.bytes(&(words.len() as u64).to_le_bytes());
        for &w in words {
            self.bytes(&w.to_le_bytes());
        }
        self
    }
}

fn graph_hash(g: &Graph) -> u64 {
    let adj = g.adjacency();
    let mut h = Fnv::new();
    h.usizes(adj.indptr()).u32s(adj.indices());
    h.0
}

fn prepared_hash(p: &PreparedWorkload) -> u64 {
    let mut h = Fnv::new();
    h.usizes(p.adjacency.indptr()).u32s(p.adjacency.indices());
    for r in &p.clusters {
        h.usizes(&[r.start, r.end]);
    }
    for list in &p.hdn_lists {
        h.u32s(list);
    }
    h.0
}

/// Parts of the direct `multilevel_partition` call: enough for several
/// levels of recursive bisection at every case size.
const PARTS: usize = 8;
const SEED: u64 = 42;

/// One case and its recorded hashes: generated CSR, partition
/// assignment, `prepare` output at the default 4096-node clusters, and
/// at 1024-node clusters (so every case relabels across several
/// clusters).
struct Case {
    name: &'static str,
    spec: DatasetSpec,
    graph: fn(&DatasetSpec) -> Graph,
    expect: [u64; 4],
}

fn cases() -> [Case; 3] {
    [
        Case {
            name: "reddit_3000",
            spec: DatasetKey::Reddit.spec().scaled_to(3000),
            graph: |s| s.graph_spec().generate(SEED),
            expect: [
                0xc78a_1c65_d2c6_15b7,
                0x3f14_92b1_b054_ee94,
                0x8010_3b06_6c84_e00e,
                0x8972_5a34_0506_4183,
            ],
        },
        Case {
            name: "yelp_8000",
            spec: DatasetKey::Yelp.spec().scaled_to(8000),
            graph: |s| s.graph_spec().generate(SEED),
            expect: [
                0x22fa_d19d_cbb9_6974,
                0x0b2a_3ea4_07be_3271,
                0xb491_b9c3_79c0_deb3,
                0xe072_82b8_5ea2_020e,
            ],
        },
        Case {
            name: "rmat_graph500_12",
            spec: DatasetKey::Cora.spec().scaled_to(1 << 12),
            graph: |_| RmatGraphSpec::graph500(12, 16.0).generate(SEED),
            expect: [
                0x8a60_e6d1_b724_0dd0,
                0x754f_b1cf_853e_d7e4,
                0xc661_6600_4804_820a,
                0x4e66_6c10_d8db_ca93,
            ],
        },
    ]
}

fn fingerprint(case: &Case) -> ([u64; 4], usize) {
    let graph = (case.graph)(&case.spec);
    let edges = graph.directed_edges();
    let partition = multilevel_partition(&graph, PARTS, &MultilevelConfig::default());
    let workload = GcnWorkload::with_graph(&case.spec, graph, SEED);
    let default = prepare(&workload, PartitionStrategy::multilevel_default(), 4096);
    let fine = PartitionStrategy::Multilevel {
        cluster_nodes: 1024,
    };
    let hashes = [
        graph_hash(&workload.graph),
        Fnv::new().u32s(partition.assignment()).0,
        prepared_hash(&default),
        prepared_hash(&prepare(&workload, fine, 4096)),
    ];
    (hashes, edges)
}

fn check_all(leg: &str) {
    let mut failures = Vec::new();
    let mut largest = 0;
    for case in cases() {
        let (got, edges) = fingerprint(&case);
        largest = largest.max(edges);
        if got != case.expect {
            failures.push(format!(
                "{leg} {}: got [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
                case.name, got[0], got[1], got[2], got[3]
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // The row-parallel passes only fan out above this floor; at least one
    // case has to take that path for the two legs to differ in execution.
    assert!(
        largest >= PARALLEL_MIN_NNZ,
        "largest case has {largest} directed edges, below the parallel floor"
    );
}

#[test]
fn preprocessing_fingerprints_parallel() {
    with_workers(2, || check_all("parallel"));
}

#[test]
fn preprocessing_fingerprints_serial() {
    with_mode(ExecMode::Serial, || check_all("serial"));
}
