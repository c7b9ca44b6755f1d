//! The counting-sort graph builders against the COO path they replace.
//!
//! `Graph::from_edges` scatters edges into their rows and sorts each row,
//! and `Graph::relabel` permutes the pattern with no per-entry values.
//! Both must give exactly what the general-purpose COO conversion gives
//! (`CooMatrix::to_csr`, `CsrMatrix::permute_symmetric`) on edge lists
//! with duplicates, reversed pairs, self-loops and isolated nodes — with
//! the row fan-out forced serial and with real threads, and on cases big
//! enough to be cut into several parallel chunks.

use grow_graph::Graph;
use grow_sim::exec::{with_mode, with_workers, ExecMode};
use grow_sparse::{CooMatrix, CsrPattern, PARALLEL_MIN_NNZ};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 24;

/// A random edge list over `n` nodes: uniform pairs plus a hub, repeated
/// and reversed pairs, and self-loops. Node `n - 1` is left out, so at
/// least one row is empty.
fn edge_list(rng: &mut StdRng, n: usize, count: usize) -> Vec<(u32, u32)> {
    let span = (n - 1).max(1) as u32;
    let mut edges = Vec::with_capacity(count + count / 2);
    for _ in 0..count {
        let u = rng.random_range(0..span);
        let v = if rng.random_bool(0.2) {
            0
        } else {
            rng.random_range(0..span)
        };
        edges.push((u, v));
        match rng.random_range(0u32..8) {
            0 => edges.push((u, v)),
            1 => edges.push((v, u)),
            2 => edges.push((u, u)),
            _ => {}
        }
    }
    edges
}

/// The reference build: both directions of every non-loop pair through
/// COO, duplicates summed, values dropped.
fn coo_graph(n: usize, edges: &[(u32, u32)]) -> CsrPattern {
    let mut coo = CooMatrix::new(n, n);
    for &(u, v) in edges {
        if u != v {
            coo.push(u as usize, v as usize, 1.0).expect("in bounds");
            coo.push(v as usize, u as usize, 1.0).expect("in bounds");
        }
    }
    coo.to_csr().into_pattern()
}

/// A uniformly random permutation of `0..n`.
fn permutation(rng: &mut StdRng, n: usize) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.random_range(0..=i));
    }
    perm
}

/// Small and medium cases, then two cases above the parallel floor.
fn sizes(rng: &mut StdRng, case: usize) -> (usize, usize) {
    if case + 2 >= CASES {
        (rng.random_range(2_000usize..6_000), PARALLEL_MIN_NNZ)
    } else {
        (
            rng.random_range(1usize..300),
            rng.random_range(0usize..2_000),
        )
    }
}

fn in_both_modes(check: impl Fn(&str)) {
    with_mode(ExecMode::Serial, || check("serial"));
    with_workers(3, || check("3 workers"));
}

#[test]
fn from_edges_matches_the_coo_build() {
    in_both_modes(|leg| {
        let mut rng = StdRng::seed_from_u64(0xb1d0);
        for case in 0..CASES {
            let (n, count) = sizes(&mut rng, case);
            let edges = edge_list(&mut rng, n, count);
            let g = Graph::from_edges(n, edges.iter().copied());
            assert_eq!(g.adjacency(), &coo_graph(n, &edges), "{leg} case {case}");
        }
    });
}

#[test]
fn large_cases_cross_the_parallel_floor() {
    let mut rng = StdRng::seed_from_u64(0xb1d0);
    let (n, count) = sizes(&mut rng, CASES - 1);
    let g = Graph::from_edges(n, edge_list(&mut rng, n, count));
    assert!(
        g.directed_edges() >= PARALLEL_MIN_NNZ,
        "{}",
        g.directed_edges()
    );
    assert!(grow_sparse::row_chunks(g.adjacency().indptr()).len() > 1);
}

#[test]
fn relabel_matches_matrix_permute_and_coo() {
    in_both_modes(|leg| {
        let mut rng = StdRng::seed_from_u64(0xb1d1);
        for case in 0..CASES {
            let (n, count) = sizes(&mut rng, case);
            let g = Graph::from_edges(n, edge_list(&mut rng, n, count));
            let perm = permutation(&mut rng, n);
            let relabeled = g.relabel(&perm);
            let matrix = g
                .adjacency()
                .clone()
                .with_unit_values()
                .permute_symmetric(&perm);
            assert_eq!(relabeled.adjacency(), matrix.pattern(), "{leg} case {case}");
            let moved: Vec<(u32, u32)> = (0..n)
                .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v as u32, u)))
                .map(|(v, u)| (perm[v as usize], perm[u as usize]))
                .collect();
            assert_eq!(
                relabeled.adjacency(),
                &coo_graph(n, &moved),
                "{leg} case {case}"
            );
        }
    });
}

#[test]
fn matrix_permute_carries_values() {
    let mut rng = StdRng::seed_from_u64(0xb1d2);
    for case in 0..CASES {
        let n = rng.random_range(1usize..60);
        let mut coo = CooMatrix::new(n, n);
        let mut moved = CooMatrix::new(n, n);
        let perm = permutation(&mut rng, n);
        // Distinct positions: COO sums duplicates in an unspecified order.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..rng.random_range(0usize..200) {
            let (r, c) = (rng.random_range(0..n), rng.random_range(0..n));
            if !seen.insert((r, c)) {
                continue;
            }
            let v = rng.random_range(-4.0f64..4.0);
            coo.push(r, c, v).expect("in bounds");
            moved
                .push(perm[r] as usize, perm[c] as usize, v)
                .expect("in bounds");
        }
        assert_eq!(
            coo.to_csr().permute_symmetric(&perm),
            moved.to_csr(),
            "case {case}"
        );
    }
}

#[test]
#[should_panic(expected = "perm is not a permutation")]
fn relabel_rejects_a_non_permutation() {
    Graph::from_edges(3, [(0, 1)]).relabel(&[0, 1, 1]);
}

#[test]
#[should_panic(expected = "perm is not a permutation")]
fn matrix_permute_rejects_a_non_permutation() {
    let m = CsrPattern::dense(3, 3).with_unit_values();
    m.permute_symmetric(&[2, 0, 2]);
}

#[test]
#[should_panic(expected = "perm is not a permutation")]
fn pattern_permute_rejects_an_out_of_range_label() {
    CsrPattern::dense(2, 2).permute_symmetric(&[0, 2]);
}

#[test]
#[should_panic(expected = "out of bounds")]
fn from_edges_still_checks_bounds_on_large_inputs() {
    let mut edges: Vec<(u32, u32)> = (0..PARALLEL_MIN_NNZ as u32).map(|i| (i % 100, 7)).collect();
    edges.push((3, 100));
    Graph::from_edges(100, edges);
}
