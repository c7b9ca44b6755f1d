use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Graph;

/// Specification of a community-structured power-law graph.
///
/// This is the generator used to stand in for the paper's SNAP/OGB/PyG
/// datasets (DESIGN.md §3). It plants `communities` node clusters, draws a
/// Zipf-like per-node weight sequence inside each cluster (so every cluster
/// has its own high-degree hubs, which is what GROW's *per-cluster* HDN
/// list exploits — Section V-C), and wires edges by weighted sampling:
/// a fraction `intra_fraction` of edge endpoints stay inside the source
/// community, the rest go anywhere. Finally a fraction `shuffle_fraction`
/// of node IDs is randomly permuted so the community structure is *not*
/// visible in the node ordering and must be re-discovered by graph
/// partitioning (Figure 13: partitioning is pure relabeling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityGraphSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Target average degree (directed edges per node, Table I convention).
    pub avg_degree: f64,
    /// Number of planted communities.
    pub communities: usize,
    /// Fraction of edge endpoints kept inside the source community
    /// (`0.0..=1.0`). Real social graphs sit around `0.6..0.9`.
    pub intra_fraction: f64,
    /// Power-law exponent `gamma` of the degree distribution (typically
    /// `2.1..3.0`; Figure 11 of the paper shows Reddit's heavy tail).
    pub power_law_exponent: f64,
    /// Fraction of node IDs shuffled after generation (`0.0` keeps the
    /// community-sorted ordering — real datasets such as Reddit ship with
    /// locality-correlated orderings; `1.0` destroys ordering locality
    /// entirely).
    pub shuffle_fraction: f64,
}

/// A generated graph together with its planted ground truth, for tests and
/// partitioner-quality evaluation.
#[derive(Debug, Clone)]
pub struct GeneratedGraph {
    /// The generated graph (node IDs already shuffled per the spec).
    pub graph: Graph,
    /// Planted community of each node, indexed by final node ID.
    pub community: Vec<u32>,
}

impl CommunityGraphSpec {
    /// Generates the graph with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec is degenerate (zero nodes/communities, fractions
    /// outside `[0, 1]`, exponent `<= 1`).
    pub fn generate(&self, seed: u64) -> Graph {
        self.generate_detailed(seed).graph
    }

    /// Like [`CommunityGraphSpec::generate`] but also returns the planted
    /// community assignment.
    pub fn generate_detailed(&self, seed: u64) -> GeneratedGraph {
        assert!(self.nodes > 0, "graph must have nodes");
        assert!(self.communities > 0 && self.communities <= self.nodes);
        assert!((0.0..=1.0).contains(&self.intra_fraction));
        assert!((0.0..=1.0).contains(&self.shuffle_fraction));
        assert!(
            self.power_law_exponent > 1.0,
            "power-law exponent must exceed 1"
        );

        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.nodes;
        let k = self.communities;
        let target_undirected = ((n as f64 * self.avg_degree) / 2.0).round() as usize;

        // Community membership: contiguous blocks (pre-shuffle node IDs are
        // community-sorted; the shuffle below hides this).
        let bounds: Vec<usize> = (0..=k).map(|c| c * n / k).collect();
        let mut community = vec![0u32; n];
        for c in 0..k {
            community[bounds[c]..bounds[c + 1]].fill(c as u32);
        }

        // Zipf-like weights, restarting the rank inside each community so
        // every community has hubs. Capped so expected degrees stay
        // realizable (Chung-Lu style), then used for weighted endpoint
        // sampling via prefix sums.
        let alpha = 1.0 / (self.power_law_exponent - 1.0);
        let mut weights = vec![0.0f64; n];
        for c in 0..k {
            for (rank, node) in (bounds[c]..bounds[c + 1]).enumerate() {
                weights[node] = ((rank + 1) as f64).powf(-alpha);
            }
        }
        // Cap: expected degree of a node is ~ 2 * m * w / W. Limit hubs to
        // the smaller of 40x the average degree and ~35% of their community
        // (so intra-community sampling does not saturate).
        let min_comm = (1..=k)
            .map(|c| bounds[c] - bounds[c - 1])
            .min()
            .unwrap_or(n);
        let cap_degree = (40.0 * self.avg_degree)
            .min(0.35 * min_comm as f64 / self.intra_fraction.max(0.5))
            .max(self.avg_degree.max(2.0));
        for _ in 0..4 {
            let total: f64 = weights.iter().sum();
            let scale = 2.0 * target_undirected as f64 / total;
            let cap_w = cap_degree / scale;
            let mut changed = false;
            for w in &mut weights {
                if *w > cap_w {
                    *w = cap_w;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Weighted samplers: global and per-community.
        let global = WeightedSampler::new(&weights);
        let per_community: Vec<WeightedSampler> = (0..k)
            .map(|c| WeightedSampler::new(&weights[bounds[c]..bounds[c + 1]]))
            .collect();

        // Sample edges with dedup top-up rounds.
        let mut edges: Vec<u64> = Vec::new();
        let mut rounds = 0;
        while edges.len() < target_undirected && rounds < 8 {
            let missing = target_undirected - edges.len();
            let batch = (missing as f64 * 1.1) as usize + 8;
            let deduped = edges.len();
            edges.reserve(batch);
            for _ in 0..batch {
                let u = global.sample(&mut rng);
                let v = if rng.random::<f64>() < self.intra_fraction {
                    let c = community[u] as usize;
                    bounds[c] + per_community[c].sample(&mut rng)
                } else {
                    global.sample(&mut rng)
                };
                if u != v {
                    edges.push(edge_key(u as u32, v as u32));
                }
            }
            merge_round(&mut edges, deduped);
            rounds += 1;
        }
        edges.truncate(target_undirected);

        // Shuffle a fraction of node IDs (Fisher-Yates over a sampled subset).
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let shuffled = ((n as f64) * self.shuffle_fraction).round() as usize;
        if shuffled > 1 {
            let mut subset: Vec<usize> = sample_indices(n, shuffled, &mut rng);
            subset.sort_unstable();
            // Shuffle the IDs occupying the chosen positions among themselves.
            let mut shuffled_ids: Vec<u32> = subset.iter().map(|&i| perm[i]).collect();
            for i in (1..shuffled_ids.len()).rev() {
                let j = rng.random_range(0..=i);
                shuffled_ids.swap(i, j);
            }
            for (pos, id) in subset.iter().zip(shuffled_ids) {
                perm[*pos] = id;
            }
        }

        let graph = Graph::from_edge_passes(n, || {
            edges.iter().map(|&key| {
                let (u, v) = key_edge(key);
                (perm[u as usize], perm[v as usize])
            })
        });
        let mut final_community = vec![0u32; n];
        for (old, &new) in perm.iter().enumerate() {
            final_community[new as usize] = community[old];
        }
        GeneratedGraph {
            graph,
            community: final_community,
        }
    }
}

/// Specification of an R-MAT (recursive matrix) graph.
///
/// R-MAT with skewed quadrant probabilities produces power-law-ish graphs;
/// with `a = b = c = d = 0.25` it degenerates to Erdős–Rényi, which is the
/// "non-power-law graph" case discussed in Section VIII of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatGraphSpec {
    /// `log2` of the number of nodes.
    pub scale: u32,
    /// Target average degree.
    pub avg_degree: f64,
    /// Probability of the top-left quadrant (classic value 0.57).
    pub a: f64,
    /// Probability of the top-right quadrant (classic value 0.19).
    pub b: f64,
    /// Probability of the bottom-left quadrant (classic value 0.19).
    pub c: f64,
}

impl RmatGraphSpec {
    /// The classic Graph500 parameterization (a=0.57, b=c=0.19).
    pub fn graph500(scale: u32, avg_degree: f64) -> Self {
        RmatGraphSpec {
            scale,
            avg_degree,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }

    /// A uniform (Erdős–Rényi-like) parameterization: no degree skew.
    pub fn uniform(scale: u32, avg_degree: f64) -> Self {
        RmatGraphSpec {
            scale,
            avg_degree,
            a: 0.25,
            b: 0.25,
            c: 0.25,
        }
    }

    /// Generates the graph with a deterministic seed.
    ///
    /// # Panics
    ///
    /// Panics if the quadrant probabilities are invalid (`a + b + c > 1`).
    pub fn generate(&self, seed: u64) -> Graph {
        assert!(self.a >= 0.0 && self.b >= 0.0 && self.c >= 0.0);
        assert!(
            self.a + self.b + self.c <= 1.0 + 1e-12,
            "quadrant probabilities exceed 1"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 1usize << self.scale;
        let target = ((n as f64 * self.avg_degree) / 2.0).round() as usize;
        let mut edges: Vec<u64> = Vec::new();
        let mut rounds = 0;
        while edges.len() < target && rounds < 8 {
            let missing = target - edges.len();
            let batch = missing + missing / 8 + 8;
            let deduped = edges.len();
            edges.reserve(batch);
            for _ in 0..batch {
                let (mut u, mut v) = (0u32, 0u32);
                for _ in 0..self.scale {
                    let r: f64 = rng.random();
                    let (du, dv) = if r < self.a {
                        (0, 0)
                    } else if r < self.a + self.b {
                        (0, 1)
                    } else if r < self.a + self.b + self.c {
                        (1, 0)
                    } else {
                        (1, 1)
                    };
                    u = (u << 1) | du;
                    v = (v << 1) | dv;
                }
                if u != v {
                    edges.push(edge_key(u, v));
                }
            }
            merge_round(&mut edges, deduped);
            rounds += 1;
        }
        edges.truncate(target);
        Graph::from_edge_passes(n, || edges.iter().map(|&key| key_edge(key)))
    }
}

/// Packs an undirected edge into one sort key, smaller endpoint in the
/// high half: ascending keys are the lexicographic order of
/// `(min, max)` pairs.
fn edge_key(u: u32, v: u32) -> u64 {
    (u64::from(u.min(v)) << 32) | u64::from(u.max(v))
}

/// Unpacks an [`edge_key`] into `(min, max)`.
fn key_edge(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Closes one top-up round: `keys[..deduped]` is sorted and distinct
/// from earlier rounds, `keys[deduped..]` is this round's raw sample.
/// Sorts only the new tail and merges it into the prefix, leaving
/// `keys` sorted and distinct — the same set a sort and dedup of the
/// whole vector would give, without re-sorting earlier rounds.
///
/// The merge runs in place from the back, so it needs no second buffer
/// the size of the prefix: only the (smaller) tail is copied out.
fn merge_round(keys: &mut Vec<u64>, deduped: usize) {
    keys[deduped..].sort_unstable();
    if deduped == 0 {
        keys.dedup();
        return;
    }
    let mut new = keys.split_off(deduped);
    new.dedup();
    let mut old = deduped;
    keys.resize(deduped + new.len(), 0);
    // Fill `keys` from the back with the larger head of either run; a key
    // in both runs is written once. The write cursor never passes the
    // unread part of the old run.
    let mut write = keys.len();
    while let Some(&key) = new.last() {
        let next = match old.checked_sub(1).map(|i| keys[i]) {
            Some(k) if k >= key => {
                old -= 1;
                if k == key {
                    new.pop();
                }
                k
            }
            _ => {
                new.pop();
                key
            }
        };
        write -= 1;
        keys[write] = next;
    }
    // The old run's unread head is already in place; close the gap the
    // dropped duplicates left behind it.
    keys.drain(old..write);
}

/// Samples indices proportionally to fixed weights: one uniform draw
/// `x` in `[0, total)`, then the first prefix sum above `x`.
///
/// A guide table (Chen and Asau) cuts `[0, total)` into one bucket per
/// weight and records where each bucket starts in the prefix sums. A draw
/// then compares `x` with a fixed window of [`GUIDE_WINDOW`] sums from its
/// bucket's start, branch-free, instead of binary-searching all of them.
/// The bucket is only a hint: a draw whose answer lies outside the window,
/// or whose bucket was rounded past it, falls back to the full search. So
/// every draw returns exactly the index a plain binary search returns.
struct WeightedSampler {
    /// `prefix[i]` is the sum of the first `i` weights, for
    /// `i <= weights`, followed by `GUIDE_WINDOW` infinities so that a
    /// window never runs off the end.
    prefix: Vec<f64>,
    /// Number of real prefix sums (`weights + 1`).
    sums: usize,
    /// `guide[b]`: the first prefix index whose sum exceeds bucket `b`'s
    /// lower edge, capped at the last real sum.
    guide: Vec<u32>,
    /// Buckets per unit of weight.
    scale: f64,
}

/// Prefix sums a [`WeightedSampler`] draw compares before falling back.
const GUIDE_WINDOW: usize = 4;

impl WeightedSampler {
    fn new(weights: &[f64]) -> Self {
        let sums = weights.len() + 1;
        let mut prefix = Vec::with_capacity(sums + GUIDE_WINDOW);
        prefix.push(0.0);
        let mut acc = 0.0;
        for &w in weights {
            acc += w;
            prefix.push(acc);
        }
        let buckets = weights.len().max(1);
        let scale = buckets as f64 / acc;
        let guide = (0..=buckets)
            .map(|b| {
                let first = prefix.partition_point(|&p| p <= b as f64 / scale);
                first.min(sums - 1) as u32
            })
            .collect();
        prefix.extend([f64::INFINITY; GUIDE_WINDOW]);
        WeightedSampler {
            prefix,
            sums,
            guide,
            scale,
        }
    }

    /// Draws one index, consuming one `f64` from `rng`.
    fn sample(&self, rng: &mut StdRng) -> usize {
        let sums = &self.prefix[..self.sums];
        let x = rng.random::<f64>() * sums[self.sums - 1];
        // First index with prefix[i] > x: count the window's sums <= x.
        let bucket = ((x * self.scale) as usize).min(self.guide.len() - 2);
        let lo = self.guide[bucket] as usize;
        let below = self.prefix[lo..lo + GUIDE_WINDOW]
            .iter()
            .map(|&p| usize::from(p <= x))
            .sum::<usize>();
        let mut first = lo + below;
        if below == GUIDE_WINDOW || (lo > 0 && sums[lo - 1] > x) {
            first = sums.partition_point(|&p| p <= x);
        }
        first.clamp(1, self.sums - 1) - 1
    }
}

/// Samples `k` distinct indices from `0..n` (Floyd's algorithm).
fn sample_indices(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    use std::collections::HashSet;
    let mut chosen = HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.random_range(0..=j);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(nodes: usize, deg: f64) -> CommunityGraphSpec {
        CommunityGraphSpec {
            nodes,
            avg_degree: deg,
            communities: 8,
            intra_fraction: 0.8,
            power_law_exponent: 2.3,
            shuffle_fraction: 1.0,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let s = spec(300, 6.0);
        assert_eq!(s.generate(7), s.generate(7));
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec(300, 6.0);
        assert_ne!(s.generate(7), s.generate(8));
    }

    #[test]
    fn average_degree_close_to_target() {
        let g = spec(2000, 10.0).generate(1);
        let d = g.avg_degree();
        assert!((d - 10.0).abs() < 1.5, "avg degree {d} too far from 10");
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = spec(2000, 10.0).generate(1);
        let mut degrees: Vec<usize> = (0..g.nodes()).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        // Hubs should be far above average for a power-law graph.
        assert!(
            degrees[0] > 5 * 10,
            "max degree {} not hub-like",
            degrees[0]
        );
    }

    #[test]
    fn intra_fraction_keeps_edges_inside_communities() {
        let s = CommunityGraphSpec {
            shuffle_fraction: 0.0,
            ..spec(1000, 8.0)
        };
        let gen = s.generate_detailed(3);
        let mut intra = 0usize;
        let mut total = 0usize;
        for v in 0..gen.graph.nodes() {
            for &u in gen.graph.neighbors(v) {
                total += 1;
                if gen.community[v] == gen.community[u as usize] {
                    intra += 1;
                }
            }
        }
        let frac = intra as f64 / total as f64;
        assert!(frac > 0.65, "intra fraction {frac} too low");
    }

    #[test]
    fn shuffle_hides_community_ordering() {
        let base = CommunityGraphSpec {
            shuffle_fraction: 0.0,
            ..spec(1000, 8.0)
        };
        let shuf = CommunityGraphSpec {
            shuffle_fraction: 1.0,
            ..spec(1000, 8.0)
        };
        // With ordering intact, consecutive nodes share communities; after a
        // full shuffle they mostly do not.
        let same_community_runs = |g: &GeneratedGraph| {
            (1..g.community.len())
                .filter(|&i| g.community[i] == g.community[i - 1])
                .count()
        };
        let ordered = same_community_runs(&base.generate_detailed(5));
        let shuffled = same_community_runs(&shuf.generate_detailed(5));
        assert!(ordered > 900, "ordered runs = {ordered}");
        assert!(shuffled < 400, "shuffled runs = {shuffled}");
    }

    #[test]
    fn rmat_generates_power_law_like_graph() {
        let g = RmatGraphSpec::graph500(10, 8.0).generate(9);
        assert_eq!(g.nodes(), 1024);
        let max_deg = (0..g.nodes()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg > 40, "R-MAT hub degree {max_deg} too small");
    }

    #[test]
    fn rmat_uniform_has_flat_degrees() {
        let g = RmatGraphSpec::uniform(10, 8.0).generate(9);
        let max_deg = (0..g.nodes()).map(|v| g.degree(v)).max().unwrap();
        assert!(max_deg < 30, "uniform R-MAT hub degree {max_deg} too large");
    }

    #[test]
    fn merge_round_equals_sort_and_dedup() {
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..40 {
            let mut keys: Vec<u64> = Vec::new();
            let mut reference: Vec<u64> = Vec::new();
            for _ in 0..rng.random_range(1usize..5) {
                let deduped = keys.len();
                for _ in 0..rng.random_range(0usize..300) {
                    let key = rng.random_range(0..200u64);
                    keys.push(key);
                    reference.push(key);
                }
                merge_round(&mut keys, deduped);
                reference.sort_unstable();
                reference.dedup();
                assert_eq!(keys, reference, "case {case}");
            }
        }
    }

    #[test]
    fn weighted_sampler_matches_binary_search() {
        let mut rng = StdRng::seed_from_u64(6);
        for case in 0..40 {
            let len = rng.random_range(1usize..400);
            // Weights spanning many orders of magnitude, with exact ties.
            let weights: Vec<f64> = (0..len)
                .map(|_| match rng.random_range(0u32..4) {
                    0 => 1.0,
                    1 => rng.random_range(1e-9..1e-6),
                    _ => rng.random_range(0.0..50.0),
                })
                .collect();
            let sampler = WeightedSampler::new(&weights);
            let sums = &sampler.prefix[..sampler.sums];
            let (mut a, mut b) = (StdRng::seed_from_u64(case), StdRng::seed_from_u64(case));
            for _ in 0..2_000 {
                let got = sampler.sample(&mut a);
                let x = b.random::<f64>() * sums[sums.len() - 1];
                let want = sums.partition_point(|&p| p <= x).clamp(1, sums.len() - 1) - 1;
                assert_eq!(got, want, "case {case}");
            }
        }
    }

    #[test]
    fn reproduces_target_edge_count_within_tolerance() {
        let g = spec(5000, 20.0).generate(11);
        let target = 5000 * 20 / 2;
        let got = g.undirected_edges();
        assert!(
            (got as f64) > 0.9 * target as f64 && (got as f64) <= 1.02 * target as f64,
            "edge count {got} vs target {target}"
        );
    }
}
