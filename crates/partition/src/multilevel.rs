//! METIS-class multilevel recursive-bisection partitioner.
//!
//! The paper's preprocessing uses METIS (Karypis–Kumar [20]); this module
//! implements the same three-phase multilevel scheme natively:
//!
//! 1. **Coarsening** — heavy-edge matching collapses matched node pairs
//!    into weighted super-nodes until the graph is small;
//! 2. **Initial partitioning** — greedy region growing on the coarsest
//!    graph, best of several seeded trials;
//! 3. **Uncoarsening + refinement** — the bisection is projected back level
//!    by level, applying Fiduccia–Mattheyses-style boundary passes.
//!
//! k-way partitions are produced by recursive bisection with proportional
//! weight targets, exactly as classic METIS `pmetis`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use grow_graph::Graph;
use grow_sim::exec::parallel_map;
use grow_sparse::{map_row_chunks, row_chunks};

use crate::Partitioning;

/// Tuning knobs of the multilevel partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// RNG seed for matching order and initial-partition trials.
    pub seed: u64,
    /// Stop coarsening when the graph has at most this many nodes.
    pub coarsen_until: usize,
    /// FM refinement passes per level.
    pub refine_passes: usize,
    /// Allowed imbalance: each side may deviate from its weight target by
    /// this fraction.
    pub balance_tolerance: f64,
    /// Number of seeded greedy-growing trials for the initial bisection.
    pub init_trials: usize,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            seed: 0x6d65746973, // "metis"
            coarsen_until: 96,
            refine_passes: 4,
            balance_tolerance: 0.10,
            init_trials: 6,
        }
    }
}

/// Partitions `graph` into `parts` balanced parts by multilevel recursive
/// bisection.
///
/// # Panics
///
/// Panics if `parts == 0`.
///
/// ```
/// use grow_graph::Graph;
/// use grow_partition::{multilevel_partition, MultilevelConfig};
///
/// // Two triangles joined by one edge: the natural bisection cuts it.
/// let g = Graph::from_edges(6, [(0,1),(1,2),(2,0),(3,4),(4,5),(5,3),(2,3)]);
/// let p = multilevel_partition(&g, 2, &MultilevelConfig::default());
/// assert_eq!(p.edge_cut(&g), 1);
/// ```
pub fn multilevel_partition(
    graph: &Graph,
    parts: usize,
    config: &MultilevelConfig,
) -> Partitioning {
    assert!(parts > 0, "parts must be positive");
    let n = graph.nodes();
    if parts == 1 || n == 0 {
        return Partitioning::single(n);
    }
    if parts >= n {
        // Degenerate: one node per part (extra parts stay empty).
        let assignment = (0..n as u32).collect();
        return Partitioning::new(assignment, parts);
    }
    let mut run = Recursion {
        config,
        rng: StdRng::seed_from_u64(config.seed),
        pool: EdgePool::default(),
        assignment: vec![0u32; n],
    };
    let globals: Vec<u32> = (0..n as u32).collect();
    run.bisect_recursive(WGraph::from_graph(graph), globals, parts, 0);
    Partitioning::new(run.assignment, parts)
}

/// Internal weighted graph (CSR with node and edge weights), the working
/// representation across coarsening levels.
///
/// Row `v`'s `(neighbor, edge weight)` pairs are `adj[xadj[v]..xadj[v + 1]]`,
/// interleaved because every pass reads both. Edge weights are `u32`: a
/// coarse edge weighs the number of fine edges it merges, which is bounded
/// by the input's edge count.
#[derive(Debug)]
struct WGraph {
    xadj: Vec<usize>,
    adj: Vec<(u32, u32)>,
    vwgt: Vec<u64>,
}

impl WGraph {
    fn from_graph(graph: &Graph) -> Self {
        let adj = graph.adjacency();
        WGraph {
            xadj: adj.indptr().to_vec(),
            adj: adj.indices().iter().map(|&u| (u, 1)).collect(),
            vwgt: vec![1; graph.nodes()],
        }
    }

    fn nodes(&self) -> usize {
        self.vwgt.len()
    }

    fn total_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.adj[self.xadj[v]..self.xadj[v + 1]].iter().copied()
    }
}

/// Edge buffers recycled across the levels and bisections of one
/// partitioning run. Every coarse level and every split half needs an
/// edge array about as large as its parent's; handing back the arrays of
/// graphs that are done with spares most of the fresh pages (and their
/// page faults) later allocations would cost.
#[derive(Default)]
struct EdgePool(Vec<Vec<(u32, u32)>>);

impl EdgePool {
    /// An empty buffer with room for `len` entries: the smallest pooled
    /// one that fits, else a new one.
    fn take(&mut self, len: usize) -> Vec<(u32, u32)> {
        let fit = (0..self.0.len())
            .filter(|&i| self.0[i].capacity() >= len)
            .min_by_key(|&i| self.0[i].capacity());
        match fit {
            Some(i) => {
                let mut buf = self.0.swap_remove(i);
                buf.clear();
                buf
            }
            None => Vec::with_capacity(len),
        }
    }

    fn give(&mut self, wg: WGraph) {
        self.0.push(wg.adj);
    }
}

/// The state of one recursive bisection: the config, the RNG whose draw
/// order defines the result, the buffer pool, and the part of every node.
struct Recursion<'a> {
    config: &'a MultilevelConfig,
    rng: StdRng,
    pool: EdgePool,
    assignment: Vec<u32>,
}

impl Recursion<'_> {
    /// Bisects `wg` (the nodes `globals`, `parts >= 2` parts numbered
    /// from `part_offset`) and recurses into each half that still has
    /// more than one part.
    fn bisect_recursive(&mut self, wg: WGraph, globals: Vec<u32>, parts: usize, part_offset: u32) {
        let left_parts = parts / 2;
        let right_parts = parts - left_parts;
        let target_left =
            (wg.total_weight() as f64 * left_parts as f64 / parts as f64).round() as u64;

        let side = self.bisect(&wg, target_left);

        // A one-part half is assigned as a whole, so its subgraph is
        // never built.
        let halves = split(
            &wg,
            &globals,
            &side,
            [left_parts > 1, right_parts > 1],
            &mut self.pool,
        );
        self.pool.give(wg);
        let targets = [
            (left_parts, part_offset),
            (right_parts, part_offset + left_parts as u32),
        ];
        for ((half, half_globals), (half_parts, offset)) in halves.into_iter().zip(targets) {
            match half {
                Some(half) => self.bisect_recursive(half, half_globals, half_parts, offset),
                None => {
                    for &g in &half_globals {
                        self.assignment[g as usize] = offset;
                    }
                }
            }
        }
    }

    /// One complete multilevel bisection: returns `side[v] == true` for
    /// nodes assigned to the left half (weight target `target_left`).
    fn bisect(&mut self, wg: &WGraph, target_left: u64) -> Vec<bool> {
        let config = self.config;
        // Coarsening phase: remember each level and its fine-to-coarse
        // map. Super-node weight is capped (as in METIS) so one coarse
        // node cannot dominate a side and wreck the balance of the
        // initial partition.
        let max_vwgt =
            ((1.5 * wg.total_weight() as f64 / config.coarsen_until.max(8) as f64).ceil() as u64)
                .max(2);
        // Level `i` holds the graph coarsened from level `i - 1` (from
        // `wg` for level 0) and the fine-to-coarse map between the two.
        let mut levels: Vec<(WGraph, Vec<u32>)> = Vec::new();
        loop {
            let current = levels.last().map_or(wg, |(g, _)| g);
            if current.nodes() <= config.coarsen_until.max(8) {
                break;
            }
            let (coarse, map) = coarsen(current, max_vwgt, &mut self.rng, &mut self.pool);
            let reduction = 1.0 - coarse.nodes() as f64 / current.nodes() as f64;
            levels.push((coarse, map));
            if reduction < 0.05 {
                break;
            }
        }

        // Initial partition on the coarsest graph.
        let coarsest = levels.last().map_or(wg, |(g, _)| g);
        let mut side = initial_bisection(coarsest, target_left, config, &mut self.rng);
        refine(coarsest, &mut side, target_left, config);

        // Uncoarsen: project and refine at every level.
        while let Some((coarse, map)) = levels.pop() {
            self.pool.give(coarse);
            let fine = levels.last().map_or(wg, |(g, _)| g);
            side = map.iter().map(|&c| side[c as usize]).collect();
            refine(fine, &mut side, target_left, config);
        }
        side
    }
}

/// Heavy-edge matching: each unmatched node pairs with its unmatched
/// neighbor of maximum edge weight, subject to the super-node weight cap.
/// Returns the coarse graph and the fine-to-coarse node map.
fn coarsen(
    wg: &WGraph,
    max_vwgt: u64,
    rng: &mut StdRng,
    pool: &mut EdgePool,
) -> (WGraph, Vec<u32>) {
    let n = wg.nodes();
    const UNMATCHED: u32 = u32::MAX;
    let mut order: Vec<u32> = (0..n as u32).collect();
    // Fisher-Yates shuffle for a random visit order.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut map = vec![UNMATCHED; n];
    let mut coarse_count = 0u32;
    for &v in &order {
        let v = v as usize;
        if map[v] != UNMATCHED {
            continue;
        }
        let mut best: Option<(u32, u32)> = None;
        for (u, w) in wg.neighbors(v) {
            if map[u as usize] == UNMATCHED
                && u as usize != v
                && wg.vwgt[v] + wg.vwgt[u as usize] <= max_vwgt
            {
                match best {
                    Some((_, bw)) if bw >= w => {}
                    _ => best = Some((u, w)),
                }
            }
        }
        map[v] = coarse_count;
        if let Some((u, _)) = best {
            map[u as usize] = coarse_count;
        }
        coarse_count += 1;
    }

    // Build the coarse weighted graph. Group fine nodes by coarse id
    // (counting sort), then emit each coarse node's merged adjacency.
    let nc = coarse_count as usize;
    let mut vwgt = vec![0u64; nc];
    for v in 0..n {
        vwgt[map[v] as usize] += wg.vwgt[v];
    }
    let mut members_start = vec![0usize; nc + 1];
    for v in 0..n {
        members_start[map[v] as usize + 1] += 1;
    }
    for c in 0..nc {
        members_start[c + 1] += members_start[c];
    }
    let mut members = vec![0u32; n];
    let mut cursor = members_start.clone();
    for v in 0..n {
        members[cursor[map[v] as usize]] = v as u32;
        cursor[map[v] as usize] += 1;
    }
    // Fine edges behind each coarse node, as row pointers: the bound on
    // each coarse row's length, and the work the chunks are cut by.
    let mut work = Vec::with_capacity(nc + 1);
    work.push(0usize);
    for c in 0..nc {
        let fine_edges: usize = members[members_start[c]..members_start[c + 1]]
            .iter()
            .map(|&v| wg.xadj[v as usize + 1] - wg.xadj[v as usize])
            .sum();
        work.push(work[c] + fine_edges);
    }

    // Coarse nodes are independent of one another, and a coarse row has at
    // most as many entries as the fine edges behind it. So contiguous
    // chunks of coarse rows are built in parallel, each into its own
    // segment of one buffer sized by `work`, and then closed up in
    // coarse-node order.
    let coarse = CoarseBuild {
        wg,
        map: &map,
        members: &members,
        members_start: &members_start,
        work: &work,
    };
    let mut adj = pool.take(work[nc]);
    adj.resize(work[nc], (0, 0));
    let chunks = map_row_chunks(&work, &mut adj, |range, segment| {
        (work[range.start], coarse.rows(range, segment))
    });
    let mut xadj = Vec::with_capacity(nc + 1);
    xadj.push(0usize);
    for (start, ends) in chunks {
        let base = xadj[xadj.len() - 1];
        let len = ends.last().copied().unwrap_or(0);
        adj.copy_within(start..start + len, base);
        xadj.extend(ends.iter().map(|&e| base + e));
    }
    adj.truncate(xadj[nc]);
    (WGraph { xadj, adj, vwgt }, map)
}

/// The read-only inputs of the coarse-graph build, shared by its chunks.
struct CoarseBuild<'a> {
    wg: &'a WGraph,
    map: &'a [u32],
    members: &'a [u32],
    members_start: &'a [usize],
    work: &'a [usize],
}

impl CoarseBuild<'_> {
    /// Merges the fine adjacency of coarse nodes `range` into coarse rows
    /// with ascending neighbours, dropping edges inside a coarse node. The
    /// rows are written back to back from the start of `out`; returns the
    /// end of each row within `out`.
    ///
    /// A row's distinct neighbours come out in ascending order one of two
    /// ways, picked per row by its fine-edge count: rows heavy relative to
    /// the `nc / 64` words of a neighbour bitmap mark neighbours in the
    /// bitmap and emit them by scanning its words in order; light rows
    /// sort the short list of distinct neighbours instead. Both give the
    /// same row.
    fn rows(&self, range: std::ops::Range<usize>, out: &mut [(u32, u32)]) -> Vec<usize> {
        let nc = self.members_start.len() - 1;
        let words = nc.div_ceil(64);
        let mut ends = Vec::with_capacity(range.len());
        let mut accum = vec![0u32; nc];
        let mut bits = vec![0u64; words];
        let mut touched: Vec<u32> = Vec::new();
        let mut write = 0;
        for c in range {
            let members = &self.members[self.members_start[c]..self.members_start[c + 1]];
            if (self.work[c + 1] - self.work[c]) * BITMAP_EDGES_PER_WORD >= words {
                let (mut lo, mut hi) = (words, 0);
                for &v in members {
                    for (u, w) in self.wg.neighbors(v as usize) {
                        let cu = self.map[u as usize] as usize;
                        if cu == c {
                            continue;
                        }
                        accum[cu] += w;
                        bits[cu / 64] |= 1 << (cu % 64);
                        lo = lo.min(cu / 64);
                        hi = hi.max(cu / 64);
                    }
                }
                for (wi, word) in bits.iter_mut().enumerate().take(hi + 1).skip(lo) {
                    let mut set = std::mem::take(word);
                    while set != 0 {
                        let cu = wi * 64 + set.trailing_zeros() as usize;
                        out[write] = (cu as u32, std::mem::take(&mut accum[cu]));
                        write += 1;
                        set &= set - 1;
                    }
                }
            } else {
                for &v in members {
                    for (u, w) in self.wg.neighbors(v as usize) {
                        let cu = self.map[u as usize];
                        if cu as usize == c {
                            continue;
                        }
                        if accum[cu as usize] == 0 {
                            touched.push(cu);
                        }
                        accum[cu as usize] += w;
                    }
                }
                touched.sort_unstable();
                for &cu in &touched {
                    out[write] = (cu, std::mem::take(&mut accum[cu as usize]));
                    write += 1;
                }
                touched.clear();
            }
            ends.push(write);
        }
        ends
    }
}

/// A coarse row takes the bitmap path when its fine-edge count times this
/// reaches the bitmap's word count (see [`CoarseBuild::rows`]).
const BITMAP_EDGES_PER_WORD: usize = 2;

/// Greedy region growing: BFS from a random seed, always absorbing the
/// frontier node with the highest gain, until the left side reaches its
/// weight target. Best cut over `init_trials` trials wins.
fn initial_bisection(
    wg: &WGraph,
    target_left: u64,
    config: &MultilevelConfig,
    rng: &mut StdRng,
) -> Vec<bool> {
    let n = wg.nodes();
    let total = wg.total_weight();
    let target = target_left.min(total);
    let mut best: Option<(u64, Vec<bool>)> = None;
    for _ in 0..config.init_trials.max(1) {
        let mut side = vec![false; n];
        let mut weight = 0u64;
        let mut heap: std::collections::BinaryHeap<(i64, u32)> =
            std::collections::BinaryHeap::new();
        while weight < target {
            let v = match heap.pop() {
                Some((_, v)) if !side[v as usize] => v as usize,
                Some(_) => continue, // stale entry: node already absorbed
                None => {
                    // Frontier exhausted (disconnected component): restart
                    // from a random unassigned node.
                    let mut v = rng.random_range(0..n);
                    let mut guard = 0;
                    while side[v] && guard < 4 * n {
                        v = (v + 1) % n;
                        guard += 1;
                    }
                    v
                }
            };
            side[v] = true;
            weight += wg.vwgt[v];
            // Re-push every outside neighbor with its refreshed gain;
            // duplicates are harmless (stale entries are skipped above) and
            // keeping gains fresh is what makes region growing track
            // community boundaries.
            for (u, _) in wg.neighbors(v) {
                let u = u as usize;
                if !side[u] {
                    let gain: i64 = wg
                        .neighbors(u)
                        .map(|(x, w)| {
                            if side[x as usize] {
                                w as i64
                            } else {
                                -(w as i64)
                            }
                        })
                        .sum();
                    heap.push((gain, u as u32));
                }
            }
        }
        let cut = cut_weight(wg, &side);
        if best.as_ref().is_none_or(|(bc, _)| cut < *bc) {
            best = Some((cut, side));
        }
    }
    best.expect("at least one trial").1
}

fn cut_weight(wg: &WGraph, side: &[bool]) -> u64 {
    let mut cut = 0u64;
    for v in 0..wg.nodes() {
        for (u, w) in wg.neighbors(v) {
            if side[v] != side[u as usize] {
                cut += u64::from(w);
            }
        }
    }
    cut / 2
}

/// FM-style boundary refinement: a balance-repair sweep (needed only right
/// after the initial partition, where region growing may overshoot its
/// target), then several passes of greedy positive-gain moves within the
/// balance window.
fn refine(wg: &WGraph, side: &mut [bool], target_left: u64, config: &MultilevelConfig) {
    let total = wg.total_weight();
    let smaller_side = target_left.min(total - target_left).max(1);
    let tol = ((smaller_side as f64 * config.balance_tolerance) as u64).max(1);
    let mut left_weight: u64 = (0..wg.nodes())
        .filter(|&v| side[v])
        .map(|v| wg.vwgt[v])
        .sum();
    let min_left = target_left.saturating_sub(tol);
    let max_left = (target_left + tol).min(total);

    // Balance repair: if outside the window, shed weight from the heavy
    // side, taking the least-damaging (highest-gain) movable nodes first.
    if left_weight > max_left || left_weight < min_left {
        let heavy_is_left = left_weight > max_left;
        let mut candidates: Vec<(i64, u32)> = (0..wg.nodes())
            .filter(|&v| side[v] == heavy_is_left)
            .map(|v| {
                let mut gain = 0i64;
                for (u, w) in wg.neighbors(v) {
                    if side[u as usize] == side[v] {
                        gain -= w as i64;
                    } else {
                        gain += w as i64;
                    }
                }
                (gain, v as u32)
            })
            .collect();
        candidates.sort_unstable_by(|a, b| b.cmp(a));
        for (_, v) in candidates {
            if left_weight <= max_left && left_weight >= min_left {
                break;
            }
            let v = v as usize;
            side[v] = !side[v];
            if heavy_is_left {
                left_weight -= wg.vwgt[v];
            } else {
                left_weight += wg.vwgt[v];
            }
        }
    }

    for _ in 0..config.refine_passes {
        let mut moves = boundary_gains(wg, side);
        moves.sort_unstable_by(|a, b| b.cmp(a));
        let mut applied = 0usize;
        for (gain, v) in moves {
            if gain <= 0 {
                break;
            }
            let v = v as usize;
            // Recompute the gain: earlier moves in this pass may have
            // changed it.
            let mut internal = 0i64;
            let mut external = 0i64;
            for (u, w) in wg.neighbors(v) {
                if side[u as usize] == side[v] {
                    internal += w as i64;
                } else {
                    external += w as i64;
                }
            }
            if external - internal <= 0 {
                continue;
            }
            let new_left = if side[v] {
                left_weight.saturating_sub(wg.vwgt[v])
            } else {
                left_weight + wg.vwgt[v]
            };
            if new_left < min_left || new_left > max_left {
                continue;
            }
            side[v] = !side[v];
            left_weight = new_left;
            applied += 1;
        }
        if applied == 0 {
            break;
        }
    }
}

/// Gains of the boundary nodes, ascending by node: moving `v` to the
/// other side changes the cut by its external minus internal edge
/// weight. Each node's gain reads only the current sides, so the nodes
/// are scanned in parallel chunks (fixed by the row pointers) and the
/// chunk results are concatenated in node order.
fn boundary_gains(wg: &WGraph, side: &[bool]) -> Vec<(i64, u32)> {
    let chunks = parallel_map(row_chunks(&wg.xadj), |_, nodes| {
        let mut moves = Vec::new();
        for v in nodes {
            let mut internal = 0i64;
            let mut external = 0i64;
            for (u, w) in wg.neighbors(v) {
                if side[u as usize] == side[v] {
                    internal += i64::from(w);
                } else {
                    external += i64::from(w);
                }
            }
            if external > 0 {
                moves.push((external - internal, v as u32));
            }
        }
        moves
    });
    chunks.concat()
}

/// Splits a weighted graph into the two side-induced subgraphs (left
/// first), dropping cut edges, and maps local node IDs back to the
/// caller's globals. A half's subgraph is built only if `build` asks for
/// it; its globals always are.
fn split(
    wg: &WGraph,
    globals: &[u32],
    side: &[bool],
    build: [bool; 2],
    pool: &mut EdgePool,
) -> [(Option<WGraph>, Vec<u32>); 2] {
    let n = wg.nodes();
    let half_of = |v: usize| usize::from(!side[v]);
    let mut local = vec![0u32; n];
    let mut half_globals: [Vec<u32>; 2] = [Vec::new(), Vec::new()];
    for v in 0..n {
        let h = &mut half_globals[half_of(v)];
        local[v] = h.len() as u32;
        h.push(globals[v]);
    }
    // A half's degree sum bounds its edges, so no half reallocates.
    let mut halves: [Option<WGraph>; 2] = [0, 1].map(|h| {
        build[h].then(|| {
            let edges = (0..n)
                .filter(|&v| half_of(v) == h)
                .map(|v| wg.xadj[v + 1] - wg.xadj[v])
                .sum();
            let mut xadj = Vec::with_capacity(half_globals[h].len() + 1);
            xadj.push(0);
            WGraph {
                xadj,
                adj: pool.take(edges),
                vwgt: Vec::with_capacity(half_globals[h].len()),
            }
        })
    });
    // One pass in node order, each node appending to its own half.
    for v in 0..n {
        let Some(half) = &mut halves[half_of(v)] else {
            continue;
        };
        for (u, w) in wg.neighbors(v) {
            if side[u as usize] == side[v] {
                half.adj.push((local[u as usize], w));
            }
        }
        half.xadj.push(half.adj.len());
        half.vwgt.push(wg.vwgt[v]);
    }
    let [left, right] = halves;
    let [left_globals, right_globals] = half_globals;
    [(left, left_globals), (right, right_globals)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use grow_graph::CommunityGraphSpec;

    #[test]
    fn bisects_two_cliques() {
        // Two 5-cliques connected by a single edge.
        let mut edges = Vec::new();
        for a in 0..5u32 {
            for b in (a + 1)..5 {
                edges.push((a, b));
                edges.push((a + 5, b + 5));
            }
        }
        edges.push((0, 5));
        let g = Graph::from_edges(10, edges);
        let p = multilevel_partition(&g, 2, &MultilevelConfig::default());
        assert_eq!(p.edge_cut(&g), 1);
        assert_eq!(p.balance(), 1.0);
    }

    #[test]
    fn recovers_planted_communities() {
        let spec = CommunityGraphSpec {
            nodes: 1200,
            avg_degree: 10.0,
            communities: 6,
            intra_fraction: 0.9,
            power_law_exponent: 2.5,
            shuffle_fraction: 1.0,
        };
        let gen = spec.generate_detailed(21);
        let p = multilevel_partition(&gen.graph, 6, &MultilevelConfig::default());
        // The recovered partition keeps most edges internal (planted
        // intra-fraction is 0.9 of endpoints => ~0.8 of edges).
        let frac = p.intra_edge_fraction(&gen.graph);
        assert!(frac > 0.6, "intra fraction {frac} too low");
        assert!(p.balance() < 1.35, "balance {} too skewed", p.balance());
    }

    #[test]
    fn kway_parts_cover_all_nodes() {
        let spec = CommunityGraphSpec {
            nodes: 640,
            avg_degree: 8.0,
            communities: 8,
            intra_fraction: 0.85,
            power_law_exponent: 2.5,
            shuffle_fraction: 1.0,
        };
        let g = spec.generate(3);
        let p = multilevel_partition(&g, 8, &MultilevelConfig::default());
        assert_eq!(p.parts(), 8);
        let sizes = p.part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 640);
        assert!(sizes.iter().all(|&s| s > 0), "empty part in {sizes:?}");
    }

    #[test]
    fn one_part_is_trivial() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        let p = multilevel_partition(&g, 1, &MultilevelConfig::default());
        assert_eq!(p.parts(), 1);
        assert_eq!(p.edge_cut(&g), 0);
    }

    #[test]
    fn more_parts_than_nodes_degenerates() {
        let g = Graph::from_edges(3, [(0, 1), (1, 2)]);
        let p = multilevel_partition(&g, 10, &MultilevelConfig::default());
        assert_eq!(p.parts(), 10);
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 3);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let spec = CommunityGraphSpec {
            nodes: 500,
            avg_degree: 8.0,
            communities: 4,
            intra_fraction: 0.85,
            power_law_exponent: 2.5,
            shuffle_fraction: 1.0,
        };
        let g = spec.generate(17);
        let cfg = MultilevelConfig::default();
        let p1 = multilevel_partition(&g, 4, &cfg);
        let p2 = multilevel_partition(&g, 4, &cfg);
        assert_eq!(p1, p2);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = Graph::from_edges(8, [(0, 1), (2, 3), (4, 5), (6, 7)]);
        let p = multilevel_partition(&g, 2, &MultilevelConfig::default());
        assert_eq!(p.part_sizes().iter().sum::<usize>(), 8);
    }
}
