//! Experiment drivers: one function per evaluation artifact of the paper
//! (Section VII). The `grow-bench` harness calls these and formats the
//! paper's rows/series; integration tests assert the headline shapes.

use grow_model::{DatasetKey, DatasetSpec, GcnWorkload};
use grow_sim::DramConfig;

use crate::schedule::SchedulerKind;
use crate::{
    multi_pe, prepare, Accelerator, ClusterProfile, GammaEngine, GcnaxEngine, GrowConfig,
    GrowEngine, MatRaptorEngine, PartitionStrategy, PreparedWorkload, ReplacementPolicy, RunReport,
};

/// A dataset instantiated and preprocessed both ways (with and without
/// graph partitioning), shared across experiments to amortize the
/// generation and partitioning cost.
#[derive(Debug, Clone)]
pub struct DatasetEval {
    /// Which dataset.
    pub key: DatasetKey,
    /// The generated workload.
    pub workload: GcnWorkload,
    /// Original node order, single cluster (baselines + "GROW w/o G.P.").
    pub base: PreparedWorkload,
    /// Partitioned + relabeled ("GROW with G.P.").
    pub partitioned: PreparedWorkload,
}

impl DatasetEval {
    /// Instantiates and preprocesses the dataset at its default spec.
    pub fn new(key: DatasetKey, seed: u64) -> Self {
        Self::from_spec(key.spec(), seed)
    }

    /// Instantiates and preprocesses an explicit spec (tests use scaled
    /// variants).
    pub fn from_spec(spec: DatasetSpec, seed: u64) -> Self {
        let workload = spec.instantiate(seed);
        let base = prepare(&workload, PartitionStrategy::None, 4096);
        let partitioned = prepare(&workload, PartitionStrategy::multilevel_default(), 4096);
        DatasetEval {
            key: spec.key,
            workload,
            base,
            partitioned,
        }
    }
}

/// The three configurations compared throughout Figures 17–22.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// GCNAX baseline on the original node order.
    pub gcnax: RunReport,
    /// GROW without graph partitioning.
    pub grow_no_gp: RunReport,
    /// GROW with graph partitioning.
    pub grow_gp: RunReport,
}

impl SpeedupRow {
    /// GROW-with-G.P. speedup over GCNAX (Figure 20(a)).
    pub fn speedup_gp(&self) -> f64 {
        self.gcnax.total_cycles() as f64 / self.grow_gp.total_cycles() as f64
    }

    /// GROW-without-G.P. speedup over GCNAX (Figure 20(a)).
    pub fn speedup_no_gp(&self) -> f64 {
        self.gcnax.total_cycles() as f64 / self.grow_no_gp.total_cycles() as f64
    }

    /// DRAM traffic normalized to GCNAX (Figure 18; lower is better).
    pub fn traffic_ratio_gp(&self) -> f64 {
        self.grow_gp.dram_bytes() as f64 / self.gcnax.dram_bytes() as f64
    }

    /// DRAM traffic of GROW w/o G.P. normalized to GCNAX (Figure 18).
    pub fn traffic_ratio_no_gp(&self) -> f64 {
        self.grow_no_gp.dram_bytes() as f64 / self.gcnax.dram_bytes() as f64
    }

    /// HDN cache hit rates without/with partitioning (Figure 17).
    pub fn hit_rates(&self) -> (f64, f64) {
        (
            self.grow_no_gp
                .aggregation_cache()
                .hit_rate()
                .unwrap_or(0.0),
            self.grow_gp.aggregation_cache().hit_rate().unwrap_or(0.0),
        )
    }
}

/// Runs the Figure 17/18/20/22 comparison on one dataset.
pub fn speedup_row(eval: &DatasetEval, grow: &GrowConfig, gcnax: &GcnaxEngine) -> SpeedupRow {
    let engine = GrowEngine::new(*grow);
    SpeedupRow {
        dataset: eval.key.name(),
        gcnax: gcnax.run(&eval.base),
        grow_no_gp: engine.run(&eval.base),
        grow_gp: engine.run(&eval.partitioned),
    }
}

/// The Figure 19 ablation: DRAM traffic of GROW without HDN caching,
/// with HDN caching (no G.P.), and with HDN caching + G.P.
#[derive(Debug, Clone, Copy)]
pub struct TrafficAblation {
    /// DRAM bytes without HDN caching.
    pub no_cache: u64,
    /// DRAM bytes with HDN caching, no partitioning.
    pub cache: u64,
    /// DRAM bytes with HDN caching and partitioning.
    pub cache_gp: u64,
}

/// Runs the Figure 19 traffic ablation on one dataset.
pub fn traffic_ablation(eval: &DatasetEval, base_config: &GrowConfig) -> TrafficAblation {
    let no_cache_cfg = GrowConfig {
        hdn_caching: false,
        ..*base_config
    };
    TrafficAblation {
        no_cache: GrowEngine::new(no_cache_cfg).run(&eval.base).dram_bytes(),
        cache: GrowEngine::new(*base_config).run(&eval.base).dram_bytes(),
        cache_gp: GrowEngine::new(*base_config)
            .run(&eval.partitioned)
            .dram_bytes(),
    }
}

/// The Figure 21 cumulative ablation: speedup over GCNAX when applying
/// GROW's three mechanisms one by one.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupAblation {
    /// Row-stationary dataflow + HDN cache only (runahead degree 1, no
    /// partitioning).
    pub hdn_only: f64,
    /// Plus runahead execution (default degree, no partitioning).
    pub plus_runahead: f64,
    /// Plus graph partitioning (the full GROW).
    pub plus_partitioning: f64,
}

/// Runs the Figure 21 ablation on one dataset.
pub fn speedup_ablation(eval: &DatasetEval, config: &GrowConfig) -> SpeedupAblation {
    let gcnax = GcnaxEngine::default().run(&eval.base).total_cycles() as f64;
    let hdn_only_cfg = GrowConfig {
        runahead: 1,
        ..*config
    };
    let hdn_only = GrowEngine::new(hdn_only_cfg).run(&eval.base).total_cycles() as f64;
    let runahead = GrowEngine::new(*config).run(&eval.base).total_cycles() as f64;
    let full = GrowEngine::new(*config)
        .run(&eval.partitioned)
        .total_cycles() as f64;
    SpeedupAblation {
        hdn_only: gcnax / hdn_only,
        plus_runahead: gcnax / runahead,
        plus_partitioning: gcnax / full,
    }
}

/// Runahead-degree sweep (Figure 25(a)): cycles at each degree, on the
/// partitioned workload.
pub fn runahead_sweep(eval: &DatasetEval, degrees: &[usize]) -> Vec<(usize, u64)> {
    degrees
        .iter()
        .map(|&d| {
            let cfg = GrowConfig {
                runahead: d,
                ldn_entries: d.max(1),
                ..GrowConfig::default()
            };
            (
                d,
                GrowEngine::new(cfg).run(&eval.partitioned).total_cycles(),
            )
        })
        .collect()
}

/// One point of the Figure 25(b) bandwidth sweep.
#[derive(Debug, Clone, Copy)]
pub struct BandwidthPoint {
    /// Memory bandwidth in GB/s.
    pub gbps: f64,
    /// GROW cycles (with G.P.).
    pub grow_cycles: u64,
    /// GCNAX cycles.
    pub gcnax_cycles: u64,
}

/// Memory-bandwidth sweep (Figure 25(b)).
pub fn bandwidth_sweep(eval: &DatasetEval, gbps: &[f64]) -> Vec<BandwidthPoint> {
    gbps.iter()
        .map(|&bw| {
            let dram = DramConfig::with_bandwidth_gbps(bw);
            let grow = GrowEngine::new(GrowConfig {
                dram,
                ..GrowConfig::default()
            });
            let gcnax = GcnaxEngine::new(crate::GcnaxConfig {
                dram,
                ..Default::default()
            });
            BandwidthPoint {
                gbps: bw,
                grow_cycles: grow.run(&eval.partitioned).total_cycles(),
                gcnax_cycles: gcnax.run(&eval.base).total_cycles(),
            }
        })
        .collect()
}

/// The Figure 26 comparison: all four engines on one dataset.
#[derive(Debug, Clone)]
pub struct SpSpComparison {
    /// GCNAX report.
    pub gcnax: RunReport,
    /// MatRaptor report.
    pub matraptor: RunReport,
    /// GAMMA report.
    pub gamma: RunReport,
    /// GROW (with G.P.) report.
    pub grow: RunReport,
}

/// Runs the Figure 26 comparison on one dataset.
pub fn spsp_comparison(eval: &DatasetEval) -> SpSpComparison {
    SpSpComparison {
        gcnax: GcnaxEngine::default().run(&eval.base),
        matraptor: MatRaptorEngine::default().run(&eval.base),
        gamma: GammaEngine::default().run(&eval.base),
        grow: GrowEngine::default().run(&eval.partitioned),
    }
}

/// One point of the Figure 24 scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Number of processing engines (memory bandwidth scales with it).
    pub pes: usize,
    /// Makespan in cycles under the fluid model.
    pub cycles: f64,
    /// Throughput normalized to the 1-PE configuration.
    pub normalized_throughput: f64,
}

/// PE-count scaling (Figure 24) from the partitioned GROW run's cluster
/// profiles, with bandwidth proportional to the PE count: the post-hoc
/// round-robin projection at each PE count, normalized to one PE.
pub fn pe_scaling(eval: &DatasetEval, pe_counts: &[usize]) -> Vec<ScalingPoint> {
    let report = GrowEngine::default().run(&eval.partitioned);
    let profiles = report.cluster_profiles();
    let bw = GrowConfig::default().dram.bytes_per_cycle;
    let makespan =
        |pes| multi_pe::simulate_with(&profiles, pes, bw, SchedulerKind::RoundRobin).makespan;
    let base = makespan(1);
    pe_counts
        .iter()
        .map(|&pes| {
            let cycles = makespan(pes);
            ScalingPoint {
                pes,
                cycles,
                normalized_throughput: if cycles > 0.0 {
                    base / cycles
                } else {
                    f64::INFINITY
                },
            }
        })
        .collect()
}

/// One point of the extended Figure 24 study: a scheduler × PE-count cell
/// of the multi-PE fluid model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerPoint {
    /// Canonical scheduler name (`rr`, `lpt`, `ws`, `ca`).
    pub scheduler: &'static str,
    /// PE count of this cell.
    pub pes: usize,
    /// Multi-PE makespan in cycles.
    pub makespan: f64,
    /// Load-imbalance ratio (busiest PE / mean busy time).
    pub imbalance: f64,
    /// Makespan speedup relative to round-robin at the same PE count
    /// (1.0 for the `rr` rows themselves).
    pub speedup_vs_rr: f64,
}

/// Runs every scheduler across `pe_counts` over one set of cluster
/// profiles — the scheduler axis of the `figure24` experiment and the
/// scheduler-comparison bench.
pub fn scheduler_comparison(
    profiles: &[ClusterProfile],
    pe_counts: &[usize],
    per_pe_bytes_per_cycle: f64,
) -> Vec<SchedulerPoint> {
    let mut out = Vec::new();
    for &pes in pe_counts {
        // RoundRobin is first in `ALL`, so the baseline falls out of the
        // same loop — no duplicate simulation.
        let mut rr_makespan = f64::NAN;
        for kind in SchedulerKind::ALL {
            let run = multi_pe::simulate_with(profiles, pes, per_pe_bytes_per_cycle, kind);
            if kind == SchedulerKind::RoundRobin {
                rr_makespan = run.makespan;
            }
            out.push(SchedulerPoint {
                scheduler: kind.name(),
                pes,
                makespan: run.makespan,
                imbalance: run.imbalance(),
                speedup_vs_rr: if run.makespan > 0.0 {
                    rr_makespan / run.makespan
                } else {
                    1.0
                },
            });
        }
    }
    out
}

/// The pinned-vs-LRU replacement study of the Section VIII discussion.
#[derive(Debug, Clone, Copy)]
pub struct ReplacementStudy {
    /// Cycles with the paper's pinned HDN policy.
    pub pinned_cycles: u64,
    /// Cycles with demand-filled LRU replacement.
    pub lru_cycles: u64,
    /// Hit rates of the two policies.
    pub pinned_hit_rate: f64,
    /// See [`ReplacementStudy::pinned_hit_rate`].
    pub lru_hit_rate: f64,
}

/// Runs the replacement-policy study on one dataset.
pub fn replacement_study(eval: &DatasetEval) -> ReplacementStudy {
    let pinned = GrowEngine::default().run(&eval.partitioned);
    let lru_cfg = GrowConfig {
        replacement: ReplacementPolicy::Lru,
        ..GrowConfig::default()
    };
    let lru = GrowEngine::new(lru_cfg).run(&eval.partitioned);
    ReplacementStudy {
        pinned_cycles: pinned.total_cycles(),
        lru_cycles: lru.total_cycles(),
        pinned_hit_rate: pinned.aggregation_cache().hit_rate().unwrap_or(0.0),
        lru_hit_rate: lru.aggregation_cache().hit_rate().unwrap_or(0.0),
    }
}

/// The Section VIII non-power-law study: GROW vs GCNAX on a uniform
/// (Erdős–Rényi-like) graph, where HDN caching has no skew to exploit.
#[derive(Debug, Clone, Copy)]
pub struct NonPowerLawStudy {
    /// GROW cycles (with partitioning).
    pub grow_cycles: u64,
    /// GCNAX cycles.
    pub gcnax_cycles: u64,
    /// GROW's HDN hit rate on the uniform graph.
    pub hit_rate: f64,
    /// GROW speedup over GCNAX.
    pub speedup: f64,
}

/// Runs the non-power-law discussion experiment on a `2^scale`-node
/// uniform R-MAT graph with Pubmed-like feature dimensions.
///
/// Section VIII predicts "the effectiveness of GROW's HDN caching will be
/// reduced for non-power-law graphs" but expects row-stationary dataflow
/// plus runahead "to better hide latency than GCNAX, maintaining its
/// superiority".
pub fn non_power_law_study(scale: u32, avg_degree: f64, seed: u64) -> NonPowerLawStudy {
    use grow_graph::RmatGraphSpec;
    let graph = RmatGraphSpec::uniform(scale, avg_degree).generate(seed);
    let mut spec = DatasetKey::Pubmed.spec().scaled_to(graph.nodes());
    spec.avg_degree = avg_degree;
    let workload = grow_model::GcnWorkload::with_graph(&spec, graph, seed);
    let base = prepare(&workload, PartitionStrategy::None, 4096);
    let partitioned = prepare(
        &workload,
        PartitionStrategy::Multilevel {
            cluster_nodes: (workload.graph.nodes() / 8).max(64),
        },
        4096,
    );
    let grow = GrowEngine::default().run(&partitioned);
    let gcnax = GcnaxEngine::default().run(&base);
    NonPowerLawStudy {
        grow_cycles: grow.total_cycles(),
        gcnax_cycles: gcnax.total_cycles(),
        hit_rate: grow.aggregation_cache().hit_rate().unwrap_or(0.0),
        speedup: gcnax.total_cycles() as f64 / grow.total_cycles() as f64,
    }
}

/// Wall-clock cost of the one-time software preprocessing (Section V-C:
/// "tens of milliseconds to several tens of minutes depending on the
/// number of graph nodes"): the whole [`prepare`] call under
/// [`PartitionStrategy::multilevel_default`] — partition, relabel, `A + I`
/// adjacency and HDN lists.
pub fn preprocessing_cost(workload: &GcnWorkload) -> std::time::Duration {
    let start = std::time::Instant::now();
    let _ = prepare(workload, PartitionStrategy::multilevel_default(), 4096);
    start.elapsed()
}

/// The one-time cost of a cold job's preprocessing, stage by stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessingStages {
    /// Nodes of the generated graph.
    pub nodes: usize,
    /// Directed edges of the generated graph.
    pub directed_edges: usize,
    /// Generating the synthetic graph (the stand-in for loading a
    /// dataset).
    pub generate: std::time::Duration,
    /// [`grow_partition::multilevel_partition`] alone, with the part count
    /// `prepare` derives for 4096-node clusters.
    pub partition: std::time::Duration,
    /// The whole [`prepare`] call ([`preprocessing_cost`]), which repeats
    /// the partition and adds relabeling, `A + I` and the HDN lists.
    pub prepare: std::time::Duration,
}

impl PreprocessingStages {
    /// Generates `spec`'s graph with `seed` and times each stage once.
    pub fn measure(spec: &DatasetSpec, seed: u64) -> Self {
        let start = std::time::Instant::now();
        let graph = spec.graph_spec().generate(seed);
        let generate = start.elapsed();
        let (nodes, directed_edges) = (graph.nodes(), graph.directed_edges());
        let start = std::time::Instant::now();
        let _ = grow_partition::multilevel_partition(
            &graph,
            nodes.div_ceil(4096).max(1),
            &grow_partition::MultilevelConfig::default(),
        );
        let partition = start.elapsed();
        let workload = GcnWorkload::with_graph(spec, graph, seed);
        PreprocessingStages {
            nodes,
            directed_edges,
            generate,
            partition,
            prepare: preprocessing_cost(&workload),
        }
    }
}

/// Geometric mean (the paper's "average" for ratios).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut count = 0usize;
    for v in values {
        log_sum += v.max(f64::MIN_POSITIVE).ln();
        count += 1;
    }
    if count == 0 {
        return 0.0;
    }
    (log_sum / count as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_eval() -> DatasetEval {
        DatasetEval::from_spec(DatasetKey::Pubmed.spec().scaled_to(1500), 7)
    }

    #[test]
    fn speedup_row_shows_grow_winning() {
        // Paper regime: XW must exceed GCNAX's 512 KB dense buffer
        // (n * 16 * 8 B > 512 KB => n > 4096) and the adjacency must be
        // tile-sparse; tiny resident workloads legitimately favor GCNAX.
        let mut spec = DatasetKey::Pubmed.spec().scaled_to(6000);
        spec.avg_degree = 4.0;
        let eval = DatasetEval::from_spec(spec, 7);
        let row = speedup_row(&eval, &GrowConfig::default(), &GcnaxEngine::default());
        assert!(row.speedup_gp() > 1.0, "speedup {}", row.speedup_gp());
        let (no_gp, gp) = row.hit_rates();
        assert!(gp >= no_gp * 0.8, "partitioning hit rate {gp} vs {no_gp}");
    }

    #[test]
    fn traffic_ablation_is_monotone() {
        // Figure 19: caching reduces traffic, partitioning reduces it more
        // (on community-structured graphs).
        let eval = small_eval();
        let t = traffic_ablation(&eval, &GrowConfig::default());
        assert!(t.no_cache > t.cache, "{t:?}");
        assert!(t.cache >= t.cache_gp, "{t:?}");
    }

    #[test]
    fn ablation_steps_improve() {
        let eval = small_eval();
        let a = speedup_ablation(&eval, &GrowConfig::default());
        assert!(a.plus_runahead >= a.hdn_only * 0.95, "{a:?}");
        assert!(a.plus_partitioning >= a.plus_runahead * 0.9, "{a:?}");
    }

    #[test]
    fn bandwidth_sweep_monotone_for_gcnax() {
        // Figure 25(b): GCNAX is highly bandwidth-sensitive.
        let eval = small_eval();
        let pts = bandwidth_sweep(&eval, &[16.0, 64.0, 256.0]);
        assert!(pts[0].gcnax_cycles > pts[1].gcnax_cycles);
        assert!(pts[1].gcnax_cycles >= pts[2].gcnax_cycles);
    }

    #[test]
    fn spsp_comparison_ranks_engines() {
        // Figure 26: GROW > GAMMA > MatRaptor. At this toy scale both
        // sparse-sparse engines can be compute-bound (cycle tie), but the
        // fiber cache must still strictly separate their traffic.
        let eval = small_eval();
        let c = spsp_comparison(&eval);
        assert!(c.grow.total_cycles() < c.gamma.total_cycles());
        assert!(c.gamma.total_cycles() <= c.matraptor.total_cycles());
        assert!(c.gamma.dram_bytes() < c.matraptor.dram_bytes());
        assert!(c.grow.dram_bytes() < c.gamma.dram_bytes());
    }

    #[test]
    fn pe_scaling_improves_throughput() {
        // Use fine-grained clusters so the small test workload actually has
        // parallelism to distribute (the default 4096-node clusters leave a
        // 2500-node graph as a single cluster).
        let workload = DatasetKey::Pubmed.spec().scaled_to(2500).instantiate(7);
        let base = crate::prepare(&workload, crate::PartitionStrategy::None, 4096);
        let partitioned = crate::prepare(
            &workload,
            crate::PartitionStrategy::Multilevel { cluster_nodes: 200 },
            4096,
        );
        let eval = DatasetEval {
            key: DatasetKey::Pubmed,
            workload,
            base,
            partitioned,
        };
        let curve = pe_scaling(&eval, &[1, 4, 16]);
        assert!((curve[0].normalized_throughput - 1.0).abs() < 1e-9);
        assert!(curve[1].normalized_throughput > 2.0, "{curve:?}");
        assert!(
            curve[2].normalized_throughput > curve[1].normalized_throughput,
            "{curve:?}"
        );
    }

    #[test]
    fn scheduler_comparison_covers_the_grid() {
        let profiles = crate::schedule::power_law_profiles(96, 5);
        let points = scheduler_comparison(&profiles, &[2, 8], 4.0);
        assert_eq!(points.len(), 8, "4 schedulers x 2 PE counts");
        for p in &points {
            assert!(p.makespan > 0.0 && p.imbalance >= 1.0, "{p:?}");
            if p.scheduler == "rr" {
                assert!((p.speedup_vs_rr - 1.0).abs() < 1e-12, "{p:?}");
            }
            if p.scheduler == "ws" {
                assert!(p.speedup_vs_rr >= 1.0 - 1e-9, "ws never slower: {p:?}");
            }
        }
    }

    #[test]
    fn non_power_law_hit_rate_is_depressed() {
        // Section VIII: without a heavy tail there is little for the HDN
        // cache to pin; the hit rate must fall well below the power-law
        // case, yet GROW should not collapse against GCNAX.
        // 2^13 nodes so the HDN cache (4096 rows at f_out = 16) cannot
        // simply pin the whole graph.
        let uniform = non_power_law_study(13, 8.0, 5);
        let power_law = {
            let eval = small_eval();
            let row = speedup_row(&eval, &GrowConfig::default(), &GcnaxEngine::default());
            row.hit_rates().1
        };
        assert!(
            uniform.hit_rate < power_law,
            "uniform {} vs power-law {power_law}",
            uniform.hit_rate
        );
        assert!(
            uniform.speedup > 0.5,
            "GROW should stay competitive: {uniform:?}"
        );
    }

    #[test]
    fn preprocessing_cost_is_measurable() {
        let w = DatasetKey::Pubmed.spec().scaled_to(1000).instantiate(3);
        let d = preprocessing_cost(&w);
        assert!(d.as_nanos() > 0);
        assert!(
            d.as_secs() < 60,
            "preprocessing should be fast at this scale"
        );
    }

    #[test]
    fn preprocessing_stages_cover_the_generated_graph() {
        let spec = DatasetKey::Pubmed.spec().scaled_to(1000);
        let stages = PreprocessingStages::measure(&spec, 3);
        let graph = spec.graph_spec().generate(3);
        assert_eq!(stages.nodes, graph.nodes());
        assert_eq!(stages.directed_edges, graph.directed_edges());
        assert!(stages.generate.as_nanos() > 0 && stages.partition.as_nanos() > 0);
        assert!(stages.prepare.as_nanos() > 0);
    }

    #[test]
    fn geomean_of_identical_values() {
        assert!((geomean([2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn replacement_study_reports_both_policies() {
        let eval = small_eval();
        let s = replacement_study(&eval);
        assert!(s.pinned_cycles > 0 && s.lru_cycles > 0);
        assert!(s.pinned_hit_rate > 0.0);
    }
}
