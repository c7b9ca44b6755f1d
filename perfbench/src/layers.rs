//! Direct calls into each layer's public functions, bypassing the
//! serving layer: `generate` → `with_graph` → `prepare` → engine. The
//! reference pass computes the report every served job must match; the
//! probes time single layers on the fleet's primary preparation.

use std::sync::Arc;

use grow_core::registry;
use grow_core::{
    prepare, PartitionStrategy, PlanCache, PlanCacheScope, PreparedWorkload, RunReport,
};
use grow_model::{DatasetSpec, GcnWorkload};
use grow_partition::{multilevel_partition, MultilevelConfig};
use grow_serve::{JobSpec, ResultStore, StoreStats};
use grow_sim::exec::{with_mode, ExecMode};

use crate::drive::TempDir;
use crate::stats::{fnv1a64, report_hash, FNV_BASIS};
use crate::trace::Tracer;

/// One distinct job of the fleet and what the direct calls made of it.
pub struct RefJob {
    pub key: String,
    pub spec: JobSpec,
    pub engine: &'static str,
    pub report: Result<RunReport, String>,
}

impl RefJob {
    pub fn hash(&self) -> Option<u64> {
        self.report.as_ref().ok().map(report_hash)
    }
}

pub struct Reference {
    /// Distinct jobs in first-submission order.
    pub jobs: Vec<RefJob>,
    /// Directed edges generated across every workload instantiated.
    pub edges: u64,
    /// The primary workload and its prepared form, kept for the probes.
    pub primary: Option<Primary>,
}

pub struct Primary {
    pub seed: u64,
    pub strategy: PartitionStrategy,
    pub workload: GcnWorkload,
    pub prepared: PreparedWorkload,
}

impl Reference {
    pub fn report(&self, key: &str) -> Option<&RunReport> {
        self.jobs
            .iter()
            .find(|j| j.key == key)?
            .report
            .as_ref()
            .ok()
    }

    /// Digest of every report with its job key, in key order.
    pub fn digest(&self) -> u64 {
        let mut jobs: Vec<&RefJob> = self.jobs.iter().collect();
        jobs.sort_by(|a, b| a.key.cmp(&b.key));
        jobs.into_iter().fold(FNV_BASIS, |h, j| {
            let h = fnv1a64(j.key.as_bytes(), h);
            fnv1a64(&j.hash().unwrap_or(0).to_le_bytes(), h)
        })
    }
}

fn engine_span(engine: &str) -> &'static str {
    match engine {
        "grow" => "engine.grow",
        "gcnax" => "engine.gcnax",
        "gamma" => "engine.gamma",
        _ => "engine.matraptor",
    }
}

fn prepare_span(strategy: PartitionStrategy) -> &'static str {
    match strategy {
        PartitionStrategy::None => "prepare.none",
        PartitionStrategy::Multilevel { .. } => "prepare.multilevel",
        PartitionStrategy::LabelPropagation { .. } => "prepare.label_propagation",
    }
}

fn run_job(
    job: &JobSpec,
    prepared: &PreparedWorkload,
    tracer: &mut Tracer,
    id: usize,
) -> Result<RunReport, String> {
    let name = registry::canonical_name(&job.engine).map_err(|e| e.to_string())?;
    let parsed = registry::parse_overrides(&job.overrides).map_err(|e| e.to_string())?;
    let pairs: Vec<(&str, &str)> = parsed
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let engine = registry::engine_from_overrides(name, &pairs).map_err(|e| e.to_string())?;
    Ok(tracer.span(engine_span(name), Some(id), || engine.run(prepared)))
}

/// Computes every distinct job of `jobs` by direct layer calls. Jobs
/// sharing a workload recipe share one generated graph and one
/// preparation per strategy, as the service's session pool does.
pub fn reference_pass(
    jobs: &[JobSpec],
    primary: (DatasetSpec, u64, PartitionStrategy),
    tracer: &mut Tracer,
) -> Reference {
    let mut distinct: Vec<JobSpec> = Vec::new();
    for job in jobs {
        if !distinct.iter().any(|d| d.key() == job.key()) {
            distinct.push(job.clone());
        }
    }
    let recipe = |j: &JobSpec| (format!("{:?}", j.dataset), j.seed, j.hdn_id_entries);
    let mut groups: Vec<(String, u64, usize)> = Vec::new();
    for job in &distinct {
        if !groups.contains(&recipe(job)) {
            groups.push(recipe(job));
        }
    }
    let mut slots: Vec<Option<RefJob>> = distinct.iter().map(|_| None).collect();
    let mut edges = 0u64;
    let mut kept = None;
    for group in groups {
        let members: Vec<usize> = (0..distinct.len())
            .filter(|&i| recipe(&distinct[i]) == group)
            .collect();
        let first = &distinct[members[0]];
        let (spec, seed, hdn) = (first.dataset, first.seed, first.hdn_id_entries);
        let graph = tracer.span("graph.generate", Some(members[0]), || {
            spec.graph_spec().generate(seed)
        });
        edges += graph.directed_edges() as u64;
        let workload = tracer.span("model.features", Some(members[0]), || {
            GcnWorkload::with_graph(&spec, graph, seed)
        });
        let mut prepared: Vec<(PartitionStrategy, PreparedWorkload)> = Vec::new();
        for &i in &members {
            let job = &distinct[i];
            if !prepared.iter().any(|(s, _)| *s == job.strategy) {
                let p = tracer.span(prepare_span(job.strategy), Some(i), || {
                    prepare(&workload, job.strategy, hdn)
                });
                prepared.push((job.strategy, p));
            }
            let p = &prepared
                .iter()
                .find(|(s, _)| *s == job.strategy)
                .expect("prepared above")
                .1;
            let engine = registry::canonical_name(&job.engine).unwrap_or("unknown");
            slots[i] = Some(RefJob {
                key: job.key().as_str().to_string(),
                spec: job.clone(),
                engine,
                report: run_job(job, p, tracer, i),
            });
        }
        if (spec, seed) == (primary.0, primary.1) {
            if let Some(pos) = prepared.iter().position(|(s, _)| *s == primary.2) {
                kept = Some(Primary {
                    seed,
                    strategy: primary.2,
                    workload,
                    prepared: prepared.swap_remove(pos).1,
                });
            }
        }
    }
    Reference {
        jobs: slots
            .into_iter()
            .map(|s| s.expect("every job computed"))
            .collect(),
        edges,
        primary: kept,
    }
}

/// What the probes measured beyond the spans they recorded.
#[derive(Debug, Default)]
pub struct Probes {
    pub intra_edge_fraction: f64,
    pub entry_bytes: f64,
    pub store: StoreStats,
    /// Probe results that disagreed with the reference pass.
    pub mismatches: Vec<String>,
}

/// Single-layer probes on the primary preparation: a standalone
/// partition, GROW with a cold then a warm plan-cache scope, GROW under
/// `exec=e2e`, GROW serial against parallel, and a store round trip of
/// every reference report.
pub fn probes(reference: &Reference, tracer: &mut Tracer) -> std::io::Result<Probes> {
    let mut out = Probes::default();
    let Some(primary) = &reference.primary else {
        out.mismatches.push("primary preparation missing".into());
        return Ok(out);
    };
    let (workload, prepared) = (&primary.workload, &primary.prepared);
    if let PartitionStrategy::Multilevel { cluster_nodes } = primary.strategy {
        // The part count `prepare` derives for this strategy.
        let parts = workload.graph.nodes().div_ceil(cluster_nodes.max(1)).max(1);
        let partitioning = tracer.span("partition.multilevel", None, || {
            multilevel_partition(&workload.graph, parts, &MultilevelConfig::default())
        });
        out.intra_edge_fraction = partitioning.intra_edge_fraction(&workload.graph);
        if out.intra_edge_fraction.to_bits() != prepared.intra_edge_fraction.to_bits() {
            out.mismatches
                .push("standalone partition differs from prepare's".into());
        }
    } else {
        out.mismatches
            .push("primary preparation is not multilevel".into());
    }

    let grow = registry::engine_by_name("grow").expect("grow is registered");
    let default_grow =
        JobSpec::new(workload.spec, primary.seed, "grow").with_strategy(primary.strategy);
    let expected = reference
        .report(default_grow.key().as_str())
        .map(report_hash);
    let mut scoped = prepared.clone();
    scoped.plan_cache = Some(PlanCacheScope::new(
        Arc::new(PlanCache::default()),
        "perfbench".into(),
    ));
    let runs = [
        tracer.span("engine.grow.cold_scope", None, || grow.run(&scoped)),
        tracer.span("engine.grow.warm_scope", None, || grow.run(&scoped)),
        tracer.span("exec.parallel", None, || grow.run(prepared)),
        tracer.span("exec.serial", None, || {
            with_mode(ExecMode::Serial, || grow.run(prepared))
        }),
    ];
    for (i, report) in runs.iter().enumerate() {
        if Some(report_hash(report)) != expected {
            out.mismatches
                .push(format!("GROW probe run {i} differs from the reference"));
        }
    }
    let e2e = registry::engine_from_overrides("grow", &[("exec", "e2e"), ("pes", "8")])
        .expect("exec=e2e pes=8 is a valid GROW configuration");
    tracer.span("exec_model.e2e", None, || e2e.run(prepared));

    let dir = TempDir::new("store-probe")?;
    let mut store = ResultStore::open(dir.path())?;
    let mut bytes = 0u64;
    let mut entries = 0u64;
    for job in &reference.jobs {
        let Ok(report) = &job.report else { continue };
        let key = job.spec.key();
        tracer.span("store.persist", None, || store.persist(&key, report))?;
        bytes += std::fs::metadata(store.entry_path(&key))?.len();
        entries += 1;
    }
    for job in &reference.jobs {
        let Ok(report) = &job.report else { continue };
        let key = job.spec.key();
        let loaded = tracer.span("store.load", None, || store.load(&key));
        if loaded.as_ref().map(report_hash) != Some(report_hash(report)) {
            out.mismatches
                .push(format!("store round trip changed {}", job.key));
        }
    }
    out.entry_bytes = bytes as f64 / entries.max(1) as f64;
    out.store = store.stats();
    Ok(out)
}
