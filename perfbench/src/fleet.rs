//! The three workloads as pure data: which jobs each service lifetime
//! receives, in which order and at which priority. Every choice that
//! varies between runs is drawn from the `--seed` argument.

use grow_core::PartitionStrategy;
use grow_model::{DatasetKey, DatasetSpec};
use grow_serve::{JobSpec, Priority};

/// Problem size: `Full` is what the benchmark measures, `Tiny` is the
/// same workload shape at a few hundred nodes for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// How a workload's jobs reach the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// One `BatchService::run_batch` call per lifetime.
    Batch,
    /// An `AsyncService` with `SERVE_WORKERS` workers fed by one closed-loop
    /// client keeping `CLIENT_WINDOW` tickets outstanding.
    Async,
}

pub const SERVE_WORKERS: usize = 2;
const READ_ONLY_RESTARTS: usize = 25;
pub const CLIENT_WINDOW: usize = 4;

/// One workload: the set-up jobs, the timed lifetime, and the restart
/// lifetime (a fresh service over the same result-store directory).
#[derive(Debug, Clone)]
pub struct Fleet {
    pub front: Front,
    /// Set-up jobs. With `prime_timed_service` they run on the service the
    /// timed lifetime then uses (sweep_yelp's priming batch); otherwise on
    /// a throwaway service of the same front, as a process warm-up.
    pub setup: Vec<JobSpec>,
    pub prime_timed_service: bool,
    /// Distinct jobs of the timed lifetime.
    pub timed: Vec<JobSpec>,
    /// Jobs of the restart lifetime.
    pub restart: Vec<JobSpec>,
    /// For the async front: the seed of each iteration's arrangement
    /// (duplicates, submission order, priority classes) and the number of
    /// duplicate submissions. Every iteration draws a new arrangement, so
    /// a run's medians do not hinge on one submission order.
    pub arrangement: Option<(u64, usize)>,
    /// Restart lifetimes per iteration. Above 1 only where the restart
    /// fleet is read-only (every key already persisted), so each repeat
    /// does the same work and the median of many steadies a sub-ms time.
    pub restart_repeats: usize,
    /// The preparation the traced run's probes use: (dataset, seed,
    /// strategy) of the fleet's largest partitioned workload.
    pub primary: (DatasetSpec, u64, PartitionStrategy),
}

/// Deterministic splitmix64 stream for the seeded fleet choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

pub const WORKLOADS: [&str; 3] = ["cold_reddit", "sweep_yelp", "serve_restart"];

pub fn fleet(workload: &str, seed: u64, scale: Scale) -> Option<Fleet> {
    match workload {
        "cold_reddit" => Some(cold_reddit(seed, scale)),
        "sweep_yelp" => Some(sweep_yelp(seed, scale)),
        "serve_restart" => Some(serve_restart(seed, scale)),
        _ => None,
    }
}

fn sized(key: DatasetKey, scale: Scale, tiny_nodes: usize) -> DatasetSpec {
    match scale {
        Scale::Full => key.spec(),
        Scale::Tiny => key.spec().scaled_to(tiny_nodes),
    }
}

/// The paper-comparison fleet: GROW on its multilevel partition, the
/// three baselines on the original node order.
fn comparison_fleet(spec: DatasetSpec, seed: u64) -> Vec<JobSpec> {
    let ml = PartitionStrategy::multilevel_default();
    vec![
        JobSpec::new(spec, seed, "grow").with_strategy(ml),
        JobSpec::new(spec, seed, "gcnax"),
        JobSpec::new(spec, seed, "gamma"),
        JobSpec::new(spec, seed, "matraptor"),
    ]
}

/// One cold inference of the default Reddit surrogate across the fleet.
/// Set-up is the same fleet on a small Reddit-shaped graph in a
/// throwaway service, so the timed job does not pay first-touch costs
/// (thread start, page faults) that a long-lived process pays once.
fn cold_reddit(seed: u64, scale: Scale) -> Fleet {
    let spec = sized(DatasetKey::Reddit, scale, 1200);
    let warm = DatasetKey::Reddit.spec().scaled_to(match scale {
        Scale::Full => 2000,
        Scale::Tiny => 1000,
    });
    let fleet = comparison_fleet(spec, seed);
    Fleet {
        front: Front::Batch,
        setup: comparison_fleet(warm, seed),
        prime_timed_service: false,
        timed: fleet.clone(),
        restart: fleet,
        arrangement: None,
        restart_repeats: READ_ONLY_RESTARTS,
        primary: (spec, seed, PartitionStrategy::multilevel_default()),
    }
}

/// A configuration sweep over one prepared Yelp surrogate. The priming
/// batch (two MatRaptor jobs, one per order) instantiates the session and
/// both preparations; the timed batch is then engine work only, with the
/// replay-only GROW knobs sharing one cached plan.
fn sweep_yelp(seed: u64, scale: Scale) -> Fleet {
    let spec = sized(DatasetKey::Yelp, scale, 3000);
    let ml = PartitionStrategy::multilevel_default();
    let grow = |overrides: &[&str]| {
        overrides.iter().fold(
            JobSpec::new(spec, seed, "grow").with_strategy(ml),
            |job, o| job.with_override_spec(o),
        )
    };
    let timed = vec![
        grow(&[]),
        grow(&["runahead=1"]),
        grow(&["runahead=16"]),
        grow(&["hdn_cache_kb=64"]),
        grow(&["replacement=lru"]),
        grow(&["exec=e2e", "pes=8", "scheduler=ca", "channels=4", "banks=8"]),
        grow(&["scheduler=ws", "pes=16"]),
        JobSpec::new(spec, seed, "grow"),
        JobSpec::new(spec, seed, "gcnax"),
        JobSpec::new(spec, seed, "gcnax")
            .with_override("exec", "e2e")
            .with_override("pes", "8"),
        JobSpec::new(spec, seed, "gamma"),
        JobSpec::new(spec, seed, "gamma").with_strategy(ml),
    ];
    Fleet {
        front: Front::Batch,
        setup: vec![
            JobSpec::new(spec, seed, "matraptor"),
            JobSpec::new(spec, seed, "matraptor").with_strategy(ml),
        ],
        prime_timed_service: true,
        timed: timed.clone(),
        restart: timed,
        arrangement: None,
        restart_repeats: READ_ONLY_RESTARTS,
        primary: (spec, seed, ml),
    }
}

impl Fleet {
    /// The timed and restart submissions of iteration `iteration`, in
    /// submission order. Batch fleets run in their listed order at
    /// `Normal` priority. Async fleets add seeded duplicates to the timed
    /// lifetime, shuffle both lifetimes, and put about a quarter of the
    /// submissions in the `High` class.
    pub fn submissions(&self, iteration: u64) -> [Vec<(JobSpec, Priority)>; 2] {
        let Some((seed, duplicates)) = self.arrangement else {
            let normal =
                |jobs: &[JobSpec]| jobs.iter().map(|j| (j.clone(), Priority::Normal)).collect();
            return [normal(&self.timed), normal(&self.restart)];
        };
        let mut rng = Rng::new(seed ^ iteration.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut timed = self.timed.clone();
        for _ in 0..duplicates {
            timed.push(self.timed[rng.below(self.timed.len())].clone());
        }
        let restart = self.restart.clone();
        [timed, restart].map(|mut jobs| {
            rng.shuffle(&mut jobs);
            jobs.into_iter()
                .map(|job| {
                    let class = if rng.below(4) == 0 {
                        Priority::High
                    } else {
                        Priority::Normal
                    };
                    (job, class)
                })
                .collect()
        })
    }
}

/// An always-on service across a process restart. Lifetime 1 computes
/// and persists a citation-graph fleet with about 40% duplicate
/// submissions; lifetime 2 serves every old key from disk plus 18 new
/// keys whose sessions have to be rebuilt.
fn serve_restart(seed: u64, scale: Scale) -> Fleet {
    let ml = PartitionStrategy::Multilevel {
        cluster_nodes: 1024,
    };
    let datasets = [
        sized(DatasetKey::Cora, scale, 300),
        sized(DatasetKey::Citeseer, scale, 300),
        sized(DatasetKey::Pubmed, scale, 600),
    ];
    let seeds = [seed, seed.wrapping_add(1)];
    let mut distinct = Vec::new();
    let mut fresh = Vec::new();
    for spec in datasets {
        for s in seeds {
            for engine in ["grow", "gcnax", "gamma", "matraptor"] {
                for strategy in [PartitionStrategy::None, ml] {
                    distinct.push(JobSpec::new(spec, s, engine).with_strategy(strategy));
                }
            }
            distinct.push(
                JobSpec::new(spec, s, "grow")
                    .with_strategy(ml)
                    .with_override("runahead", "4"),
            );
            distinct.push(
                JobSpec::new(spec, s, "gcnax")
                    .with_override("exec", "e2e")
                    .with_override("pes", "4"),
            );
            fresh.push(
                JobSpec::new(spec, s, "grow")
                    .with_strategy(ml)
                    .with_override("runahead", "8"),
            );
            fresh.push(JobSpec::new(spec, s, "grow").with_override("runahead", "8"));
            fresh.push(
                JobSpec::new(spec, s, "gamma")
                    .with_strategy(ml)
                    .with_override("fiber_cache_kb", "64"),
            );
        }
    }
    let mut restart = distinct.clone();
    restart.extend(fresh);
    // Set-up warms a throwaway service and store on the fleet's Cora jobs.
    let setup = distinct
        .iter()
        .filter(|j| j.dataset == datasets[0])
        .cloned()
        .collect();
    Fleet {
        front: Front::Async,
        setup,
        prime_timed_service: false,
        timed: distinct,
        restart,
        // 60 distinct keys plus 44 duplicates: 104 submissions, 42% repeats.
        arrangement: Some((seed, 44)),
        restart_repeats: 1,
        primary: (datasets[2], seed, ml),
    }
}
