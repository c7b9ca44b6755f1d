//! Drives the serving layer the way a user does: fresh services, a result
//! store in a fresh directory, closed-loop submission. Nothing here is
//! traced; this is the untraced side that the end-to-end metrics and the
//! correctness gate read.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use grow_serve::{
    AsyncConfig, AsyncService, BatchService, JobResult, JobSpec, Priority, ResultStore,
    ServiceStats, StoreStats,
};

use crate::fleet::{Fleet, Front, CLIENT_WINDOW, SERVE_WORKERS};
use crate::stats::report_hash;

/// What one submission came back with: the hash of its report, or why
/// it has none (`JobError`, `SubmitError` or `WaitError`, rendered).
pub type Outcome = Result<u64, String>;

/// One service lifetime, from service start to the last result.
#[derive(Debug, Default)]
pub struct Lifetime {
    pub wall_s: f64,
    /// `(job key, outcome)` per submission, in submission order.
    pub outcomes: Vec<(String, Outcome)>,
    /// Submit-to-result time per delivered submission.
    pub latency_ms: Vec<f64>,
    /// `JobResult::wall_ms` per delivered submission (`None` = cache hit).
    pub job_wall_ms: Vec<Option<f64>>,
    pub stats: ServiceStats,
    pub plan_misses: u64,
    pub store: StoreStats,
}

/// One iteration of a workload: set-up, the timed lifetime, the restarts.
#[derive(Debug, Default)]
pub struct Iteration {
    pub setup_s: f64,
    pub setup: Lifetime,
    pub timed: Lifetime,
    pub restarts: Vec<Lifetime>,
}

impl Iteration {
    pub fn lifetimes(&self) -> impl Iterator<Item = &Lifetime> {
        [&self.setup, &self.timed].into_iter().chain(&self.restarts)
    }
}

/// A scratch directory inside the benchmark's own directory, removed on
/// drop. The benchmark reads and writes nothing outside its checkout.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> std::io::Result<TempDir> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("run-tmp")
            .join(format!(
                "{tag}-{}-{}",
                std::process::id(),
                NEXT.fetch_add(1, Ordering::Relaxed)
            ));
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once the last concurrent run has left.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn outcome(result: &JobResult) -> Outcome {
    match &result.outcome {
        Ok(report) => Ok(report_hash(report)),
        Err(e) => Err(format!("job error: {e}")),
    }
}

fn batch_lifetime(service: &mut BatchService, jobs: &[(JobSpec, Priority)]) -> Lifetime {
    let specs: Vec<JobSpec> = jobs.iter().map(|(j, _)| j.clone()).collect();
    let started = Instant::now();
    let results = service.run_batch(&specs);
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = Lifetime {
        wall_s,
        ..Lifetime::default()
    };
    for r in &results {
        out.outcomes.push((r.key.as_str().to_string(), outcome(r)));
        // Every result of a batch is delivered when the batch returns.
        out.latency_ms.push(wall_s * 1e3);
        out.job_wall_ms.push(r.wall_ms);
    }
    out.stats = service.stats();
    out.plan_misses = service.plan_cache().misses();
    out.store = service.store().map(ResultStore::stats).unwrap_or_default();
    out
}

/// One `AsyncService` lifetime: start, a closed-loop client keeping
/// `CLIENT_WINDOW` tickets outstanding, drain, finish.
fn async_lifetime(store: ResultStore, jobs: &[(JobSpec, Priority)]) -> Lifetime {
    let mut out = Lifetime {
        outcomes: jobs
            .iter()
            .map(|(j, _)| (j.key().as_str().to_string(), Err("not delivered".into())))
            .collect(),
        ..Lifetime::default()
    };
    let started = Instant::now();
    let service = AsyncService::start(
        BatchService::new().with_store(store),
        AsyncConfig {
            workers: SERVE_WORKERS,
            ..AsyncConfig::default()
        },
    );
    let mut next = 0;
    let mut outstanding = Vec::with_capacity(CLIENT_WINDOW);
    loop {
        while outstanding.len() < CLIENT_WINDOW && next < jobs.len() {
            let (job, priority) = &jobs[next];
            match service.submit_with(job.clone(), *priority) {
                Ok(ticket) => outstanding.push((next, Instant::now(), ticket)),
                Err(e) => out.outcomes[next].1 = Err(format!("submit error: {e}")),
            }
            next += 1;
        }
        if outstanding.is_empty() {
            break;
        }
        let before = outstanding.len();
        outstanding.retain(|(index, submitted, ticket)| match ticket.try_wait() {
            Ok(None) => true,
            Ok(Some(result)) => {
                out.latency_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                out.job_wall_ms.push(result.wall_ms);
                out.outcomes[*index].1 = outcome(&result);
                false
            }
            Err(e) => {
                out.outcomes[*index].1 = Err(format!("wait error: {e}"));
                false
            }
        });
        if outstanding.len() == before {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    let batch = service.finish();
    out.wall_s = started.elapsed().as_secs_f64();
    out.stats = batch.stats();
    out.plan_misses = batch.plan_cache().misses();
    out.store = batch.store().map(ResultStore::stats).unwrap_or_default();
    out
}

fn lifetime(
    front: Front,
    dir: &Path,
    primed: Option<BatchService>,
    jobs: &[(JobSpec, Priority)],
) -> std::io::Result<Lifetime> {
    let store = ResultStore::open(dir)?;
    Ok(match front {
        Front::Batch => {
            let mut service = match primed {
                Some(mut service) => {
                    // The timed lifetime's counters start at zero; the
                    // priming batch's are reported with the set-up.
                    service.reset_stats();
                    service.set_store(store);
                    service
                }
                None => BatchService::new().with_store(store),
            };
            batch_lifetime(&mut service, jobs)
        }
        Front::Async => async_lifetime(store, jobs),
    })
}

/// Runs iteration `index` of `fleet`: set-up, the timed lifetime, then
/// the restart lifetimes, each on a fresh service over the same store
/// directory.
pub fn iterate(fleet: &Fleet, tag: &str, index: u64) -> std::io::Result<Iteration> {
    let [timed_jobs, restart_jobs] = fleet.submissions(index);
    let setup_jobs: Vec<(JobSpec, Priority)> = fleet
        .setup
        .iter()
        .map(|j| (j.clone(), Priority::Normal))
        .collect();
    let dir = TempDir::new(tag)?;
    let started = Instant::now();
    let (setup, primed) = if fleet.prime_timed_service {
        let mut service = BatchService::new();
        (batch_lifetime(&mut service, &setup_jobs), Some(service))
    } else {
        let warm = TempDir::new(tag)?;
        (lifetime(fleet.front, warm.path(), None, &setup_jobs)?, None)
    };
    let setup_s = started.elapsed().as_secs_f64();
    let timed = lifetime(fleet.front, dir.path(), primed, &timed_jobs)?;
    let restarts = (0..fleet.restart_repeats)
        .map(|_| lifetime(fleet.front, dir.path(), None, &restart_jobs))
        .collect::<std::io::Result<_>>()?;
    Ok(Iteration {
        setup_s,
        setup,
        timed,
        restarts,
    })
}
