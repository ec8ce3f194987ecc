//! The `pool-churn` workload: many tenants in one `SessionPool` whose
//! residency cap is a fraction of the tenant count.
//!
//! Closed loop: each batch carries one round for every tenant, and a
//! tenant's next round is submitted only after the `run_rounds` call
//! carrying its previous one has returned. Since the pool returns no
//! outcome before its batch finishes, a round's latency is the wall time
//! of that call. Each tenant serves [`Plan::rounds`] rounds, is closed,
//! and is replaced by a fresh tenant with the same configuration (the
//! next generation); the window runs whole generations until the
//! measuring time is up. Every generation must serve the first one's
//! trajectories again bit for bit, so every generation does the same
//! work: a batch's latency is its median over the generations.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use nemo_core::pool::CheckpointStore;
use nemo_core::{
    ContextualizerConfig, IdpConfig, PoolConfig, PoolStats, RoundJob, SessionCheckpoint, SessionId,
    SessionPool, SharedArtifacts, SimulatedUser,
};
use nemo_data::Dataset;
use nemo_lf::Label;
use nemo_persist::EncodedCheckpointStore;

use crate::interactive::StageMetrics;
use crate::meta::CpuTicks;
use crate::staged::{check_score, drive_staged, drive_system, Drive, Trajectory};
use crate::stats::Replays;
use crate::trace::{self, Trace};
use crate::{
    meta, report_end_to_end, report_wall_clock, session_seed, Plan, RunResult, Setup, PER_LAYER,
};

/// The configuration of tenant slot `slot`, the same in every generation.
pub fn tenant_config(plan: &Plan, seed: u64, slot: usize) -> IdpConfig {
    IdpConfig {
        n_iterations: plan.rounds,
        seed: session_seed(seed, slot as u64),
        ..IdpConfig::default()
    }
}

fn pool_config(plan: &Plan, workers: usize) -> PoolConfig {
    PoolConfig { max_resident: plan.max_resident, workers: Some(workers), ..PoolConfig::default() }
}

fn admit(pool: &mut SessionPool<'_>, plan: &Plan, seed: u64) -> Result<Vec<SessionId>, String> {
    (0..plan.sessions)
        .map(|slot| {
            pool.admit(tenant_config(plan, seed, slot))
                .map_err(|e| format!("admit tenant {slot}: {e}"))
        })
        .collect()
}

/// The test score a closed tenant's checkpoint records, computed as
/// `NemoSystem::test_score` computes it.
fn checkpoint_score(ds: &Dataset, ckpt: &SessionCheckpoint) -> f64 {
    let pred: Option<Vec<Label>> = ckpt.test_pred.iter().map(|&s| Label::from_sign(s)).collect();
    pred.map_or(f64::NAN, |p| ds.metric.score(&p, &ds.test.labels))
}

/// An [`EncodedCheckpointStore`] that records the interval of every save
/// and load, and the encoded size of every saved checkpoint, in a log
/// shared with the benchmark.
pub struct TimedStore {
    inner: EncodedCheckpointStore,
    sizes: BTreeMap<u64, usize>,
    log: Arc<Mutex<StoreLog>>,
}

/// What a [`TimedStore`] recorded.
#[derive(Debug, Default)]
pub struct StoreLog {
    /// `(name, start, end)` of every save and load.
    pub ops: Vec<(&'static str, Instant, Instant)>,
    /// Encoded bytes of every saved checkpoint, summed.
    pub bytes_saved: u64,
}

impl TimedStore {
    /// Wrap a fresh store; the returned log is shared with it.
    pub fn new() -> (Self, Arc<Mutex<StoreLog>>) {
        let log = Arc::new(Mutex::new(StoreLog::default()));
        let store =
            Self { inner: EncodedCheckpointStore::new(), sizes: BTreeMap::new(), log: log.clone() };
        (store, log)
    }

    fn note(&self, name: &'static str, start: Instant, end: Instant, bytes: usize) {
        let mut log = self.log.lock().expect("store log lock poisoned by a panicking round");
        log.ops.push((name, start, end));
        log.bytes_saved += bytes as u64;
    }
}

impl CheckpointStore for TimedStore {
    fn save(&mut self, id: u64, ckpt: &SessionCheckpoint) -> Result<(), String> {
        let others = self.inner.stored_bytes() - self.sizes.get(&id).copied().unwrap_or(0);
        let start = Instant::now();
        let saved = self.inner.save(id, ckpt);
        let end = Instant::now();
        let size = self.inner.stored_bytes() - others;
        self.sizes.insert(id, size);
        self.note("persist.save", start, end, size);
        saved
    }

    fn load(&mut self, id: u64) -> Result<SessionCheckpoint, String> {
        let start = Instant::now();
        let loaded = self.inner.load(id);
        self.note("persist.load", start, Instant::now(), 0);
        loaded
    }

    fn remove(&mut self, id: u64) -> Result<(), String> {
        self.sizes.remove(&id);
        self.inner.remove(id)
    }
}

/// Record each store operation as a child of the pool call whose interval
/// contains it (the store runs on the thread that called the pool).
fn record_store_ops(trace: &mut Trace, log: &StoreLog) {
    let parents: Vec<(u64, u64, u64)> = trace
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("pool."))
        .map(|s| (s.id, s.start_ns, s.end_ns))
        .collect();
    for &(name, start, end) in &log.ops {
        let (s, e) = (trace.ns(start), trace.ns(end));
        let parent = parents.iter().find(|p| p.1 <= s && e <= p.2).map(|p| p.0);
        let id = trace.reserve();
        trace.record(id, parent, name, start, end);
    }
}

/// Generations served over one window.
#[derive(Debug, Default)]
pub struct PoolWindow {
    /// Rounds attempted.
    pub rounds: u64,
    /// Wall time of the window.
    pub wall_s: f64,
    /// The generations as replays: the wall time of each `run_rounds`
    /// batch, and of the whole generation from admission to close.
    pub replays: Replays,
    /// Rounds each batch served (one per tenant).
    pub batch_rounds: usize,
    /// What each first-generation tenant did.
    pub first_generation: Vec<Trajectory>,
    /// Generations served.
    pub generations: u64,
    /// The pool's lifetime counters at the end of the window.
    pub stats: PoolStats,
}

impl PoolWindow {
    /// Rounds per second of a generation replayed with every phase at its
    /// median: each batch at its median over the generations, plus the
    /// median time outside the batches (admission and close). See
    /// [`Replays`] for `on_granted_cpu`.
    pub fn rounds_per_s(&self, on_granted_cpu: bool) -> f64 {
        let rounds = self.replays.phases_ms.first().map_or(0, Vec::len) * self.batch_rounds;
        rounds as f64 / (self.replays.median_total_ms(on_granted_cpu) / 1e3)
    }

    /// The latency of every round of a generation, ms: each round takes
    /// the latency of its batch, the median over generations of that
    /// batch's wall time.
    pub fn round_latencies_ms(&self, on_granted_cpu: bool) -> Vec<f64> {
        let batches = self.replays.phase_medians(on_granted_cpu);
        batches.iter().flat_map(|&ms| std::iter::repeat(ms).take(self.batch_rounds)).collect()
    }
}

/// One pool workload instance: the artifacts, the plan and the seed.
pub struct Churn<'a> {
    /// The shared artifact set every tenant borrows.
    pub artifacts: &'a SharedArtifacts,
    /// Sizes.
    pub plan: &'a Plan,
    /// Workload seed.
    pub seed: u64,
}

/// Run `f`, recording it as a root span named `name` when tracing.
fn timed<R>(trace: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    if let Some(trace) = trace.as_deref_mut() {
        let id = trace.reserve();
        trace.record(id, None, name, start, Instant::now());
    }
    out
}

impl Churn<'_> {
    /// Serve whole generations through a fresh pool of `workers` workers
    /// until at least `min` has passed (at least one generation). A
    /// generation's time runs from its admission to its close. With a
    /// `trace`, every admission, `run_rounds` batch and close is recorded
    /// as a `pool.*` span.
    pub fn window(
        &self,
        workers: usize,
        store: Box<dyn CheckpointStore>,
        min: Duration,
        mut trace: Option<&mut Trace>,
        result: &mut RunResult,
    ) -> PoolWindow {
        let (plan, seed) = (self.plan, self.seed);
        let ds = self.artifacts.dataset();
        let mut pool = SessionPool::with_store(self.artifacts, pool_config(plan, workers), store);
        let mut w = PoolWindow::default();
        let start = Instant::now();
        loop {
            let ticks = CpuTicks::now();
            let generation_start = Instant::now();
            let admitted = timed(&mut trace, "pool.admit", || admit(&mut pool, plan, seed));
            let ids = match admitted {
                Ok(ids) => ids,
                Err(e) => {
                    result.fail(0, e);
                    break;
                }
            };
            let mut users = vec![SimulatedUser::default(); ids.len()];
            let mut trajectories = vec![Trajectory::default(); ids.len()];
            let mut batch_failed = false;
            let mut batch_ms = Vec::with_capacity(plan.rounds);
            w.batch_rounds = ids.len();
            for _ in 0..plan.rounds {
                let mut jobs: Vec<RoundJob<'_>> =
                    ids.iter().zip(users.iter_mut()).map(|(&id, u)| RoundJob::new(id, u)).collect();
                let t0 = Instant::now();
                let served = timed(&mut trace, "pool.run_rounds", || pool.run_rounds(&mut jobs));
                batch_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                w.rounds += ids.len() as u64;
                match served {
                    Ok(outcomes) => {
                        for (traj, outcome) in trajectories.iter_mut().zip(outcomes) {
                            traj.selected.push(outcome.record.selected);
                        }
                    }
                    Err(e) => {
                        result.fail(ids.len() as u64, format!("batch failed: {e}"));
                        batch_failed = true;
                        break;
                    }
                }
            }
            if batch_failed {
                break;
            }
            let closed: Vec<_> =
                timed(&mut trace, "pool.close", || ids.iter().map(|&id| pool.close(id)).collect());
            for (slot, (ckpt, traj)) in closed.into_iter().zip(trajectories.iter_mut()).enumerate()
            {
                let why = match ckpt {
                    Ok(ckpt) => {
                        traj.score_bits = checkpoint_score(ds, &ckpt).to_bits();
                        check_score(traj.score())
                    }
                    Err(e) => Some(format!("close failed: {e}")),
                };
                if let Some(why) = why {
                    let gen = w.generations;
                    result
                        .fail(plan.rounds as u64, format!("generation {gen} tenant {slot}: {why}"));
                }
            }
            let ms = generation_start.elapsed().as_secs_f64() * 1e3;
            w.replays.push(batch_ms, ms, meta::granted_share(ticks, CpuTicks::now()));
            if w.generations == 0 {
                w.first_generation = trajectories;
            } else {
                let pairs = w.first_generation.iter().zip(&trajectories);
                for (slot, (a, b)) in pairs.enumerate() {
                    if let Some(why) = a.diff(b) {
                        let gen = w.generations;
                        result.fail(
                            plan.rounds as u64,
                            format!("generation {gen} tenant {slot} diverged: {why}"),
                        );
                    }
                }
            }
            w.generations += 1;
            if start.elapsed() >= min {
                break;
            }
        }
        w.wall_s = start.elapsed().as_secs_f64();
        w.stats = pool.stats();
        result.attempted += w.rounds;
        w
    }
}

/// The tenant slots re-run outside the pool: evenly spread over the
/// generation.
fn checked_slots(plan: &Plan) -> impl Iterator<Item = usize> + '_ {
    let n = plan.check_tenants.min(plan.sessions);
    (0..n).map(move |j| j * plan.sessions / n)
}

/// Compare first-generation pooled tenants with the same tenants driven
/// outside the pool by `drive(slot)`; a disagreement fails the tenant.
fn check_tenants(
    plan: &Plan,
    pooled: &[Trajectory],
    what: &str,
    result: &mut RunResult,
    mut drive: impl FnMut(usize) -> Drive,
) {
    for slot in checked_slots(plan) {
        let d = drive(slot);
        result.attempted += d.attempted;
        let why = d.check().or_else(|| match pooled.get(slot) {
            Some(p) => p.diff(&d.trajectory.without_p()),
            None => Some("the pool never finished it".to_string()),
        });
        if let Some(why) = why {
            result
                .fail(d.attempted, format!("{what} tenant {slot} disagrees with the pool: {why}"));
        }
    }
}

/// Run the pool workload.
///
/// # Errors
///
/// Set-up failures (the artifact file cannot be loaded, a tenant cannot
/// be admitted); round failures are counted in the result instead.
pub fn run(
    plan: &Plan,
    seed: u64,
    artifact: &Path,
    seconds: Duration,
    traced: bool,
) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let mut trace = Trace::new(Instant::now());
    let workers = meta::nproc();
    let mut setup = Setup::default();
    let mut artifacts = None;
    for _ in 0..plan.setup_reps.max(1) {
        let store = Box::new(EncodedCheckpointStore::new());
        artifacts = Some(setup.measure(
            artifact,
            |a| {
                let mut pool = SessionPool::with_store(a, pool_config(plan, workers), store);
                admit(&mut pool, plan, seed).map(|ids| ids.len())
            },
            traced.then_some(&mut trace),
        )?);
    }
    let artifacts = artifacts.ok_or("no set-up ran")?;
    let ds = artifacts.dataset();
    let churn = Churn { artifacts: &artifacts, plan, seed };

    let store = Box::new(EncodedCheckpointStore::new());
    let ticks = CpuTicks::now();
    let untraced = churn.window(workers, store, seconds, None, &mut result);
    let granted = meta::granted_share(ticks, CpuTicks::now());
    result.meta.extend(
        [
            ("dataset_train_rows", ds.train.n()),
            ("tenants", plan.sessions),
            ("max_resident", plan.max_resident),
            ("rounds_per_tenant", plan.rounds),
            ("generations", untraced.generations as usize),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string())),
    );
    result.meta.push(("window_s".to_string(), untraced.wall_s.to_string()));
    if !traced {
        // Outside the timed window: the sampled tenants, run standalone,
        // must make the pool's selections and reach its score bits.
        let mut scratch = Vec::new();
        check_tenants(plan, &untraced.first_generation, "standalone", &mut result, |slot| {
            drive_system(ds, tenant_config(plan, seed, slot), plan.rounds, &mut scratch)
        });
        let wall_latencies = untraced.round_latencies_ms(false);
        report_wall_clock(
            &mut result,
            &setup,
            granted,
            untraced.rounds_per_s(false),
            &wall_latencies,
        );
        let scores = untraced.first_generation.iter().map(Trajectory::score);
        let rate = untraced.rounds_per_s(true);
        let latencies = untraced.round_latencies_ms(true);
        report_end_to_end(&mut result, &setup, rate, &latencies, scores);
        return Ok(result);
    }

    // Traced: one generation through the timed store at `nproc` workers,
    // one with a single worker and the whole process serial. Both must
    // serve the untraced first generation again, bit for bit.
    let (store, log) = TimedStore::new();
    let pooled =
        churn.window(workers, Box::new(store), Duration::ZERO, Some(&mut trace), &mut result);
    let serial = meta::with_serial_threads(|| {
        let store = Box::new(EncodedCheckpointStore::new());
        churn.window(1, store, Duration::ZERO, None, &mut result)
    });
    for (what, w) in [("traced", &pooled), ("serial", &serial)] {
        let pairs = untraced.first_generation.iter().zip(&w.first_generation);
        for (slot, (a, b)) in pairs.enumerate() {
            if let Some(why) = a.diff(b) {
                result.fail(b.selected.len() as u64, format!("{what} pool tenant {slot}: {why}"));
            }
        }
    }
    let log = log.lock().expect("store log lock poisoned by a panicking round");
    record_store_ops(&mut trace, &log);

    // The stage breakdown of a churned round: the sampled tenants driven
    // stage by stage, rebuilt from a checkpoint before every round as the
    // pool rebuilds them, and checked against the pool's trajectories.
    let ctx = ContextualizerConfig::default();
    let mut lfs_registered = 0;
    check_tenants(plan, &untraced.first_generation, "staged churn", &mut result, |slot| {
        let config = tenant_config(plan, seed, slot);
        let d = drive_staged(ds, config, plan.rounds, &ctx, true, &mut trace);
        lfs_registered += d.lfs_registered;
        d
    });
    let spans = trace.into_spans();
    let layers = StageMetrics::from_spans(&spans, lfs_registered);
    let saves = trace::count(&spans, "persist.save").max(1) as f64;
    let stats = pooled.stats;
    result.set_values(&PER_LAYER, |name| match name {
        "persist.save_ms" => trace::mean_ms(&spans, "persist.save"),
        "persist.load_ms" => trace::mean_ms(&spans, "persist.load"),
        "persist.checkpoint_bytes" => log.bytes_saved as f64 / saves,
        "pool.evictions" => stats.evictions as f64,
        "pool.restores" => stats.restores as f64,
        "pool.restore_rate" => stats.restores as f64 / stats.rounds.max(1) as f64,
        "parallel.scaling" => pooled.rounds_per_s(true) / serial.rounds_per_s(true),
        "persist.artifact_load_ms" => setup.on_granted_cpu(&setup.load_s) * 1e3,
        "pool.admit_ms" => setup.on_granted_cpu(&setup.admit_s) * 1e3,
        "trace.overhead" => untraced.rounds_per_s(true) / pooled.rounds_per_s(true),
        other => layers.get(other),
    });
    result.meta.extend([
        ("traced_rounds".to_string(), pooled.rounds.to_string()),
        ("staged_rounds".to_string(), layers.rounds.to_string()),
    ]);
    result.spans = spans;
    Ok(result)
}
