//! End-to-end and per-layer benchmark of the nemo interactive loop.
//!
//! The benchmark drives the system only through public calls and times,
//! from outside, what a user of the system waits for. Three workloads
//! cover the two ways the system is used: one analyst running the paper's
//! 50-iteration protocol (`interactive-sparse`, `interactive-dense`), and
//! a multi-tenant [`nemo_core::SessionPool`] under residency churn
//! (`pool-churn`). See `README.md` beside this crate for why each
//! workload exists and how to read the output.
//!
//! A run (`--trace 0`) reports the end-to-end metrics of
//! [`END_TO_END`]; a traced run (`--trace 1`) repeats the untraced
//! measurement, drives the same rounds stage by stage, checks that the
//! staged trajectory is bit-identical to the untraced one, and reports
//! the per-layer metrics of [`PER_LAYER`].

#![warn(missing_docs)]

pub mod interactive;
pub mod json;
pub mod meta;
pub mod pool;
pub mod staged;
pub mod stats;
pub mod trace;

use std::fmt;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nemo_core::SharedArtifacts;
use nemo_data::catalog::{self, DatasetName, Profile};
use nemo_persist::{artifact_to_bytes, load_shared_artifacts, save_artifact, ArtifactBundle};

use crate::meta::CpuTicks;
use crate::stats::{count_above, median, quantile};
use crate::trace::Trace;

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The name used in `BENCHMARK.json` and in the result file.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric the benchmark reports: its name, unit and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricSpec {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the reported value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// End-to-end metrics, reported by every untraced run on every workload.
pub const END_TO_END: [MetricSpec; 6] = [
    spec("setup_s", "s", Better::Lower),
    spec("rounds_per_s", "1/s", Better::Higher),
    spec("round_p50_ms", "ms", Better::Lower),
    spec("round_p95_ms", "ms", Better::Lower),
    spec("final_score", "score", Better::Higher),
    spec("peak_rss_mb", "MiB", Better::Lower),
];

/// Per-layer metrics, reported by every traced run on every workload. A
/// layer a workload does not exercise reports 0 (e.g. `persist.save_ms`
/// on the interactive workloads, where nothing is checkpointed).
pub const PER_LAYER: [MetricSpec; 24] = [
    spec("trace.round_ms", "ms", Better::Lower),
    spec("seu.select_ms", "ms", Better::Lower),
    spec("seu.select_share", "ratio", Better::Lower),
    spec("oracle.develop_ms", "ms", Better::Lower),
    spec("contextualizer.register_ms", "ms", Better::Lower),
    spec("contextualizer.register_share", "ratio", Better::Lower),
    spec("contextualizer.lfs_registered", "count", Better::Lower),
    spec("contextualizer.tune_p_ms", "ms", Better::Lower),
    spec("contextualizer.tune_p_share", "ratio", Better::Lower),
    spec("labelmodel.predict_ms", "ms", Better::Lower),
    spec("labelmodel.predict_share", "ratio", Better::Lower),
    spec("endmodel.fit_predict_ms", "ms", Better::Lower),
    spec("endmodel.fit_predict_share", "ratio", Better::Lower),
    spec("session.seu_sync_ms", "ms", Better::Lower),
    spec("persist.save_ms", "ms", Better::Lower),
    spec("persist.load_ms", "ms", Better::Lower),
    spec("persist.checkpoint_bytes", "bytes", Better::Lower),
    spec("pool.evictions", "count", Better::Lower),
    spec("pool.restores", "count", Better::Lower),
    spec("pool.restore_rate", "ratio", Better::Lower),
    spec("parallel.scaling", "ratio", Better::Higher),
    spec("persist.artifact_load_ms", "ms", Better::Lower),
    spec("pool.admit_ms", "ms", Better::Lower),
    spec("trace.overhead", "ratio", Better::Lower),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Amazon at the full profile (sparse TF-IDF, above the sharding
    /// threshold), one analyst, paper protocol.
    InteractiveSparse,
    /// VG at the full profile (64-d dense features, below the sharding
    /// threshold), one analyst, paper protocol.
    InteractiveDense,
    /// Amazon at the quick profile, many tenants in one `SessionPool`
    /// whose residency cap forces an evict/restore on almost every round.
    PoolChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] =
        [Workload::InteractiveSparse, Workload::InteractiveDense, Workload::PoolChurn];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InteractiveSparse => "interactive-sparse",
            Workload::InteractiveDense => "interactive-dense",
            Workload::PoolChurn => "pool-churn",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The catalog dataset the workload runs on.
    pub fn dataset(self) -> DatasetName {
        match self {
            Workload::InteractiveSparse | Workload::PoolChurn => DatasetName::Amazon,
            Workload::InteractiveDense => DatasetName::Vg,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The sizes a run works at. [`Plan::benchmark`] is what the command
/// line runs; [`Plan::smoke`] is a seconds-scale version for tests.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// Dataset scale profile.
    pub profile: Profile,
    /// Interactive: distinct sessions per cycle (sessions are replayed in
    /// this cycle until the time is up). Pool: tenants per generation.
    pub sessions: usize,
    /// Rounds each session (tenant) serves before it ends.
    pub rounds: usize,
    /// Pool residency cap.
    pub max_resident: usize,
    /// Pool tenants re-run standalone after the timed window.
    pub check_tenants: usize,
    /// How many times set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
}

impl Plan {
    /// The plan the benchmark command runs.
    pub fn benchmark(workload: Workload) -> Plan {
        let protocol_rounds = nemo_core::IdpConfig::default().n_iterations;
        match workload {
            // 4 sessions x 50 rounds: at least 200 rounds per run, so at
            // least 10 samples lie beyond p95.
            Workload::InteractiveSparse | Workload::InteractiveDense => Plan {
                workload,
                profile: Profile::Full,
                sessions: 4,
                rounds: protocol_rounds,
                max_resident: 1,
                check_tenants: 0,
                setup_reps: 25,
            },
            // 32 tenants over 8 resident slots: every batch evicts and
            // restores most sessions. 20 rounds per tenant keeps a
            // generation near two seconds on two cores.
            Workload::PoolChurn => Plan {
                workload,
                profile: Profile::Quick,
                sessions: 32,
                rounds: 20,
                max_resident: 8,
                check_tenants: 4,
                setup_reps: 25,
            },
        }
    }

    /// A seconds-scale plan with the same shape, for tests.
    pub fn smoke(workload: Workload) -> Plan {
        let base = Plan::benchmark(workload);
        match workload {
            Workload::InteractiveSparse | Workload::InteractiveDense => {
                Plan { profile: Profile::Smoke, sessions: 2, rounds: 6, setup_reps: 2, ..base }
            }
            Workload::PoolChurn => Plan {
                profile: Profile::Smoke,
                sessions: 6,
                rounds: 4,
                max_resident: 2,
                check_tenants: 2,
                setup_reps: 2,
                ..base
            },
        }
    }

    /// Whether this is a pool workload.
    pub fn is_pool(&self) -> bool {
        self.workload == Workload::PoolChurn
    }
}

/// Derive an independent 64-bit seed for `stream` from the workload seed
/// (splitmix64 finalizer over the pair).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream id of the dataset seed; sessions use streams `1..`.
const DATASET_STREAM: u64 = 0xDA7A;

/// The seed of session `k` (interactive) or tenant slot `k` (pool) under
/// workload seed `seed`.
pub fn session_seed(seed: u64, k: u64) -> u64 {
    derive_seed(seed, 1 + k)
}

/// Generate the workload's dataset and encode it as an artifact file's
/// bytes. Deterministic in `seed`.
pub fn artifact_bytes(plan: &Plan, seed: u64) -> Vec<u8> {
    artifact_to_bytes(&bundle(plan, seed))
}

fn bundle(plan: &Plan, seed: u64) -> ArtifactBundle {
    let dataset =
        catalog::build(plan.workload.dataset(), plan.profile, derive_seed(seed, DATASET_STREAM));
    ArtifactBundle { dataset, vocab: None, tfidf: None }
}

/// Generate the workload's dataset and persist it as an artifact file in
/// `dir`. The timed part of a run sees only this file.
///
/// # Errors
///
/// Any I/O or persistence error, as text.
pub fn write_artifact(plan: &Plan, seed: u64, dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}-seed{seed}.nemo", plan.workload.name()));
    save_artifact(&path, &bundle(plan, seed))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Set-up timings, one entry per repetition, in seconds.
#[derive(Debug, Default)]
pub struct Setup {
    /// Whole set-up: artifact load through the first session's creation.
    pub total_s: Vec<f64>,
    /// Loading the artifact file into `SharedArtifacts`.
    pub load_s: Vec<f64>,
    /// Constructing (interactive) or admitting (pool) the sessions.
    pub admit_s: Vec<f64>,
    /// The share of the CPU time the repetitions so far wanted that the
    /// host granted them (see [`meta::granted_share`]).
    pub granted: f64,
    first_ticks: Option<Option<CpuTicks>>,
}

impl Setup {
    /// Time one repetition: load the artifact file into `SharedArtifacts`,
    /// then `admit` sessions over them. Returns the loaded artifacts.
    pub fn measure<A>(
        &mut self,
        artifact: &Path,
        admit: impl FnOnce(&SharedArtifacts) -> Result<A, String>,
        trace: Option<&mut Trace>,
    ) -> Result<Arc<SharedArtifacts>, String> {
        let ticks = *self.first_ticks.get_or_insert_with(CpuTicks::now);
        let start = Instant::now();
        let artifacts = load_shared_artifacts(artifact)
            .map_err(|e| format!("load {}: {e}", artifact.display()))?;
        let loaded = Instant::now();
        black_box(admit(&artifacts)?);
        let end = Instant::now();
        self.total_s.push((end - start).as_secs_f64());
        self.load_s.push((loaded - start).as_secs_f64());
        self.admit_s.push((end - loaded).as_secs_f64());
        self.granted = meta::granted_share(ticks, CpuTicks::now());
        if let Some(trace) = trace {
            let id = trace.reserve();
            trace.child(id, "persist.artifact_load", start, loaded);
            trace.child(id, "pool.admit", loaded, end);
            trace.record(id, None, "setup", start, end);
        }
        Ok(artifacts)
    }

    /// The median of one of this set-up's timings, scaled to the CPU time
    /// granted (see [`stats::Replays`]). A repetition is too short for the
    /// host's tick counters, so one share, over all of them, scales each.
    pub fn on_granted_cpu(&self, samples: &[f64]) -> f64 {
        median(samples) * self.granted
    }
}

/// Fill `result` with the end-to-end metrics of an untraced window, and
/// record how many latency samples it had (at least ten must lie beyond
/// p95).
pub(crate) fn report_end_to_end(
    result: &mut RunResult,
    setup: &Setup,
    rounds_per_s: f64,
    latencies_ms: &[f64],
    scores: impl ExactSizeIterator<Item = f64>,
) {
    let p95 = quantile(latencies_ms, 0.95);
    result.meta.extend([
        ("round_samples".to_string(), latencies_ms.len().to_string()),
        ("round_samples_above_p95".to_string(), count_above(latencies_ms, p95).to_string()),
    ]);
    let n = scores.len().max(1) as f64;
    let final_score = scores.sum::<f64>() / n;
    let peak = meta::peak_rss_mb().unwrap_or(f64::NAN);
    result.set_values(&END_TO_END, |name| match name {
        "setup_s" => setup.on_granted_cpu(&setup.total_s),
        "rounds_per_s" => rounds_per_s,
        "round_p50_ms" => median(latencies_ms),
        "round_p95_ms" => p95,
        "final_score" => final_score,
        "peak_rss_mb" => peak,
        _ => f64::NAN,
    });
}

/// Record the share of the window's CPU time the host stole, and the
/// timing metrics as the wall clock read them before the benchmark scaled
/// them to the CPU time granted (see [`stats::Replays`]).
pub(crate) fn report_wall_clock(
    result: &mut RunResult,
    setup: &Setup,
    granted: f64,
    rounds_per_s: f64,
    latencies_ms: &[f64],
) {
    result.meta.extend([
        ("stolen_pct".to_string(), format!("{:.2}", 100.0 * (1.0 - granted))),
        ("wall_setup_s".to_string(), median(&setup.total_s).to_string()),
        ("wall_rounds_per_s".to_string(), rounds_per_s.to_string()),
        ("wall_round_p50_ms".to_string(), median(latencies_ms).to_string()),
        ("wall_round_p95_ms".to_string(), quantile(latencies_ms, 0.95).to_string()),
    ]);
}

/// One reported metric value.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// What is reported.
    pub spec: MetricSpec,
    /// The measured value.
    pub value: f64,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Rounds attempted.
    pub attempted: u64,
    /// Rounds that errored or belong to a session that failed a
    /// correctness check.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// The metrics of the run, in spec order.
    pub values: Vec<Value>,
    /// Run metadata (`key`, `value`) for the result file.
    pub meta: Vec<(String, String)>,
    /// The spans of a traced run.
    pub spans: Vec<trace::Span>,
}

impl RunResult {
    /// Whether every check passed and every round succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    /// Record a failed check on `rounds` rounds.
    pub fn fail(&mut self, rounds: u64, why: impl Into<String>) {
        self.failed += rounds;
        self.failures.push(why.into());
    }

    /// Look up a metric value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|v| v.spec.name == name).map(|v| v.value)
    }

    /// Set the values of `specs` from `lookup`, in spec order.
    pub fn set_values(&mut self, specs: &[MetricSpec], lookup: impl Fn(&str) -> f64) {
        self.values = specs.iter().map(|&spec| Value { spec, value: lookup(spec.name) }).collect();
    }
}

/// Run one workload: set up from the artifact file at `artifact`, measure
/// for at least `seconds` (whole sessions or generations), check the
/// outputs, and report end-to-end (`traced == false`) or per-layer
/// (`traced == true`) metrics.
///
/// # Errors
///
/// A set-up failure, as text. Failed rounds and checks are counted in the
/// result instead.
pub fn run(
    plan: &Plan,
    seed: u64,
    artifact: &Path,
    seconds: Duration,
    traced: bool,
) -> Result<RunResult, String> {
    let mut result = if plan.is_pool() {
        pool::run(plan, seed, artifact, seconds, traced)?
    } else {
        interactive::run(plan, seed, artifact, seconds, traced)?
    };
    let mut meta = meta::run_metadata(plan, seed);
    meta.append(&mut result.meta);
    result.meta = meta;
    let broken: Vec<String> = result
        .values
        .iter()
        .filter(|v| !v.value.is_finite())
        .map(|v| format!("{} is {}, not a finite number", v.spec.name, v.value))
        .collect();
    result.failures.extend(broken);
    Ok(result)
}
