//! The interactive workloads: one analyst, closed loop, zero think time.
//!
//! A run replays a cycle of [`Plan::sessions`] sessions (seeds derived
//! from the workload seed) back to back until the measuring time is up,
//! always finishing the session it is in. Every replay of a session must
//! reproduce the first one bit for bit, so every replay of a round does
//! the same work: a round's latency is its median over the replays.

use std::path::Path;
use std::time::{Duration, Instant};

use nemo_core::{ContextualizerConfig, IdpConfig, NemoSystem};
use nemo_data::Dataset;

use crate::meta::CpuTicks;
use crate::staged::{drive_staged, drive_system, Drive, Trajectory};
use crate::stats::Replays;
use crate::trace::{self, Span, Trace};
use crate::{
    meta, report_end_to_end, report_wall_clock, session_seed, Plan, RunResult, Setup, PER_LAYER,
};

/// The configuration of session `k` of the cycle: the paper protocol
/// with a derived seed.
pub fn session_config(plan: &Plan, seed: u64, k: u64) -> IdpConfig {
    IdpConfig { n_iterations: plan.rounds, seed: session_seed(seed, k), ..IdpConfig::default() }
}

/// Sessions driven over one window.
#[derive(Debug, Default)]
pub struct Window {
    /// Rounds attempted.
    pub rounds: u64,
    /// Wall time of the window.
    pub wall_s: f64,
    /// Per session of the cycle, its replays: per-round latencies (none
    /// in a staged window) and the session's whole time.
    pub replays: Vec<Replays>,
    /// The first drive of each session of the cycle.
    pub cycle: Vec<Trajectory>,
    /// Sessions driven, replays included.
    pub sessions: u64,
    /// LFs registered by the contextualizer (staged windows only).
    pub lfs_registered: u64,
}

impl Window {
    /// Rounds per second of the cycle replayed with every phase at its
    /// median: each round at its median latency over the replays, plus
    /// each session's median time outside its rounds (construction and
    /// final scoring). See [`Replays`] for `on_granted_cpu`.
    pub fn rounds_per_s(&self, on_granted_cpu: bool) -> f64 {
        let rounds: usize = self.cycle.iter().map(|t| t.selected.len()).sum();
        let ms: f64 = self.replays.iter().map(|r| r.median_total_ms(on_granted_cpu)).sum();
        rounds as f64 / (ms / 1e3)
    }

    /// The latency of every round of the cycle, ms: its median over the
    /// window's replays (replays are checked bit-identical, so each does
    /// the same work).
    pub fn round_latencies_ms(&self, on_granted_cpu: bool) -> Vec<f64> {
        self.replays.iter().flat_map(|r| r.phase_medians(on_granted_cpu)).collect()
    }

    /// The fewest replays any session of the cycle had.
    pub fn min_replays(&self) -> usize {
        self.replays.iter().map(Replays::len).min().unwrap_or(0)
    }
}

/// Drive the cycle until at least `min` has passed (whole sessions; at
/// least one full cycle), with `drive(k)` running session `k`. Failed
/// checks and replay divergences are recorded in `result`.
pub fn window(
    plan: &Plan,
    min: Duration,
    result: &mut RunResult,
    mut drive: impl FnMut(u64, &mut Vec<f64>) -> Drive,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    loop {
        let k = (w.sessions % plan.sessions as u64) as usize;
        let mut latencies = Vec::with_capacity(plan.rounds);
        let ticks = CpuTicks::now();
        let session_start = Instant::now();
        let d = drive(k as u64, &mut latencies);
        let ms = session_start.elapsed().as_secs_f64() * 1e3;
        let granted = meta::granted_share(ticks, CpuTicks::now());
        if w.replays.len() <= k {
            w.replays.push(Replays::default());
        }
        w.replays[k].push(latencies, ms, granted);
        w.rounds += d.attempted;
        w.lfs_registered += d.lfs_registered;
        if let Some(why) = d.check() {
            result.fail(d.attempted, format!("session {k}: {why}"));
        }
        if w.cycle.len() < plan.sessions {
            w.cycle.push(d.trajectory);
        } else if let Some(why) = w.cycle[k].diff(&d.trajectory) {
            result.fail(d.attempted, format!("session {k} replay diverged: {why}"));
        }
        w.sessions += 1;
        if w.cycle.len() == plan.sessions && start.elapsed() >= min {
            break;
        }
    }
    w.wall_s = start.elapsed().as_secs_f64();
    result.attempted += w.rounds;
    w
}

/// Check a traced window's cycle against the untraced one.
pub fn check_cycle(
    reference: &[Trajectory],
    traced: &[Trajectory],
    what: &str,
    result: &mut RunResult,
) {
    for (k, (a, b)) in reference.iter().zip(traced).enumerate() {
        if let Some(why) = a.diff(b) {
            result.fail(b.selected.len() as u64, format!("{what} session {k} diverged: {why}"));
        }
    }
}

/// Run an interactive workload.
///
/// # Errors
///
/// Set-up failures (the artifact file cannot be loaded); round failures
/// are counted in the result instead.
pub fn run(
    plan: &Plan,
    seed: u64,
    artifact: &Path,
    seconds: Duration,
    traced: bool,
) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let epoch = Instant::now();
    let mut trace = Trace::new(epoch);
    let mut setup = Setup::default();
    let mut artifacts = None;
    for _ in 0..plan.setup_reps.max(1) {
        let first = session_config(plan, seed, 0);
        artifacts = Some(setup.measure(
            artifact,
            |a| Ok(NemoSystem::new(a, first).iteration()),
            traced.then_some(&mut trace),
        )?);
    }
    let artifacts = artifacts.ok_or("no set-up ran")?;
    let ds: &Dataset = &artifacts;

    let ticks = CpuTicks::now();
    let untraced = window(plan, seconds, &mut result, |k, lat| {
        drive_system(ds, session_config(plan, seed, k), plan.rounds, lat)
    });
    let granted = meta::granted_share(ticks, CpuTicks::now());
    result.meta.extend(
        [
            ("dataset_train_rows", ds.train.n()),
            ("dataset_primitives", ds.n_primitives),
            ("sessions_per_cycle", plan.sessions),
            ("rounds_per_session", plan.rounds),
            ("sessions_run", untraced.sessions as usize),
            ("replays_per_session_min", untraced.min_replays()),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string())),
    );
    result.meta.push(("window_s".to_string(), untraced.wall_s.to_string()));
    let session_s: Vec<String> =
        untraced.replays.iter().map(|r| format!("{:.4}", r.median_total_ms(true) / 1e3)).collect();
    result.meta.push(("session_median_s".to_string(), session_s.join(" ")));
    if !traced {
        let wall_latencies = untraced.round_latencies_ms(false);
        report_wall_clock(
            &mut result,
            &setup,
            granted,
            untraced.rounds_per_s(false),
            &wall_latencies,
        );
        let scores = untraced.cycle.iter().map(Trajectory::score);
        let rate = untraced.rounds_per_s(true);
        let latencies = untraced.round_latencies_ms(true);
        report_end_to_end(&mut result, &setup, rate, &latencies, scores);
        return Ok(result);
    }

    // Traced: one cycle staged at the ambient thread count, one with the
    // whole process serial; both must retrace the untraced cycle.
    let ctx = ContextualizerConfig::default();
    let staged = window(plan, Duration::ZERO, &mut result, |k, _| {
        drive_staged(ds, session_config(plan, seed, k), plan.rounds, &ctx, false, &mut trace)
    });
    check_cycle(&untraced.cycle, &staged.cycle, "staged", &mut result);
    let mut serial_trace = Trace::new(epoch);
    let serial = meta::with_serial_threads(|| {
        window(plan, Duration::ZERO, &mut result, |k, _| {
            let config = session_config(plan, seed, k);
            drive_staged(ds, config, plan.rounds, &ctx, false, &mut serial_trace)
        })
    });
    check_cycle(&untraced.cycle, &serial.cycle, "serial staged", &mut result);

    let spans = trace.into_spans();
    let layers = StageMetrics::from_spans(&spans, staged.lfs_registered);
    result.set_values(&PER_LAYER, |name| match name {
        "parallel.scaling" => staged.rounds_per_s(true) / serial.rounds_per_s(true),
        "persist.artifact_load_ms" => setup.on_granted_cpu(&setup.load_s) * 1e3,
        "pool.admit_ms" => setup.on_granted_cpu(&setup.admit_s) * 1e3,
        "trace.overhead" => untraced.rounds_per_s(true) / staged.rounds_per_s(true),
        // Nothing is checkpointed or pooled in an interactive session.
        "persist.save_ms" | "persist.load_ms" | "persist.checkpoint_bytes" => 0.0,
        "pool.evictions" | "pool.restores" | "pool.restore_rate" => 0.0,
        other => layers.get(other),
    });
    result.meta.push(("traced_rounds".to_string(), layers.rounds.to_string()));
    result.spans = spans;
    Ok(result)
}

/// Per-round stage times from the `round` spans of a staged drive and
/// their children.
#[derive(Debug, Default)]
pub struct StageMetrics {
    /// Staged rounds.
    pub rounds: usize,
    round_ms: f64,
    lfs_registered: u64,
    totals: Vec<(&'static str, f64)>,
}

/// Stages whose per-round time and share of the round are reported.
const STAGES: [&str; 7] = [
    "seu.select",
    "oracle.develop",
    "session.submit",
    "contextualizer.register",
    "contextualizer.tune_p",
    "labelmodel.predict",
    "endmodel.fit_predict",
];

impl StageMetrics {
    /// Aggregate the staged spans.
    pub fn from_spans(spans: &[Span], lfs_registered: u64) -> Self {
        let totals = STAGES.iter().map(|&s| (s, trace::total_ms(spans, s))).collect();
        Self {
            rounds: trace::count(spans, "round"),
            round_ms: trace::total_ms(spans, "round"),
            lfs_registered,
            totals,
        }
    }

    fn total(&self, stage: &str) -> f64 {
        self.totals.iter().find(|(s, _)| *s == stage).map_or(0.0, |&(_, t)| t)
    }

    /// The value of a stage metric (`<stage>_ms`, `<stage>_share`,
    /// `session.seu_sync_ms`, `contextualizer.lfs_registered`,
    /// `trace.round_ms`); `NaN` for any other name.
    pub fn get(&self, name: &str) -> f64 {
        let per_round = |ms: f64| ms / self.rounds as f64;
        match name {
            "trace.round_ms" => per_round(self.round_ms),
            "contextualizer.lfs_registered" => self.lfs_registered as f64 / self.rounds as f64,
            "session.seu_sync_ms" => {
                let learn: f64 = STAGES[3..].iter().map(|s| self.total(s)).sum();
                per_round(self.total("session.submit") - learn)
            }
            _ => {
                if let Some(stage) = name.strip_suffix("_ms") {
                    if STAGES.contains(&stage) {
                        return per_round(self.total(stage));
                    }
                }
                if let Some(stage) = name.strip_suffix("_share") {
                    if STAGES.contains(&stage) {
                        return self.total(stage) / self.round_ms;
                    }
                }
                f64::NAN
            }
        }
    }
}
