//! Session drivers: the untraced one the end-to-end metrics time, and the
//! staged one the traced run times layer by layer.
//!
//! [`drive_system`] runs a session exactly as a user of the system would:
//! one [`NemoSystem::step_with_user`] call per round. [`drive_staged`]
//! runs the same rounds through the same public steps the SEU engine and
//! [`nemo_core::ContextualizedPipeline`] take, with a span around each:
//!
//! | public call | span |
//! |---|---|
//! | `Session::select_with(SeuSelector)` | `seu.select` |
//! | `Session::develop` | `oracle.develop` |
//! | `Session::submit` | `session.submit` |
//! | `Contextualizer::sync` (inside `submit`) | `contextualizer.register` |
//! | `Contextualizer::tune_p` | `contextualizer.tune_p` |
//! | `predict_with_coverage` | `labelmodel.predict` |
//! | `end_model_outputs` | `endmodel.fit_predict` |
//!
//! The time `submit` spends outside `learn` is the SEU aggregate sync
//! (`session.seu_sync`). Because both drivers call the same code, their
//! [`Trajectory`]s must agree bit for bit; a staged run that diverges
//! measures a different program and is reported as failed.

use std::time::Instant;

use nemo_core::idp::ModelOutputs;
use nemo_core::pipeline::{end_model_outputs, LearningPipeline, UNIFORM_BALANCE};
use nemo_core::{
    Contextualizer, ContextualizerConfig, IdpConfig, NemoSystem, Session, SeuSelector,
    SimulatedUser,
};
use nemo_data::Dataset;
use nemo_lf::{LabelMatrix, Lineage};

use crate::trace::Trace;

/// What a session did, compared bit for bit between drives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trajectory {
    /// The example each round selected (`None` once the pool is empty).
    pub selected: Vec<Option<usize>>,
    /// The contextualizer percentile chosen each round, as f64 bits.
    /// Empty where the driver cannot observe it (pooled rounds).
    pub chosen_p: Vec<Option<u64>>,
    /// The end model's test score after the last round, as f64 bits.
    pub score_bits: u64,
}

impl Trajectory {
    /// The final test score.
    pub fn score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }

    /// The same trajectory without the per-round percentiles, for
    /// comparison with a pooled run.
    pub fn without_p(&self) -> Trajectory {
        Trajectory { chosen_p: Vec::new(), ..self.clone() }
    }

    /// Describe the first difference from `other`, if any.
    pub fn diff(&self, other: &Trajectory) -> Option<String> {
        if let Some(r) = (0..self.selected.len().max(other.selected.len()))
            .find(|&r| self.selected.get(r) != other.selected.get(r))
        {
            return Some(format!(
                "round {r} selected {:?} vs {:?}",
                self.selected.get(r),
                other.selected.get(r)
            ));
        }
        if let Some(r) = (0..self.chosen_p.len().max(other.chosen_p.len()))
            .find(|&r| self.chosen_p.get(r) != other.chosen_p.get(r))
        {
            return Some(format!("round {r} chose a different percentile"));
        }
        if self.score_bits != other.score_bits {
            return Some(format!("final score {} vs {}", self.score(), other.score()));
        }
        None
    }
}

/// The outcome of driving one session.
#[derive(Debug, Clone, Default)]
pub struct Drive {
    /// What the session did.
    pub trajectory: Trajectory,
    /// Rounds attempted.
    pub attempted: u64,
    /// The error that ended the session early, if any.
    pub error: Option<String>,
    /// LFs the contextualizer registered, summed over rounds (staged
    /// drives only).
    pub lfs_registered: u64,
}

impl Drive {
    /// Why this session fails the correctness checks every session must
    /// pass: no round errored and the final score is a finite value in
    /// `[0, 1]`.
    pub fn check(&self) -> Option<String> {
        match &self.error {
            Some(e) => Some(e.clone()),
            None => check_score(self.trajectory.score()),
        }
    }
}

/// Why `score` is not a valid final score: every score must be a finite
/// value in `[0, 1]`.
pub fn check_score(score: f64) -> Option<String> {
    (!(score.is_finite() && (0.0..=1.0).contains(&score)))
        .then(|| format!("final score {score} is not in [0, 1]"))
}

/// Run `rounds` rounds of a fresh `NemoSystem` with the paper's simulated
/// user, pushing each `step_with_user` latency (ms) onto `latencies`.
pub fn drive_system(
    ds: &Dataset,
    config: IdpConfig,
    rounds: usize,
    latencies: &mut Vec<f64>,
) -> Drive {
    let mut nemo = NemoSystem::new(ds, config);
    let mut user = SimulatedUser::default();
    let mut drive = Drive::default();
    for _ in 0..rounds {
        drive.attempted += 1;
        let start = Instant::now();
        let step = nemo.step_with_user(&mut user);
        latencies.push(start.elapsed().as_secs_f64() * 1e3);
        match step {
            Ok(record) => {
                drive.trajectory.selected.push(record.selected);
                drive.trajectory.chosen_p.push(nemo.outputs().chosen_p.map(f64::to_bits));
            }
            Err(e) => {
                drive.error = Some(format!("round {}: {e}", drive.attempted - 1));
                break;
            }
        }
    }
    drive.trajectory.score_bits = nemo.test_score().to_bits();
    drive
}

/// The learning stage of [`nemo_core::ContextualizedPipeline`], step for
/// step, with the interval of each step recorded.
pub struct StagedPipeline {
    ctx: Contextualizer,
    stages: Vec<(&'static str, Instant, Instant)>,
    lfs_registered: u64,
}

impl StagedPipeline {
    /// A pipeline with a fresh contextualizer.
    pub fn new(config: ContextualizerConfig) -> Self {
        Self { ctx: Contextualizer::new(config), stages: Vec::new(), lfs_registered: 0 }
    }

    /// The underlying contextualizer.
    pub fn contextualizer(&self) -> &Contextualizer {
        &self.ctx
    }

    fn stage<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Contextualizer) -> R) -> R {
        let start = Instant::now();
        let out = f(&mut self.ctx);
        self.stages.push((name, start, Instant::now()));
        out
    }
}

impl LearningPipeline for StagedPipeline {
    fn name(&self) -> &'static str {
        "contextualized"
    }

    fn learn(
        &mut self,
        lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        let before = self.ctx.n_registered();
        self.stage("contextualizer.register", |ctx| ctx.sync(lineage, ds));
        self.lfs_registered += self.ctx.n_registered().saturating_sub(before) as u64;
        if lineage.is_empty() {
            return ModelOutputs::initial(ds);
        }
        let tuned = self.stage("contextualizer.tune_p", |ctx| {
            let label_model = config.label_model.build();
            ctx.tune_p(raw_matrix, ds, &*label_model, UNIFORM_BALANCE)
        });
        let (posterior, covered) = self.stage("labelmodel.predict", |_| {
            tuned.fitted.predict_with_coverage(&tuned.train_matrix)
        });
        self.stage("endmodel.fit_predict", |_| {
            end_model_outputs(posterior, &covered, ds, config, iter_seed, Some(tuned.p))
        })
    }
}

/// Run `rounds` rounds through the public steps one by one, recording a
/// `round` span per round with its stages as children in `trace`.
///
/// With `churn`, every round starts the way a pooled round of an evicted
/// session does: the session is checkpointed and rebuilt from the
/// checkpoint with a fresh selector and contextualizer (cold SEU scores,
/// whole-lineage re-registration), exactly as `NemoSystem::restore_with`
/// rebuilds it. The rebuild is recorded as `session.restore`.
pub fn drive_staged(
    ds: &Dataset,
    config: IdpConfig,
    rounds: usize,
    ctx: &ContextualizerConfig,
    churn: bool,
    trace: &mut Trace,
) -> Drive {
    let mut session = Session::new(ds, config);
    let mut selector = SeuSelector::new();
    let mut pipeline = StagedPipeline::new(ctx.clone());
    let mut user = SimulatedUser::default();
    let mut drive = Drive::default();
    for r in 0..rounds {
        drive.attempted += 1;
        let round = trace.reserve();
        let round_start = Instant::now();
        if churn {
            let mut ckpt = session.checkpoint();
            ckpt.warm_seeds = pipeline.contextualizer().warm_seeds().to_vec();
            session = match Session::restore(ds, &ckpt) {
                Ok(s) => s,
                Err(e) => {
                    drive.error = Some(format!("round {r}: restore failed: {e}"));
                    break;
                }
            };
            selector = SeuSelector::new();
            drive.lfs_registered += pipeline.lfs_registered;
            pipeline = StagedPipeline::new(ctx.clone());
            pipeline.ctx.set_warm_seeds(ckpt.warm_seeds);
            trace.child(round, "session.restore", round_start, Instant::now());
        }
        let start = Instant::now();
        let selected = session.select_with(&mut selector);
        trace.child(round, "seu.select", start, Instant::now());
        let outcome = match selected {
            Ok(Some(x)) => {
                let start = Instant::now();
                let lfs = session.develop(x, &mut user);
                let submit_start = Instant::now();
                trace.child(round, "oracle.develop", start, submit_start);
                let submitted = session.submit(lfs, &mut pipeline);
                trace.child(round, "session.submit", submit_start, Instant::now());
                for (name, start, end) in pipeline.stages.drain(..) {
                    trace.child(round, name, start, end);
                }
                submitted.map(|()| Some(x))
            }
            Ok(None) => session.advance_frozen().map(|()| None),
            Err(e) => Err(e),
        };
        trace.record(round, None, "round", round_start, Instant::now());
        match outcome {
            Ok(selected) => {
                drive.trajectory.selected.push(selected);
                drive.trajectory.chosen_p.push(session.outputs().chosen_p.map(f64::to_bits));
            }
            Err(e) => {
                drive.error = Some(format!("round {r}: {e}"));
                break;
            }
        }
    }
    drive.lfs_registered += pipeline.lfs_registered;
    drive.trajectory.score_bits = session.test_score().to_bits();
    drive
}
