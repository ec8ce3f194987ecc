//! The Interactive Data Programming loop (paper Sec. 3 and Appendix A).
//!
//! Each iteration performs the three IDP stages:
//!
//! 1. **Development data selection** — a [`Selector`] picks one unlabeled
//!    training example (atomic setting, `|S_t| = 1`).
//! 2. **LF development** — a [`crate::oracle::User`] inspects the example
//!    and returns labeling function(s); lineage is recorded.
//! 3. **Label/end model learning** — a
//!    [`crate::pipeline::LearningPipeline`] (standard or contextualized)
//!    learns from the LFs collected so far and exposes its model state
//!    back to the selector for the next cycle.
//!
//! The session is generic over all three components, so every method in
//! the paper's evaluation — Nemo, Snorkel, Snorkel-Abs/Dis, the SEU and
//! contextualizer ablations — is an instantiation of the same loop.

use crate::config::IdpConfig;
use crate::oracle::User;
use crate::pipeline::LearningPipeline;
use crate::session::{Session, SeuAggregates};
use nemo_data::Dataset;
use nemo_labelmodel::Posterior;
use nemo_lf::{label_from_prob, Label, LabelMatrix, Lineage, PrimitiveLf};
use nemo_sparse::DetRng;

/// Model state after a learning stage, visible to selectors and
/// evaluation.
#[derive(Debug, Clone)]
pub struct ModelOutputs {
    /// Label-model posterior `P(y_i | Λ_t)` on the training split.
    pub train_posterior: Posterior,
    /// End-model probabilities `P(y_i = +1 | x_i)` on the training split
    /// (the `ŷ = f(x)` proxy the SEU user model and utility use).
    pub train_probs: Vec<f64>,
    /// End-model hard predictions on the validation split.
    pub valid_pred: Vec<Label>,
    /// End-model hard predictions on the test split.
    pub test_pred: Vec<Label>,
    /// The contextualizer percentile chosen this iteration (None for the
    /// standard pipeline).
    pub chosen_p: Option<f64>,
}

impl ModelOutputs {
    /// The before-any-LF state: posterior and predictions at the class
    /// prior.
    pub fn initial(ds: &Dataset) -> Self {
        let prior_pos = ds.class_prior_pos;
        let prior_label = label_from_prob(prior_pos);
        Self {
            train_posterior: Posterior::from_prior(ds.train.n(), prior_pos),
            train_probs: vec![prior_pos; ds.train.n()],
            valid_pred: vec![prior_label; ds.valid.n()],
            test_pred: vec![prior_label; ds.test.n()],
            chosen_p: None,
        }
    }

    /// Hard sign of the end-model prediction for training example `i`.
    #[inline]
    pub fn yhat_sign(&self, i: usize) -> i8 {
        if self.train_probs[i] >= 0.5 {
            1
        } else {
            -1
        }
    }

    /// All training prediction signs.
    pub fn yhat_signs(&self) -> Vec<i8> {
        (0..self.train_probs.len()).map(|i| self.yhat_sign(i)).collect()
    }
}

/// Read-only state a selector may consult. By IDP's rules the selector
/// never sees training ground truth — only model state and LF votes.
pub struct SelectionView<'a> {
    /// The dataset (selectors must not read `ds.train.labels`; only the
    /// oracle user does).
    pub ds: &'a Dataset,
    /// LFs collected so far with lineage.
    pub lineage: &'a Lineage,
    /// Raw (unrefined) train label matrix of the collected LFs.
    pub matrix: &'a LabelMatrix,
    /// Model state from the previous learning stage.
    pub outputs: &'a ModelOutputs,
    /// `excluded[i]` — example `i` was already shown to the user.
    pub excluded: &'a [bool],
    /// Current iteration (0-based).
    pub iteration: usize,
    /// The incrementally-maintained SEU aggregate cache consistent with
    /// `outputs`, when the view comes from a [`Session`]. `None` makes
    /// aggregate-consuming selectors rebuild the aggregates from scratch.
    pub aggs: Option<&'a SeuAggregates>,
}

impl<'a> SelectionView<'a> {
    /// Indices not yet shown to the user.
    pub fn available(&self) -> Vec<usize> {
        (0..self.ds.train.n()).filter(|&i| !self.excluded[i]).collect()
    }
}

/// A development-data selection strategy (IDP stage 1).
pub trait Selector {
    /// Name for reports ("SEU", "Random", …).
    fn name(&self) -> &'static str;

    /// Pick the next development example, or `None` when the pool is
    /// exhausted.
    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize>;
}

/// Uniform random selection — the prevailing approach (Snorkel).
#[derive(Debug, Clone, Default)]
pub struct RandomSelector;

impl Selector for RandomSelector {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize> {
        let avail = view.available();
        if avail.is_empty() {
            None
        } else {
            Some(avail[rng.index(avail.len())])
        }
    }
}

/// Record of one interactive step.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// The development example shown, if any.
    pub selected: Option<usize>,
    /// LFs the user returned.
    pub new_lfs: Vec<PrimitiveLf>,
}

/// A learning curve: `(iteration, test score)` points.
#[derive(Debug, Clone, Default)]
pub struct LearningCurve {
    points: Vec<(usize, f64)>,
}

impl LearningCurve {
    /// Record a point.
    pub fn push(&mut self, iteration: usize, score: f64) {
        self.points.push((iteration, score));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(usize, f64)] {
        &self.points
    }

    /// The paper's curve summary: the mean of the evaluated scores
    /// (proportional to area under the learning curve, Sec. 5.1).
    pub fn summary(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, s)| s).sum::<f64>() / self.points.len() as f64
    }

    /// Final score on the curve.
    pub fn final_score(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, s)| s)
    }
}

/// One interactive session binding a dataset, a selector, a user, and a
/// learning pipeline — a thin driver over the [`Session`] engine, which
/// owns the state and the incremental SEU aggregates.
pub struct IdpSession<'a> {
    session: Session<'a>,
    selector: Box<dyn Selector + 'a>,
    user: Box<dyn User + 'a>,
    pipeline: Box<dyn LearningPipeline + 'a>,
}

impl<'a> IdpSession<'a> {
    /// Create a session at iteration 0.
    pub fn new(
        ds: &'a Dataset,
        config: IdpConfig,
        selector: Box<dyn Selector + 'a>,
        user: Box<dyn User + 'a>,
        pipeline: Box<dyn LearningPipeline + 'a>,
    ) -> Self {
        Self { session: Session::new(ds, config), selector, user, pipeline }
    }

    /// The underlying engine state.
    pub fn session(&self) -> &Session<'a> {
        &self.session
    }

    /// The dataset this session runs on.
    pub fn dataset(&self) -> &Dataset {
        self.session.dataset()
    }

    /// Collected lineage so far.
    pub fn lineage(&self) -> &Lineage {
        self.session.lineage()
    }

    /// Latest model outputs.
    pub fn outputs(&self) -> &ModelOutputs {
        self.session.outputs()
    }

    /// Raw train label matrix of collected LFs.
    pub fn matrix(&self) -> &LabelMatrix {
        self.session.matrix()
    }

    /// Current iteration count.
    pub fn iteration(&self) -> usize {
        self.session.iteration()
    }

    /// Run one full IDP iteration: select → develop → learn.
    pub fn step(&mut self) -> StepRecord {
        self.session.step(&mut *self.selector, &mut *self.user, &mut *self.pipeline)
    }

    /// Current test-split score under the dataset metric.
    pub fn test_score(&self) -> f64 {
        self.session.test_score()
    }

    /// Current validation-split score under the dataset metric.
    pub fn valid_score(&self) -> f64 {
        self.session.valid_score()
    }

    /// Run the configured number of iterations, evaluating every
    /// `eval_every` iterations (the paper's protocol).
    pub fn run(&mut self) -> LearningCurve {
        let mut curve = LearningCurve::default();
        for t in 0..self.session.config().n_iterations {
            self.step();
            if (t + 1) % self.session.config().eval_every == 0 {
                curve.push(t + 1, self.test_score());
            }
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::SimulatedUser;
    use crate::pipeline::StandardPipeline;
    use nemo_data::catalog::toy_text;

    fn session(ds: &Dataset, seed: u64) -> IdpSession<'_> {
        let config = IdpConfig { n_iterations: 10, eval_every: 2, seed, ..Default::default() };
        IdpSession::new(
            ds,
            config,
            Box::new(RandomSelector),
            Box::new(SimulatedUser::default()),
            Box::new(StandardPipeline),
        )
    }

    #[test]
    fn initial_outputs_at_prior() {
        let ds = toy_text(1);
        let out = ModelOutputs::initial(&ds);
        assert_eq!(out.train_probs.len(), ds.train.n());
        assert_eq!(out.test_pred.len(), ds.test.n());
        assert!(out.chosen_p.is_none());
    }

    #[test]
    fn step_collects_lfs_and_updates_models() {
        let ds = toy_text(1);
        let mut s = session(&ds, 1);
        let rec = s.step();
        assert_eq!(rec.iteration, 0);
        assert!(rec.selected.is_some());
        assert_eq!(s.lineage().len(), rec.new_lfs.len());
        assert_eq!(s.matrix().n_lfs(), s.lineage().len());
        assert_eq!(s.iteration(), 1);
    }

    #[test]
    fn selected_examples_are_not_reselected() {
        let ds = toy_text(1);
        let mut s = session(&ds, 2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let rec = s.step();
            if let Some(x) = rec.selected {
                assert!(seen.insert(x), "example {x} selected twice");
            }
        }
    }

    #[test]
    fn run_produces_expected_curve_shape() {
        let ds = toy_text(1);
        let mut s = session(&ds, 3);
        let curve = s.run();
        assert_eq!(curve.points().len(), 5); // 10 iterations / eval_every 2
        assert_eq!(curve.points()[0].0, 2);
        assert_eq!(curve.points()[4].0, 10);
        for &(_, score) in curve.points() {
            assert!((0.0..=1.0).contains(&score));
        }
    }

    #[test]
    fn learning_beats_prior_on_toy() {
        let ds = toy_text(1);
        let mut s = session(&ds, 4);
        let curve = s.run();
        // After 10 LFs on the toy task the end model should beat chance.
        assert!(curve.final_score() > 0.55, "final score {}", curve.final_score());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = toy_text(1);
        let c1 = session(&ds, 7).run();
        let c2 = session(&ds, 7).run();
        assert_eq!(c1.points(), c2.points());
    }

    #[test]
    fn different_seeds_generally_differ() {
        let ds = toy_text(1);
        let c1 = session(&ds, 1).run();
        let c2 = session(&ds, 2).run();
        assert_ne!(c1.points(), c2.points());
    }

    #[test]
    fn curve_summary_is_mean() {
        let mut c = LearningCurve::default();
        c.push(5, 0.5);
        c.push(10, 0.7);
        assert!((c.summary() - 0.6).abs() < 1e-12);
        assert!((c.final_score() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn random_selector_exhausts_pool() {
        let ds = toy_text(1);
        let excluded = vec![true; ds.train.n()];
        let lineage = Lineage::new();
        let matrix = LabelMatrix::new(ds.train.n());
        let outputs = ModelOutputs::initial(&ds);
        let view = SelectionView {
            ds: &ds,
            lineage: &lineage,
            matrix: &matrix,
            outputs: &outputs,
            excluded: &excluded,
            iteration: 0,
            aggs: None,
        };
        let mut rng = DetRng::new(1);
        assert_eq!(RandomSelector.select(&view, &mut rng), None);
    }
}
