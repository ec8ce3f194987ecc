//! Configuration types for IDP sessions.

use nemo_endmodel::LogRegConfig;
use nemo_labelmodel::{GenerativeModel, LabelModel, MajorityVote, TripletModel};
use nemo_sparse::Distance;

/// Which label model aggregates the weak votes (the paper adopts MeTaL;
/// alternatives are provided for ablation).
// lint: allow(doctrine/unregistered-switch): an ablation axis (which
// estimator), not a fast path vs. reference path — no differential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LabelModelKind {
    /// Moment-based accuracy estimation with shrinkage (the binary
    /// equivalent of MeTaL's matrix-completion step, implemented via the
    /// FlyingSquid triplet identities) — the paper's default label model.
    #[default]
    Metal,
    /// Dawid–Skene EM-fitted generative model (alternative estimator).
    Generative,
    /// Majority vote.
    Majority,
}

impl LabelModelKind {
    /// Instantiate the estimator.
    pub fn build(self) -> Box<dyn LabelModel> {
        match self {
            LabelModelKind::Metal => Box::new(TripletModel::default()),
            LabelModelKind::Generative => Box::new(GenerativeModel::default()),
            LabelModelKind::Majority => Box::new(MajorityVote::default()),
        }
    }

    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            LabelModelKind::Metal => "metal-moment",
            LabelModelKind::Generative => "generative-em",
            LabelModelKind::Majority => "majority-vote",
        }
    }
}

/// Which selection engine drives the interactive loop.
///
/// Both engines plug into the same [`crate::Session`] state machine, feed
/// accepted LFs through the contextualizer identically, and checkpoint /
/// restore bit-identically through [`crate::SessionCheckpoint`]; the
/// switch changes *what the user is asked each round*, not any learning
/// semantics downstream of the answer. SEU is the paper's protocol and
/// the reference path (`tests/iws_engine_differential.rs` pins the IWS
/// engine's trajectories across thread counts, checkpoint/restore, and
/// pool churn); the `iws_rank` bench section records end-model accuracy
/// per oracle query for both engines Table-5-style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// SEU development-example selection: the engine picks the most
    /// useful unlabeled example and the user authors an LF for it — the
    /// paper's protocol and the reference path.
    #[default]
    Seu,
    /// IWS learned LF-candidate ranking (Boecking et al.): the engine
    /// enumerates keyword-LF candidates from the vocabulary, ranks them
    /// with a bootstrap-committee user model updated online from
    /// accept/reject feedback, and asks the user only to judge the
    /// top-ranked candidate each round.
    Iws,
}

impl SelectionStrategy {
    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            SelectionStrategy::Seu => "seu",
            SelectionStrategy::Iws => "iws-rank",
        }
    }
}

/// Contextualizer settings (paper Sec. 4.3). The contextualizer has one
/// production path; its pre-optimisation arms are test oracles in
/// [`mod@crate::reference`], not settings.
#[derive(Debug, Clone)]
pub struct ContextualizerConfig {
    /// Distance function (cosine by default; Table 9 compares euclidean).
    pub distance: Distance,
    /// Candidate percentile values for the refinement radius; the best is
    /// chosen per iteration by validation accuracy of the soft labels.
    pub p_grid: Vec<f64>,
}

impl Default for ContextualizerConfig {
    fn default() -> Self {
        Self { distance: Distance::Cosine, p_grid: vec![25.0, 50.0, 75.0, 100.0] }
    }
}

impl ContextualizerConfig {
    /// Check the percentile grid `tune_p` scans, returning the offending
    /// field's name: it must be non-empty with every `p` in `[0, 100]`
    /// (NaN fails), or the first tuning round would panic. Behind both
    /// [`crate::SessionPool::admit`] and [`crate::NemoSystem::restore_with`].
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if self.p_grid.is_empty() || !self.p_grid.iter().all(|p| (0.0..=100.0).contains(p)) {
            return Err("p_grid");
        }
        Ok(())
    }
}

/// Configuration of one IDP run (paper Sec. 5.1 evaluation protocol).
#[derive(Debug, Clone)]
pub struct IdpConfig {
    /// Total interactive iterations (paper: 50).
    pub n_iterations: usize,
    /// Evaluate the end model on the test split every this many
    /// iterations (paper: 5).
    pub eval_every: usize,
    /// Label model choice.
    pub label_model: LabelModelKind,
    /// End-model hyperparameters.
    pub end_model: LogRegConfig,
    /// LFs the user may return per iteration (1 = the paper's atomic
    /// setting; >1 enables the Sec. 7 multi-LF extension).
    pub lfs_per_iteration: usize,
    /// Which selection engine drives the loop (SEU example selection —
    /// the reference path — or IWS learned LF-candidate ranking).
    pub selection: SelectionStrategy,
    /// Master seed for the run.
    pub seed: u64,
    /// Snapshot cadence for crash recovery: `Some(k)` asks the driver to
    /// persist a [`crate::checkpoint::SessionCheckpoint`] every `k`
    /// completed iterations ([`crate::Session::checkpoint_due`] reports
    /// when). `None` (the default) disables periodic checkpointing; the
    /// knob never affects learning behaviour, only when snapshots happen.
    pub checkpoint_every: Option<usize>,
}

impl IdpConfig {
    /// Check the fields a session cannot run with, returning the first
    /// offending field's name — the one check behind both
    /// [`crate::SessionPool::admit`] and [`crate::Session::restore`], so
    /// a pool never admits a tenant it could not restore after evicting
    /// it. The drivers evaluate every `eval_every` rounds (`(t + 1) %
    /// eval_every`), so a zero cadence would panic the loop.
    pub(crate) fn validate(&self) -> Result<(), &'static str> {
        if self.eval_every == 0 {
            return Err("eval_every");
        }
        Ok(())
    }
}

impl Default for IdpConfig {
    fn default() -> Self {
        Self {
            n_iterations: 50,
            eval_every: 5,
            label_model: LabelModelKind::Metal,
            end_model: LogRegConfig::default(),
            lfs_per_iteration: 1,
            selection: SelectionStrategy::default(),
            seed: 0,
            checkpoint_every: None,
        }
    }
}

impl IdpConfig {
    /// Copy with a different seed (for multi-seed protocols).
    pub fn with_seed(&self, seed: u64) -> Self {
        Self { seed, ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_model_kinds_build() {
        for kind in [LabelModelKind::Metal, LabelModelKind::Generative, LabelModelKind::Majority] {
            let _ = kind.build();
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn defaults_match_paper_protocol() {
        let cfg = IdpConfig::default();
        assert_eq!(cfg.n_iterations, 50);
        assert_eq!(cfg.eval_every, 5);
        assert_eq!(cfg.lfs_per_iteration, 1);
        assert_eq!(cfg.label_model, LabelModelKind::Metal);
        assert_eq!(cfg.checkpoint_every, None);
        assert_eq!(cfg.selection, SelectionStrategy::Seu);
    }

    #[test]
    fn selection_strategy_names_stable() {
        assert_eq!(SelectionStrategy::Seu.name(), "seu");
        assert_eq!(SelectionStrategy::Iws.name(), "iws-rank");
        assert_eq!(SelectionStrategy::default(), SelectionStrategy::Seu);
    }

    #[test]
    fn contextualizer_default_grid() {
        let c = ContextualizerConfig::default();
        assert_eq!(c.distance, Distance::Cosine);
        assert_eq!(c.p_grid, vec![25.0, 50.0, 75.0, 100.0]);
    }

    #[test]
    fn contextualizer_validate_rejects_bad_grids() {
        assert_eq!(ContextualizerConfig::default().validate(), Ok(()));
        let edges = ContextualizerConfig { p_grid: vec![0.0, 100.0], ..Default::default() };
        assert_eq!(edges.validate(), Ok(()));
        for p_grid in [vec![], vec![150.0], vec![f64::NAN], vec![50.0, -1.0]] {
            let bad = ContextualizerConfig { p_grid, ..Default::default() };
            assert_eq!(bad.validate(), Err("p_grid"), "{:?}", bad.p_grid);
        }
    }

    #[test]
    fn incremental_paths_are_the_defaults() {
        // Exhaustive destructure: the contextualizer is configured by its
        // distance and percentile grid alone, so no fast-vs-reference
        // switch can be added back without failing to compile here. The
        // reference arms live in `crate::reference`.
        let ContextualizerConfig { distance, p_grid } = ContextualizerConfig::default();
        assert_eq!((distance, p_grid.len()), (Distance::Cosine, 4));
    }

    #[test]
    fn with_seed_changes_only_seed() {
        let a = IdpConfig::default();
        let b = a.with_seed(9);
        assert_eq!(b.seed, 9);
        assert_eq!(b.n_iterations, a.n_iterations);
    }
}
