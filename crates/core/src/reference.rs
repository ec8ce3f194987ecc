//! Reference oracles: the pre-optimisation arm of every fast path in the
//! interactive loop, kept for differential tests and the kernel
//! microbench, never as production configuration.
//!
//! Production has exactly one path per stage; each item here is the path
//! it replaced. Every public item is pinned against production by a
//! differential suite under `tests/`, which the
//! `doctrine/switch-differential` lint enforces (docs/ARCHITECTURE.md,
//! "Doctrine: every fast path has a reference oracle", maps each oracle
//! to its suite). Agreement is bitwise except where an optimisation
//! changes the float program: warm-started EM reconverges within its
//! tolerance, and the blocked dense kernels reassociate their sums.
//! Under a seed-free estimator (MeTaL triplets, majority vote) warm and
//! cold fits coincide, so whole sessions agree bit for bit.

use crate::config::{ContextualizerConfig, IdpConfig};
use crate::contextualizer::{Contextualizer, PivotRows, TunedRefinement};
use crate::idp::ModelOutputs;
use crate::pipeline::{end_model_outputs, LearningPipeline, UNIFORM_BALANCE};
use nemo_data::{Dataset, Features};
use nemo_labelmodel::LabelModel;
use nemo_lf::{LabelMatrix, Lineage, TrackedLf};
use nemo_sparse::Distance;

/// Distances from each of `pivots` (examples of `src`) to every example of
/// `target`, one pivot at a time through the naive kernels: the row-major
/// sparse scan, or the scalar dense reduction when both splits are
/// dense-backed — the oracle for [`Features::distances`]. Bit-identical
/// on sparse features, within `1e-9` relative on dense ones (bitwise on
/// rows shorter than `nemo_sparse::dense::DOT_LANES`).
pub fn distances(
    dist: Distance,
    src: &Features,
    pivots: &[usize],
    target: &Features,
) -> Vec<Vec<f64>> {
    let (src_sq, target_sq) = (src.sq_norms(), target.sq_norms());
    pivots
        .iter()
        .map(|&p| {
            let mut out = Vec::new();
            match (src.dense(), target.dense()) {
                (Some(s), Some(t)) => {
                    dist.dense_row_to_all_naive_into(s.row(p), src_sq[p], t, target_sq, &mut out)
                }
                _ => dist.sparse_row_to_all_naive_into(
                    &src.csr().row(p),
                    src_sq[p],
                    target.csr(),
                    target_sq,
                    &mut out,
                ),
            }
            out
        })
        .collect()
}

/// Register LFs one row-major scan per LF and split (the pre-index
/// engine, scalar dense kernels throughout, through [`distances`]) — the
/// oracle for [`Contextualizer::register_batch`].
pub fn register_batch_naive(ctx: &mut Contextualizer, recs: &[TrackedLf], ds: &Dataset) {
    if recs.is_empty() {
        return;
    }
    let dist = ctx.config.distance;
    let train = &ds.train.features;
    let pivots: Vec<usize> = recs.iter().map(|r| r.dev_example as usize).collect();
    let train_ds = distances(dist, train, &pivots, train);
    let valid_ds = distances(dist, train, &pivots, &ds.valid.features);
    ctx.push_registered(recs, ds, PivotRows::batch(train_ds, valid_ds));
}

/// The pre-incremental percentile tuner: fit every unique grid point
/// cold and in sequence from the estimator's initializer, instead of
/// warm-seeded and in parallel. Warm seeds are neither read nor written.
/// Bit-identical to [`Contextualizer::tune_p`] under a seed-free
/// estimator; within EM tolerance otherwise.
pub fn tune_p(
    ctx: &mut Contextualizer,
    raw_train: &LabelMatrix,
    ds: &Dataset,
    label_model: &dyn LabelModel,
    prior: [f64; 2],
) -> TunedRefinement {
    let (matrices, valid_matrices) = ctx.refined_grid_matrices(raw_train, ds.valid.n());
    let cold_fits = |unique: &[usize], matrices: &[LabelMatrix]| {
        unique.iter().map(|&k| label_model.fit(&matrices[k], prior)).collect()
    };
    ctx.tune_grid(matrices, valid_matrices, ds, prior, cold_fits).0
}

/// [`crate::ContextualizedPipeline`] on every reference arm: naive
/// registration ([`register_batch_naive`]) and the pre-incremental tuner
/// ([`tune_p`]). Paired with [`crate::SeuSelector`] it replays a whole
/// session without any optimisation of the contextualized pipeline.
pub struct ReferencePipeline {
    ctx: Contextualizer,
}

impl ReferencePipeline {
    /// The underlying contextualizer (diagnostics).
    pub fn contextualizer(&self) -> &Contextualizer {
        &self.ctx
    }
}

impl Default for ReferencePipeline {
    fn default() -> Self {
        Self { ctx: Contextualizer::new(ContextualizerConfig::default()) }
    }
}

impl LearningPipeline for ReferencePipeline {
    fn name(&self) -> &'static str {
        "contextualized-reference"
    }

    fn learn(
        &mut self,
        lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        let n = self.ctx.n_registered();
        register_batch_naive(&mut self.ctx, &lineage.tracked()[n..], ds);
        if lineage.is_empty() {
            return ModelOutputs::initial(ds);
        }
        let label_model = config.label_model.build();
        let tuned = tune_p(&mut self.ctx, raw_matrix, ds, &*label_model, UNIFORM_BALANCE);
        let (posterior, covered) = tuned.fitted.predict_with_coverage(&tuned.train_matrix);
        end_model_outputs(posterior, &covered, ds, config, iter_seed, Some(tuned.p))
    }
}
