//! End-to-end differential test for the contextualizer's distance engines.
//!
//! A full interactive `Session` (SEU selection + simulated user +
//! contextualized learning) must make *identical* decisions whether the
//! contextualizer registers LFs through the batched inverted-index engine
//! (`Contextualizer::register_batch`, the production path) or the per-LF
//! naive row-major scan (`reference::register_batch_naive`, the pre-index
//! oracle, driven through `reference::ReferencePipeline`): same
//! development examples selected every round, same tuned refinement
//! percentile, same final scores. The two engines are bit-identical by
//! construction, and the reference pipeline's other arms are too under
//! the seed-free default estimator, so every assertion here is exact
//! equality — any drift is a kernel bug, not rounding.
//!
//! Percentile tuning is pinned the same way: production `tune_p` (warm
//! parallel fits) must match the cold sequential `reference::tune_p`
//! bit for bit under the seed-free MeTaL estimator over random
//! lineage-growth trajectories with edited grids. The suite also pins the
//! empty-validation-split tie-break of `tune_p`: with no validation
//! signal the *largest* percentile in the grid wins explicitly (widest
//! coverage), not whatever the grid order would accidentally select (the
//! pre-fix `>=` scan kept the last grid point).

mod common;

use common::run_session;
use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::contextualizer::Contextualizer;
use nemo::core::oracle::{SimulatedUser, User};
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::reference::{self, register_batch_naive, ReferencePipeline};
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::data::{Dataset, Features, Split};
use nemo::labelmodel::{GenerativeModel, TripletModel};
use nemo::lf::{Label, LabelMatrix, LfColumn, Lineage, Metric, PrimitiveCorpus, PrimitiveLf};
use nemo::sparse::{CsrMatrix, DetRng, SparseVec};
use proptest::prelude::*;

fn assert_identical(seed: u64, lfs_per_iteration: usize) {
    let ds = toy_text(1);
    let config = IdpConfig {
        n_iterations: 12,
        eval_every: 4,
        seed,
        lfs_per_iteration,
        ..Default::default()
    };
    let indexed = run_session(
        &ds,
        config.clone(),
        &mut SeuSelector::new(),
        &mut ContextualizedPipeline::default(),
    );
    let naive =
        run_session(&ds, config, &mut SeuSelector::new(), &mut ReferencePipeline::default());
    assert_eq!(indexed, naive, "session diverged (seed {seed}, {lfs_per_iteration} LFs/round)");
}

#[test]
fn full_session_identical_across_engines() {
    for seed in [1u64, 5, 9] {
        assert_identical(seed, 1);
    }
}

#[test]
fn full_session_identical_across_engines_multi_lf_rounds() {
    // lfs_per_iteration > 1 registers several LFs per round, exercising
    // real multi-pivot batches through `Contextualizer::register_batch`.
    assert_identical(3, 3);
}

/// The caches behind those sessions agree directly: every LF's radius at
/// every percentile and its refined validation column are bit-identical
/// between one batched indexed registration and per-LF naive scans.
#[test]
fn naive_registration_matches_batched_caches() {
    let ds = toy_text(1);
    let (mut rng, mut user) = (DetRng::new(5), SimulatedUser::default());
    let mut lineage = Lineage::new();
    for x in (0..ds.train.n()).step_by(11) {
        if let Some(lf) = user.provide_lf(x, &ds, &mut rng) {
            lineage.record(lf, x as u32, lineage.len() as u32);
        }
    }
    let mut batched = Contextualizer::new(Default::default());
    batched.sync(&lineage, &ds);
    let mut naive = Contextualizer::new(Default::default());
    for rec in lineage.tracked() {
        register_batch_naive(&mut naive, std::slice::from_ref(rec), &ds);
    }
    assert!(naive.n_registered() >= 8);
    for j in 0..lineage.len() {
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
            assert_eq!(batched.radius(j, p).to_bits(), naive.radius(j, p).to_bits(), "j={j} p={p}");
            let (a, b) = (batched.refine_valid(j, p), naive.refine_valid(j, p));
            assert_eq!(a.entries(), b.entries(), "j={j} p={p}");
        }
    }
}

/// Assert two label matrices are entry-for-entry identical, naming the
/// first column that differs.
fn assert_matrices_bit_identical(a: &LabelMatrix, b: &LabelMatrix, what: &str) {
    assert_eq!(a.n_lfs(), b.n_lfs(), "{what}: LF count");
    assert_eq!(a.n_examples(), b.n_examples(), "{what}: example count");
    for j in 0..a.n_lfs() {
        assert_eq!(a.column(j).entries(), b.column(j).entries(), "{what}: column {j}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    /// Production `tune_p` vs the cold sequential `reference::tune_p`
    /// over lineage growth (0–2 new LFs a round) and occasional edits of
    /// one grid percentile: tuned percentile, validation score (bitwise),
    /// tuned matrix and fit-dedup counts must agree every round.
    #[test]
    fn prop_tune_p_matches_reference_over_lineage_growth(
        seed in 0u64..1_000_000,
        rounds in 2usize..6,
        grid_mutation_prob in 0.0f64..0.6,
    ) {
        let ds = toy_text(2);
        let mut rng = DetRng::new(seed);
        let mut production = Contextualizer::new(ContextualizerConfig::default());
        let mut oracle = Contextualizer::new(ContextualizerConfig::default());
        let model = TripletModel::default();
        let mut lineage = Lineage::new();
        let mut matrix = LabelMatrix::new(ds.train.n());
        for round in 0..rounds {
            // 1 new LF on the first round (tune_p needs a non-empty
            // matrix), 0–2 afterwards, from random primitives anchored at
            // random development examples.
            let n_new = if round == 0 { 1 } else { rng.index(3) };
            for _ in 0..n_new {
                let z = rng.index(ds.n_primitives) as u32;
                let lf = PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5)));
                lineage.record(lf, rng.index(ds.train.n()) as u32, round as u32);
                matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
            }
            if round > 0 && rng.bernoulli(grid_mutation_prob) {
                let k = rng.index(production.config.p_grid.len());
                let p = (rng.uniform() * 100.0).clamp(0.0, 100.0);
                production.config.p_grid[k] = p;
                oracle.config.p_grid[k] = p;
            }
            production.sync(&lineage, &ds);
            oracle.sync(&lineage, &ds);

            let tuned_p = production.tune_p(&matrix, &ds, &model, ds.prior());
            let tuned_o = reference::tune_p(&mut oracle, &matrix, &ds, &model, ds.prior());
            prop_assert_eq!(tuned_p.p, tuned_o.p, "round {}: tuned percentile", round);
            prop_assert_eq!(
                tuned_p.valid_score.to_bits(),
                tuned_o.valid_score.to_bits(),
                "round {}: validation score", round
            );
            assert_matrices_bit_identical(
                &tuned_p.train_matrix,
                &tuned_o.train_matrix,
                &format!("round {round} tuned matrix"),
            );
            prop_assert_eq!(
                production.tune_fits(), oracle.tune_fits(),
                "round {}: dedup resolved differently", round
            );
        }
    }
}

/// A tiny hand-built dataset over 4 primitives whose validation split is
/// empty (the degenerate deployment where no labeled data exists yet).
fn dataset_with_empty_valid(p_grid: Vec<f64>) -> (Dataset, ContextualizerConfig) {
    let docs: Vec<Vec<u32>> =
        vec![vec![0], vec![0, 1], vec![1], vec![2], vec![0, 2], vec![1, 3], vec![3], vec![2, 3]];
    let n_primitives = 4;
    let features_of = |docs: &[Vec<u32>]| {
        let rows: Vec<SparseVec> = docs
            .iter()
            .map(|d| SparseVec::from_pairs(d.iter().map(|&z| (z, 1.0)).collect(), n_primitives))
            .collect();
        Features::from_csr(CsrMatrix::from_rows(&rows, n_primitives))
    };
    let labels: Vec<Label> =
        docs.iter().map(|d| Label::from_bool(d.contains(&0) || d.contains(&1))).collect();
    let split_of = |docs: &[Vec<u32>], labels: &[Label]| Split {
        labels: labels.to_vec(),
        features: features_of(docs),
        corpus: PrimitiveCorpus::new(docs.to_vec(), n_primitives),
        clusters: vec![0; docs.len()],
    };
    let train = split_of(&docs, &labels);
    let valid = split_of(&[], &[]);
    let test = split_of(&docs[..2], &labels[..2]);
    let ds = Dataset {
        name: "empty-valid".into(),
        metric: Metric::Accuracy,
        train,
        valid,
        test,
        n_primitives,
        primitive_names: (0..n_primitives).map(|z| format!("z{z}")).collect(),
        lexicon: Vec::new(),
        class_prior_pos: 0.5,
    };
    ds.validate();
    let config = ContextualizerConfig { p_grid, ..Default::default() };
    (ds, config)
}

/// Regression for the degenerate `tune_p` tie-break: with an empty
/// validation split every grid point scores a vacuous 0.0, and the
/// pre-fix `>=` scan silently kept whatever percentile sat *last* in the
/// grid. The fixed behaviour selects the *largest* percentile (widest
/// coverage) explicitly, in production and in the reference tuner, with
/// the vacuous score reported as exactly 0.0.
#[test]
fn empty_validation_split_selects_widest_coverage_explicitly() {
    // Deliberately unsorted grid with the largest percentile in the
    // middle: the pre-fix code returns 25.0 (last), the fix 100.0.
    let (ds, config) = dataset_with_empty_valid(vec![50.0, 100.0, 25.0]);
    for path in ["production", "reference"] {
        let mut ctx = Contextualizer::new(config.clone());
        let mut lineage = Lineage::new();
        for (z, dev) in [(0u32, 0u32), (1, 2), (2, 3)] {
            lineage.record(PrimitiveLf::new(z, Label::Pos), dev, 0);
        }
        ctx.sync(&lineage, &ds);
        let lfs: Vec<PrimitiveLf> = lineage.tracked().iter().map(|r| r.lf).collect();
        let matrix = LabelMatrix::from_lfs(&lfs, &ds.train.corpus);
        let model = GenerativeModel::default();
        let tuned = match path {
            "production" => ctx.tune_p(&matrix, &ds, &model, ds.prior()),
            _ => reference::tune_p(&mut ctx, &matrix, &ds, &model, ds.prior()),
        };
        assert_eq!(tuned.p, 100.0, "{path}: widest coverage must win");
        assert_eq!(tuned.valid_score, 0.0, "{path}: score is vacuously zero");
        // p = 100 keeps every raw vote: refinement must be the identity.
        assert_matrices_bit_identical(
            &tuned.train_matrix,
            &matrix,
            &format!("{path} tuned matrix"),
        );
    }
}
