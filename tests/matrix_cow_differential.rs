//! Differential property suite for the copy-on-write `Arc<LfColumn>`
//! matrix storage and the equivalence-class posterior dedup in `tune_p`
//! (`Contextualizer::tune_p` vs the per-grid-point oracle
//! `reference::tune_p_per_point`).
//!
//! The CoW claims are *representation* claims, so the properties compare
//! observable behaviour across construction paths: a matrix assembled
//! from owned columns, one assembled from shared handles of the same
//! contents, and clones of either must be indistinguishable through the
//! whole read API — while mutation through [`LabelMatrix::column_mut`]
//! must break sharing for exactly the edited column and leak into no
//! other holder. The dedup claims are *bitwise* claims: one posterior
//! predict per `(fit, validation matrix)` equivalence class must
//! reproduce the per-grid-point reference's tuned percentile, validation
//! score (to the bit), and refined train matrix over any lineage-growth
//! trajectory, while never predicting more often — and strictly less
//! often once the grid contains duplicated percentiles.

mod common;

use common::run_session;
use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::contextualizer::Contextualizer;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::reference::{self, ReferencePipeline};
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::labelmodel::GenerativeModel;
use nemo::lf::{Label, LabelMatrix, LfColumn, Lineage, PrimitiveLf, Vote};
use nemo::sparse::DetRng;
use proptest::prelude::*;
use std::sync::Arc;

/// Deduplicate raw `(example, sign)` pairs into the sorted-unique entry
/// list [`LfColumn::new`] accepts (first occurrence of an example wins).
fn to_entries(pairs: &[(u32, bool)]) -> Vec<(u32, Vote)> {
    let mut seen = std::collections::BTreeMap::new();
    for &(i, pos) in pairs {
        seen.entry(i).or_insert(pos);
    }
    seen.into_iter().map(|(i, pos)| (i, if pos { 1 } else { -1 })).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Owned pushes, shared pushes of the same contents, and clones are
    /// observably identical matrices.
    #[test]
    fn prop_owned_and_shared_construction_indistinguishable(
        raw_cols in proptest::collection::vec(
            proptest::collection::vec((0u32..24, proptest::bool::ANY), 0..12), 1..8),
    ) {
        let n = 24usize;
        let cols: Vec<Vec<(u32, Vote)>> = raw_cols.iter().map(|c| to_entries(c)).collect();
        let mut owned = LabelMatrix::new(n);
        let mut shared = LabelMatrix::new(n);
        for entries in &cols {
            owned.push(LfColumn::new(entries.clone()));
            shared.push_shared(Arc::new(LfColumn::new(entries.clone())));
        }
        prop_assert_eq!(&owned, &shared);
        prop_assert_eq!(owned.vote_summaries(), shared.vote_summaries());
        prop_assert_eq!(owned.coverage_frac(), shared.coverage_frac());
        for i in 0..n as u32 {
            prop_assert_eq!(owned.row(i), shared.row(i));
        }
        // Construction tokens differ everywhere (distinct constructions),
        // so equality above exercised the content path, not the fast path.
        for j in 0..owned.n_lfs() {
            prop_assert_ne!(owned.column(j).token(), shared.column(j).token());
        }
        // Clones share every buffer and stay equal.
        let snap = owned.clone();
        prop_assert_eq!(snap.shared_columns_with(&owned), owned.n_lfs());
        prop_assert_eq!(&snap, &owned);
    }

    /// Token fast path: two handles of one construction compare equal
    /// without entry scans, and a clone of the matrix keeps tokens.
    #[test]
    fn prop_shared_handles_share_tokens(
        raw in proptest::collection::vec((0u32..24, proptest::bool::ANY), 0..12),
    ) {
        let col = Arc::new(LfColumn::new(to_entries(&raw)));
        let mut a = LabelMatrix::new(24);
        let mut b = LabelMatrix::new(24);
        a.push_shared(Arc::clone(&col));
        b.push_shared(col);
        prop_assert_eq!(a.column(0).token(), b.column(0).token());
        prop_assert!(Arc::ptr_eq(a.shared_column(0), b.shared_column(0)));
        prop_assert_eq!(&a, &b);
    }

    /// Mutation-after-share: editing one column of one holder through the
    /// CoW API must not change any other holder, must unshare exactly the
    /// edited column, and must restamp its token.
    #[test]
    fn prop_mutation_after_share_is_isolated(
        raw_cols in proptest::collection::vec(
            proptest::collection::vec((0u32..24, proptest::bool::ANY), 0..12), 2..8),
        edit_seed in 0u64..1_000_000,
    ) {
        let n = 24usize;
        let mut a = LabelMatrix::new(n);
        for raw in &raw_cols {
            a.push(LfColumn::new(to_entries(raw)));
        }
        let b = a.clone();
        let mut rng = DetRng::new(edit_seed);
        let j = rng.index(a.n_lfs());
        let drop_below = rng.index(n) as u32;
        let before_entries: Vec<(u32, Vote)> = a.column(j).entries().to_vec();
        let before_token = a.column(j).token();
        a.column_mut(j).retain(|i| i >= drop_below);

        // The edited holder sees the filtered column with a fresh token…
        let expect: Vec<(u32, Vote)> =
            before_entries.iter().copied().filter(|&(i, _)| i >= drop_below).collect();
        prop_assert_eq!(a.column(j).entries(), expect.as_slice());
        prop_assert_ne!(a.column(j).token(), before_token);
        // …the other holder keeps the original votes and token…
        prop_assert_eq!(b.column(j).entries(), before_entries.as_slice());
        prop_assert_eq!(b.column(j).token(), before_token);
        prop_assert!(!Arc::ptr_eq(a.shared_column(j), b.shared_column(j)));
        // …and every untouched column stays pointer-shared.
        for k in 0..a.n_lfs() {
            if k != j {
                prop_assert!(Arc::ptr_eq(a.shared_column(k), b.shared_column(k)));
            }
        }
        prop_assert_eq!(a.shared_columns_with(&b), a.n_lfs() - 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Class-deduped validation scoring vs the per-grid-point reference
    /// over random lineage-growth trajectories, with occasionally
    /// *duplicated* grid percentiles forcing non-trivial equivalence
    /// classes: tuned percentile, validation score (bitwise), refined
    /// train matrix, and fit dedup must agree every round, and the class
    /// path must save predicts exactly when classes collapse.
    #[test]
    fn prop_class_predict_matches_per_point(
        seed in 0u64..1_000_000,
        rounds in 2usize..6,
        duplicate_grid in proptest::bool::ANY,
    ) {
        let ds = toy_text(2);
        let mut rng = DetRng::new(seed);
        let p_grid = if duplicate_grid {
            // Duplicates refine to identical train AND valid matrices, so
            // each duplicated pair must collapse into one class.
            vec![25.0, 50.0, 50.0, 100.0, 100.0]
        } else {
            vec![25.0, 50.0, 75.0, 100.0]
        };
        let mut class_ctx = Contextualizer::new(ContextualizerConfig {
            p_grid: p_grid.clone(),
            ..Default::default()
        });
        let mut pp_ctx = Contextualizer::new(ContextualizerConfig {
            p_grid: p_grid.clone(),
            ..Default::default()
        });
        let model = GenerativeModel::default();
        let mut lineage = Lineage::new();
        let mut matrix = LabelMatrix::new(ds.train.n());
        for round in 0..rounds {
            let n_new = if round == 0 { 1 } else { rng.index(3) };
            for _ in 0..n_new {
                let z = rng.index(ds.n_primitives) as u32;
                let lf = PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5)));
                lineage.record(lf, rng.index(ds.train.n()) as u32, round as u32);
                matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
            }
            class_ctx.sync(&lineage, &ds);
            pp_ctx.sync(&lineage, &ds);
            let a = class_ctx.tune_p(&matrix, &ds, &model, ds.prior());
            let b = reference::tune_p_per_point(&mut pp_ctx, &matrix, &ds, &model, ds.prior());
            prop_assert_eq!(a.p, b.p, "round {}: tuned percentile", round);
            prop_assert_eq!(
                a.valid_score.to_bits(),
                b.valid_score.to_bits(),
                "round {}: validation score", round
            );
            prop_assert_eq!(&a.train_matrix, &b.train_matrix, "round {}: tuned matrix", round);
            prop_assert_eq!(
                class_ctx.tune_fits(), pp_ctx.tune_fits(),
                "round {}: fit dedup resolved differently", round
            );
        }
        prop_assert_eq!(pp_ctx.tune_predicts(), rounds * p_grid.len());
        prop_assert!(class_ctx.tune_predicts() <= pp_ctx.tune_predicts());
        if duplicate_grid {
            // Each round has at most 3 distinct grid points, so at least
            // 2 predicts per round must have been deduped away.
            prop_assert!(
                class_ctx.tune_predicts() <= rounds * (p_grid.len() - 2),
                "duplicated grid points were not deduped: {} predicts over {} rounds",
                class_ctx.tune_predicts(), rounds
            );
        }
        // CoW accounting invariant of the incremental serve path: every
        // processed (grid point, LF) slot hands out its train and valid
        // columns as shared handles — never a vote memcpy.
        let stats = class_ctx.refine_cache_stats();
        prop_assert_eq!(stats.shared_serves, 2 * (stats.hits + stats.refilters));
    }
}

/// Full-session differential: an interactive `Session` (SEU selection +
/// simulated user + contextualized learning under the seed-free default
/// estimator) must make identical decisions — same development example
/// selected every round, same tuned percentile — with class-deduped
/// scoring (production) and per-point scoring (the reference pipeline),
/// and the production run's serve path must be all-shared (zero
/// per-column vote memcpys, witnessed by the CoW counters).
#[test]
fn sessions_select_identically_under_both_dedup_paths() {
    let ds = toy_text(3);
    for seed in [5u64, 17] {
        let config = IdpConfig { n_iterations: 10, eval_every: 5, seed, ..Default::default() };
        let mut production = ContextualizedPipeline::default();
        let mut per_point = ReferencePipeline::default();
        let class_trace =
            run_session(&ds, config.clone(), &mut SeuSelector::new(), &mut production);
        let pp_trace = run_session(&ds, config, &mut SeuSelector::new(), &mut per_point);
        assert_eq!(class_trace, pp_trace, "seed {seed}: decisions diverged");
        let n_lfs = production.contextualizer().n_registered();
        let class_stats = production.contextualizer().refine_cache_stats();
        let class_predicts = production.contextualizer().tune_predicts();
        let pp_predicts = per_point.contextualizer().tune_predicts();
        assert!(
            class_predicts <= pp_predicts,
            "seed {seed}: class path predicted more often ({class_predicts} vs {pp_predicts})"
        );
        let grid = ContextualizerConfig::default().p_grid.len();
        assert_eq!(
            class_stats.refilters,
            grid * n_lfs,
            "seed {seed}: warm rounds refiltered cached columns"
        );
        assert_eq!(
            class_stats.shared_serves,
            2 * (class_stats.hits + class_stats.refilters),
            "seed {seed}: a served column bypassed the shared-handle path"
        );
        assert!(class_stats.hits > 0, "seed {seed}: cache never hit");
    }
}

/// The refinement cache, the warm start, and the score dedup compose:
/// production and every reference tuner agree bitwise on a first tune
/// over a fixed lineage (a first tune has no warm seeds, so warm and cold
/// fits coincide even under EM), and the all-reference tuner records no
/// shared serves (it builds owned matrices).
#[test]
fn dedup_and_refinement_switches_compose() {
    let ds = toy_text(1);
    let mut rng = DetRng::new(77);
    let mut lineage = Lineage::new();
    let mut matrix = LabelMatrix::new(ds.train.n());
    for round in 0..6u32 {
        let z = rng.index(ds.n_primitives) as u32;
        let lf = PrimitiveLf::new(z, Label::from_bool(rng.bernoulli(0.5)));
        lineage.record(lf, rng.index(ds.train.n()) as u32, round);
        matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
    }
    let model = GenerativeModel::default();
    let mut results = Vec::new();
    for tuner in ["production", "per-point", "cold", "reference"] {
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.sync(&lineage, &ds);
        let prior = ds.prior();
        let tuned = match tuner {
            "production" => ctx.tune_p(&matrix, &ds, &model, prior),
            "per-point" => reference::tune_p_per_point(&mut ctx, &matrix, &ds, &model, prior),
            "cold" => reference::tune_p_cold(&mut ctx, &matrix, &ds, &model, prior),
            _ => {
                let tuned = reference::tune_p(&mut ctx, &matrix, &ds, &model, prior);
                assert_eq!(
                    ctx.refine_cache_stats().shared_serves,
                    0,
                    "the rebuild oracle must not record shared serves"
                );
                tuned
            }
        };
        results.push((tuned.p, tuned.valid_score.to_bits(), tuned.train_matrix));
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0].0, pair[1].0, "tuned percentile diverged across switches");
        assert_eq!(pair[0].1, pair[1].1, "validation score diverged across switches");
        assert_eq!(pair[0].2, pair[1].2, "tuned matrix diverged across switches");
    }
}
