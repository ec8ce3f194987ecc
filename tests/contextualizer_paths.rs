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

mod common;

use common::run_session;
use nemo::core::config::IdpConfig;
use nemo::core::contextualizer::Contextualizer;
use nemo::core::oracle::{SimulatedUser, User};
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::reference::{register_batch_naive, ReferencePipeline};
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::lf::Lineage;
use nemo::sparse::DetRng;

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
