//! End-to-end differential test for the interactive loop's incremental
//! paths against their reference oracles (`nemo::core::reference`): a
//! full interactive `Session` driven by [`SeuSelector`] (over the
//! session's delta-synced aggregates) must select the same development
//! example and tune the same percentile every round with
//! [`ContextualizedPipeline`] (batched indexed registration, warm-seeded
//! parallel fits) as with [`ReferencePipeline`] (naive per-LF
//! registration, cold sequential fits).
//!
//! Under the seed-free default estimator (MeTaL, whose `fit_from` is
//! `fit`) the two pipelines are bit-identical, so sessions must agree bit
//! for bit. With the EM label model warm fits
//! reconverge within tolerance, so scores are asserted close; that
//! comparison runs on Amazon quick, whose well-conditioned matrices give
//! EM an effectively unique fixed point (on few-vote toy matrices warm
//! seeding deliberately tracks the incumbent basin; see
//! `Contextualizer::tune_p`). Everything is deterministic: a divergence is
//! a real regression, never flake.

mod common;

use common::{run_session, Trace};
use nemo::core::config::{IdpConfig, LabelModelKind};
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo::core::reference::ReferencePipeline;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{build, toy_text, DatasetName, Profile};
use nemo::data::Dataset;

/// One 12-round SEU session; `reference_pipeline` picks the oracle side
/// of the differential.
fn run(ds: &Dataset, label_model: LabelModelKind, reference_pipeline: bool, seed: u64) -> Trace {
    let config =
        IdpConfig { n_iterations: 12, eval_every: 4, seed, label_model, ..Default::default() };
    let mut pipeline: Box<dyn LearningPipeline> = if reference_pipeline {
        Box::new(ReferencePipeline::default())
    } else {
        Box::new(ContextualizedPipeline::default())
    };
    run_session(ds, config, &mut SeuSelector::new(), &mut *pipeline)
}

fn assert_identical_decisions(a: &Trace, b: &Trace, what: &str, seed: u64) {
    assert_eq!(a.selections, b.selections, "selected examples diverged ({what}, seed {seed})");
    assert_eq!(a.chosen_ps, b.chosen_ps, "tuned percentile diverged ({what}, seed {seed})");
    let (a_test, b_test) = (f64::from_bits(a.test_score), f64::from_bits(b.test_score));
    assert!(
        (a_test - b_test).abs() < 0.02,
        "test score diverged ({what}, seed {seed}): {a_test} vs {b_test}"
    );
    let (a_valid, b_valid) = (f64::from_bits(a.valid_score), f64::from_bits(b.valid_score));
    assert!(
        (a_valid - b_valid).abs() < 0.02,
        "valid score diverged ({what}, seed {seed}): {a_valid} vs {b_valid}"
    );
}

/// Under the seed-free default estimator a production-pipeline session is
/// bit-identical to a `ReferencePipeline` session on the toy corpus.
#[test]
fn full_session_bit_identical_to_reference_pipeline_on_toy() {
    let ds = toy_text(1);
    let metal = LabelModelKind::Metal;
    for seed in [1u64, 7] {
        let reference = run(&ds, metal, true, seed);
        let trace = run(&ds, metal, false, seed);
        assert_eq!(
            trace, reference,
            "session diverged (contextualized pipeline vs reference pipeline, seed {seed})"
        );
    }
}

/// Warm vs cold EM (with the bit-identical batched registration riding
/// along) on the well-conditioned Amazon quick workload.
#[test]
fn full_session_identical_warm_vs_cold_and_combined() {
    let ds = build(DatasetName::Amazon, Profile::Quick, 3);
    let em = LabelModelKind::Generative;
    for seed in [7u64, 13] {
        let reference = run(&ds, em, true, seed);
        let trace = run(&ds, em, false, seed);
        assert_identical_decisions(&trace, &reference, "warm vs cold", seed);
    }
}

/// Under the default label model, whole production sessions on Amazon
/// quick are bit-identical to the all-reference session.
#[test]
fn full_session_bit_identical_to_reference_oracles_on_amazon() {
    let ds = build(DatasetName::Amazon, Profile::Quick, 3);
    for seed in [7u64, 13] {
        let reference = run(&ds, LabelModelKind::Metal, true, seed);
        let production = run(&ds, LabelModelKind::Metal, false, seed);
        assert_eq!(production, reference, "session diverged (seed {seed})");
    }
}

/// Default-constructed components run the incremental paths: the
/// pipeline's contextualizer keeps warm seeds for every grid point.
#[test]
fn production_defaults_are_the_incremental_paths() {
    let ds = toy_text(1);
    let config = IdpConfig { n_iterations: 6, eval_every: 3, seed: 2, ..Default::default() };
    let (mut selector, mut pipeline) = (SeuSelector::new(), ContextualizedPipeline::default());
    run_session(&ds, config, &mut selector, &mut pipeline);
    let ctx = pipeline.contextualizer();
    assert_eq!(ctx.warm_seeds().len(), ctx.config.p_grid.len(), "warm seeds not kept");
}
