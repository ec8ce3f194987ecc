//! Whole-session driver and thread-count harness shared by the
//! differential suites that pin a production path against its reference
//! oracle. Each suite uses a subset of the helpers.
#![allow(dead_code)]

use nemo::core::config::IdpConfig;
use nemo::core::idp::Selector;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::LearningPipeline;
use nemo::core::session::Session;
use nemo::data::Dataset;
use std::sync::Mutex;

/// Serializes the tests that mutate `NEMO_THREADS`. The kernels under
/// test are thread-count-invariant (that is the property being checked),
/// so concurrent *readers* in other tests are unaffected — the lock only
/// keeps the mutating tests from clobbering each other's settings.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with `NEMO_THREADS` set to each value in turn, restoring the
/// prior setting afterwards.
pub fn with_thread_counts(counts: &[usize], mut f: impl FnMut(usize)) {
    let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let saved = std::env::var("NEMO_THREADS").ok();
    for &t in counts {
        std::env::set_var("NEMO_THREADS", t.to_string());
        f(t);
    }
    match saved {
        Some(v) => std::env::set_var("NEMO_THREADS", v),
        None => std::env::remove_var("NEMO_THREADS"),
    }
}

/// One full run: per-round selections, per-round tuned `p` bits, and the
/// final test and valid score bits.
#[derive(Debug, PartialEq)]
pub struct Trace {
    pub selections: Vec<Option<usize>>,
    pub chosen_ps: Vec<Option<u64>>,
    pub test_score: u64,
    pub valid_score: u64,
}

/// Run `config.n_iterations` rounds of an interactive `Session` with the
/// default simulated user. The selector and pipeline stay with the
/// caller, so their counters can be inspected afterwards.
pub fn run_session(
    ds: &Dataset,
    config: IdpConfig,
    selector: &mut dyn Selector,
    pipeline: &mut dyn LearningPipeline,
) -> Trace {
    let rounds = config.n_iterations;
    let mut session = Session::new(ds, config);
    let mut user = SimulatedUser::default();
    let mut selections = Vec::new();
    let mut chosen_ps = Vec::new();
    for _ in 0..rounds {
        let rec = session.step(selector, &mut user, pipeline);
        selections.push(rec.selected);
        chosen_ps.push(session.outputs().chosen_p.map(f64::to_bits));
    }
    assert!(chosen_ps.iter().any(Option::is_some), "contextualizer never tuned p");
    Trace {
        selections,
        chosen_ps,
        test_score: session.test_score().to_bits(),
        valid_score: session.valid_score().to_bits(),
    }
}
