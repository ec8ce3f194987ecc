//! Whole-session driver shared by the differential suites that pin a
//! production path against its reference oracle.

use nemo::core::config::IdpConfig;
use nemo::core::idp::Selector;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::LearningPipeline;
use nemo::core::session::Session;
use nemo::data::Dataset;

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
