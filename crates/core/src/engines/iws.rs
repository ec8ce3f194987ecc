//! The IWS selection engine: learned LF-candidate ranking as a peer of
//! SEU (Boecking et al., Interactive Weak Supervision).
//!
//! Where SEU asks the user to *author* an LF for a chosen example, IWS
//! inverts the interaction: the engine enumerates the whole candidate LF
//! family up front from the vocabulary — every `(primitive, label)` pair
//! above a coverage floor, the keyword/n-gram family the `nemo-text`
//! tokenizer's `Vocab` defines (primitive ids *are* token ids, joined
//! n-grams included) — and each round asks the user only to accept or
//! reject the top-ranked candidate.
//!
//! Ranking combines two signals:
//!
//! - a **bootstrap-committee usefulness model**: logistic regressions
//!   over per-candidate feature vectors (a seeded sign-hash projection of
//!   the candidate's coverage signature, polarity-mirrored, plus a
//!   coverage scalar), refit after every answer on bootstrap resamples of
//!   the answered set and averaged. Members fit in parallel over
//!   [`nemo_sparse::parallel`] after the resamples are drawn serially, so
//!   the committee is bit-identical under any `NEMO_THREADS`;
//! - the **SEU score table**: the same per-primitive `(weight, weighted
//!   utility)` rows the SEU selector aggregates per example, read per
//!   candidate through [`ScoreTable::lf_row`](crate::seu::ScoreTable) and
//!   blended in as a utility prior the committee has no way to learn from
//!   accept/reject bits alone.
//!
//! An accepted candidate is submitted through the ordinary session
//! pipeline with its *anchor* (the first still-available example covering
//! the candidate's primitive) as the development example, so the
//! contextualizer treats it exactly like a user-authored LF. A rejected
//! candidate consumes the iteration as a skip, mirroring the fixed-budget
//! protocol.
//!
//! Determinism and persistence: acquisition draws (ε-greedy coin, tie
//! breaks) come from the session's checkpointed RNG; the committee is a
//! pure function of the config seed and the answer log. The answer log is
//! therefore the engine's *complete* persistent state
//! ([`EngineState::IwsV1`]) — candidates are re-enumerated from the
//! dataset on restore and the ranking replays bit-identically
//! (`tests/iws_engine_differential.rs`, keyed to the `SelectionStrategy`
//! switch).

use crate::checkpoint::EngineState;
use crate::engines::SelectionEngine;
use crate::error::{RestoreError, SessionError};
use crate::idp::{SelectionView, Selector, StepRecord};
use crate::oracle::User;
use crate::pipeline::LearningPipeline;
use crate::session::Session;
use crate::seu::SeuSelector;
use nemo_data::Dataset;
use nemo_endmodel::{BootstrapEnsemble, LogRegConfig, LogisticRegression};
use nemo_lf::{Label, PrimitiveLf};
use nemo_sparse::parallel::par_map_min;
use nemo_sparse::stats::argmax_set;
use nemo_sparse::{CsrMatrix, DetRng, SparseVec};

/// Salt mixed into the config seed for the committee's bootstrap stream
/// (kept off the session stream so committee refits never perturb the
/// checkpointed acquisition draws).
const COMMITTEE_SALT: u64 = 0x115e_c033;

/// Salt for the candidate feature projection's sign hash.
const PROJECTION_SALT: u64 = 0x1f5;

/// Configuration of the [`IwsEngine`].
#[derive(Debug, Clone)]
pub struct IwsEngineConfig {
    /// Minimum document frequency for a primitive to yield candidates.
    pub min_df: usize,
    /// Dimensionality of the coverage-signature random projection.
    pub projection_dim: usize,
    /// Exploration rate of the ε-greedy acquisition. Pure greedy
    /// exploitation of a committee trained on a handful of (mostly
    /// negative) answers locks onto a junk region of the family.
    pub epsilon: f64,
    /// Weight of the SEU-utility prior in the acquisition score
    /// (committee probability + `blend` × max-normalized utility).
    pub blend: f64,
    /// Bootstrap committee size.
    pub n_models: usize,
}

impl Default for IwsEngineConfig {
    fn default() -> Self {
        Self { min_df: 5, projection_dim: 24, epsilon: 0.3, blend: 0.25, n_models: 8 }
    }
}

/// The enumerated candidate family: LFs aligned row-for-row with their
/// feature matrix.
#[derive(Debug, Clone)]
struct CandidateFamily {
    lfs: Vec<PrimitiveLf>,
    features: CsrMatrix,
}

/// The IWS selection engine. See the module docs for the protocol.
#[derive(Debug, Clone)]
pub struct IwsEngine {
    /// Engine configuration.
    pub config: IwsEngineConfig,
    scorer: SeuSelector,
    candidates: Option<CandidateFamily>,
    answers: Vec<(u32, bool)>,
}

impl Default for IwsEngine {
    fn default() -> Self {
        Self::new(IwsEngineConfig::default())
    }
}

impl IwsEngine {
    /// An engine with the given configuration and no feedback yet.
    pub fn new(config: IwsEngineConfig) -> Self {
        Self { config, scorer: SeuSelector::new(), candidates: None, answers: Vec::new() }
    }

    /// The accept/reject answer log so far, in oracle-query order.
    pub fn answers(&self) -> &[(u32, bool)] {
        &self.answers
    }

    /// Enumerate the candidate family for `ds`: both polarities of every
    /// vocabulary primitive above the coverage floor, with sign-hash
    /// projected coverage features (polarity-mirrored, plus a coverage
    /// scalar in the last column).
    fn enumerate(&self, ds: &Dataset) -> CandidateFamily {
        let index = ds.train.corpus.index();
        let n = ds.train.n() as f64;
        let dim = self.config.projection_dim + 1;
        let mut lfs = Vec::new();
        let mut rows = Vec::new();
        for (z, postings) in index.iter_nonempty() {
            if postings.len() < self.config.min_df {
                continue;
            }
            // Shared coverage projection for both polarities of z.
            let mut proj = vec![0.0f32; self.config.projection_dim];
            let norm = (postings.len() as f32).sqrt();
            for &i in postings {
                for (k, s) in
                    nemo_sparse::rng::sign_hash(i, self.config.projection_dim, PROJECTION_SALT)
                {
                    proj[k] += s / norm;
                }
            }
            for y in Label::ALL {
                lfs.push(PrimitiveLf::new(z, y));
                // Mirrored features per polarity (as in IWS, where LF
                // features derive from the vote vector): a naked polarity
                // scalar would hand the committee a class-level shortcut.
                let sign = y.sign() as f32;
                let mut pairs: Vec<(u32, f32)> = proj
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(k, &v)| (k as u32, sign * v))
                    .collect();
                pairs.push((self.config.projection_dim as u32, (postings.len() as f64 / n) as f32));
                rows.push(SparseVec::from_pairs(pairs, dim));
            }
        }
        CandidateFamily { lfs, features: CsrMatrix::from_rows(&rows, dim) }
    }

    /// Enumerate lazily; the family is a pure function of the dataset and
    /// config, so it is never checkpointed.
    fn family(&mut self, ds: &Dataset) -> &CandidateFamily {
        if self.candidates.is_none() {
            self.candidates = Some(self.enumerate(ds));
        }
        // invariant: filled just above when absent.
        self.candidates.as_ref().expect("candidate family just ensured")
    }

    /// Committee usefulness per candidate: bootstrap logistic regressions
    /// over the answered set, fit in parallel (resamples pre-drawn
    /// serially), averaged, with answered candidates pinned to their
    /// oracle answers. Seeded purely from `config_seed` and the answer
    /// count — independent of the session RNG stream.
    fn committee_scores(&self, config_seed: u64, family: &CandidateFamily) -> Vec<f64> {
        let n_cand = family.lfs.len();
        if self.answers.is_empty() {
            return vec![0.5; n_cand];
        }
        let mut targets = vec![0.5f64; n_cand];
        let mut answered: Vec<u32> = Vec::with_capacity(self.answers.len());
        for &(c, accept) in &self.answers {
            if targets[c as usize] == 0.5 {
                answered.push(c);
            }
            targets[c as usize] = if accept { 1.0 } else { 0.0 };
        }
        // Strong regularization: with a handful of feedback points an
        // unregularized fit saturates its predictions.
        let trainer = LogisticRegression::new(LogRegConfig {
            lr: 0.3,
            epochs: 30,
            l2: 1e-2,
            fit_intercept: true,
        });
        let seed = config_seed
            ^ COMMITTEE_SALT
            ^ (self.answers.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = DetRng::new(seed);
        let resamples: Vec<Vec<u32>> = (0..self.config.n_models)
            .map(|_| (0..answered.len()).map(|_| answered[rng.index(answered.len())]).collect())
            .collect();
        // min_items = 1: members are few but individually heavy, and
        // par_map_min's order-preserving merge keeps the average
        // bit-identical under any NEMO_THREADS.
        let members = par_map_min(&resamples, 1, |k, resample: &Vec<u32>| {
            trainer.fit(
                &family.features,
                &targets,
                Some(resample),
                seed.wrapping_add(k as u64 * 7919),
            )
        });
        let mut usefulness = BootstrapEnsemble::mean_proba(&members, &family.features);
        for &(c, accept) in &self.answers {
            usefulness[c as usize] = if accept { 1.0 } else { 0.0 };
        }
        usefulness
    }

    /// Acquisition scores: committee probability blended with the
    /// max-normalized SEU utility prior from the score table.
    fn acquisition_scores(&mut self, session: &Session<'_>) -> Vec<f64> {
        let seed = session.config().seed;
        // invariant: `round` ensures the family before scoring.
        let family = self.candidates.as_ref().expect("family enumerated before scoring");
        let mut scores = self.committee_scores(seed, family);
        if self.config.blend > 0.0 {
            let view = session.view();
            let table = self.scorer.score_table(&view, session.aggregates().aggs());
            let utilities: Vec<f64> = family
                .lfs
                .iter()
                .map(|lf| {
                    let (w, wu) = table.lf_row(lf.z, lf.y);
                    if w > 0.0 {
                        wu / w
                    } else {
                        0.0
                    }
                })
                .collect();
            let max_u = utilities.iter().cloned().fold(0.0f64, f64::max);
            if max_u > 0.0 {
                for (s, u) in scores.iter_mut().zip(&utilities) {
                    *s += self.config.blend * (u / max_u);
                }
            }
        }
        scores
    }
}

/// The inner acquisition [`Selector`] one IWS round runs through
/// [`Session::select_with`]: ε-greedy over eligible candidates, returning
/// the chosen candidate's anchor example so the reservation flows through
/// the normal session state machine (and all draws through the session
/// RNG).
struct Acquire<'e> {
    lfs: &'e [PrimitiveLf],
    scores: &'e [f64],
    answered: &'e [bool],
    epsilon: f64,
    t: usize,
    chosen: Option<usize>,
}

/// First still-available example covering `z`, if any.
fn anchor_of(view: &SelectionView<'_>, z: u32) -> Option<usize> {
    view.ds
        .train
        .corpus
        .index()
        .postings(z)
        .iter()
        .map(|&i| i as usize)
        .find(|&i| !view.excluded[i])
}

impl Selector for Acquire<'_> {
    fn name(&self) -> &'static str {
        "iws-acquire"
    }

    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize> {
        let eligible: Vec<usize> = (0..self.lfs.len())
            .filter(|&j| !self.answered[j] && anchor_of(view, self.lfs[j].z).is_some())
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let explore = self.t < 2 || rng.bernoulli(self.epsilon);
        let pick = if explore {
            eligible[rng.index(eligible.len())]
        } else {
            let scores: Vec<f64> = eligible.iter().map(|&j| self.scores[j]).collect();
            let ties = argmax_set(&scores);
            eligible[ties[rng.index(ties.len())]]
        };
        self.chosen = Some(pick);
        anchor_of(view, self.lfs[pick].z)
    }
}

impl SelectionEngine for IwsEngine {
    fn name(&self) -> &'static str {
        crate::config::SelectionStrategy::Iws.name()
    }

    fn round(
        &mut self,
        session: &mut Session<'_>,
        user: &mut dyn User,
        pipeline: &mut dyn LearningPipeline,
    ) -> Result<StepRecord, SessionError> {
        let iteration = session.iteration();
        let ds = session.dataset();
        self.family(ds);
        let scores = self.acquisition_scores(session);
        // invariant: `family` above filled the cache.
        let family = self.candidates.as_ref().expect("family enumerated above");
        let mut answered = vec![false; family.lfs.len()];
        for &(c, _) in &self.answers {
            answered[c as usize] = true;
        }
        let mut acquire = Acquire {
            lfs: &family.lfs,
            scores: &scores,
            answered: &answered,
            epsilon: self.config.epsilon,
            t: self.answers.len(),
            chosen: None,
        };
        let selected = session.select_with(&mut acquire)?;
        let new_lfs = match selected {
            Some(_anchor) => {
                // invariant: Acquire records its pick before returning an
                // anchor.
                let c = acquire.chosen.expect("anchor implies a chosen candidate");
                let lf = family.lfs[c];
                let accept = user.judge_lf(&lf, ds, session.rng_mut());
                self.answers.push((c as u32, accept));
                if accept {
                    session
                        .submit(vec![lf], pipeline)
                        // invariant: candidates come from the dataset's own
                        // vocabulary, and the anchor was just reserved.
                        .expect("round submits its own suggestion");
                    vec![lf]
                } else {
                    // invariant: the anchor reservation is pending.
                    session.skip(pipeline).expect("round skips its own suggestion");
                    Vec::new()
                }
            }
            None => {
                // Candidate family exhausted (or no anchors left): keep
                // evaluating the frozen model.
                // invariant: the selection above returned None, so no
                // reservation exists.
                session.advance_frozen().expect("no reservation outstanding");
                Vec::new()
            }
        };
        Ok(StepRecord { iteration, selected, new_lfs })
    }

    fn example_selector(&mut self) -> Option<&mut dyn Selector> {
        None
    }

    fn checkpoint_state(&self) -> EngineState {
        EngineState::IwsV1 { answers: self.answers.clone() }
    }

    fn restore_state(&mut self, state: &EngineState, ds: &Dataset) -> Result<(), RestoreError> {
        let EngineState::IwsV1 { answers } = state else {
            return Err(RestoreError::EngineStateMismatch {
                engine: self.name(),
                reason: "checkpoint carries another engine's state",
            });
        };
        let family = self.enumerate(ds);
        let n_cand = family.lfs.len();
        let mut seen = vec![false; n_cand];
        for &(c, _) in answers {
            let Some(slot) = seen.get_mut(c as usize) else {
                return Err(RestoreError::EngineStateMismatch {
                    engine: self.name(),
                    reason: "answer references a candidate outside the dataset's family",
                });
            };
            if *slot {
                return Err(RestoreError::EngineStateMismatch {
                    engine: self.name(),
                    reason: "duplicate answer for one candidate",
                });
            }
            *slot = true;
        }
        self.candidates = Some(family);
        self.answers = answers.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::IdpConfig;
    use crate::oracle::SimulatedUser;
    use crate::pipeline::StandardPipeline;
    use nemo_data::catalog::toy_text;

    fn run_rounds(ds: &Dataset, seed: u64, rounds: usize) -> (IwsEngine, Vec<StepRecord>) {
        let mut engine = IwsEngine::default();
        let mut session =
            Session::new(ds, IdpConfig { seed, n_iterations: rounds, ..Default::default() });
        let mut user = SimulatedUser::default();
        let mut pipeline = StandardPipeline;
        let recs = (0..rounds)
            .map(|_| engine.round(&mut session, &mut user, &mut pipeline).expect("round"))
            .collect();
        (engine, recs)
    }

    #[test]
    fn rounds_consume_iterations_and_log_answers() {
        let ds = toy_text(1);
        let (engine, recs) = run_rounds(&ds, 7, 6);
        assert_eq!(recs.len(), 6);
        assert_eq!(engine.answers().len(), 6, "one judged candidate per round");
        for rec in &recs {
            assert!(rec.selected.is_some(), "toy family is far from exhausted");
            assert!(rec.new_lfs.len() <= 1);
        }
        let accepted: usize = recs.iter().map(|r| r.new_lfs.len()).sum();
        let accepts = engine.answers().iter().filter(|&&(_, a)| a).count();
        assert_eq!(accepted, accepts, "accepted candidates reach the lineage");
    }

    #[test]
    fn rounds_are_deterministic() {
        let ds = toy_text(1);
        let (e1, r1) = run_rounds(&ds, 3, 8);
        let (e2, r2) = run_rounds(&ds, 3, 8);
        assert_eq!(e1.answers(), e2.answers());
        let sel = |rs: &[StepRecord]| rs.iter().map(|r| r.selected).collect::<Vec<_>>();
        assert_eq!(sel(&r1), sel(&r2));
    }

    #[test]
    fn checkpoint_state_roundtrips_through_restore() {
        let ds = toy_text(1);
        let (engine, _) = run_rounds(&ds, 5, 5);
        let state = engine.checkpoint_state();
        let mut restored = IwsEngine::default();
        restored.restore_state(&state, &ds).expect("valid state restores");
        assert_eq!(restored.answers(), engine.answers());
        assert_eq!(restored.checkpoint_state(), state);
    }

    #[test]
    fn restore_rejects_hostile_states() {
        let ds = toy_text(1);
        let mut engine = IwsEngine::default();
        assert!(matches!(
            engine.restore_state(&EngineState::Seu, &ds),
            Err(RestoreError::EngineStateMismatch { engine: "iws-rank", .. })
        ));
        let out_of_family = EngineState::IwsV1 { answers: vec![(u32::MAX, true)] };
        assert!(engine.restore_state(&out_of_family, &ds).is_err());
        let duplicate = EngineState::IwsV1 { answers: vec![(0, true), (0, false)] };
        assert!(engine.restore_state(&duplicate, &ds).is_err());
    }

    #[test]
    fn committee_is_thread_count_independent_and_pure() {
        // The committee must not consume session RNG and must be a pure
        // function of (seed, answers): two engines with the same log score
        // identically.
        let ds = toy_text(1);
        let (engine, _) = run_rounds(&ds, 11, 6);
        let family = engine.candidates.as_ref().expect("enumerated");
        let s1 = engine.committee_scores(11, family);
        let s2 = engine.committee_scores(11, family);
        assert_eq!(s1, s2);
        assert!(s1.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn accepted_candidates_flow_through_the_contextualizer_path() {
        // Accepts submit via Session::submit with the anchor pending, so
        // lineage records a real dev example, same as user-authored LFs.
        let ds = toy_text(1);
        let mut engine = IwsEngine::default();
        let mut session =
            Session::new(&ds, IdpConfig { seed: 2, n_iterations: 12, ..Default::default() });
        // A permissive user so accepts actually happen on the toy task.
        let mut user = SimulatedUser::with_threshold(0.5);
        let mut pipeline = StandardPipeline;
        for _ in 0..12 {
            engine.round(&mut session, &mut user, &mut pipeline).expect("round");
        }
        assert!(!session.lineage().is_empty(), "some candidate should be accepted");
        assert_eq!(session.matrix().n_lfs(), session.lineage().len());
        assert_eq!(session.iteration(), 12);
    }
}
