//! Plain-data session snapshots for disconnect/resume.
//!
//! [`SessionCheckpoint`] captures the **authoritative** state of an
//! interactive session — configuration and seed, iteration count, lineage,
//! the collected label-matrix columns, the pool-exclusion set, the latest
//! model outputs, the RNG's raw state, and the contextualizer's EM
//! warm-start seeds. Everything else a live session holds is *derived*
//! cache state and is deterministically rebuilt on restore:
//!
//! - the SEU aggregates are reconstructed with a full
//!   [`crate::session::SeuAggregates::new`] rebuild (exact integer fields,
//!   freshly-summed floats — the state a never-interrupted session is
//!   periodically re-anchored to);
//! - the contextualizer's per-LF distance rows are re-registered in one
//!   batch on the next learning round (batched registration is
//!   bit-identical to incremental registration, differential-tested); a
//!   [`crate::SessionPool`] registers them just before that round,
//!   adopting the rows its pivot store already holds and computing only
//!   the rest.
//!   A row depends only on the dataset, the distance and the development
//!   example, so the checkpoint never carries one: a hostile checkpoint
//!   can only choose which trusted rows are reused, after its lineage
//!   passed validation.
//!
//! `tests/session_checkpoint.rs` proves the resulting sessions make the
//! same selections, tune the same percentiles, and produce bit-identical
//! posteriors as never-interrupted ones.
//!
//! The struct is all-public plain data so the `nemo-persist` crate can
//! serialize it without reaching into session internals; restoration
//! re-validates every field against the target dataset
//! ([`crate::session::Session::restore`]), so a checkpoint arriving from a
//! hostile file can be rejected with a typed
//! [`crate::error::RestoreError`] instead of corrupting a session.

use crate::config::IdpConfig;
use nemo_lf::TrackedLf;

/// A complete, self-contained snapshot of one interactive session.
///
/// Produced by [`crate::session::Session::checkpoint`] (core state) or
/// [`crate::system::NemoSystem::checkpoint`] (which also captures the
/// contextualizer warm-start seeds); consumed by the matching `restore`
/// constructors. Labels and votes use their signed (`±1`) encoding so the
/// struct round-trips through byte-level serialization without depending
/// on enum layout.
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// The session configuration (including the master seed).
    pub config: IdpConfig,
    /// Completed iterations.
    pub iteration: usize,
    /// The example reserved by an unresolved suggestion, if any.
    pub pending: Option<usize>,
    /// Lineage records in creation order.
    pub lineage: Vec<TrackedLf>,
    /// Raw label-matrix columns, aligned with `lineage`: per column the
    /// sorted `(example id, ±1 vote)` entries.
    pub columns: Vec<Vec<(u32, i8)>>,
    /// `excluded[i]` — training example `i` was already shown to the user.
    pub excluded: Vec<bool>,
    /// Label-model posterior `P(y_i = +1)` on the training split.
    pub train_p_pos: Vec<f64>,
    /// End-model probabilities on the training split.
    pub train_probs: Vec<f64>,
    /// End-model hard predictions on the validation split (`±1` signs).
    pub valid_pred: Vec<i8>,
    /// End-model hard predictions on the test split (`±1` signs).
    pub test_pred: Vec<i8>,
    /// The contextualizer percentile chosen by the last learning round.
    pub chosen_p: Option<f64>,
    /// Raw xoshiro256++ state of the session RNG.
    pub rng_state: [u64; 4],
    /// The RNG's banked second Gaussian draw, if any.
    pub rng_gauss_spare: Option<f64>,
    /// Per-grid-point EM warm-start seeds from the contextualizer
    /// (empty for [`crate::session::Session`]-level checkpoints, for
    /// cold-start configurations, and before the first tuning round).
    pub warm_seeds: Vec<Vec<f64>>,
    /// Selection-engine state ([`EngineState::Seu`] — i.e. none — for
    /// [`crate::session::Session`]-level checkpoints;
    /// [`crate::system::NemoSystem::checkpoint`] fills in the live
    /// engine's state, like `warm_seeds`).
    pub engine: EngineState,
}

/// Versioned selection-engine state carried by a checkpoint.
///
/// Each engine's persisted layout is its own variant; evolving a layout
/// means adding a new variant (`IwsV2`, …), never mutating an existing
/// one, so old checkpoints keep restoring bit-identically. The persist
/// layer maps variants to tagged sections and rejects unknown tags with
/// a typed error.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum EngineState {
    /// The SEU engine keeps no state outside the session: its score
    /// cache is derived and rebuilt cold on restore.
    #[default]
    Seu,
    /// IWS engine state, version 1: the accept/reject answer log in
    /// oracle-query order. This is the engine's *complete* state —
    /// candidates are re-enumerated deterministically from the dataset,
    /// and the bootstrap committee is a pure function of (candidate
    /// features, answers, a seed derived from the config seed and the
    /// answer count) — so restore replays the ranking bit-identically
    /// without persisting any float state.
    IwsV1 {
        /// `(candidate index, accepted)` per oracle query, in order.
        answers: Vec<(u32, bool)>,
    },
}
