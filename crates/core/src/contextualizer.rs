//! The LF contextualizer (paper Sec. 4.3, Eq. 4).
//!
//! Exploits the data-to-LF lineage: each LF `λ_j` is refined to abstain on
//! examples farther than a radius `r_j` from its development data point,
//!
//! ```text
//! λ'_j(x) = λ_j(x)  if dist(x, x_{λ_j}) ≤ r_j   else abstain
//! ```
//!
//! with `r_j` the `p`-th percentile of the distances from `x_{λ_j}` to the
//! unlabeled pool, and `p` selected on the validation accuracy of the
//! resulting soft labels. Distances from each development point to the
//! training and validation splits are computed once per LF and cached —
//! refinement at any `p` is then a cheap filter.
//!
//! Those cached rows ([`PivotRows`]) are a pure function of (dataset,
//! distance, development example), so they are held by `Arc` and can be
//! shared: a [`crate::SessionPool`] keeps one store of them and hands a
//! restored session the rows other sessions already computed.
//!
//! Registration is **batched**: all of a round's new LFs go through
//! [`Contextualizer::register_batch`], which adopts the rows it is given
//! and computes every missing train/valid distance vector in one pass
//! over the feature matrices' inverted-index engine
//! ([`nemo_data::Features::distances`], blocked dense kernel),
//! partitioned over the pivots in parallel. The per-LF naive scan it
//! replaced is the test oracle [`crate::reference::register_batch_naive`]:
//! bit-identical on sparse features, within `1e-9` relative on dense ones.
//!
//! Every optimisation here has exactly one production path; the
//! pre-optimisation arms live in [`mod@crate::reference`] as test oracles.

use crate::config::ContextualizerConfig;
use nemo_data::Dataset;
use nemo_labelmodel::{FittedLabelModel, LabelModel};
use nemo_lf::{LabelMatrix, LfColumn, Lineage, TrackedLf};
use nemo_sparse::parallel::par_map_min;
use nemo_sparse::stats::percentile_of_sorted;
// lint: allow(determinism/hash-collections): the fit-dedup map below is
// lookup-only (entry/or_insert); its iteration order is never observed.
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The distance rows of one development example (a *pivot*): everything
/// registration derives from it. They depend only on the dataset, the
/// distance and the example, so every LF written from that example — in
/// any session over the same dataset and distance — can share one copy.
#[derive(Debug, PartialEq)]
pub struct PivotRows {
    train: Vec<f64>,
    /// `train` sorted ascending: the table radii are read from.
    train_sorted: Vec<f64>,
    valid: Vec<f64>,
}

impl PivotRows {
    /// Bytes of distance data held: `(2·n_train + n_valid)·8`.
    pub fn bytes(&self) -> usize {
        (self.train.len() + self.train_sorted.len() + self.valid.len()) * std::mem::size_of::<f64>()
    }

    /// One pivot's rows per pair of precomputed distance vectors, the
    /// radius tables sorted in parallel.
    pub(crate) fn batch(train_ds: Vec<Vec<f64>>, valid_ds: Vec<Vec<f64>>) -> Vec<Arc<Self>> {
        let sorted: Vec<Vec<f64>> = par_map_min(&train_ds, 2, |_, d: &Vec<f64>| {
            let mut s = d.clone();
            // invariant: distances are finite — both kernels compute
            // sums/square roots of finite feature values, and
            // `Features` validates its buffers (finite norms) on import.
            s.sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
            s
        });
        train_ds
            .into_iter()
            .zip(sorted)
            .zip(valid_ds)
            .map(|((train, train_sorted), valid)| Arc::new(Self { train, train_sorted, valid }))
            .collect()
    }
}

/// Known pivot rows by development example, as
/// [`Contextualizer::register_batch`] adopts them.
pub type PivotRowMap = BTreeMap<u32, Arc<PivotRows>>;

/// Result of percentile tuning: the chosen `p`, the refined training
/// matrix at that `p`, and the label model fitted to it.
pub struct TunedRefinement {
    /// Chosen percentile.
    pub p: f64,
    /// Refined training label matrix.
    pub train_matrix: LabelMatrix,
    /// Label model fitted on the refined matrix.
    pub fitted: Box<dyn FittedLabelModel>,
    /// Validation score (mean log-likelihood of the validation labels
    /// under the refined soft labels) achieved by the chosen `p`.
    pub valid_score: f64,
}

/// The contextualizer with per-LF distance caches.
pub struct Contextualizer {
    /// Configuration (distance function and percentile grid).
    pub config: ContextualizerConfig,
    /// Distance rows per registered LF, shared with every other LF (of
    /// this or another session) written from the same example.
    rows: Vec<Arc<PivotRows>>,
    raw_valid_cols: Vec<LfColumn>,
    /// Per-grid-point LF accuracies from the previous
    /// [`Contextualizer::tune_p`] round, the cross-round EM warm-start
    /// seeds (empty before the first round).
    warm_accs: Vec<Vec<f64>>,
    /// Label-model fit iterations spent by `tune_p` so far (bench
    /// accounting; only iterative estimators report non-trivial counts).
    tune_fits: usize,
    /// Pivot rows registration adopted rather than computed.
    rows_reused: usize,
    /// Pivot rows registration computed.
    rows_computed: usize,
}

impl Contextualizer {
    /// Create an empty contextualizer.
    pub fn new(config: ContextualizerConfig) -> Self {
        Self {
            config,
            rows: Vec::new(),
            raw_valid_cols: Vec::new(),
            warm_accs: Vec::new(),
            tune_fits: 0,
            rows_reused: 0,
            rows_computed: 0,
        }
    }

    /// Label-model fits performed by [`Contextualizer::tune_p`] so far.
    pub fn tune_fits(&self) -> usize {
        self.tune_fits
    }

    /// Per-grid-point warm-start seeds captured by the last
    /// [`Contextualizer::tune_p`] round (the cold oracles in
    /// [`mod@crate::reference`] leave them untouched). Together with
    /// [`Contextualizer::set_warm_seeds`] this lets a session checkpoint
    /// and restore tuning state — and lets benches measure a single
    /// cross-round warm tune in isolation.
    pub fn warm_seeds(&self) -> &[Vec<f64>] {
        &self.warm_accs
    }

    /// Restore warm-start seeds (aligned with the percentile grid; entry
    /// lengths may lag the current LF count — fits pad with their
    /// initializer).
    pub fn set_warm_seeds(&mut self, seeds: Vec<Vec<f64>>) {
        self.warm_accs = seeds;
    }

    /// Number of LFs registered so far.
    pub fn n_registered(&self) -> usize {
        self.rows.len()
    }

    /// The distance rows of every registered LF, in registration order.
    pub(crate) fn pivot_rows(&self) -> &[Arc<PivotRows>] {
        &self.rows
    }

    /// Pivot rows [`Contextualizer::register_batch`] took from its `known`
    /// map so far (one per distinct known development example of each
    /// batch).
    pub(crate) fn rows_reused(&self) -> usize {
        self.rows_reused
    }

    /// Pivot rows [`Contextualizer::register_batch`] computed so far (one
    /// per distinct missing development example of each batch).
    pub(crate) fn rows_computed(&self) -> usize {
        self.rows_computed
    }

    /// Register a round's worth of LFs in one pass. An LF whose
    /// development example is in `known` adopts those rows; the distinct
    /// missing examples have every train and valid distance vector
    /// computed by a single batched call into the inverted-index engine
    /// (blocked dense kernel for dense-backed splits), and their radius
    /// tables sorted in the same parallel partitioning. A pivot's rows do
    /// not depend on the batch it is computed in, so adopted rows computed
    /// elsewhere from the same dataset and distance are bit-identical to
    /// fresh ones; `known` must hold only such rows.
    pub fn register_batch(&mut self, recs: &[TrackedLf], ds: &Dataset, known: &PivotRowMap) {
        let mut examples: Vec<u32> = recs.iter().map(|r| r.dev_example).collect();
        examples.sort_unstable();
        examples.dedup();
        let missing: Vec<u32> =
            examples.iter().copied().filter(|x| !known.contains_key(x)).collect();
        self.rows_reused += examples.len() - missing.len();
        self.rows_computed += missing.len();
        let mut fresh = PivotRowMap::new();
        if !missing.is_empty() {
            let dist = self.config.distance;
            let pivots: Vec<usize> = missing.iter().map(|&x| x as usize).collect();
            let train = &ds.train.features;
            let train_ds = train.distances(dist, &pivots, train);
            let valid_ds = train.distances(dist, &pivots, &ds.valid.features);
            fresh = missing.into_iter().zip(PivotRows::batch(train_ds, valid_ds)).collect();
        }
        let rows = recs
            .iter()
            .map(|r| {
                let x = r.dev_example;
                // invariant: every example missing from `known` was computed.
                Arc::clone(known.get(&x).or_else(|| fresh.get(&x)).expect("missing rows computed"))
            })
            .collect();
        self.push_registered(recs, ds, rows);
    }

    /// Cache one batch of distance rows (aligned with `recs`) — the tail
    /// every registration engine shares.
    pub(crate) fn push_registered(
        &mut self,
        recs: &[TrackedLf],
        ds: &Dataset,
        rows: Vec<Arc<PivotRows>>,
    ) {
        for (rec, rows) in recs.iter().zip(rows) {
            self.rows.push(rows);
            self.raw_valid_cols.push(LfColumn::from_lf(&rec.lf, &ds.valid.corpus));
        }
    }

    /// Register any lineage entries not yet cached (lineage is
    /// append-only, so indices stay aligned), computing every row — the
    /// batch entry point `Session`/`NemoSystem` reach through
    /// `ContextualizedPipeline`.
    pub fn sync(&mut self, lineage: &Lineage, ds: &Dataset) {
        self.register_batch(&lineage.tracked()[self.n_registered()..], ds, &PivotRowMap::new());
    }

    /// Refinement radius `r_j` at percentile `p`.
    ///
    /// An LF registered against an **empty training split** has no
    /// reference distances to take a percentile of
    /// ([`nemo_sparse::stats::percentile_of_sorted`] asserts on empty
    /// input). The radius is *defined* as `+∞` there: with no distance
    /// information the contextualizer cannot justify shrinking coverage,
    /// so refinement degrades to the identity (every example is within
    /// radius) — consistent with the `p = 100` endpoint — instead of
    /// panicking deep inside the stats crate.
    pub fn radius(&self, j: usize, p: f64) -> f64 {
        let sorted = &self.rows[j].train_sorted;
        if sorted.is_empty() {
            return f64::INFINITY;
        }
        percentile_of_sorted(sorted, p)
    }

    /// Refine LF `j`'s raw training column at percentile `p`.
    pub fn refine_train(&self, j: usize, p: f64, raw: &LfColumn) -> LfColumn {
        let r = self.radius(j, p);
        let d = &self.rows[j].train;
        raw.filtered(|i| d[i as usize] <= r)
    }

    /// Refine LF `j`'s validation column at percentile `p` (radius still
    /// computed from training distances, applied to validation examples).
    pub fn refine_valid(&self, j: usize, p: f64) -> LfColumn {
        let r = self.radius(j, p);
        let d = &self.rows[j].valid;
        self.raw_valid_cols[j].filtered(|i| d[i as usize] <= r)
    }

    /// Refined training matrix at percentile `p`.
    pub fn refined_train_matrix(&self, raw: &LabelMatrix, p: f64) -> LabelMatrix {
        // invariant: callers pass the matrix aligned with the lineage this
        // contextualizer was synced against (documented expert API).
        assert_eq!(raw.n_lfs(), self.n_registered(), "matrix/lineage mismatch");
        let mut out = LabelMatrix::new(raw.n_examples());
        for (j, col) in raw.columns().enumerate() {
            out.push(self.refine_train(j, p, col));
        }
        out
    }

    /// Refined validation matrix at percentile `p`.
    pub fn refined_valid_matrix(&self, p: f64, n_valid: usize) -> LabelMatrix {
        let mut out = LabelMatrix::new(n_valid);
        for j in 0..self.n_registered() {
            out.push(self.refine_valid(j, p));
        }
        out
    }

    /// The per-grid-point refined train and valid matrices `tune_p`
    /// consumes (one pair per entry of `config.p_grid`, in grid order).
    /// Every `(grid point, LF)` column is refiltered from its cached
    /// distance vector each call — a linear pass over the column, which
    /// is all the caching Eq. 4 needs.
    pub fn refined_grid_matrices(
        &self,
        raw_train: &LabelMatrix,
        n_valid: usize,
    ) -> (Vec<LabelMatrix>, Vec<LabelMatrix>) {
        let p_grid = &self.config.p_grid;
        let train = p_grid.iter().map(|&p| self.refined_train_matrix(raw_train, p)).collect();
        let valid = p_grid.iter().map(|&p| self.refined_valid_matrix(p, n_valid)).collect();
        (train, valid)
    }

    /// Select `p` from the grid by the validation quality of the
    /// resulting soft labels (paper Sec. 4.3).
    ///
    /// Quality is the mean log-likelihood of the validation labels under
    /// the soft labels, over *all* validation examples (uncovered ones
    /// receive the class prior). A proper scoring rule is the right
    /// objective here because refinement trades coverage for precision:
    /// scoring only covered examples rewards ever-smaller, ever-purer
    /// coverage (over-refining), while hard-label accuracy over everything
    /// is swamped by the prior fill-in and degenerates to never refining.
    /// Log-likelihood credits exactly the quantity the downstream end
    /// model consumes — how much better than the prior the soft labels
    /// are, weighted by how many examples enjoy that improvement. The
    /// grid is scanned in order with `>=`, so among genuine ties the
    /// largest percentile (widest coverage) wins. When the validation
    /// split is **empty** every score is vacuously zero and no signal
    /// exists to certify any refinement, so the widest-coverage tie-break
    /// is applied explicitly: the largest percentile in the grid is
    /// selected regardless of grid order, with `valid_score = 0.0`.
    ///
    /// Each grid point's label model is fitted via
    /// [`LabelModel::fit_from`], seeded from the parameters fitted *at
    /// the same grid point one round earlier* — between rounds the
    /// refined matrix at a fixed `p` gains one LF and barely moves, so a
    /// converged previous fit is a typically near-fixed-point seed (the
    /// Snorkel-style incremental-refit insight). Because the seeds are
    /// per-point, the grid's fits are mutually independent and run **in
    /// parallel**, so a warm round's wall-clock is one fit, not four.
    /// Points without a stored seed (the first round, or a grown grid)
    /// fit from the estimator's initializer; closed-form estimators
    /// ignore seeds entirely. The sequential cold-restart oracle is
    /// [`crate::reference::tune_p`]. Every grid point's soft labels are
    /// then scored on the validation split with one posterior predict
    /// each.
    ///
    /// On well-conditioned matrices warm and cold fits converge to the
    /// same fixed point within the EM tolerance, and the differential
    /// suites pin parameter agreement plus end-to-end selection
    /// agreement there. On weakly-identified matrices (a few LFs with a
    /// handful of refined votes) the EM likelihood is genuinely
    /// multimodal: a cold restart re-picks its basin from the fixed
    /// initializer every round, while warm seeding *tracks the incumbent
    /// basin* across rounds — a deliberate semantic choice (measured to
    /// retain a better-scoring mode than the cold restart on such
    /// matrices).
    pub fn tune_p(
        &mut self,
        raw_train: &LabelMatrix,
        ds: &Dataset,
        label_model: &dyn LabelModel,
        prior: [f64; 2],
    ) -> TunedRefinement {
        let (matrices, valid_matrices) = self.refined_grid_matrices(raw_train, ds.valid.n());
        let seeds = std::mem::take(&mut self.warm_accs);
        let fit_unique = |unique: &[usize], matrices: &[LabelMatrix]| {
            par_map_min(unique, 2, |_, &k| {
                label_model.fit_from(&matrices[k], prior, seeds.get(k).map(Vec::as_slice))
            })
        };
        let (tuned, accs_by_k) = self.tune_grid(matrices, valid_matrices, ds, prior, fit_unique);
        self.warm_accs = accs_by_k;
        tuned
    }

    /// The fit-and-select core of percentile tuning, shared by
    /// [`Contextualizer::tune_p`] and its oracle [`crate::reference::tune_p`]:
    /// collapse grid points with identical refined train matrices, fit
    /// the unique ones with `fit_unique(unique, matrices)`, score every
    /// grid point, and pick `p`. Returns the tuned refinement and every
    /// grid point's fitted LF accuracies.
    pub(crate) fn tune_grid(
        &mut self,
        mut matrices: Vec<LabelMatrix>,
        valid_matrices: Vec<LabelMatrix>,
        ds: &Dataset,
        prior: [f64; 2],
        fit_unique: impl FnOnce(&[usize], &[LabelMatrix]) -> Vec<Box<dyn FittedLabelModel>>,
    ) -> (TunedRefinement, Vec<Vec<f64>>) {
        // invariant: an empty grid is a construction-time configuration
        // bug, not a runtime state; documented panic.
        assert!(!self.config.p_grid.is_empty(), "empty percentile grid");
        let p_grid = self.config.p_grid.clone();

        // Dedup: when adjacent percentiles quantize to the same refined
        // matrix (no distance falls between the radii), the
        // representative's fit is rebuilt from its accuracies instead of
        // refitting — both a redundant-fit saving and the guarantee that
        // identical matrices score with *identical* parameters, so the
        // `>=` tie-break below resolves the same way under warm and cold
        // fits. (All estimators in this workspace aggregate through
        // `NaiveBayesFit`, whose construction from the clamped accuracies
        // is bitwise idempotent.)
        //
        // Equivalence classes are discovered by **hashing coverage
        // signatures**, not by the historical pairwise
        // `O(grid² · coverage)` matrix compare. For a fixed LF `j` every
        // grid point filters the *same* raw column by `d_j(i) ≤ r`, and
        // those kept-sets are nested across radii (monotone in `r`), so
        // two grid points keep identical column content iff they keep the
        // *same number* of entries — the per-column `coverage()` (an O(1)
        // stored length) is a sound and complete equality witness. A
        // slot's signature is its per-LF coverage vector; first occurrence
        // in the hash map is the class representative, matching the old
        // scan's first-earlier-equal semantics. This is `O(grid · lfs)`
        // and — unlike hashing the radius bits — still unifies *distinct*
        // radii that quantize to the same refined matrix, the common case
        // the dedup exists for.
        let repr: Vec<usize> = {
            // lint: allow(determinism/hash-collections): entry/or_insert
            // keyed dedup; results read via lookups in grid order, the
            // map itself is never iterated.
            let mut first_of: HashMap<Vec<usize>, usize> = HashMap::with_capacity(matrices.len());
            matrices
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    let sig: Vec<usize> = m.columns().map(LfColumn::coverage).collect();
                    *first_of.entry(sig).or_insert(k)
                })
                .collect()
        };
        let unique: Vec<usize> =
            repr.iter().enumerate().filter(|&(k, &r)| r == k).map(|(k, _)| k).collect();
        self.tune_fits += unique.len();

        let unique_fits = fit_unique(&unique, &matrices);
        let mut fitted: Vec<Option<Box<dyn FittedLabelModel>>> =
            (0..p_grid.len()).map(|_| None).collect();
        let mut accs_by_k: Vec<Vec<f64>> = vec![Vec::new(); p_grid.len()];
        for (&k, fit) in unique.iter().zip(unique_fits) {
            accs_by_k[k] = fit.lf_accuracies().to_vec();
            fitted[k] = Some(fit);
        }
        for k in 0..p_grid.len() {
            if repr[k] != k {
                accs_by_k[k] = accs_by_k[repr[k]].clone();
                fitted[k] = Some(Box::new(nemo_labelmodel::NaiveBayesFit::new(
                    accs_by_k[k].clone(),
                    prior,
                )));
            }
        }

        // Degenerate case: with an **empty validation split** every grid
        // point's mean log-likelihood is vacuously zero, and the `>=`
        // scan would silently select whatever percentile happens to sit
        // last in the grid. With no validation signal the principled
        // choice is to not refine at all — refinement trades coverage for
        // a precision gain that nothing can certify — so the tie-break is
        // made explicit: the *largest* percentile in the grid (widest
        // coverage) wins regardless of grid order, with the vacuous score
        // of 0.0 reported. `tests/contextualizer_paths.rs` pins this
        // against a deliberately unsorted grid. No posterior is predicted
        // on an empty split.
        let widest_k = if ds.valid.n() == 0 {
            let mut k_best = 0;
            for (k, &p) in p_grid.iter().enumerate() {
                if p > p_grid[k_best] {
                    k_best = k;
                }
            }
            Some(k_best)
        } else {
            None
        };

        // Score every grid point, then select with the same `>=` scan as
        // ever: among genuine ties the largest grid index (and with a
        // sorted grid, the widest coverage) wins.
        let mut scores = vec![0.0f64; p_grid.len()];
        if widest_k.is_none() {
            for (k, score) in scores.iter_mut().enumerate() {
                // invariant: every grid point was fitted (or aliased to a
                // fitted representative) in the loop above.
                let fit = fitted[k].as_ref().expect("fitted");
                *score = fit.score_log_likelihood(&valid_matrices[k], &ds.valid.labels);
            }
        }
        let best_k = match widest_k {
            Some(k_best) => k_best,
            None => {
                let mut k_best = 0;
                let mut best_score = f64::NEG_INFINITY;
                for (k, &s) in scores.iter().enumerate() {
                    if s >= best_score {
                        best_score = s;
                        k_best = k;
                    }
                }
                k_best
            }
        };
        let tuned = TunedRefinement {
            p: p_grid[best_k],
            train_matrix: matrices.swap_remove(best_k),
            // invariant: `best_k` indexes a fitted representative —
            // ties resolve to fitted slots and no take() precedes this.
            fitted: fitted[best_k].take().expect("fitted"),
            valid_score: scores[best_k],
        };
        (tuned, accs_by_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ContextualizerConfig;
    use crate::reference;
    use nemo_data::catalog::toy_text;
    use nemo_labelmodel::GenerativeModel;
    use nemo_lf::Label;
    use nemo_sparse::DetRng;

    /// Register a handful of simulated-user LFs on the toy dataset.
    fn setup(ds: &Dataset, n_lfs: usize, seed: u64) -> (Contextualizer, LabelMatrix, Lineage) {
        use crate::oracle::{SimulatedUser, User};
        let mut rng = DetRng::new(seed);
        let mut user = SimulatedUser::default();
        let mut lineage = Lineage::new();
        let mut matrix = LabelMatrix::new(ds.train.n());
        let mut x = 0usize;
        while lineage.len() < n_lfs {
            if let Some(lf) = user.provide_lf(x, ds, &mut rng) {
                lineage.record(lf, x as u32, lineage.len() as u32);
                matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
            }
            x += 7; // stride through the pool
        }
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        ctx.sync(&lineage, ds);
        (ctx, matrix, lineage)
    }

    #[test]
    fn refinement_is_subset_of_raw() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 1);
        for (j, raw) in matrix.columns().enumerate() {
            for &p in &[25.0, 50.0, 75.0] {
                let refined = ctx.refine_train(j, p, raw);
                assert!(refined.coverage() <= raw.coverage());
                for &(i, v) in refined.entries() {
                    assert_eq!(raw.vote(i), v, "refined entry must come from raw");
                }
            }
        }
    }

    #[test]
    fn coverage_monotone_in_p() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 2);
        for (j, raw) in matrix.columns().enumerate() {
            let mut prev = 0usize;
            for &p in &[10.0, 30.0, 50.0, 70.0, 90.0, 100.0] {
                let cov = ctx.refine_train(j, p, raw).coverage();
                assert!(cov >= prev, "coverage must grow with p");
                prev = cov;
            }
        }
    }

    #[test]
    fn p100_keeps_everything() {
        let ds = toy_text(1);
        let (ctx, matrix, _) = setup(&ds, 5, 3);
        for (j, raw) in matrix.columns().enumerate() {
            let refined = ctx.refine_train(j, 100.0, raw);
            assert_eq!(refined.coverage(), raw.coverage());
        }
    }

    #[test]
    fn refinement_improves_lf_accuracy_on_toy() {
        // The planted structure guarantees LFs are most accurate near
        // their dev point; refining at p=50 should (on average) raise
        // accuracy over the raw LF.
        let ds = toy_text(1);
        let (ctx, matrix, lineage) = setup(&ds, 12, 4);
        let acc_of = |col: &LfColumn| -> Option<f64> {
            if col.coverage() == 0 {
                return None;
            }
            let correct = col
                .entries()
                .iter()
                .filter(|&&(i, v)| Label::from_sign(v) == Some(ds.train.labels[i as usize]))
                .count();
            Some(correct as f64 / col.coverage() as f64)
        };
        let (mut raw_sum, mut ref_sum, mut n) = (0.0, 0.0, 0);
        for (j, raw) in matrix.columns().enumerate() {
            let refined = ctx.refine_train(j, 50.0, raw);
            if let (Some(ra), Some(fa)) = (acc_of(raw), acc_of(&refined)) {
                raw_sum += ra;
                ref_sum += fa;
                n += 1;
            }
        }
        assert!(n >= 8, "need enough refinable LFs, got {n}");
        let _ = lineage;
        assert!(
            ref_sum / n as f64 >= raw_sum / n as f64 - 0.02,
            "refined mean accuracy {:.3} should not fall below raw {:.3}",
            ref_sum / n as f64,
            raw_sum / n as f64
        );
    }

    #[test]
    fn tune_p_returns_grid_member() {
        let ds = toy_text(1);
        let (mut ctx, matrix, _) = setup(&ds, 8, 5);
        let tuned = ctx.tune_p(&matrix, &ds, &GenerativeModel::default(), ds.prior());
        assert!(ctx.config.p_grid.contains(&tuned.p));
        // Mean log-likelihood of binary labels is negative and finite.
        assert!(tuned.valid_score <= 0.0 && tuned.valid_score.is_finite());
        assert_eq!(tuned.train_matrix.n_lfs(), matrix.n_lfs());
        assert_eq!(ctx.tune_fits(), ctx.config.p_grid.len());
    }

    #[test]
    fn warm_and_cold_tuning_choose_the_same_percentile() {
        // Warm-started EM converges to the cold fixed point within
        // tolerance, so repeated tuning rounds must pick the same `p` and
        // score within fp noise of the cold path.
        let ds = toy_text(1);
        let (mut warm_ctx, matrix, lineage) = setup(&ds, 8, 12);
        let mut cold_ctx = Contextualizer::new(ContextualizerConfig::default());
        cold_ctx.sync(&lineage, &ds);
        let model = GenerativeModel::default();
        for _round in 0..3 {
            let warm = warm_ctx.tune_p(&matrix, &ds, &model, ds.prior());
            let cold = reference::tune_p(&mut cold_ctx, &matrix, &ds, &model, ds.prior());
            assert_eq!(warm.p, cold.p, "tuned percentile diverged");
            assert!(
                (warm.valid_score - cold.valid_score).abs() < 1e-4,
                "scores diverged: warm {} vs cold {}",
                warm.valid_score,
                cold.valid_score
            );
        }
    }

    #[test]
    fn batched_indexed_and_per_lf_naive_backends_identical() {
        let ds = toy_text(1);
        let (_, _, lineage) = setup(&ds, 6, 9);
        let mut batched = Contextualizer::new(ContextualizerConfig::default());
        batched.sync(&lineage, &ds);
        let mut per_lf = Contextualizer::new(ContextualizerConfig::default());
        for rec in lineage.tracked() {
            reference::register_batch_naive(&mut per_lf, std::slice::from_ref(rec), &ds);
        }
        assert_eq!(batched.n_registered(), per_lf.n_registered());
        for j in 0..batched.n_registered() {
            // Bit-identical caches, not just close: the indexed kernel
            // performs the same float operations as the row-major scan.
            assert_eq!(batched.rows[j], per_lf.rows[j], "rows j={j}");
            for &p in &[0.0, 25.0, 50.0, 100.0] {
                assert_eq!(batched.radius(j, p), per_lf.radius(j, p), "radius j={j} p={p}");
            }
        }
    }

    #[test]
    fn register_batch_adopts_known_rows_and_computes_only_the_rest() {
        let ds = toy_text(1);
        let (cold, _, lineage) = setup(&ds, 6, 10);
        // A multi-LF round: second LFs from the last (missing) and the
        // first (known) LF's examples.
        let mut recs = lineage.tracked().to_vec();
        recs.push(recs[5]);
        recs.push(recs[0]);
        let known: PivotRowMap = recs[..3]
            .iter()
            .zip(cold.pivot_rows())
            .map(|(r, rows)| (r.dev_example, Arc::clone(rows)))
            .collect();
        let mut warm = Contextualizer::new(ContextualizerConfig::default());
        warm.register_batch(&recs, &ds, &known);
        // Both counters count distinct examples, not LFs.
        let mut examples: Vec<u32> = recs.iter().map(|r| r.dev_example).collect();
        examples.sort_unstable();
        examples.dedup();
        let reused = examples.iter().filter(|x| known.contains_key(x)).count();
        assert_eq!(warm.rows_reused(), reused);
        assert_eq!(warm.rows_computed(), examples.len() - reused);
        for (j, rec) in recs.iter().enumerate() {
            // Adopted rows are shared, fresh ones bit-identical to the
            // rows a cold registration computed for the same example.
            let rows = &warm.pivot_rows()[j];
            match known.get(&rec.dev_example) {
                Some(k) => assert!(Arc::ptr_eq(rows, k), "j={j} not adopted"),
                None => assert_eq!(**rows, *cold.pivot_rows()[j.min(5)], "j={j}"),
            }
        }
        assert!(Arc::ptr_eq(&warm.pivot_rows()[5], &warm.pivot_rows()[6]), "one row per example");
    }

    #[test]
    fn radius_defined_for_empty_train_split() {
        // An LF whose training split is empty has no reference distances;
        // the radius must be a *defined* +∞ (refinement = identity), not
        // a panic inside `percentile_of_sorted` (the pre-fix behaviour).
        let mut ctx = Contextualizer::new(ContextualizerConfig::default());
        let empty_train =
            PivotRows { train: Vec::new(), train_sorted: Vec::new(), valid: vec![0.1, 0.7] };
        ctx.rows.push(Arc::new(empty_train));
        ctx.raw_valid_cols.push(LfColumn::new(vec![(0, 1), (1, -1)]));
        for &p in &[0.0, 50.0, 100.0] {
            assert_eq!(ctx.radius(0, p), f64::INFINITY, "p={p}");
        }
        // With the identity radius, validation refinement keeps the raw
        // column untouched and training refinement of the (necessarily
        // empty) raw column stays empty.
        assert_eq!(ctx.refine_valid(0, 50.0).entries(), ctx.raw_valid_cols[0].entries());
        assert_eq!(ctx.refine_train(0, 50.0, &LfColumn::empty()).coverage(), 0);
    }

    #[test]
    fn duplicate_grid_points_share_one_fit() {
        // Duplicated percentiles refine to identical train matrices, so
        // each duplicated pair must collapse into one label-model fit.
        let ds = toy_text(1);
        let (_, matrix, lineage) = setup(&ds, 5, 33);
        let mut ctx = Contextualizer::new(ContextualizerConfig {
            p_grid: vec![50.0, 50.0, 100.0, 100.0],
            ..Default::default()
        });
        ctx.sync(&lineage, &ds);
        let tuned = ctx.tune_p(&matrix, &ds, &GenerativeModel::default(), ds.prior());
        assert_eq!(ctx.tune_fits(), 2, "duplicate grid points must share fits");
        assert!(ctx.config.p_grid.contains(&tuned.p));
    }

    #[test]
    fn sync_is_incremental_and_idempotent() {
        let ds = toy_text(1);
        let (mut ctx, _, lineage) = setup(&ds, 4, 6);
        assert_eq!(ctx.n_registered(), 4);
        ctx.sync(&lineage, &ds);
        assert_eq!(ctx.n_registered(), 4);
    }

    #[test]
    fn radius_monotone_in_p() {
        let ds = toy_text(1);
        let (ctx, _, _) = setup(&ds, 3, 7);
        for j in 0..3 {
            assert!(ctx.radius(j, 25.0) <= ctx.radius(j, 75.0));
            assert!(ctx.radius(j, 75.0) <= ctx.radius(j, 100.0));
        }
    }

    #[test]
    fn valid_refinement_uses_train_radius() {
        let ds = toy_text(1);
        let (ctx, _, _) = setup(&ds, 3, 8);
        // p = 0 gives the minimum train distance (0, the dev point itself),
        // so validation coverage at p=0 should be (near) empty.
        for j in 0..3 {
            let refined = ctx.refine_valid(j, 0.0);
            assert!(
                refined.coverage() <= ctx.raw_valid_cols[j].coverage(),
                "valid refinement must not grow coverage"
            );
        }
    }
}
