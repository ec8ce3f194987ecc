//! Differential property suite for the blocked dense kernel and the
//! posting-range sharded single-pivot kernels.
//!
//! Two independent invariants are held here:
//!
//! 1. **Blocked vs scalar dense reductions** — `dense::dot_blocked`
//!    accumulates dot products and squared distances in `DOT_LANES`
//!    independent lanes, so it is *not* bit-identical to the scalar
//!    left-to-right sum of the dense oracle; the contract is agreement
//!    within `1e-9` relative (the documented bound) plus bitwise
//!    determinism of each reduction against itself. Inputs shorter than
//!    `DOT_LANES` have no lane body at all and must match the scalar sum
//!    bitwise.
//! 2. **Sharded vs unsharded single-pivot queries** — the posting-range
//!    sharded sparse kernel and the row-block sharded dense kernel
//!    split work on a fixed shard grid that never depends on the worker
//!    count, so their outputs must be **bit-identical** to the serial
//!    kernels under every `NEMO_THREADS` setting, over random matrices
//!    (including the below-`MIN_SHARDED_ROWS` fallback and pools large
//!    enough to actually shard). `Features::distances`, the entry
//!    production calls, routes few-pivot batches through the sharded
//!    kernels and larger ones over the pivots; both routes must match the
//!    `reference::distances` oracle on both backings, within a split and
//!    across splits.
//!
//! A full-session check closes the loop: an interactive run (SEU
//! selection + simulated user + contextualized learning) must make
//! identical decisions on the production engine (indexed distances,
//! blocked dense kernel) and on the reference pipeline (naive distances,
//! scalar kernels throughout), on a sparse text dataset and on a dense
//! scene dataset.

mod common;

use common::{run_session, with_thread_counts, Trace};
use nemo::core::config::IdpConfig;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::reference::{self, ReferencePipeline};
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::{Dataset, Features};
use nemo::sparse::dense::{self, DOT_LANES};
use nemo::sparse::distance::MIN_SHARDED_ROWS;
use nemo::sparse::{CscIndex, CsrMatrix, DenseMatrix, Distance, DistanceScratch, SparseVec};
use proptest::prelude::*;

const DISTANCES: [Distance; 2] = [Distance::Cosine, Distance::Euclidean];

fn matrix_from(rows: &[Vec<(u32, f32)>], dim: usize) -> CsrMatrix {
    let svs: Vec<SparseVec> = rows.iter().map(|p| SparseVec::from_pairs(p.clone(), dim)).collect();
    CsrMatrix::from_rows(&svs, dim)
}

// ---------------------------------------------------------------------
// 1. Blocked vs scalar dense reductions.
// ---------------------------------------------------------------------

proptest! {
    /// Blocked dot/sq-euclidean agree with the scalar reductions within
    /// the documented 1e-9 relative bound, and the blocked reductions are
    /// bitwise deterministic against themselves.
    #[test]
    fn prop_blocked_matches_scalar_reductions(
        pairs in proptest::collection::vec((-8.0f32..8.0, -8.0f32..8.0), 0..200),
    ) {
        let a: Vec<f32> = pairs.iter().map(|&(x, _)| x).collect();
        let b: Vec<f32> = pairs.iter().map(|&(_, y)| y).collect();
        let scalar_dot = dense::dot(&a, &b);
        let blocked_dot = dense::dot_blocked(&a, &b);
        prop_assert!(
            (scalar_dot - blocked_dot).abs() <= 1e-9 * (1.0 + scalar_dot.abs()),
            "dot diverged: scalar {scalar_dot} blocked {blocked_dot}"
        );
        let scalar_sq = dense::sq_euclidean(&a, &b);
        let blocked_sq = dense::sq_euclidean_blocked(&a, &b);
        prop_assert!(
            (scalar_sq - blocked_sq).abs() <= 1e-9 * (1.0 + scalar_sq),
            "sq_euclidean diverged: scalar {scalar_sq} blocked {blocked_sq}"
        );
        // Determinism: repeated calls are bitwise-stable per reduction.
        prop_assert_eq!(blocked_dot.to_bits(), dense::dot_blocked(&a, &b).to_bits());
        prop_assert_eq!(blocked_sq.to_bits(), dense::sq_euclidean_blocked(&a, &b).to_bits());
        // Below one lane block the blocked kernel is the scalar tail sum,
        // bitwise — up to the sign of zero (`Iterator::sum` folds from
        // `-0.0`, the blocked tail from `+0.0`; `x + 0.0` collapses both).
        if a.len() < DOT_LANES {
            prop_assert_eq!((blocked_dot + 0.0).to_bits(), (scalar_dot + 0.0).to_bits());
            prop_assert_eq!((blocked_sq + 0.0).to_bits(), (scalar_sq + 0.0).to_bits());
        }
    }
}

// ---------------------------------------------------------------------
// 2. Sharded vs unsharded single-pivot kernels.
// ---------------------------------------------------------------------

/// Deterministic pseudo-random sparse rows (xorshift-free LCG — cheap and
/// seedable) for pools too large to proptest-generate per case.
fn lcg_sparse_rows(n: usize, dim: u32, nnz: usize, seed: u64) -> Vec<Vec<(u32, f32)>> {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    (0..n)
        .map(|_| {
            (0..nnz)
                .filter_map(|_| {
                    let j = next() % dim;
                    let v = (next() % 2000) as f32 / 250.0 - 4.0;
                    (next() % 4 != 0).then_some((j, v))
                })
                .collect()
        })
        .collect()
}

/// Densified copy of sparse rows (duplicate columns summed).
fn densify(rows: &[Vec<(u32, f32)>], dim: u32) -> DenseMatrix {
    let dense_rows: Vec<Vec<f32>> = rows
        .iter()
        .map(|r| {
            let mut v = vec![0.0f32; dim as usize];
            for &(j, x) in r {
                v[j as usize] += x;
            }
            v
        })
        .collect();
    DenseMatrix::from_rows(&dense_rows)
}

/// `Features::distances` against the `reference::distances` oracle:
/// bitwise on sparse features; within 1e-9 relative on dense ones.
fn assert_matches_oracle(got: &[Vec<f64>], want: &[Vec<f64>], bitwise: bool, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: pivot count");
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: slot {k} length");
        for (r, (&a, &b)) in g.iter().zip(w).enumerate() {
            if bitwise {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: slot {k} row {r}: {a} vs {b}");
            } else {
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{what}: slot {k} row {r}");
            }
        }
    }
}

/// Sharded sparse + dense single-pivot queries must be bit-identical to
/// the serial kernels under every thread count, on a pool large enough
/// to engage the fixed shard grid. `Features::distances` must give the
/// same rows whether its batch has fewer pivots than workers (sharded
/// route) or not (pivot-partitioned route), on both backings, against
/// its own split and a second split, and must match the oracle.
#[test]
fn sharded_kernels_bitwise_identical_across_thread_counts() {
    let n = MIN_SHARDED_ROWS + 731;
    let dim = 48u32;
    let rows = lcg_sparse_rows(n, dim, 5, 0x5eed);
    let m = matrix_from(&rows, dim as usize);
    let norms = m.row_sq_norms();
    let index = CscIndex::from_csr(&m);

    // Dense mirror of the same pool (densified rows).
    let dm = densify(&rows, dim);
    let d_norms = dm.row_sq_norms();

    // The same pools as `Features`, plus a second split over the same
    // feature space as the cross-split target.
    let other_rows = lcg_sparse_rows(MIN_SHARDED_ROWS + 97, dim, 5, 0x07e5);
    let sparse =
        (Features::from_csr(m.clone()), Features::from_csr(matrix_from(&other_rows, dim as usize)));
    let dense = (Features::from_dense(dm.clone()), Features::from_dense(densify(&other_rows, dim)));
    // One pivot sits below every worker count above 1; nine sit at or
    // above every worker count swept here.
    let many: Vec<usize> = (0..9).map(|k| k * (n / 9)).collect();

    let pivots = [0usize, 99, n - 1];
    for dist in DISTANCES {
        // Serial references, computed once outside any env mutation.
        let mut scratch = DistanceScratch::new();
        let sparse_ref: Vec<Vec<f64>> = pivots
            .iter()
            .map(|&p| {
                let mut out = Vec::new();
                dist.sparse_row_to_all_indexed_into(
                    &m.row(p),
                    norms[p],
                    &index,
                    &norms,
                    &mut scratch,
                    &mut out,
                );
                out
            })
            .collect();
        let dense_ref: Vec<Vec<f64>> = pivots
            .iter()
            .map(|&p| {
                let mut out = Vec::new();
                dist.dense_row_to_all_into(dm.row(p), d_norms[p], &dm, &d_norms, &mut out);
                out
            })
            .collect();
        // Entry-point references: the oracle, and the ambient-thread
        // batch every routed call must reproduce bit for bit.
        let splits = [
            (&sparse.0, &sparse.0),
            (&sparse.0, &sparse.1),
            (&dense.0, &dense.0),
            (&dense.0, &dense.1),
        ];
        let entry_ref: Vec<Vec<Vec<f64>>> = splits
            .iter()
            .map(|&(src, target)| {
                let got = src.distances(dist, &many, target);
                let oracle = reference::distances(dist, src, &many, target);
                assert_matches_oracle(&got, &oracle, src.dense().is_none(), "entry vs oracle");
                got
            })
            .collect();

        with_thread_counts(&[1, 2, 3, 4, 8], |t| {
            let mut scratch = DistanceScratch::new();
            let mut out = Vec::new();
            for (k, &p) in pivots.iter().enumerate() {
                dist.sparse_row_to_all_indexed_sharded_into(
                    &m.row(p),
                    norms[p],
                    &index,
                    &norms,
                    &mut scratch,
                    &mut out,
                );
                assert_eq!(out.len(), sparse_ref[k].len());
                for (r, (&got, &want)) in out.iter().zip(&sparse_ref[k]).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{dist:?} NEMO_THREADS={t} pivot {p} row {r}: sharded {got} serial {want}"
                    );
                }
                dist.dense_row_to_all_sharded_into(dm.row(p), d_norms[p], &dm, &d_norms, &mut out);
                for (r, (&got, &want)) in out.iter().zip(&dense_ref[k]).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{dist:?} NEMO_THREADS={t} pivot {p} row {r}: dense sharded diverged"
                    );
                }
            }
            for (&(src, target), want) in splits.iter().zip(&entry_ref) {
                let what = format!("{dist:?} NEMO_THREADS={t} dense={}", src.dense().is_some());
                assert_matches_oracle(&src.distances(dist, &many, target), want, true, &what);
                let one = src.distances(dist, &many[1..2], target);
                assert_matches_oracle(&one, &want[1..2], true, &what);
            }
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random base rows tiled past `MIN_SHARDED_ROWS` with a random
    /// thread count: the sharded sparse kernel stays bit-identical to
    /// the serial one (and the small un-tiled pool exercises the serial
    /// fallback with the same assertion).
    #[test]
    fn prop_sharded_sparse_bitwise_any_thread_count(
        base in proptest::collection::vec(
            proptest::collection::vec((0u32..32, -4.0f32..4.0), 0..5), 1..16),
        threads in 1usize..9,
        pivot_pick in 0usize..1024,
    ) {
        let tiled: Vec<Vec<(u32, f32)>> = (0..MIN_SHARDED_ROWS + 257)
            .map(|i| base[i % base.len()].clone())
            .collect();
        for rows in [&base, &tiled] {
            let m = matrix_from(rows, 32);
            let norms = m.row_sq_norms();
            let index = CscIndex::from_csr(&m);
            let pivot = pivot_pick % m.n_rows();
            let mut scratch = DistanceScratch::new();
            let (mut serial, mut sharded) = (Vec::new(), Vec::new());
            for dist in DISTANCES {
                let row = m.row(pivot);
                dist.sparse_row_to_all_indexed_into(
                    &row, norms[pivot], &index, &norms, &mut scratch, &mut serial);
                with_thread_counts(&[threads], |_| {
                    dist.sparse_row_to_all_indexed_sharded_into(
                        &row, norms[pivot], &index, &norms, &mut scratch, &mut sharded);
                });
                prop_assert_eq!(serial.len(), sharded.len());
                for (r, (&a, &b)) in serial.iter().zip(&sharded).enumerate() {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{:?} threads {} pivot {} row {}: serial {} sharded {}",
                        dist, threads, pivot, r, a, b
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// 3. Full-session differential: production engine vs reference oracle.
// ---------------------------------------------------------------------

fn run(ds: &Dataset, reference: bool, seed: u64) -> Trace {
    let config = IdpConfig { n_iterations: 8, eval_every: 4, seed, ..Default::default() };
    let mut selector = SeuSelector::new();
    if reference {
        run_session(ds, config, &mut selector, &mut ReferencePipeline::default())
    } else {
        run_session(ds, config, &mut selector, &mut ContextualizedPipeline::default())
    }
}

/// The production engine and the all-scalar reference pipeline drive
/// the same interactive session: identical selections, identical tuned
/// percentiles, identical final scores — on the sparse text dataset
/// (where the dense kernels are inert) and on the dense 2-D scene dataset
/// (whose 2-dim rows sit entirely in the blocked kernel's scalar tail,
/// so even the blocked reduction is bitwise-equal to the scalar one
/// there).
#[test]
fn full_session_identical_across_switch_combos() {
    for ds in [toy_text(1), toy_scene_2d(1)] {
        let production = run(&ds, false, 7);
        let reference = run(&ds, true, 7);
        assert_eq!(reference, production, "{}: reference pipeline diverged", ds.name);
    }
}

/// The session combo sweep again, under a multi-worker thread setting —
/// the sharded kernels must not perturb an interactive run.
#[test]
fn full_session_stable_under_thread_counts() {
    let ds = toy_text(2);
    let reference = run(&ds, false, 3);
    with_thread_counts(&[4], |_| {
        let multi = run(&ds, false, 3);
        assert_eq!(multi, reference, "NEMO_THREADS=4 session diverged from the ambient run");
    });
}
