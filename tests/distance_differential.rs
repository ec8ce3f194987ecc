//! Differential property suite for the distance engine.
//!
//! Three sparse kernels compute "one point vs all rows" distances: the
//! naive row-major scan (`sparse_row_to_all_naive_into`), the
//! inverted-index kernel driven by a [`CscIndex`]
//! (`sparse_row_to_all_indexed_into`), and `Features::distances`, the
//! batched entry production calls. They are designed to be bit-identical —
//! each row's matching terms accumulate in ascending column order in every
//! tier — and this suite holds them to the 1e-9 agreement bound over
//! random sparse matrices of varying density, including all-zero rows and
//! untouched columns, for both `Cosine` and `Euclidean`.
//!
//! The entry is also pinned to its oracle, `reference::distances`, on both
//! feature backings: bitwise on sparse features; on dense ones within the
//! blocked kernel's documented 1e-9 relative bound, and bitwise when rows
//! are shorter than `DOT_LANES`. Each such check runs under
//! `NEMO_THREADS` 1 and 4, on whole-split batches and on single pivots, so
//! batches both below and at/above the worker count take their route.

mod common;

use common::with_thread_counts;
use nemo::core::reference;
use nemo::data::Features;
use nemo::sparse::dense::DOT_LANES;
use nemo::sparse::{CscIndex, CsrMatrix, DenseMatrix, Distance, DistanceScratch, SparseVec};
use proptest::prelude::*;

const DISTANCES: [Distance; 2] = [Distance::Cosine, Distance::Euclidean];

fn matrix_from(rows: &[Vec<(u32, f32)>], dim: usize) -> CsrMatrix {
    let svs: Vec<SparseVec> = rows.iter().map(|p| SparseVec::from_pairs(p.clone(), dim)).collect();
    CsrMatrix::from_rows(&svs, dim)
}

/// The same rows as sparse-backed and as dense-backed features.
fn backings(m: &CsrMatrix) -> [Features; 2] {
    let mut dense = DenseMatrix::zeros(m.n_rows(), m.n_cols());
    for r in 0..m.n_rows() {
        for (j, v) in m.row(r).iter() {
            dense.row_mut(r)[j as usize] = v;
        }
    }
    [Features::from_csr(m.clone()), Features::from_dense(dense)]
}

/// Naive sparse oracle from row `pivot` of `src` to every row of `target`.
fn naive(dist: Distance, src: &CsrMatrix, pivot: usize, target: &CsrMatrix) -> Vec<f64> {
    let mut out = Vec::new();
    let (src_sq, target_sq) = (src.row_sq_norms(), target.row_sq_norms());
    dist.sparse_row_to_all_naive_into(&src.row(pivot), src_sq[pivot], target, &target_sq, &mut out);
    out
}

/// `Features::distances` against `reference::distances` for `pivots` of
/// `src` vs every row of `target`, under `NEMO_THREADS` 1 and 4: the whole
/// batch and each pivot on its own must give the same rows, and those rows
/// must match the oracle.
fn check_entry(dist: Distance, src: &Features, pivots: &[usize], target: &Features) {
    let oracle = reference::distances(dist, src, pivots, target);
    let bitwise = src.dense().is_none() || src.dim() < DOT_LANES;
    with_thread_counts(&[1, 4], |t| {
        let batched = src.distances(dist, pivots, target);
        assert_eq!(batched.len(), pivots.len());
        for (k, (got, want)) in batched.iter().zip(&oracle).enumerate() {
            let what =
                format!("{dist:?} dense={} NEMO_THREADS={t} slot {k}", src.dense().is_some());
            assert_eq!(got, &src.distances(dist, &pivots[k..=k], target)[0], "{what}: single");
            assert_eq!(got.len(), want.len(), "{what}: length");
            for (r, (&a, &b)) in got.iter().zip(want).enumerate() {
                if bitwise {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what} row {r}: {a} vs oracle {b}");
                } else {
                    assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{what} row {r}: {a} vs {b}");
                }
            }
        }
    });
}

/// Row strategy producing matrices from fully empty to ~60% dense, with
/// signed values so entries can cancel to produce zero rows.
fn rows_strategy(
    dim: u32,
    max_nnz: usize,
    max_rows: usize,
) -> impl Strategy<Value = Vec<Vec<(u32, f32)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..dim, -4.0f32..4.0), 0..max_nnz),
        1..max_rows,
    )
}

fn check_all_kernels_agree(m: &CsrMatrix) {
    let norms = m.row_sq_norms();
    let index = CscIndex::from_csr(m);
    let mut scratch = DistanceScratch::new();
    let mut indexed = Vec::new();
    let pivots: Vec<usize> = (0..m.n_rows()).collect();
    let features = backings(m);
    for dist in DISTANCES {
        let batched = features[0].distances(dist, &pivots, &features[0]);
        for (pivot, batch_row) in batched.iter().enumerate() {
            let naive = naive(dist, m, pivot, m);
            dist.sparse_row_to_all_indexed_into(
                &m.row(pivot),
                norms[pivot],
                &index,
                &norms,
                &mut scratch,
                &mut indexed,
            );
            assert_eq!(naive.len(), indexed.len());
            for (r, (&a, &b)) in naive.iter().zip(&indexed).enumerate() {
                assert!(a.is_finite() && b.is_finite(), "{dist:?} {pivot}->{r} not finite");
                assert!((a - b).abs() <= 1e-9, "{dist:?} {pivot}->{r}: naive {a} indexed {b}");
                let c = batch_row[r];
                assert!((a - c).abs() <= 1e-9, "{dist:?} {pivot}->{r}: naive {a} batched {c}");
            }
        }
        for f in &features {
            check_entry(dist, f, &pivots, f);
        }
    }
}

/// Fold a matrix's columns into `dim` (< `DOT_LANES`) so dense rows never
/// reach the blocked kernel's lane body.
fn narrowed(rows: &[Vec<(u32, f32)>], dim: u32) -> Vec<Vec<(u32, f32)>> {
    rows.iter().map(|r| r.iter().map(|&(j, v)| (j % dim, v)).collect()).collect()
}

proptest! {
    /// Moderate dimension, density swept from empty to dense-ish; the
    /// same rows folded below `DOT_LANES` columns pin the dense entry
    /// bitwise.
    #[test]
    fn prop_kernels_agree_varying_density(rows in rows_strategy(24, 16, 14)) {
        check_all_kernels_agree(&matrix_from(&rows, 24));
        check_all_kernels_agree(&matrix_from(&narrowed(&rows, 5), 5));
    }

    /// High dimension, few nonzeros per row: the TF-IDF-like regime the
    /// indexed kernel is built for (most columns empty).
    #[test]
    fn prop_kernels_agree_very_sparse(rows in rows_strategy(96, 6, 12)) {
        check_all_kernels_agree(&matrix_from(&rows, 96));
    }

    /// Cross-matrix distances (train pivot vs valid pool): the indexed and
    /// batched kernels against the naive reference.
    #[test]
    fn prop_cross_matrix_kernels_agree(
        train in rows_strategy(32, 10, 8),
        valid in rows_strategy(32, 10, 8),
    ) {
        let tm = matrix_from(&train, 32);
        let vm = matrix_from(&valid, 32);
        let t_norms = tm.row_sq_norms();
        let v_norms = vm.row_sq_norms();
        let index = CscIndex::from_csr(&vm);
        let mut scratch = DistanceScratch::new();
        let mut indexed = Vec::new();
        let pivots: Vec<usize> = (0..tm.n_rows()).collect();
        let (train_f, valid_f) = (backings(&tm), backings(&vm));
        for dist in DISTANCES {
            let batched = train_f[0].distances(dist, &pivots, &valid_f[0]);
            for p in 0..tm.n_rows() {
                let naive = naive(dist, &tm, p, &vm);
                dist.sparse_row_to_all_indexed_into(
                    &tm.row(p),
                    t_norms[p],
                    &index,
                    &v_norms,
                    &mut scratch,
                    &mut indexed,
                );
                for (r, (&a, &b)) in naive.iter().zip(&indexed).enumerate() {
                    prop_assert!((a - b).abs() <= 1e-9, "{:?} {}->{}", dist, p, r);
                    prop_assert!((a - batched[p][r]).abs() <= 1e-9, "{:?} {}->{} batched", dist, p, r);
                }
            }
            for (src, target) in train_f.iter().zip(&valid_f) {
                check_entry(dist, src, &pivots, target);
            }
        }
    }

    /// Batched output must be ordered by pivot position, not pivot id,
    /// including repeated pivots.
    #[test]
    fn prop_batched_respects_pivot_order(
        rows in rows_strategy(24, 8, 10),
        picks in proptest::collection::vec(0usize..10, 1..20),
    ) {
        let m = matrix_from(&rows, 24);
        let features = backings(&m);
        let pivots: Vec<usize> = picks.into_iter().map(|p| p % m.n_rows()).collect();
        for dist in DISTANCES {
            let batched = features[0].distances(dist, &pivots, &features[0]);
            prop_assert_eq!(batched.len(), pivots.len());
            for (k, &p) in pivots.iter().enumerate() {
                let naive = naive(dist, &m, p, &m);
                for (r, &b) in batched[k].iter().enumerate() {
                    prop_assert!((naive[r] - b).abs() <= 1e-9, "{:?} slot {} pivot {}", dist, k, p);
                }
            }
            for f in &features {
                check_entry(dist, f, &pivots, f);
            }
        }
    }
}

/// A handcrafted worst case the strategies might under-sample: every row
/// zero except one, plus a row whose entries cancel to zero.
#[test]
fn all_zero_and_cancelled_rows_agree_across_kernels() {
    let rows = vec![
        vec![],
        vec![(3u32, 2.0f32), (3, -2.0)], // cancels to a zero row
        vec![(0, 1.0), (5, 0.5)],
        vec![],
    ];
    check_all_kernels_agree(&matrix_from(&rows, 8));
}
