//! Distance kernels for the LF contextualizer (paper Eq. 4).
//!
//! The paper's contextualizer needs `dist(x, x_λ)` from each development
//! data point to every example; in the text domain this is cosine or
//! euclidean distance over TF-IDF vectors (Sec. 4.3, Table 9), and in the
//! image domain the same over dense embeddings. Every query is therefore
//! "one pivot row vs all rows of a target matrix", and each feature
//! backing has three kernels for it:
//!
//! | backing | oracle | serial kernel | sharded kernel |
//! |---|---|---|---|
//! | sparse | [`Distance::sparse_row_to_all_naive_into`] | [`Distance::sparse_row_to_all_indexed_into`] | [`Distance::sparse_row_to_all_indexed_sharded_into`] |
//! | dense | [`Distance::dense_row_to_all_naive_into`] | [`Distance::dense_row_to_all_into`] | [`Distance::dense_row_to_all_sharded_into`] |
//!
//! - **Oracles** — the sparse one is a sorted-merge dot against every row
//!   (`O(nnz + n·nnz(pivot))`); the dense one reduces each row with the
//!   scalar single-accumulator [`crate::dense::dot`] /
//!   [`crate::dense::sq_euclidean`]. They exist for differential tests and
//!   regression benchmarks; production never calls them.
//! - **Serial kernels** — the sparse one walks only the posting lists of
//!   the pivot's nonzero columns in a [`CscIndex`], scattering into a
//!   reusable [`DistanceScratch`] (`O(n + Σ_{j ∈ pivot} df(j))`; rows
//!   sharing no terms with the pivot are never touched). The dense one
//!   keeps [`crate::dense::DOT_LANES`] independent accumulators per row.
//! - **Sharded kernels** — one pivot's query split over fixed contiguous
//!   row ranges ([`INDEXED_SHARD_ROWS`] / [`DENSE_SHARD_ROWS`] rows per
//!   shard), whole shards distributed over workers. The shard grid depends
//!   only on the row count, so the result is bit-identical to the serial
//!   kernel for *any* worker count. Below [`MIN_SHARDED_ROWS`] rows or on
//!   one worker they run the serial kernel outright.
//!
//! [`Distance::point_to_all_many`] is the batched entry production runs
//! (through `nemo_data::Features::distances`): fewer pivots than workers
//! shard each query, otherwise the pivots are split over workers.
//!
//! Agreement: the three sparse tiers are **bit-identical** (per-row dot
//! products accumulate matching terms in ascending column order in every
//! tier, so the floating-point operations are literally the same). The
//! blocked dense kernels reassociate the sums, so they agree with the
//! scalar oracle within `1e-9` relative, and bitwise on rows shorter than
//! [`crate::dense::DOT_LANES`].

use crate::csc::CscIndex;
use crate::csr::{CsrMatrix, SparseRow};
use crate::dense::{self, DenseMatrix};
use crate::parallel;

/// Rows per shard of a sharded single-pivot indexed query. The shard grid
/// is a constant of the kernel (never derived from the thread count), so
/// every partial sum is computed identically under any `NEMO_THREADS`.
pub const INDEXED_SHARD_ROWS: usize = 4096;

/// Rows per shard of the sharded dense point-to-all (dense rows are
/// `O(n_cols)` each, so shards are smaller than the sparse ones).
pub const DENSE_SHARD_ROWS: usize = 1024;

/// Below this many target rows a single-pivot query stays serial: thread
/// spawns cost tens of microseconds, which dominates small pools.
pub const MIN_SHARDED_ROWS: usize = 8192;

/// Reusable accumulator for the indexed sparse kernels: one `f64` dot
/// slot per target row, zeroed at the start of every call. Keeping it
/// outside the kernel makes repeated point-to-all calls allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DistanceScratch {
    dots: Vec<f64>,
}

impl DistanceScratch {
    /// An empty scratch; it sizes itself to the target matrix on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroed dot accumulator of length `n_rows`.
    fn reset(&mut self, n_rows: usize) -> &mut [f64] {
        self.dots.clear();
        self.dots.resize(n_rows, 0.0);
        &mut self.dots
    }
}

/// Distance (dissimilarity) function between feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Distance {
    /// `1 - cos(a, b)`; in `[0, 2]`. The paper's default for text (Table 9
    /// shows it dominating euclidean).
    #[default]
    Cosine,
    /// Standard euclidean distance.
    Euclidean,
}

impl Distance {
    /// Human-readable name used by the benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Distance::Cosine => "cosine",
            Distance::Euclidean => "euclidean",
        }
    }

    /// Distance between two sparse rows.
    pub fn sparse(self, a: &SparseRow<'_>, b: &SparseRow<'_>) -> f64 {
        match self {
            Distance::Cosine => cosine_distance(a.dot(b), a.sq_norm(), b.sq_norm()),
            Distance::Euclidean => {
                // ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a·b, guarded against
                // tiny negative round-off.
                let sq = a.sq_norm() + b.sq_norm() - 2.0 * a.dot(b);
                sq.max(0.0).sqrt()
            }
        }
    }

    /// Distance between two dense vectors.
    pub fn dense(self, a: &[f32], b: &[f32]) -> f64 {
        match self {
            Distance::Cosine => {
                let dot = dense::dot(a, b);
                let na: f64 = a.iter().map(|&v| (v as f64) * (v as f64)).sum();
                let nb: f64 = b.iter().map(|&v| (v as f64) * (v as f64)).sum();
                cosine_distance(dot, na, nb)
            }
            Distance::Euclidean => dense::sq_euclidean(a, b).sqrt(),
        }
    }

    /// Finish a distance from a precomputed dot product and squared norms.
    #[inline]
    fn finish(self, dot: f64, pivot_sq: f64, row_sq: f64) -> f64 {
        match self {
            Distance::Cosine => cosine_distance(dot, pivot_sq, row_sq),
            Distance::Euclidean => {
                // ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a·b, guarded against
                // tiny negative round-off.
                let sq = pivot_sq + row_sq - 2.0 * dot;
                sq.max(0.0).sqrt()
            }
        }
    }

    /// Naive row-major scan: distances from a sparse `pivot` row to every
    /// row of `m`, one sorted-merge dot per row, into a caller-owned buffer
    /// (cleared and refilled). The sparse oracle.
    ///
    /// The pivot may come from a *different* matrix in the same feature
    /// space (a training development point vs validation examples).
    /// `pivot_sq` is the pivot's squared norm; `sq_norms` the cached
    /// per-row squared norms of `m` ([`CsrMatrix::row_sq_norms`]).
    pub fn sparse_row_to_all_naive_into(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        m: &CsrMatrix,
        sq_norms: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        out.clear();
        out.reserve(m.n_rows());
        for (r, row) in m.rows().enumerate() {
            out.push(self.finish(pivot.dot(&row), pivot_sq, sq_norms[r]));
        }
    }

    /// Indexed row-to-all: distances from a sparse `pivot` row to every
    /// row of the matrix behind `index` (its [`CscIndex`]).
    ///
    /// The pivot's nonzero values are scattered through the posting lists
    /// of their columns into `scratch`'s per-row dot accumulator — rows
    /// sharing no terms with the pivot keep a zero dot and are only
    /// touched by the `O(n)` finish pass. `sq_norms` are the indexed
    /// matrix's cached squared row norms. Bit-identical to
    /// [`Distance::sparse_row_to_all_naive_into`] (see the module docs).
    pub fn sparse_row_to_all_indexed_into(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        index: &CscIndex,
        sq_norms: &[f64],
        scratch: &mut DistanceScratch,
        out: &mut Vec<f64>,
    ) {
        let n = index.n_rows();
        assert_eq!(sq_norms.len(), n, "sq_norms length mismatch");
        let dots = scratch.reset(n);
        // Ascending pivot columns ⇒ each row's matching terms accumulate
        // in the same order as the sorted-merge dot: bit-identical sums.
        for (j, v) in pivot.iter() {
            let (rows, vals) = index.col(j);
            let v = v as f64;
            for (&r, &w) in rows.iter().zip(vals) {
                dots[r as usize] += v * w as f64;
            }
        }
        out.clear();
        out.reserve(n);
        for r in 0..n {
            out.push(self.finish(dots[r], pivot_sq, sq_norms[r]));
        }
    }

    /// Sharded indexed row-to-all: one pivot query parallelized over fixed
    /// contiguous row ranges of the target matrix.
    ///
    /// The target rows are cut into [`INDEXED_SHARD_ROWS`]-row shards (a
    /// grid depending only on the row count). Each shard binary-searches
    /// every pivot column's posting list down to its own row range
    /// (posting lists are sorted by row id) and scatters those entries
    /// into its private slice of the scratch accumulator, then finishes
    /// its rows in place. A row's matching terms still accumulate in
    /// ascending column order — the same `f64` operations as the serial
    /// indexed kernel — so the output is **bit-identical** to
    /// [`Distance::sparse_row_to_all_indexed_into`] under any
    /// `NEMO_THREADS`, including 1. Small pools (below
    /// [`MIN_SHARDED_ROWS`]) and single-threaded configurations fall back
    /// to the serial kernel outright.
    pub fn sparse_row_to_all_indexed_sharded_into(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        index: &CscIndex,
        sq_norms: &[f64],
        scratch: &mut DistanceScratch,
        out: &mut Vec<f64>,
    ) {
        let n = index.n_rows();
        if n < MIN_SHARDED_ROWS || parallel::num_threads() == 1 {
            return self
                .sparse_row_to_all_indexed_into(pivot, pivot_sq, index, sq_norms, scratch, out);
        }
        assert_eq!(sq_norms.len(), n, "sq_norms length mismatch");
        let dots = scratch.reset(n);
        out.clear();
        out.resize(n, 0.0);
        parallel::par_for_each_fixed_chunk2_mut(
            dots,
            out,
            INDEXED_SHARD_ROWS,
            |lo, dots_c, out_c| {
                let hi = lo + dots_c.len();
                for (j, v) in pivot.iter() {
                    let (rows, vals) = index.col(j);
                    // Narrow the posting list to this shard's row range.
                    let start = rows.partition_point(|&r| (r as usize) < lo);
                    let end = start + rows[start..].partition_point(|&r| (r as usize) < hi);
                    let v = v as f64;
                    for (&r, &w) in rows[start..end].iter().zip(&vals[start..end]) {
                        dots_c[r as usize - lo] += v * w as f64;
                    }
                }
                for (i, (&d, o)) in dots_c.iter().zip(out_c.iter_mut()).enumerate() {
                    *o = self.finish(d, pivot_sq, sq_norms[lo + i]);
                }
            },
        );
    }

    /// Scalar dense row-to-all: one single-accumulator reduction per row
    /// ([`dense::dot`] / [`dense::sq_euclidean`]), into a caller-owned
    /// buffer. The dense oracle.
    ///
    /// Cosine reads the cached squared norms `pivot_sq`/`sq_norms`, which
    /// are summed in the same order as [`Distance::dense`] re-derives them
    /// per pair, so the results are bit-identical to calling
    /// [`Distance::dense`] on every row. Euclidean keeps the
    /// numerically-preferable difference form, which never consults the
    /// norms.
    pub fn dense_row_to_all_naive_into(
        self,
        pivot: &[f32],
        pivot_sq: f64,
        m: &DenseMatrix,
        sq_norms: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        out.clear();
        out.reserve(m.n_rows());
        for (r, row) in m.rows().enumerate() {
            let d = match self {
                Distance::Cosine => cosine_distance(dense::dot(pivot, row), pivot_sq, sq_norms[r]),
                Distance::Euclidean => dense::sq_euclidean(pivot, row).sqrt(),
            };
            out.push(d);
        }
    }

    /// Dense row-to-all through the lane-blocked reductions
    /// ([`dense::dot_blocked`] / [`dense::sq_euclidean_blocked`]), into a
    /// caller-owned buffer.
    ///
    /// Deterministic, but blocking reassociates the `f64` sums, so results
    /// may differ from [`Distance::dense_row_to_all_naive_into`] by up to
    /// ~1e-9 relative; rows shorter than [`dense::DOT_LANES`] have no lane
    /// body and match it bitwise. Norms are the cached scalar-order sums,
    /// so the two kernels differ only in the dot / squared-difference
    /// reduction.
    pub fn dense_row_to_all_into(
        self,
        pivot: &[f32],
        pivot_sq: f64,
        m: &DenseMatrix,
        sq_norms: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        out.clear();
        out.reserve(m.n_rows());
        for (r, row) in m.rows().enumerate() {
            out.push(self.dense_blocked(pivot, pivot_sq, row, sq_norms[r]));
        }
    }

    /// Sharded dense row-to-all: one pivot query parallelized over fixed
    /// [`DENSE_SHARD_ROWS`]-row blocks of `m`.
    ///
    /// Dense distances are computed row-independently, so the sharded
    /// result is trivially bit-identical to
    /// [`Distance::dense_row_to_all_into`] under any `NEMO_THREADS`; the
    /// fixed block grid keeps the work distribution itself deterministic.
    /// Small pools (below [`MIN_SHARDED_ROWS`]) and single-threaded
    /// configurations fall back to the serial kernel outright.
    pub fn dense_row_to_all_sharded_into(
        self,
        pivot: &[f32],
        pivot_sq: f64,
        m: &DenseMatrix,
        sq_norms: &[f64],
        out: &mut Vec<f64>,
    ) {
        let n = m.n_rows();
        if n < MIN_SHARDED_ROWS || parallel::num_threads() == 1 {
            return self.dense_row_to_all_into(pivot, pivot_sq, m, sq_norms, out);
        }
        assert_eq!(sq_norms.len(), n, "sq_norms length mismatch");
        out.clear();
        out.resize(n, 0.0);
        parallel::par_for_each_fixed_chunk_mut(out, DENSE_SHARD_ROWS, |lo, out_c| {
            for (i, o) in out_c.iter_mut().enumerate() {
                let r = lo + i;
                *o = self.dense_blocked(pivot, pivot_sq, m.row(r), sq_norms[r]);
            }
        });
    }

    /// One lane-blocked dense distance from cached squared norms.
    #[inline]
    fn dense_blocked(self, pivot: &[f32], pivot_sq: f64, row: &[f32], row_sq: f64) -> f64 {
        match self {
            Distance::Cosine => cosine_distance(dense::dot_blocked(pivot, row), pivot_sq, row_sq),
            Distance::Euclidean => dense::sq_euclidean_blocked(pivot, row).sqrt(),
        }
    }

    /// Batched point-to-all: distances from each of `pivots` (rows of
    /// `src`) to every row of `target`, one vector per pivot, in pivot
    /// order. `src` may be `target` itself or another matrix in the same
    /// feature space; both must share a backing (panics otherwise).
    ///
    /// Sparse pivots run the indexed kernels against the target's
    /// [`CscIndex`]; dense ones the lane-blocked kernels. A batch with
    /// fewer pivots than workers (the common one-LF-per-round interactive
    /// case) shards each query over row ranges of the target; a larger
    /// batch is partitioned over the pivots via [`crate::parallel`], each
    /// worker running the serial kernel with one reused
    /// [`DistanceScratch`]. The results are the same either way — only
    /// the parallel axis moves.
    pub fn point_to_all_many(
        self,
        src: Points<'_>,
        pivots: &[usize],
        target: Points<'_>,
    ) -> Vec<Vec<f64>> {
        match (src, target) {
            (
                Points::Sparse { csr, sq_norms: src_sq, .. },
                Points::Sparse { csc, sq_norms, .. },
            ) => batch(pivots, |p, shard, scratch, out| {
                let pivot = csr.row(p);
                if shard {
                    self.sparse_row_to_all_indexed_sharded_into(
                        &pivot, src_sq[p], csc, sq_norms, scratch, out,
                    );
                } else {
                    self.sparse_row_to_all_indexed_into(
                        &pivot, src_sq[p], csc, sq_norms, scratch, out,
                    );
                }
            }),
            (Points::Dense { m: src_m, sq_norms: src_sq }, Points::Dense { m, sq_norms }) => {
                batch(pivots, |p, shard, _, out| {
                    if shard {
                        self.dense_row_to_all_sharded_into(
                            src_m.row(p),
                            src_sq[p],
                            m,
                            sq_norms,
                            out,
                        );
                    } else {
                        self.dense_row_to_all_into(src_m.row(p), src_sq[p], m, sq_norms, out);
                    }
                })
            }
            // invariant: documented precondition — a dataset's splits share
            // one backing (`Dataset::validate`, the artifact loader).
            _ => panic!("pivot and target points must share a feature backing"),
        }
    }
}

/// One split's feature rows as [`Distance::point_to_all_many`] reads them,
/// with their cached squared row norms.
#[derive(Debug, Clone, Copy)]
pub enum Points<'a> {
    /// Sparse rows plus their column-major companion.
    Sparse {
        /// Row-major rows (pivots are read from here).
        csr: &'a CsrMatrix,
        /// Column-major index (targets are scanned through it).
        csc: &'a CscIndex,
        /// Cached squared row norms.
        sq_norms: &'a [f64],
    },
    /// Dense rows.
    Dense {
        /// Row-major rows.
        m: &'a DenseMatrix,
        /// Cached squared row norms.
        sq_norms: &'a [f64],
    },
}

/// The batching rule: fewer pivots than workers → run each query through
/// its sharded kernel (`shard = true`) one after another; otherwise split
/// the pivots over workers, each running the serial kernel
/// (`shard = false`), so pivot-level workers never nest shard-level ones.
/// `query(pivot, shard, scratch, out)` fills `out` with one pivot's
/// distances; each serial stretch reuses one scratch.
fn batch<F>(pivots: &[usize], query: F) -> Vec<Vec<f64>>
where
    F: Fn(usize, bool, &mut DistanceScratch, &mut Vec<f64>) + Sync,
{
    let run = |chunk: &[usize], shard: bool| -> Vec<Vec<f64>> {
        let mut scratch = DistanceScratch::new();
        chunk
            .iter()
            .map(|&p| {
                let mut out = Vec::new();
                query(p, shard, &mut scratch, &mut out);
                out
            })
            .collect()
    };
    if pivots.len() < parallel::num_threads() {
        return run(pivots, true);
    }
    parallel::par_flat_map_chunks(pivots, 2, |_, chunk| run(chunk, false))
}

/// Cosine distance from precomputed dot product and squared norms.
///
/// Convention for degenerate inputs: if either vector is all-zero the
/// distance is defined as `1.0` (maximally dissimilar but finite), except
/// that the distance from the zero vector to itself is `0.0`. This keeps
/// percentile radii well-defined for empty documents.
fn cosine_distance(dot: f64, sq_a: f64, sq_b: f64) -> f64 {
    if sq_a == 0.0 && sq_b == 0.0 {
        return 0.0;
    }
    if sq_a == 0.0 || sq_b == 0.0 {
        return 1.0;
    }
    let cos = (dot / (sq_a.sqrt() * sq_b.sqrt())).clamp(-1.0, 1.0);
    1.0 - cos
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::SparseVec;
    use proptest::prelude::*;

    fn sv(pairs: &[(u32, f32)], dim: usize) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec(), dim)
    }

    #[test]
    fn cosine_identical_is_zero() {
        let a = sv(&[(0, 1.0), (3, 2.0)], 8);
        let d = Distance::Cosine.sparse(&a.as_row(), &a.as_row());
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        let a = sv(&[(0, 1.0)], 4);
        let b = sv(&[(1, 1.0)], 4);
        let d = Distance::Cosine.sparse(&a.as_row(), &b.as_row());
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_opposite_is_two() {
        let a = sv(&[(0, 1.0)], 4);
        let b = sv(&[(0, -1.0)], 4);
        let d = Distance::Cosine.sparse(&a.as_row(), &b.as_row());
        assert!((d - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_zero_vector_convention() {
        let z = SparseVec::zeros(4);
        let a = sv(&[(0, 1.0)], 4);
        assert_eq!(Distance::Cosine.sparse(&z.as_row(), &a.as_row()), 1.0);
        assert_eq!(Distance::Cosine.sparse(&z.as_row(), &z.as_row()), 0.0);
    }

    #[test]
    fn euclidean_matches_dense_formula() {
        let a = sv(&[(0, 1.0), (1, 2.0)], 4);
        let b = sv(&[(1, 4.0), (3, 2.0)], 4);
        let want = ((1.0f64).powi(2) + (2.0f64 - 4.0).powi(2) + (2.0f64).powi(2)).sqrt();
        let got = Distance::Euclidean.sparse(&a.as_row(), &b.as_row());
        assert!((got - want).abs() < 1e-6);
    }

    /// Naive sparse oracle from row `pivot` of `m` to every row of `m`.
    fn naive(dist: Distance, m: &CsrMatrix, pivot: usize, norms: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        dist.sparse_row_to_all_naive_into(&m.row(pivot), norms[pivot], m, norms, &mut out);
        out
    }

    /// Serial indexed kernel from row `pivot` of `m` to every row of `m`.
    fn indexed(
        dist: Distance,
        m: &CsrMatrix,
        index: &CscIndex,
        pivot: usize,
        norms: &[f64],
        scratch: &mut DistanceScratch,
        out: &mut Vec<f64>,
    ) {
        dist.sparse_row_to_all_indexed_into(
            &m.row(pivot),
            norms[pivot],
            index,
            norms,
            scratch,
            out,
        );
    }

    fn sparse_points<'a>(m: &'a CsrMatrix, index: &'a CscIndex, norms: &'a [f64]) -> Points<'a> {
        Points::Sparse { csr: m, csc: index, sq_norms: norms }
    }

    #[test]
    fn point_to_all_matches_pairwise_sparse() {
        let rows = vec![
            sv(&[(0, 1.0), (2, 1.0)], 8),
            sv(&[(1, 3.0)], 8),
            sv(&[(0, 1.0), (2, 1.0), (5, 2.0)], 8),
            SparseVec::zeros(8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = naive(dist, &m, 0, &norms);
            for (r, row) in rows.iter().enumerate() {
                let pair = dist.sparse(&rows[0].as_row(), &row.as_row());
                assert!((all[r] - pair).abs() < 1e-9, "{dist:?} row {r}");
            }
        }
    }

    /// The scalar dense oracle on cached norms is bit-identical to the
    /// per-pair distance, which re-derives both norms.
    #[test]
    fn dense_point_to_all_matches_pairwise() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let norms = m.row_sq_norms();
        let mut all = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            dist.dense_row_to_all_naive_into(m.row(2), norms[2], &m, &norms, &mut all);
            for (r, &a) in all.iter().enumerate() {
                assert_eq!(a, dist.dense(m.row(2), m.row(r)), "{dist:?} row {r}");
            }
        }
    }

    #[test]
    fn sparse_row_to_all_cross_matrix() {
        let train = CsrMatrix::from_rows(&[sv(&[(0, 1.0), (2, 1.0)], 8)], 8);
        let valid_rows = vec![sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(1, 1.0)], 8)];
        let valid = CsrMatrix::from_rows(&valid_rows, 8);
        let norms = valid.row_sq_norms();
        let pivot = train.row(0);
        let pivot_sq = pivot.sq_norm();
        let mut all = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            dist.sparse_row_to_all_naive_into(&pivot, pivot_sq, &valid, &norms, &mut all);
            for (r, row) in valid_rows.iter().enumerate() {
                let pair = dist.sparse(&pivot, &row.as_row());
                assert!((all[r] - pair).abs() < 1e-9);
            }
        }
    }

    /// The blocked dense kernel from an arbitrary pivot vector stays within
    /// 1e-9 of the per-pair distance.
    #[test]
    fn dense_row_to_all_matches() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]);
        let norms = m.row_sq_norms();
        let pivot = [0.0f32, 1.0];
        let mut all = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            dist.dense_row_to_all_into(&pivot, 1.0, &m, &norms, &mut all);
            for (r, &a) in all.iter().enumerate() {
                assert!((a - dist.dense(&pivot, m.row(r))).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn names_stable() {
        assert_eq!(Distance::Cosine.name(), "cosine");
        assert_eq!(Distance::Euclidean.name(), "euclidean");
    }

    /// The indexed kernel must match the naive scan *bitwise* for every
    /// pivot: both accumulate each row's matching terms in ascending
    /// column order, so the f64 operations are literally the same.
    #[test]
    fn indexed_matches_naive_bitwise() {
        let rows = vec![
            sv(&[(0, 0.3), (2, 1.0), (6, -2.0)], 8),
            sv(&[(1, 3.0)], 8),
            sv(&[(0, 1.0), (2, 1.0), (5, 2.0), (7, 0.25)], 8),
            SparseVec::zeros(8),
            sv(&[(6, 4.0), (7, 1.5)], 8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let mut scratch = DistanceScratch::new();
        let mut out = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in 0..m.n_rows() {
                indexed(dist, &m, &index, pivot, &norms, &mut scratch, &mut out);
                assert_eq!(naive(dist, &m, pivot, &norms), out, "{dist:?} pivot {pivot}");
            }
        }
    }

    /// Zero-norm guard: distances from/to an all-zero row (an empty doc
    /// after tokenization) must be finite and identical between the naive
    /// and indexed kernels for both distance functions.
    #[test]
    fn zero_norm_rows_finite_and_kernel_identical() {
        let rows = vec![
            SparseVec::zeros(6),
            sv(&[(0, 1.0), (3, 2.0)], 6),
            SparseVec::zeros(6),
            sv(&[(3, -1.0)], 6),
        ];
        let m = CsrMatrix::from_rows(&rows, 6);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let mut scratch = DistanceScratch::new();
        let mut out = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in 0..m.n_rows() {
                let naive = naive(dist, &m, pivot, &norms);
                indexed(dist, &m, &index, pivot, &norms, &mut scratch, &mut out);
                for (r, (&a, &b)) in naive.iter().zip(&out).enumerate() {
                    assert!(a.is_finite(), "{dist:?} {pivot}->{r} not finite");
                    assert_eq!(a, b, "{dist:?} {pivot}->{r}");
                }
            }
        }
        // The documented zero-vector convention survives both kernels.
        let z_to_all = naive(Distance::Cosine, &m, 0, &norms);
        assert_eq!(z_to_all[0], 0.0); // zero vs itself
        assert_eq!(z_to_all[2], 0.0); // zero vs the other zero row
        assert_eq!(z_to_all[1], 1.0); // zero vs non-zero
    }

    #[test]
    fn batched_matches_per_pivot_calls() {
        let rows = vec![
            sv(&[(0, 1.0), (2, 1.0)], 8),
            sv(&[(1, 3.0), (7, 0.5)], 8),
            SparseVec::zeros(8),
            sv(&[(0, 2.0), (5, 2.0)], 8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let points = sparse_points(&m, &index, &norms);
        let pivots = [3usize, 0, 2, 1, 3];
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let batch = dist.point_to_all_many(points, &pivots, points);
            assert_eq!(batch.len(), pivots.len());
            for (k, &p) in pivots.iter().enumerate() {
                assert_eq!(batch[k], naive(dist, &m, p, &norms), "pivot {p}");
            }
        }
    }

    #[test]
    fn cross_matrix_indexed_matches_naive() {
        let train = CsrMatrix::from_rows(&[sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(4, 2.0)], 8)], 8);
        let train_norms = train.row_sq_norms();
        let valid_rows =
            vec![sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(1, 1.0)], 8), SparseVec::zeros(8)];
        let valid = CsrMatrix::from_rows(&valid_rows, 8);
        let valid_norms = valid.row_sq_norms();
        let index = CscIndex::from_csr(&valid);
        let mut scratch = DistanceScratch::new();
        let (mut naive, mut indexed) = (Vec::new(), Vec::new());
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for (p, &pivot_sq) in train_norms.iter().enumerate() {
                let pivot = train.row(p);
                dist.sparse_row_to_all_naive_into(
                    &pivot,
                    pivot_sq,
                    &valid,
                    &valid_norms,
                    &mut naive,
                );
                dist.sparse_row_to_all_indexed_into(
                    &pivot,
                    pivot_sq,
                    &index,
                    &valid_norms,
                    &mut scratch,
                    &mut indexed,
                );
                assert_eq!(naive, indexed, "{dist:?} pivot {p}");
            }
        }
    }

    #[test]
    fn into_buffers_are_reused_and_refilled() {
        let rows = vec![sv(&[(0, 1.0)], 4), sv(&[(1, 1.0)], 4)];
        let m = CsrMatrix::from_rows(&rows, 4);
        let norms = m.row_sq_norms();
        let mut out = vec![99.0; 17]; // stale content must be discarded
        Distance::Cosine.sparse_row_to_all_naive_into(&m.row(0), norms[0], &m, &norms, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0].abs() < 1e-12);
    }

    /// The sharded indexed kernel must match the serial indexed kernel
    /// bitwise on a pool large enough to clear the serial-fallback
    /// threshold (the NEMO_THREADS=1 and =4 CI legs then pin both sides
    /// of the fallback).
    #[test]
    fn sharded_indexed_matches_serial_bitwise() {
        let n = MIN_SHARDED_ROWS + 1037;
        let mut state = 7u64;
        let mut next = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let rows: Vec<SparseVec> = (0..n)
            .map(|_| {
                let nnz = next(6) as usize;
                let pairs: Vec<(u32, f32)> =
                    (0..nnz).map(|_| (next(64) as u32, next(100) as f32 / 10.0 - 5.0)).collect();
                SparseVec::from_pairs(pairs, 64)
            })
            .collect();
        let m = CsrMatrix::from_rows(&rows, 64);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let mut scratch = DistanceScratch::new();
        let (mut serial, mut sharded) = (Vec::new(), Vec::new());
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in [0usize, 17, n - 1] {
                indexed(dist, &m, &index, pivot, &norms, &mut scratch, &mut serial);
                dist.sparse_row_to_all_indexed_sharded_into(
                    &m.row(pivot),
                    norms[pivot],
                    &index,
                    &norms,
                    &mut scratch,
                    &mut sharded,
                );
                assert_eq!(serial, sharded, "{dist:?} pivot {pivot}");
            }
        }
    }

    /// Small pools hit the serial fallback and stay bit-identical too.
    #[test]
    fn sharded_indexed_small_pool_fallback() {
        let rows = vec![sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(1, 3.0)], 8), SparseVec::zeros(8)];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let mut scratch = DistanceScratch::new();
        let (mut serial, mut sharded) = (Vec::new(), Vec::new());
        for pivot in 0..rows.len() {
            indexed(Distance::Cosine, &m, &index, pivot, &norms, &mut scratch, &mut serial);
            Distance::Cosine.sparse_row_to_all_indexed_sharded_into(
                &m.row(pivot),
                norms[pivot],
                &index,
                &norms,
                &mut scratch,
                &mut sharded,
            );
            assert_eq!(serial, sharded);
        }
    }

    /// Dense: the blocked kernel stays within the documented 1e-9 relative
    /// tolerance of the scalar oracle, and the sharded kernel is
    /// bit-identical to the serial one.
    #[test]
    fn dense_backend_and_sharded_contracts() {
        let n = MIN_SHARDED_ROWS + 33;
        let d = 19; // not a multiple of DOT_LANES: exercises the tail
        let mut state = 3u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let rows: Vec<Vec<f32>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
        let m = DenseMatrix::from_rows(&rows);
        let norms = m.row_sq_norms();
        let (mut scalar, mut blocked, mut sharded) = (Vec::new(), Vec::new(), Vec::new());
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in [0usize, n / 2] {
                let (row, sq) = (m.row(pivot), norms[pivot]);
                dist.dense_row_to_all_naive_into(row, sq, &m, &norms, &mut scalar);
                dist.dense_row_to_all_into(row, sq, &m, &norms, &mut blocked);
                for (r, (&a, &b)) in scalar.iter().zip(&blocked).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                        "{dist:?} pivot {pivot} row {r}: {a} vs {b}"
                    );
                }
                dist.dense_row_to_all_sharded_into(row, sq, &m, &norms, &mut sharded);
                assert_eq!(blocked, sharded, "{dist:?} pivot {pivot}");
            }
        }
    }

    /// Few-pivot batches route through the sharded kernels and must agree
    /// bitwise with the per-pivot serial kernels, for both backings.
    #[test]
    fn few_pivot_batches_match_per_pivot() {
        let rows = vec![
            sv(&[(0, 1.0), (2, 1.0)], 8),
            sv(&[(1, 3.0), (7, 0.5)], 8),
            SparseVec::zeros(8),
            sv(&[(0, 2.0), (5, 2.0)], 8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let points = sparse_points(&m, &index, &norms);
        let dm = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 1.0]]);
        let dnorms = dm.row_sq_norms();
        let dpoints = Points::Dense { m: &dm, sq_norms: &dnorms };
        for dist in [Distance::Cosine, Distance::Euclidean] {
            // One pivot is always below num_threads() when threads > 1 and
            // equal when threads == 1; either way the result is pinned to
            // the per-pivot serial reference.
            let batch = dist.point_to_all_many(points, &[1], points);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0], naive(dist, &m, 1, &norms));
            let batch = dist.point_to_all_many(dpoints, &[2], dpoints);
            let mut one = Vec::new();
            dist.dense_row_to_all_into(dm.row(2), dnorms[2], &dm, &dnorms, &mut one);
            assert_eq!(batch[0], one, "{dist:?}");
        }
    }

    /// Dense rows shorter than `DOT_LANES` never enter the lane body, so
    /// the batched blocked path matches the scalar oracle bitwise there.
    #[test]
    fn dense_cached_matches_plain() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 0.0]]);
        let norms = m.row_sq_norms();
        let points = Points::Dense { m: &m, sq_norms: &norms };
        let mut out = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let batch = dist.point_to_all_many(points, &[2, 0], points);
            for (k, p) in [2usize, 0].into_iter().enumerate() {
                dist.dense_row_to_all_naive_into(m.row(p), norms[p], &m, &norms, &mut out);
                assert_eq!(batch[k], out, "{dist:?} pivot {p}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "share a feature backing")]
    fn mixed_backings_are_rejected() {
        let m = CsrMatrix::from_rows(&[sv(&[(0, 1.0)], 2)], 2);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let dm = DenseMatrix::from_rows(&[vec![1.0, 0.0]]);
        let dense = Points::Dense { m: &dm, sq_norms: &norms };
        Distance::Cosine.point_to_all_many(sparse_points(&m, &index, &norms), &[0], dense);
    }

    proptest! {
        #[test]
        fn prop_cosine_in_range(
            a in proptest::collection::vec((0u32..32, -5.0f32..5.0), 1..12),
            b in proptest::collection::vec((0u32..32, -5.0f32..5.0), 1..12),
        ) {
            let va = SparseVec::from_pairs(a, 32);
            let vb = SparseVec::from_pairs(b, 32);
            let d = Distance::Cosine.sparse(&va.as_row(), &vb.as_row());
            prop_assert!((-1e-9..=2.0 + 1e-9).contains(&d));
        }

        #[test]
        fn prop_euclidean_symmetric_nonneg(
            a in proptest::collection::vec((0u32..32, -5.0f32..5.0), 0..12),
            b in proptest::collection::vec((0u32..32, -5.0f32..5.0), 0..12),
        ) {
            let va = SparseVec::from_pairs(a, 32);
            let vb = SparseVec::from_pairs(b, 32);
            let d1 = Distance::Euclidean.sparse(&va.as_row(), &vb.as_row());
            let d2 = Distance::Euclidean.sparse(&vb.as_row(), &va.as_row());
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-9);
        }

        #[test]
        fn prop_euclidean_triangle_inequality(
            a in proptest::collection::vec((0u32..16, -3.0f32..3.0), 0..8),
            b in proptest::collection::vec((0u32..16, -3.0f32..3.0), 0..8),
            c in proptest::collection::vec((0u32..16, -3.0f32..3.0), 0..8),
        ) {
            let va = SparseVec::from_pairs(a, 16);
            let vb = SparseVec::from_pairs(b, 16);
            let vc = SparseVec::from_pairs(c, 16);
            let ab = Distance::Euclidean.sparse(&va.as_row(), &vb.as_row());
            let bc = Distance::Euclidean.sparse(&vb.as_row(), &vc.as_row());
            let ac = Distance::Euclidean.sparse(&va.as_row(), &vc.as_row());
            prop_assert!(ac <= ab + bc + 1e-6);
        }
    }
}
