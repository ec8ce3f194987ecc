//! Core dataset types.
//!
//! A [`Dataset`] is the unit the IDP protocol runs on: an unlabeled
//! training split (ground-truth labels are present but only the simulated
//! user / oracle may read them), a labeled validation split (hyperparameter
//! selection, e.g. the contextualizer's percentile `p`), and a held-out
//! test split for the learning curves. Each split carries feature vectors
//! (TF-IDF or dense embeddings) and a [`PrimitiveCorpus`] over the shared
//! primitive domain `Z`.

use nemo_lf::{Label, Metric, PrimitiveCorpus};
use nemo_sparse::{CscIndex, CsrMatrix, DenseMatrix, Distance, Points, SparseVec};

/// Feature vectors for one split. The canonical storage is CSR (sparse);
/// dense features (the VG substitute's embeddings) additionally keep the
/// dense form so distance kernels can use the cheaper dense path.
///
/// Sparse-backed features also carry the column-major [`CscIndex`]
/// companion (built once here), so every distance query runs through the
/// inverted-index kernel: only the posting lists of the pivot's nonzero
/// terms are walked. Dense-backed features run the lane-blocked dense
/// kernel. [`Features::distances`] is the one distance query; the naive
/// kernels it is checked against are `nemo_core::reference::distances`.
#[derive(Debug, Clone)]
pub struct Features {
    csr: CsrMatrix,
    dense: Option<DenseMatrix>,
    /// Column-major companion; `Some` iff the features are sparse-backed
    /// (dense-backed splits use the dense distance path instead).
    csc: Option<CscIndex>,
    sq_norms: Vec<f64>,
}

impl Features {
    /// Wrap a sparse feature matrix, building its column-major companion.
    pub fn from_csr(csr: CsrMatrix) -> Self {
        let sq_norms = csr.row_sq_norms();
        let csc = Some(CscIndex::from_csr(&csr));
        Self { csr, dense: None, csc, sq_norms }
    }

    /// Wrap dense features, keeping a CSR mirror for model code that
    /// consumes sparse rows uniformly.
    pub fn from_dense(dense: DenseMatrix) -> Self {
        let rows: Vec<SparseVec> = dense
            .rows()
            .map(|r| {
                let pairs: Vec<(u32, f32)> = r
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(i, &v)| (i as u32, v))
                    .collect();
                SparseVec::from_pairs(pairs, dense.n_cols())
            })
            .collect();
        let csr = CsrMatrix::from_rows(&rows, dense.n_cols());
        let sq_norms = csr.row_sq_norms();
        Self { csr, dense: Some(dense), csc: None, sq_norms }
    }

    /// Reassemble features from persisted parts without recomputing the
    /// norms or the column-major companion — the fast-load path of the
    /// artifact store. Validates the cross-buffer invariants
    /// ([`Features::from_csr`]/[`Features::from_dense`] establish them by
    /// construction); returns `Err` instead of panicking so corrupted
    /// artifacts surface as typed load errors.
    pub fn from_parts(
        csr: CsrMatrix,
        dense: Option<DenseMatrix>,
        csc: Option<CscIndex>,
        sq_norms: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if sq_norms.len() != csr.n_rows() {
            return Err("row-norm cache length does not match row count");
        }
        if sq_norms.iter().any(|&n| !n.is_finite() || n < 0.0) {
            return Err("row norm must be finite and non-negative");
        }
        match (&dense, &csc) {
            (Some(d), None) => {
                if d.n_rows() != csr.n_rows() || d.n_cols() != csr.n_cols() {
                    return Err("dense mirror shape does not match CSR");
                }
            }
            (None, Some(c)) => {
                if c.n_rows() != csr.n_rows() || c.n_cols() != csr.n_cols() || c.nnz() != csr.nnz()
                {
                    return Err("CSC companion shape does not match CSR");
                }
            }
            // The distance dispatch relies on exactly one of the two being
            // present (see `Features::points`).
            (Some(_), Some(_)) => return Err("features cannot be both dense- and CSC-backed"),
            (None, None) => return Err("sparse-backed features require a CSC companion"),
        }
        Ok(Self { csr, dense, csc, sq_norms })
    }

    /// Number of examples.
    pub fn n(&self) -> usize {
        self.csr.n_rows()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.csr.n_cols()
    }

    /// Sparse view (always available).
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// Dense view, if the features were constructed dense.
    pub fn dense(&self) -> Option<&DenseMatrix> {
        self.dense.as_ref()
    }

    /// Cached squared row norms.
    pub fn sq_norms(&self) -> &[f64] {
        &self.sq_norms
    }

    /// Column-major companion index (`Some` iff sparse-backed).
    pub fn csc(&self) -> Option<&CscIndex> {
        self.csc.as_ref()
    }

    /// Distances from each of `pivots` (examples of this split) to every
    /// example of `target`, one vector per pivot, in pivot order. Pass
    /// `target = self` for distances within the split (train → train) and
    /// another split of the same dataset for cross-split ones (train →
    /// valid). Runs [`Distance::point_to_all_many`]: the indexed kernel for
    /// sparse-backed splits, the lane-blocked kernel for dense-backed ones.
    ///
    /// Precondition: `target` has this split's feature width and backing
    /// (dense or sparse). The splits of a [`Dataset`] always do
    /// ([`Dataset::validate`]; the artifact loader rejects files that
    /// break it). Panics otherwise.
    pub fn distances(&self, dist: Distance, pivots: &[usize], target: &Features) -> Vec<Vec<f64>> {
        assert_eq!(self.dim(), target.dim(), "pivot and target features differ in width");
        dist.point_to_all_many(self.points(), pivots, target.points())
    }

    /// The rows, their backing, and their cached norms, as the batched
    /// distance kernels read them.
    fn points(&self) -> Points<'_> {
        match (&self.dense, &self.csc) {
            (Some(m), _) => Points::Dense { m, sq_norms: &self.sq_norms },
            (None, Some(csc)) => Points::Sparse { csr: &self.csr, csc, sq_norms: &self.sq_norms },
            // invariant: the constructor builds a CscIndex whenever the
            // split has no dense mirror.
            (None, None) => unreachable!("sparse-backed features always carry a CscIndex"),
        }
    }
}

/// One split of a dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Ground-truth labels. For the training split these are *oracle-only*:
    /// IDP methods never read them directly; the simulated user does.
    pub labels: Vec<Label>,
    /// Feature vectors.
    pub features: Features,
    /// Primitive sets + inverted index over the shared domain `Z`.
    pub corpus: PrimitiveCorpus,
    /// Generator metadata: latent cluster of each example (used only by
    /// analysis benches such as Fig. 3/6, never by the methods).
    pub clusters: Vec<u32>,
}

impl Split {
    /// Number of examples.
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Empirical fraction of positive labels.
    pub fn pos_frac(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l == Label::Pos).count() as f64 / self.labels.len() as f64
    }

    /// Internal consistency check (sizes line up across fields).
    pub fn validate(&self) {
        assert_eq!(self.labels.len(), self.features.n(), "labels vs features");
        assert_eq!(self.labels.len(), self.corpus.len(), "labels vs corpus");
        assert_eq!(self.labels.len(), self.clusters.len(), "labels vs clusters");
    }
}

/// A complete dataset: three splits over a shared primitive domain.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name ("Amazon", "SMS", …).
    pub name: String,
    /// Evaluation metric (accuracy; F1 for the imbalanced SMS task).
    pub metric: Metric,
    /// Unlabeled-for-methods training split (the IDP pool `U`).
    pub train: Split,
    /// Labeled validation split (hyperparameter selection).
    pub valid: Split,
    /// Held-out test split (learning curves).
    pub test: Split,
    /// Size of the primitive domain `Z`.
    pub n_primitives: usize,
    /// Display name per primitive id (token or object tag).
    pub primitive_names: Vec<String>,
    /// Sorted primitive ids of class-indicative "lexicon" entries the
    /// simulated user may consult (paper Appendix C); empty when the task
    /// has no lexicon.
    pub lexicon: Vec<u32>,
    /// Class prior `P(y = +1)` estimated from the validation labels
    /// (the label prior the SEU user model uses).
    pub class_prior_pos: f64,
}

impl Dataset {
    /// Validate cross-split invariants; panics on inconsistency.
    pub fn validate(&self) {
        self.train.validate();
        self.valid.validate();
        self.test.validate();
        let train = &self.train.features;
        for split in [&self.valid, &self.test] {
            assert_eq!(split.features.dim(), train.dim(), "split feature width differs from train");
            assert_eq!(
                split.features.dense().is_some(),
                train.dense().is_some(),
                "split feature backing differs from train"
            );
        }
        assert_eq!(self.train.corpus.n_primitives(), self.n_primitives);
        assert_eq!(self.valid.corpus.n_primitives(), self.n_primitives);
        assert_eq!(self.test.corpus.n_primitives(), self.n_primitives);
        assert_eq!(self.primitive_names.len(), self.n_primitives);
        for w in self.lexicon.windows(2) {
            assert!(w[0] < w[1], "lexicon must be sorted unique");
        }
        if let Some(&max) = self.lexicon.last() {
            assert!((max as usize) < self.n_primitives);
        }
        assert!((0.0..=1.0).contains(&self.class_prior_pos));
    }

    /// The class prior as a `[P(y=−1), P(y=+1)]` array.
    pub fn prior(&self) -> [f64; 2] {
        [1.0 - self.class_prior_pos, self.class_prior_pos]
    }

    /// Display name of primitive `z`.
    pub fn primitive_name(&self, z: u32) -> &str {
        &self.primitive_names[z as usize]
    }

    /// Whether primitive `z` is in the lexicon.
    pub fn in_lexicon(&self, z: u32) -> bool {
        self.lexicon.binary_search(&z).is_ok()
    }

    /// One-line statistics row (Table 1): name, #train, #valid, #test.
    pub fn stats_row(&self) -> (String, usize, usize, usize) {
        (self.name.clone(), self.train.n(), self.valid.n(), self.test.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_sparse::DenseMatrix;

    fn tiny_features_sparse() -> Features {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0)], 3),
            SparseVec::from_pairs(vec![(1, 1.0)], 3),
        ];
        Features::from_csr(CsrMatrix::from_rows(&rows, 3))
    }

    #[test]
    fn features_from_dense_mirrors_csr() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 0.0, 0.0]]);
        let f = Features::from_dense(d);
        assert_eq!(f.n(), 2);
        assert_eq!(f.dim(), 3);
        assert_eq!(f.csr().row(0).nnz(), 2);
        assert_eq!(f.csr().row(1).nnz(), 0);
        assert!(f.dense().is_some());
    }

    #[test]
    fn dense_and_sparse_distances_agree() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let fd = Features::from_dense(d);
        // Rebuild as pure sparse.
        let fs = Features::from_csr(fd.csr().clone());
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let a = &fd.distances(dist, &[2], &fd)[0];
            let b = &fs.distances(dist, &[2], &fs)[0];
            for (x, y) in a.iter().zip(b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn point_to_other_cross_split() {
        let f1 = tiny_features_sparse();
        let f2 = tiny_features_sparse();
        let d = &f1.distances(Distance::Cosine, &[0], &f2)[0];
        assert!(d[0].abs() < 1e-9); // identical vector
        assert!((d[1] - 1.0).abs() < 1e-9); // orthogonal
    }

    #[test]
    fn sparse_features_carry_csc_dense_do_not() {
        let fs = tiny_features_sparse();
        let csc = fs.csc().expect("sparse-backed features build a CscIndex");
        assert_eq!(csc.n_rows(), fs.n());
        assert_eq!(csc.nnz(), fs.csr().nnz());
        let fd = Features::from_dense(DenseMatrix::from_rows(&[vec![1.0, 0.0]]));
        assert!(fd.csc().is_none());
    }

    /// Dense-backed splits: a whole-split batch, one pivot at a time, and
    /// a cross-split target holding the same rows all agree bitwise, and
    /// stay within 1e-9 of the per-pair distance.
    #[test]
    fn dense_backed_paths_identical() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 0.0]]);
        let f = Features::from_dense(d.clone());
        let other = f.clone();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let pivots: Vec<usize> = (0..f.n()).collect();
            let many = f.distances(dist, &pivots, &f);
            assert_eq!(many, f.distances(dist, &pivots, &other), "{dist:?} cross-split");
            for (p, m_row) in many.iter().enumerate() {
                assert_eq!(m_row, &f.distances(dist, &[p], &f)[0], "{dist:?} pivot {p}");
                for (r, &x) in m_row.iter().enumerate() {
                    assert!((x - dist.dense(d.row(p), d.row(r))).abs() < 1e-9, "{dist:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in width")]
    fn distances_reject_a_target_of_another_width() {
        let narrow = Features::from_csr(CsrMatrix::from_rows(&[SparseVec::zeros(2)], 2));
        tiny_features_sparse().distances(Distance::Cosine, &[0], &narrow);
    }

    #[test]
    fn split_pos_frac() {
        let split = Split {
            labels: vec![Label::Pos, Label::Neg, Label::Pos, Label::Pos],
            features: {
                let rows: Vec<SparseVec> = (0..4).map(|_| SparseVec::zeros(2)).collect();
                Features::from_csr(CsrMatrix::from_rows(&rows, 2))
            },
            corpus: PrimitiveCorpus::new(vec![vec![]; 4], 2),
            clusters: vec![0; 4],
        };
        split.validate();
        assert!((split.pos_frac() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "labels vs features")]
    fn split_validate_catches_mismatch() {
        let split = Split {
            labels: vec![Label::Pos],
            features: tiny_features_sparse(),
            corpus: PrimitiveCorpus::new(vec![vec![]], 2),
            clusters: vec![0],
        };
        split.validate();
    }

    #[test]
    fn dataset_validate_catches_mixed_split_features() {
        let ds = crate::catalog::toy_text(1);
        ds.validate();
        let n = ds.valid.n();
        let narrow = Features::from_csr(CsrMatrix::from_rows(&vec![SparseVec::zeros(2); n], 2));
        let dense = Features::from_dense(DenseMatrix::zeros(n, ds.train.features.dim()));
        for (features, msg) in [(narrow, "width"), (dense, "backing")] {
            let mut bad = ds.clone();
            bad.valid.features = features;
            let err = std::panic::catch_unwind(|| bad.validate()).expect_err(msg);
            let text = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(text.contains(msg), "{msg}: {text}");
        }
    }
}
