//! Differential property suite for warm-started EM, the incremental
//! path of the contextualized rounds' percentile tuning:
//! `GenerativeModel::fit_em` seeded from a previous fit must converge to
//! the same fixed point as a cold fit, within the EM tolerance (not
//! bitwise — the iteration paths differ), over random planted label
//! matrices and random seed sources (the same matrix's fit, and a
//! perturbed matrix's fit).
//!
//! The full-session counterpart lives in `tests/incremental_paths.rs`.

use nemo::labelmodel::{FittedLabelModel, GenerativeModel};
use nemo::lf::{Label, LabelMatrix, LfColumn};
use nemo::sparse::DetRng;
use proptest::prelude::*;

/// Random planted label matrix: `n` examples, per-LF accuracy/coverage.
fn planted_matrix(n: usize, specs: &[(f64, f64)], rng: &mut DetRng) -> LabelMatrix {
    let labels: Vec<Label> = (0..n).map(|_| Label::from_bool(rng.bernoulli(0.5))).collect();
    let mut matrix = LabelMatrix::new(n);
    for &(acc, cov) in specs {
        let mut entries = Vec::new();
        for (i, &y) in labels.iter().enumerate() {
            if rng.bernoulli(cov) {
                let vote = if rng.bernoulli(acc) { y.sign() } else { y.flip().sign() };
                entries.push((i as u32, vote));
            }
        }
        matrix.push(LfColumn::new(entries));
    }
    matrix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_warm_em_parameters_match_cold_within_tolerance(
        seed in 0u64..1_000_000,
        n_lfs in 2usize..6,
        drop in 0.0f64..0.3,
    ) {
        let mut rng = DetRng::new(seed);
        let specs: Vec<(f64, f64)> = (0..n_lfs)
            .map(|_| (0.6 + 0.3 * rng.uniform(), 0.2 + 0.5 * rng.uniform()))
            .collect();
        let matrix = planted_matrix(600, &specs, &mut rng);
        // Uncapped model: warm/cold equivalence is a statement about the
        // shared fixed point, so both fits must actually reach it.
        let model = GenerativeModel { n_iters: 5000, ..Default::default() };
        let (cold, cold_iters) = model.fit_em(&matrix, [0.5, 0.5], None);
        prop_assert!(cold_iters < 5000, "cold fit never converged");

        // Seed source A: the cold fit itself (the within-round chaining
        // case — tune_p's adjacent grid points share most of the matrix).
        let (warm_same, same_iters) =
            model.fit_em(&matrix, [0.5, 0.5], Some(cold.lf_accuracies()));
        prop_assert!(
            same_iters <= 3,
            "re-fit from the fixed point took {} iterations",
            same_iters
        );

        // Seed source B: a fit of a *perturbed* matrix (the cross-round
        // case — the previous round's matrix differs by dropped votes).
        let perturbed = {
            let mut m = LabelMatrix::new(matrix.n_examples());
            for col in matrix.columns() {
                let kept: Vec<(u32, i8)> = col
                    .entries()
                    .iter()
                    .copied()
                    .filter(|_| !rng.bernoulli(drop))
                    .collect();
                m.push(LfColumn::new(kept));
            }
            m
        };
        let (seed_fit, _) = model.fit_em(&perturbed, [0.5, 0.5], None);
        let (warm_cross, _) =
            model.fit_em(&matrix, [0.5, 0.5], Some(seed_fit.lf_accuracies()));

        // The Aitken-accelerated iteration (the default) and the plain
        // fixed-point iteration must land on the same parameters.
        let plain_model = GenerativeModel { accel: false, ..model.clone() };
        let (plain, _) = plain_model.fit_em(&matrix, [0.5, 0.5], None);
        for (a, p) in cold.lf_accuracies().iter().zip(plain.lf_accuracies()) {
            prop_assert!(
                (a - p).abs() < 1e-3,
                "accelerated {} vs plain {} diverged", a, p
            );
        }

        for (j, &c) in cold.lf_accuracies().iter().enumerate() {
            let a = warm_same.lf_accuracies()[j];
            let b = warm_cross.lf_accuracies()[j];
            prop_assert!(
                (a - c).abs() < 1e-3,
                "LF {}: same-matrix warm {} vs cold {}", j, a, c
            );
            prop_assert!(
                (b - c).abs() < 1e-3,
                "LF {}: cross-matrix warm {} vs cold {}", j, b, c
            );
        }

        // The posteriors the downstream pipeline consumes agree too.
        let p_cold = cold.predict(&matrix);
        let p_warm = warm_cross.predict(&matrix);
        for i in 0..matrix.n_examples() {
            prop_assert!(
                (p_cold.p_pos(i) - p_warm.p_pos(i)).abs() < 1e-3,
                "posterior diverged at example {}", i
            );
        }
    }
}
