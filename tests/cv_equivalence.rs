//! Equivalence tests for the fast CV scoring path against the naive
//! oracle.
//!
//! The fast path (per-fold sufficient statistics reduced to five scalars
//! per (fold, ν₀), then O(1) arithmetic per candidate and fold — see
//! `bmf_core::cv`) reassociates the arithmetic the naive per-candidate
//! refit performs, so bit-identity between the two is not achievable —
//! the contract is:
//!
//! * every grid score agrees to a 1e-10 relative tolerance (−∞ scores
//!   must coincide exactly);
//! * the selected `(κ₀, ν₀)` agrees whenever the naive score surface has
//!   a non-degenerate argmax (margin > 1e-8);
//! * the fast path itself stays **bit-identical** across 1, 2 and 7
//!   threads (the (repeat × fold) work split must not perturb the
//!   reduction order).
//!
//! Cases deliberately include ν₀ just above the `ν₀ > d` feasibility
//! floor, infeasible ν₀ ≤ d values and `n < Q` (shrunken fold counts),
//! plus three stress cases for the expanded trace forms: a large sample
//! (n = 256, d = 5), an early mean far off the data (where the residual
//! sums cancel hardest) and singular training scatter (`n_train < d`)
//! with ν₀ barely above d.

use bmf_ams::core::cv::CrossValidation;
use bmf_ams::core::MomentEstimate;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::stats::MultivariateNormal;
use proptest::prelude::*;
use rand::SeedableRng;

fn synthetic(d: usize, n: usize, seed: u64) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 5) as f64 / 5.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    let early = MomentEstimate {
        mean: Vector::from_fn(d, |i| 0.2 * (i as f64 + 1.0)),
        cov: cov.clone(),
    };
    let truth = MultivariateNormal::new(Vector::zeros(d), cov).expect("spd");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = truth.sample_matrix(&mut rng, n);
    (early, samples)
}

/// Selects the grid values whose bit is set in `mask` (non-empty by
/// construction since masks are drawn from 1..16).
fn masked(all: &[f64; 4], mask: u8) -> Vec<f64> {
    all.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &v)| v)
        .collect()
}

/// The per-case body of `fast_path_matches_naive_oracle` for a feasible
/// grid: fast bit-identity across threads, grid-score agreement to
/// 1e-10, and argmax agreement away from near-ties.
fn check_fast_vs_naive(
    fast_cv: &CrossValidation,
    naive_cv: &CrossValidation,
    early: &MomentEstimate,
    late: &Matrix,
    seed: u64,
) {
    let naive = naive_cv.select_seeded(early, late, seed, 1).expect("naive");
    let reference = fast_cv.select_seeded(early, late, seed, 1).expect("fast");
    for &t in &[2usize, 7] {
        let sel = fast_cv.select_seeded(early, late, seed, t).expect("fast");
        assert_eq!(
            sel, reference,
            "fast path must be bit-identical at {t} threads"
        );
    }

    assert_eq!(reference.grid.len(), naive.grid.len());
    let mut best_naive = f64::NEG_INFINITY;
    let mut second_naive = f64::NEG_INFINITY;
    for (f, nv) in reference.grid.iter().zip(naive.grid.iter()) {
        assert_eq!(f.kappa0.to_bits(), nv.kappa0.to_bits());
        assert_eq!(f.nu0.to_bits(), nv.nu0.to_bits());
        if nv.score.is_finite() {
            let tol = 1e-10 * nv.score.abs().max(1.0);
            assert!(
                (f.score - nv.score).abs() <= tol,
                "grid point ({}, {}): fast {} vs naive {}",
                f.kappa0,
                f.nu0,
                f.score,
                nv.score
            );
        } else {
            assert_eq!(
                f.score.to_bits(),
                nv.score.to_bits(),
                "non-finite scores must coincide at ({}, {})",
                f.kappa0,
                f.nu0
            );
        }
        if nv.score > best_naive {
            second_naive = best_naive;
            best_naive = nv.score;
        } else if nv.score > second_naive {
            second_naive = nv.score;
        }
    }
    // The argmax must agree except on a near-tied surface, where a
    // ≤1e-10 perturbation may legitimately flip it.
    if best_naive - second_naive > 1e-8 {
        assert_eq!(reference.kappa0.to_bits(), naive.kappa0.to_bits());
        assert_eq!(reference.nu0.to_bits(), naive.nu0.to_bits());
    }
}

proptest! {
    /// Fast vs naive: same grids, same seed — scores within 1e-10, same
    /// argmax away from ties, and the fast path bit-identical at 1/2/7
    /// threads. d = 3; ν₀ = 3.02 sits just above the feasibility floor
    /// and ν₀ = 2.5 below it; n as small as 2 exercises n < Q = 4.
    #[test]
    fn fast_path_matches_naive_oracle(
        seed in 0u64..10_000,
        n in 2usize..12,
        kmask in 1u8..16,
        nmask in 1u8..16,
    ) {
        let d = 3;
        let kappa = masked(&[0.7, 4.67, 55.0, 900.0], kmask);
        let nu = masked(&[2.5, 3.02, 12.0, 420.0], nmask);
        let (early, late) = synthetic(d, n, seed ^ 0xC0FE);
        let fast_cv = CrossValidation::with_repeats(kappa, nu, 4, 2).expect("cv");
        let naive_cv = fast_cv.clone().with_naive_scoring(true);

        if fast_cv.feasible_candidate_count(d) == 0 {
            // Only the infeasible ν₀ survived the mask: both paths must
            // reject the grid (and blame the grid, not scoring).
            for cv in [&fast_cv, &naive_cv] {
                let err = cv.select_seeded(&early, &late, seed, 1).expect_err("infeasible");
                prop_assert!(err.to_string().contains("no feasible"));
            }
        } else {
            check_fast_vs_naive(&fast_cv, &naive_cv, &early, &late, seed);
        }
    }
}

/// Regression: when every candidate fails to score (all-NaN late
/// samples), the error must name the failing stage instead of
/// misdiagnosing a perfectly feasible grid.
#[test]
fn all_nan_samples_error_names_scoring_stage_not_grid() {
    let (early, _) = synthetic(2, 8, 1);
    let late = Matrix::from_fn(8, 2, |_, _| f64::NAN);
    let cv = CrossValidation::new(vec![1.0, 10.0], vec![5.0, 50.0], 4).unwrap();
    for naive in [false, true] {
        let err = cv
            .clone()
            .with_naive_scoring(naive)
            .select_seeded(&early, &late, 3, 1)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("failed to score"),
            "naive = {naive}: expected a scoring diagnosis, got: {msg}"
        );
        assert!(
            msg.contains("failing stage"),
            "naive = {naive}: expected the failing stage to be named, got: {msg}"
        );
        assert!(
            !msg.contains("no feasible"),
            "naive = {naive}: must not blame a feasible grid, got: {msg}"
        );
    }
}

/// Stress: a large late sample in five dimensions on the default
/// (paper) grid — the per-fold sums now run over 64 held-out rows.
#[test]
fn stress_large_sample_in_five_dimensions() {
    let d = 5;
    let cv = CrossValidation::default();
    let naive_cv = cv.clone().with_naive_scoring(true);
    for seed in [3u64, 4] {
        let (early, late) = synthetic(d, 256, seed);
        check_fast_vs_naive(&cv, &naive_cv, &early, &late, seed);
    }
}

/// Stress: the early mean sits 12σ off the data. Then `g = δᵀM⁻¹δ` is
/// large and, at large κ₀, `w = κ₀/(κ₀+n) → 1`, so the expanded sums
/// `Σ‖e‖²` and `Σ(e·ẑ)²` and their Sherman–Morrison difference cancel
/// hardest.
#[test]
fn stress_early_mean_far_off() {
    let d = 3;
    let cv =
        CrossValidation::with_repeats(vec![0.7, 4.67, 1000.0, 1e6], vec![3.02, 12.0, 420.0], 4, 2)
            .expect("cv");
    let naive_cv = cv.clone().with_naive_scoring(true);
    for seed in 0..6u64 {
        let (mut early, late) = synthetic(d, 16, seed ^ 0xFA12);
        for i in 0..d {
            early.mean[i] += 12.0 * early.cov[(i, i)].sqrt();
        }
        check_fast_vs_naive(&cv, &naive_cv, &early, &late, seed);
    }
}

/// Stress: fewer training rows than dimensions, so each fold's training
/// scatter `S` is singular and `M(ν₀) = S + (ν₀−d)Σ_E` is held SPD only
/// by a tiny multiple of Σ_E when ν₀ is barely above d.
#[test]
fn stress_singular_training_scatter_with_nu_just_above_d() {
    let d = 5;
    let cv = CrossValidation::with_repeats(vec![0.7, 4.67, 55.0], vec![5.001, 5.02, 12.0], 4, 2)
        .expect("cv");
    let naive_cv = cv.clone().with_naive_scoring(true);
    for (seed, n) in (0..8u64).zip([2usize, 3, 4, 5, 2, 3, 4, 5]) {
        let (early, late) = synthetic(d, n, seed ^ 0x51A6);
        // n_train = n − |held-out fold| < d for every split.
        check_fast_vs_naive(&cv, &naive_cv, &early, &late, seed);
    }
}
