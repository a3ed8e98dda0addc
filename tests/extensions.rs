//! Integration tests for the analysis modules beside the estimator,
//! exercised on real circuit data: moment-based yield against the
//! empirical spec-box yield, Gaussianity diagnostics and PCA.

use bmf_ams::circuits::monte_carlo::{run_monte_carlo, Stage};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::diagnostics::mardia_test;
use bmf_ams::core::prelude::*;
use bmf_ams::core::yield_estimation::estimate_yield;
use bmf_ams::linalg::Matrix;
use bmf_ams::stats::descriptive;
use bmf_ams::stats::pca::Pca;
use rand::SeedableRng;

fn opamp_pools(seed: u64, n: usize) -> (Matrix, Matrix) {
    let tb = OpAmpTestbench::default_45nm();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let early = run_monte_carlo(&tb, Stage::Schematic, n, &mut rng).expect("early");
    let late = run_monte_carlo(&tb, Stage::PostLayout, n, &mut rng).expect("late");
    (early.samples, late.samples)
}

#[test]
fn moment_based_yield_matches_empirical_spec_box_yield() {
    // Gaussian yield from the moments of an op-amp pool must land near
    // the fraction of that pool's dies that pass the spec box.
    let (_, late_pool) = opamp_pools(2, 1200);
    let specs = SpecLimits::new(
        vec![Some(82.0), None, None, Some(-5e-3), Some(64.0)],
        vec![None, None, Some(1.30e-4), Some(5e-3), None],
    )
    .expect("specs");

    let mut passes = 0usize;
    for i in 0..late_pool.nrows() {
        if specs.passes(&late_pool.row_vec(i)) {
            passes += 1;
        }
    }
    let reference = passes as f64 / late_pool.nrows() as f64;
    assert!(
        reference > 0.2 && reference < 0.995,
        "reference = {reference}"
    );

    let moments = MomentEstimate {
        mean: descriptive::mean_vector(&late_pool).expect("mean"),
        cov: descriptive::covariance_mle(&late_pool).expect("cov"),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let gauss = estimate_yield(&moments, &specs, 40_000, &mut rng).expect("yield");
    assert!(
        (gauss.yield_fraction - reference).abs() < 0.05,
        "gaussian-model yield {} vs empirical {reference}",
        gauss.yield_fraction
    );
}

#[test]
fn mardia_diagnostics_run_on_both_stages() {
    let (early_pool, late_pool) = opamp_pools(4, 500);
    let e = mardia_test(&early_pool).expect("early test");
    let l = mardia_test(&late_pool).expect("late test");
    // The substrate is near-Gaussian by construction; kurtosis must sit
    // near d(d+2) = 35 for both stages.
    assert!((e.kurtosis - 35.0).abs() < 8.0, "early b2 = {}", e.kurtosis);
    assert!((l.kurtosis - 35.0).abs() < 8.0, "late b2 = {}", l.kurtosis);
}

#[test]
fn pca_compresses_opamp_metrics() {
    // Standardise first (metrics span orders of magnitude), then check
    // that a couple of process-driven components dominate.
    let (early_pool, _) = opamp_pools(7, 1000);
    let sd = descriptive::column_stddevs(&early_pool).expect("sd");
    let mean = descriptive::mean_vector(&early_pool).expect("mean");
    let t = ShiftScale::new(mean, sd).expect("transform");
    let norm = t.apply_samples(&early_pool).expect("norm");
    let pca = Pca::fit(&norm).expect("pca");
    let k = pca.components_for_variance(0.9);
    assert!(
        k <= 3,
        "5 op-amp metrics should compress to <= 3 components for 90 % variance, got {k}"
    );
    // Projection round-trip sanity.
    let scores = pca.transform(&norm, k).expect("scores");
    assert_eq!(scores.shape(), (1000, k));
}
