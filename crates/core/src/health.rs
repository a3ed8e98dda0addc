//! Per-run estimator health assessment.
//!
//! [`assess`] computes the statistical [`HealthReport`] the pipeline
//! attaches to every successful fusion: prior–data conflict under the
//! prior predictive, effective sample size and shrinkage of the
//! normal-Wishart posterior, the eigenspectrum of the fused covariance,
//! the CV surface summary, and a distilled data-quality verdict. The
//! report *types* and severity thresholds live in [`bmf_obs::health`];
//! this module owns the math.
//!
//! The assessment is strictly read-only: it consumes moments and reports
//! the pipeline already produced, touches no RNG stream, and its outputs
//! are never fed back into an estimate — so health monitoring cannot
//! change a single bit of any result (the `tests/health.rs` bit-identity
//! suite enforces this).

use crate::cv::HyperParameterSelection;
use crate::guard::DataQualityReport;
use crate::suffstats::SufficientStats;
use crate::{MomentEstimate, Result};
use bmf_linalg::{Cholesky, SymmetricEigen};
use bmf_obs::health::{
    classify_conflict, classify_data_quality, classify_shrinkage, classify_spectrum,
    CovarianceSpectrum, DataQualityHealth, EffectiveSampleSize, HealthReport, PriorDataConflict,
};
use bmf_stats::special::chi_squared_cdf;

/// Computes the [`HealthReport`] for one fusion run.
///
/// * `early` — the (possibly repaired) early-stage moments used as the
///   prior's location and scale.
/// * `late` — the sufficient statistics `(n, X̄, S)` of the screened
///   late-stage samples the posterior was fit on.
/// * `kappa0`, `nu0` — the hyper-parameters actually used.
/// * `selection` — the full CV selection when the grid search ran;
///   `None` when the pipeline used pinned or default hyper-parameters.
/// * `data_quality` — the guard's findings for the late-stage data.
/// * `estimate` — the fused moment estimate whose covariance spectrum
///   is examined.
///
/// # Errors
///
/// Propagates failures from the Cholesky factorization of the early
/// covariance or the eigendecomposition of the fused covariance.
/// Callers treat an error as "health unavailable", not as a pipeline
/// failure.
pub fn assess(
    early: &MomentEstimate,
    late: &SufficientStats,
    kappa0: f64,
    nu0: f64,
    selection: Option<&HyperParameterSelection>,
    data_quality: &DataQualityReport,
    estimate: &MomentEstimate,
) -> Result<HealthReport> {
    let (n, d) = (late.n, late.dim());
    // Prior–data conflict: under the prior predictive the late-stage
    // sample mean is distributed around μ₀ with covariance
    // (1/κ₀ + 1/n)·Σ_E (paper Eq. 12–14 with the Wishart scale taken at
    // its prior mean), so the scaled squared Mahalanobis distance is
    // asymptotically χ²(d). A tiny upper-tail p-value means the prior
    // and the data disagree about where the metrics live — exactly the
    // decorrelated-population failure mode MPME warns about.
    let chol_early = Cholesky::new(&early.cov)?;
    let raw_d2 = chol_early.mahalanobis_sq(&late.mean, &early.mean)?;
    let inflation = 1.0 / kappa0 + 1.0 / n as f64;
    let mahalanobis_sq = raw_d2 / inflation;
    let p_value = if mahalanobis_sq.is_finite() {
        1.0 - chi_squared_cdf(mahalanobis_sq.max(0.0), d as f64)
    } else {
        f64::NAN
    };
    let conflict = PriorDataConflict {
        mahalanobis_sq,
        p_value,
        severity: classify_conflict(p_value),
    };

    // Effective sample size: the posterior mean weighs κ₀ pseudo-counts
    // of prior against n real samples (Eq. 31); the covariance has
    // ν₀ + n − d excess degrees of freedom (Eq. 32).
    let kappa_n = kappa0 + n as f64;
    let shrinkage = kappa0 / kappa_n;
    let ess = EffectiveSampleSize {
        n,
        kappa_n,
        nu_excess: nu0 + n as f64 - d as f64,
        shrinkage,
        severity: classify_shrinkage(shrinkage),
    };

    // Fused covariance eigenspectrum.
    let eigen = SymmetricEigen::new(&estimate.cov)?;
    let mut eigenvalues: Vec<f64> = eigen.eigenvalues().iter().copied().collect();
    eigenvalues.sort_by(f64::total_cmp);
    let min_ev = eigenvalues.first().copied().unwrap_or(f64::NAN);
    let condition = eigen.condition_number();
    let spectrum = CovarianceSpectrum {
        eigenvalues,
        condition,
        severity: classify_spectrum(min_ev, condition),
    };

    let cv = selection.map(HyperParameterSelection::surface_summary);

    let dropped_fraction = data_quality.dropped_fraction();
    let data_quality = DataQualityHealth {
        rows_in: data_quality.rows_in,
        rows_out: data_quality.rows_out,
        dropped_fraction,
        constant_columns: data_quality.constant_columns.len(),
        severity: classify_data_quality(
            data_quality.is_clean(),
            dropped_fraction,
            data_quality.constant_columns.len(),
        ),
    };

    Ok(HealthReport {
        conflict,
        ess,
        spectrum,
        cv,
        data_quality,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::{Matrix, Vector};
    use bmf_obs::health::Severity;
    use bmf_stats::descriptive;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn synthetic_samples(d: usize, n: usize, seed: u64, offset: f64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(n, d, |_, j| {
            offset + j as f64 * 0.1 + rng.gen_range(-0.5..0.5)
        })
    }

    fn moments_of(samples: &Matrix) -> MomentEstimate {
        MomentEstimate {
            mean: descriptive::mean_vector(samples).unwrap(),
            cov: descriptive::covariance_mle(samples).unwrap(),
        }
    }

    fn stats_of(samples: &Matrix) -> SufficientStats {
        SufficientStats::from_samples(samples).unwrap()
    }

    #[test]
    fn agreeing_prior_scores_ok_conflict() {
        let d = 3;
        let early = moments_of(&synthetic_samples(d, 400, 7, 0.0));
        let late = synthetic_samples(d, 40, 8, 0.0);
        let estimate = moments_of(&late);
        let report = assess(
            &early,
            &stats_of(&late),
            8.0,
            (d + 2) as f64,
            None,
            &DataQualityReport {
                rows_in: 40,
                rows_out: 40,
                ..DataQualityReport::default()
            },
            &estimate,
        )
        .unwrap();
        assert_eq!(report.conflict.severity, Severity::Ok, "{report:?}");
        assert_eq!(report.data_quality.severity, Severity::Ok);
        assert_eq!(report.overall(), Severity::Ok);
        assert!(report.ess.shrinkage < 0.5);
        assert!((report.ess.kappa_n - 48.0).abs() < 1e-12);
    }

    #[test]
    fn three_sigma_offset_prior_is_flagged() {
        let d = 3;
        let early_samples = synthetic_samples(d, 400, 7, 0.0);
        let mut early = moments_of(&early_samples);
        // Offset the prior mean by ≥ 3σ in every dimension: with n late
        // samples the prior-predictive distance explodes and the p-value
        // collapses.
        let sigma: Vec<f64> = (0..d).map(|j| early.cov[(j, j)].sqrt()).collect();
        early.mean = Vector::from_fn(d, |j| early.mean[j] + 3.5 * sigma[j]);
        let late = synthetic_samples(d, 40, 8, 0.0);
        let estimate = moments_of(&late);
        let report = assess(
            &early,
            &stats_of(&late),
            8.0,
            (d + 2) as f64,
            None,
            &DataQualityReport {
                rows_in: 40,
                rows_out: 40,
                ..DataQualityReport::default()
            },
            &estimate,
        )
        .unwrap();
        assert!(
            report.conflict.severity >= Severity::Warn,
            "p = {}",
            report.conflict.p_value
        );
        assert!(report.overall() >= Severity::Warn);
    }

    #[test]
    fn huge_kappa_warns_on_shrinkage() {
        let d = 2;
        let early = moments_of(&synthetic_samples(d, 200, 3, 0.0));
        let late = synthetic_samples(d, 10, 4, 0.0);
        let estimate = moments_of(&late);
        let report = assess(
            &early,
            &stats_of(&late),
            1e7,
            (d + 2) as f64,
            None,
            &DataQualityReport {
                rows_in: 10,
                rows_out: 10,
                ..DataQualityReport::default()
            },
            &estimate,
        )
        .unwrap();
        assert_eq!(report.ess.severity, Severity::Critical);
    }

    #[test]
    fn dirty_guard_report_degrades_data_quality() {
        let d = 2;
        let early = moments_of(&synthetic_samples(d, 200, 3, 0.0));
        let late = synthetic_samples(d, 20, 4, 0.0);
        let estimate = moments_of(&late);
        let late = stats_of(&late);
        let dq = DataQualityReport {
            rows_in: 30,
            rows_out: 20,
            dropped_rows: (0..10).collect(),
            ..DataQualityReport::default()
        };
        let report = assess(&early, &late, 4.0, (d + 2) as f64, None, &dq, &estimate).unwrap();
        // 10/30 ≥ 25% dropped → critical.
        assert_eq!(report.data_quality.severity, Severity::Critical);
        assert!((report.data_quality.dropped_fraction - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn spectrum_reflects_estimate_conditioning() {
        let d = 2;
        let early = moments_of(&synthetic_samples(d, 200, 3, 0.0));
        let late = synthetic_samples(d, 20, 4, 0.0);
        // A deliberately near-singular fused covariance.
        let estimate = MomentEstimate {
            mean: Vector::zeros(d),
            cov: Matrix::from_fn(d, d, |i, j| if i == j { [1.0, 5e-8][i] } else { 0.0 }),
        };
        let report = assess(
            &early,
            &stats_of(&late),
            4.0,
            (d + 2) as f64,
            None,
            &DataQualityReport {
                rows_in: 20,
                rows_out: 20,
                ..DataQualityReport::default()
            },
            &estimate,
        )
        .unwrap();
        assert!(report.spectrum.condition > 1e6);
        assert!(report.spectrum.severity >= Severity::Warn);
        // Eigenvalues come out ascending.
        let evs = &report.spectrum.eigenvalues;
        assert!(evs.windows(2).all(|w| w[0] <= w[1]));
    }
}
