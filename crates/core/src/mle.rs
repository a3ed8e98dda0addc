//! Maximum-likelihood moment estimation — the paper's baseline (Eq. 10–11).

use crate::suffstats::SufficientStats;
use crate::{MomentEstimate, Result};
use bmf_linalg::Matrix;

/// The traditional MLE estimator: sample mean and biased sample covariance.
///
/// * `μ_MLE = (1/n) Σ Xᵢ` (Eq. 10)
/// * `Σ_MLE = (1/n) Σ (Xᵢ − μ)(Xᵢ − μ)ᵀ` (Eq. 11)
///
/// This is the method BMF is benchmarked against: unbiased asymptotically
/// but very noisy at the tiny sample sizes the paper targets.
///
/// # Example
///
/// ```
/// use bmf_core::mle::MleEstimator;
/// use bmf_linalg::Matrix;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let samples = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let est = MleEstimator::new().estimate(&samples)?;
/// assert_eq!(est.mean.as_slice(), &[2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MleEstimator;

impl MleEstimator {
    /// Creates the estimator (stateless).
    pub fn new() -> Self {
        MleEstimator
    }

    /// Estimates the moments of an `n × d` sample matrix by reducing it
    /// to [`SufficientStats`] and delegating to
    /// [`Self::estimate_from_stats`], so both entry points agree
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BmfError::InvalidSamples`] for an empty matrix or
    /// non-finite entries.
    pub fn estimate(&self, samples: &Matrix) -> Result<MomentEstimate> {
        self.estimate_from_stats(&SufficientStats::from_samples(samples)?)
    }

    /// Estimates the moments from sufficient statistics `(n, X̄, S)`:
    /// `μ_MLE = X̄`, `Σ_MLE = S/n`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BmfError::InvalidSamples`] for invalid statistics.
    pub fn estimate_from_stats(&self, stats: &SufficientStats) -> Result<MomentEstimate> {
        stats.validate()?;
        let est = MomentEstimate {
            mean: stats.mean.clone(),
            cov: &stats.scatter / stats.n as f64,
        };
        est.validate()?;
        Ok(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::Vector;
    use bmf_stats::MultivariateNormal;
    use rand::SeedableRng;

    #[test]
    fn matches_hand_computation() {
        let samples = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0], &[5.0, 4.0]]).unwrap();
        let est = MleEstimator::new().estimate(&samples).unwrap();
        assert_eq!(est.mean.as_slice(), &[3.0, 4.0]);
        // biased covariance = scatter/3 = [[8/3, 4/3], [4/3, 8/3]]
        assert!((est.cov[(0, 0)] - 8.0 / 3.0).abs() < 1e-14);
        assert!((est.cov[(0, 1)] - 4.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn estimate_and_estimate_from_stats_are_bit_identical() {
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[0.3, -1.2, 4.0]),
            Matrix::from_rows(&[&[1.0, 0.3, 0.1], &[0.3, 2.0, 0.4], &[0.1, 0.4, 1.5]]).unwrap(),
        )
        .unwrap();
        let samples = truth.sample_matrix(&mut rand::rngs::StdRng::seed_from_u64(3), 11);
        let mle = MleEstimator::new();
        let from_samples = mle.estimate(&samples).unwrap();
        let stats = SufficientStats::from_samples(&samples).unwrap();
        let from_stats = mle.estimate_from_stats(&stats).unwrap();
        let bits = |est: &MomentEstimate| -> Vec<u64> {
            est.mean
                .iter()
                .chain(est.cov.as_slice())
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(bits(&from_samples), bits(&from_stats));
        // The baseline's own definition (Eq. 10–11) lands on the same bits.
        assert_eq!(
            from_samples.cov,
            bmf_stats::descriptive::covariance_mle(&samples).unwrap()
        );
    }

    #[test]
    fn single_sample_gives_zero_covariance() {
        let samples = Matrix::from_rows(&[&[7.0, -2.0]]).unwrap();
        let est = MleEstimator::new().estimate(&samples).unwrap();
        assert_eq!(est.mean.as_slice(), &[7.0, -2.0]);
        assert_eq!(est.cov, Matrix::zeros(2, 2));
    }

    #[test]
    fn rejects_bad_input() {
        let mle = MleEstimator::new();
        assert!(mle.estimate(&Matrix::zeros(0, 2)).is_err());
        let mut nan = Matrix::zeros(2, 2);
        nan[(0, 0)] = f64::NAN;
        assert!(mle.estimate(&nan).is_err());
    }

    #[test]
    fn error_shrinks_with_sample_count() {
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[1.0, -1.0, 0.5]),
            Matrix::from_rows(&[&[1.0, 0.3, 0.1], &[0.3, 2.0, 0.4], &[0.1, 0.4, 1.5]]).unwrap(),
        )
        .unwrap();
        let mle = MleEstimator::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let reps = 40;
        let mut err_small = 0.0;
        let mut err_large = 0.0;
        for _ in 0..reps {
            let s = truth.sample_matrix(&mut rng, 8);
            err_small += (&mle.estimate(&s).unwrap().mean - truth.mean()).norm2();
            let s = truth.sample_matrix(&mut rng, 512);
            err_large += (&mle.estimate(&s).unwrap().mean - truth.mean()).norm2();
        }
        // ~n^{-1/2} scaling: 64× the samples → ~8× smaller error.
        assert!(
            err_small / err_large > 4.0,
            "ratio = {}",
            err_small / err_large
        );
    }
}
