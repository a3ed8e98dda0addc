//! `adc_sweep`: the fig5 protocol on the flash ADC.
//!
//! Set-up builds fig5's 1000/1000 schematic/post-layout pool once. Unit: one
//! `run_error_sweep_parallel` over n ∈ {8, …, 256} × 100 repetitions at
//! the default CV grid. Fusion-bound: the simulator does no timed work.
//!
//! A traced unit replays the sweep through the public calls it is made of
//! (subsample → `MleEstimator` → `CrossValidation::select` →
//! `NormalWishartPrior` → `BmfEstimator`), with a span around each, and
//! must reproduce the library sweep's table bit for bit.

use super::{err, streams, Ctx, UnitOutcome};
use crate::trace::{Tracer, ROOT};
use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::monte_carlo::{two_stage_study_seeded, Testbench};
use bmf_core::cv::CrossValidation;
use bmf_core::error_metrics::{error_cov, error_mean};
use bmf_core::experiment::{
    cost_reduction, prepare, run_error_sweep_parallel, ErrorKind, PreparedStudy, SweepConfig,
    SweepResult, SweepRow, TwoStageData,
};
use bmf_core::map::BmfEstimator;
use bmf_core::mle::MleEstimator;
use bmf_core::parallel::map_range;
use bmf_core::prior::NormalWishartPrior;
use bmf_linalg::Matrix;
use bmf_stats::parallel::derive_seed;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Draws per stage in the pool.
const POOL: usize = 1000;
/// Monte Carlo seed of the pool: fig5's, so the sweep runs on the figure's
/// data. Each unit's subsampling seed comes from the run's seed.
const POOL_SEED: u64 = 180;
/// The sweep's sample sizes (the pool of 1000 stops the fig5 axis at 256).
pub const SAMPLE_SIZES: [usize; 6] = [8, 16, 32, 64, 128, 256];
/// Repetitions per sample size.
pub const REPETITIONS: usize = 100;
/// The sample size whose row the accuracy metrics report.
const REPORT_N: usize = 32;

/// The set-up workload.
pub struct AdcSweep {
    root_seed: u64,
    study: PreparedStudy,
}

impl AdcSweep {
    /// Builds and prepares the 1000/1000 pool.
    ///
    /// # Errors
    ///
    /// Simulation and preparation failures.
    pub fn setup(seed: u64, threads: usize) -> Result<AdcSweep, String> {
        let tb = AdcTestbench::default_180nm();
        let study = two_stage_study_seeded(&tb, POOL, POOL, POOL_SEED, threads).map_err(err)?;
        let data = TwoStageData {
            metric_names: tb.metric_names().iter().map(|s| s.to_string()).collect(),
            early_nominal: study.early.nominal,
            early_samples: study.early.samples,
            late_nominal: study.late.nominal,
            late_samples: study.late.samples,
        };
        Ok(AdcSweep {
            root_seed: seed,
            study: prepare(&data).map_err(err)?,
        })
    }

    /// Number of feasible CV candidates one select scores.
    fn feasible_candidates(&self) -> usize {
        CrossValidation::default().feasible_candidate_count(self.study.early_moments.mean.len())
    }

    /// Runs unit `k`: one sweep with subsampling seed derived from `k`.
    ///
    /// # Errors
    ///
    /// Any library error of the sweep.
    pub fn unit(&self, k: u64, ctx: &Ctx<'_>) -> Result<UnitOutcome, String> {
        let config = SweepConfig {
            sample_sizes: SAMPLE_SIZES.to_vec(),
            repetitions: REPETITIONS,
            cv: CrossValidation::default(),
            seed: derive_seed(self.root_seed, streams::SWEEP_UNIT, k),
        };
        let result = if ctx.tracer.enabled() {
            replay(&self.study, &config, ctx)?
        } else {
            run_error_sweep_parallel(&self.study, &config, ctx.threads).map_err(err)?
        };

        let mut output = Vec::with_capacity(result.rows.len() * 7 * 8);
        let mut problem = None;
        for r in &result.rows {
            let cells = [
                r.mle_mean_err,
                r.bmf_mean_err,
                r.mle_cov_err,
                r.bmf_cov_err,
                r.mean_kappa0,
                r.mean_nu0,
            ];
            if problem.is_none() && !cells.iter().all(|c| c.is_finite()) {
                problem = Some(format!("sweep row n = {} is not finite", r.n));
            }
            output.extend_from_slice(&(r.n as u64).to_le_bytes());
            for c in cells {
                output.extend_from_slice(&c.to_bits().to_le_bytes());
            }
        }
        let row = result
            .rows
            .iter()
            .find(|r| r.n == REPORT_N)
            .ok_or_else(|| format!("sweep has no n = {REPORT_N} row"))?;
        if result.rows.len() != SAMPLE_SIZES.len() {
            problem.get_or_insert_with(|| format!("sweep has {} rows", result.rows.len()));
        }
        Ok(UnitOutcome {
            output,
            packets: Vec::new(),
            samples: (SAMPLE_SIZES.iter().sum::<usize>() * REPETITIONS) as u64,
            fusions: (SAMPLE_SIZES.len() * REPETITIONS) as u64,
            mean_err: row.bmf_mean_err,
            cov_err: row.bmf_cov_err,
            mle_cov_err: row.mle_cov_err,
            curve_cost_reduction: Some(covariance_cost_reduction(&result, REPORT_N)),
            problem,
            draws: Vec::new(),
            extras: vec![("cv.feasible_candidates", self.feasible_candidates() as f64)],
        })
    }
}

/// MLE samples ÷ BMF samples for equal covariance accuracy at `n`, from
/// the sweep's curves (`experiment::cost_reduction`). When BMF at `n` beats
/// MLE at the largest measured n, the MLE curve's last segment is
/// extended in log-log space instead of reporting an unbounded factor.
fn covariance_cost_reduction(result: &SweepResult, n: usize) -> f64 {
    let factor = cost_reduction(result, ErrorKind::Covariance)
        .into_iter()
        .find(|&(m, _)| m == n)
        .map_or(f64::NAN, |(_, f)| f);
    if factor.is_finite() {
        return factor;
    }
    let rows = &result.rows;
    let (Some(target), [.., a, b]) = (rows.iter().find(|r| r.n == n), rows.as_slice()) else {
        return f64::NAN;
    };
    let slope = (b.mle_cov_err.ln() - a.mle_cov_err.ln()) / ((b.n as f64).ln() - (a.n as f64).ln());
    let ln_n = (b.n as f64).ln() + (target.bmf_cov_err.ln() - b.mle_cov_err.ln()) / slope;
    ln_n.exp() / n as f64
}

/// One repetition's errors and selected hyper-parameters.
#[derive(Clone, Copy)]
struct Repetition {
    mle_mean_err: f64,
    bmf_mean_err: f64,
    mle_cov_err: f64,
    bmf_cov_err: f64,
    kappa0: f64,
    nu0: f64,
}

/// The sweep rebuilt from public calls, one span per call. Seeds,
/// subsampling and the reduction order are the library's, so the result
/// equals `run_error_sweep_parallel` bit for bit.
fn replay(
    study: &PreparedStudy,
    config: &SweepConfig,
    ctx: &Ctx<'_>,
) -> Result<SweepResult, String> {
    let tr = ctx.tracer;
    let root = tr.span("unit.adc_sweep", ctx.unit, ROOT);
    let mut rows = Vec::with_capacity(config.sample_sizes.len());
    for &n in &config.sample_sizes {
        let outcomes = {
            let wait = tr.span_with_arg("stats.parallel.map_range", ctx.unit, root.id(), n as u64);
            let parent = wait.id();
            map_range(config.repetitions, ctx.threads, |rep| {
                repetition(tr, ctx.unit, parent, study, config, n, rep)
            })
            .map_err(err)?
        };
        let outcomes: Vec<Repetition> = outcomes.into_iter().collect::<Result<_, _>>()?;
        rows.push(aggregate(n, &outcomes));
    }
    Ok(SweepResult { rows })
}

fn repetition(
    tr: &Tracer,
    unit: u64,
    parent: u64,
    study: &PreparedStudy,
    config: &SweepConfig,
    n: usize,
    rep: usize,
) -> Result<Repetition, String> {
    let span = tr.span_with_arg("core.experiment.repetition", unit, parent, n as u64);
    let id = span.id();
    let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(config.seed, n as u64, rep as u64));
    let samples = {
        let _s = tr.span_with_arg("core.experiment.subsample", unit, id, n as u64);
        subsample(&study.late_pool, n, &mut rng)
    };
    let mle = {
        let _s = tr.span_with_arg("core.mle.estimate", unit, id, n as u64);
        MleEstimator::new().estimate(&samples).map_err(err)?
    };
    let selection = {
        let _s = tr.span_with_arg("core.cv.select", unit, id, n as u64);
        config
            .cv
            .select(&study.early_moments, &samples, &mut rng)
            .map_err(err)?
    };
    let bmf = {
        let _s = tr.span_with_arg("core.map.estimate", unit, id, n as u64);
        let prior = NormalWishartPrior::from_early_moments(
            &study.early_moments,
            selection.kappa0,
            selection.nu0,
        )
        .map_err(err)?;
        BmfEstimator::new(prior)
            .map_err(err)?
            .estimate(&samples)
            .map_err(err)?
    };
    let _s = tr.span_with_arg("core.error_metrics", unit, id, n as u64);
    Ok(Repetition {
        mle_mean_err: error_mean(&mle, &study.exact_late).map_err(err)?,
        bmf_mean_err: error_mean(&bmf.map, &study.exact_late).map_err(err)?,
        mle_cov_err: error_cov(&mle, &study.exact_late).map_err(err)?,
        bmf_cov_err: error_cov(&bmf.map, &study.exact_late).map_err(err)?,
        kappa0: selection.kappa0,
        nu0: selection.nu0,
    })
}

/// `n` distinct pool rows drawn uniformly, as the sweep draws them.
fn subsample(pool: &Matrix, n: usize, rng: &mut rand::rngs::StdRng) -> Matrix {
    let mut idx: Vec<usize> = (0..pool.nrows()).collect();
    idx.shuffle(rng);
    idx.truncate(n);
    Matrix::from_fn(n, pool.ncols(), |i, j| pool[(idx[i], j)])
}

/// Repetition means in repetition order, as the sweep reduces them.
fn aggregate(n: usize, outcomes: &[Repetition]) -> SweepRow {
    let r = outcomes.len() as f64;
    let mean = |f: fn(&Repetition) -> f64| outcomes.iter().map(f).sum::<f64>() / r;
    SweepRow {
        n,
        mle_mean_err: mean(|o| o.mle_mean_err),
        bmf_mean_err: mean(|o| o.bmf_mean_err),
        mle_cov_err: mean(|o| o.mle_cov_err),
        bmf_cov_err: mean(|o| o.bmf_cov_err),
        mean_kappa0: mean(|o| o.kappa0),
        mean_nu0: mean(|o| o.nu0),
    }
}
