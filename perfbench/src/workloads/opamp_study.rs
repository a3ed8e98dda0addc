//! `opamp_study`: the CLI `bmf generate → bmf estimate --report` path on
//! the 45 nm op-amp, in one process.
//!
//! Unit: 1000 schematic + 32 post-layout draws (`two_stage_study_seeded`)
//! → in-memory CSV round trip (`core::io`) → shift/scale
//! (`core::transform`) → `RobustPipeline::estimate` at the default CV grid
//! → moments CSV. Simulator-bound.

use super::{accuracy, check_fused, err, moments_csv, streams, Ctx, UnitOutcome, REFERENCE_SEED};
use crate::timed::Timed;
use bmf_circuits::monte_carlo::{run_monte_carlo_seeded, two_stage_study_seeded, Stage, StageData};
use bmf_circuits::opamp::OpAmpTestbench;
use bmf_core::cv::CrossValidation;
use bmf_core::io::{read_samples_csv, write_samples_csv, LabelledSamples};
use bmf_core::mle::MleEstimator;
use bmf_core::pipeline::{FailureMode, FallbackLevel, RobustPipeline};
use bmf_core::transform::ShiftScale;
use bmf_core::MomentEstimate;
use bmf_linalg::Matrix;
use bmf_stats::descriptive;
use bmf_stats::parallel::derive_seed;
use rand::{RngCore, SeedableRng};

/// Schematic draws per unit.
pub const N_EARLY: usize = 1000;
/// Post-layout draws per unit.
pub const N_LATE: usize = 32;
/// Post-layout draws in the accuracy reference pool.
const REFERENCE_POOL: usize = 4000;

/// The set-up workload.
pub struct OpampStudy {
    root_seed: u64,
    tb: OpAmpTestbench,
    timed: Timed<OpAmpTestbench>,
    /// Post-layout moments of a large pool, in physical units.
    reference: MomentEstimate,
}

/// The `--seed` that `bmf generate`/`bmf estimate` take for unit `k`.
pub fn unit_seed(root_seed: u64, k: u64) -> u64 {
    derive_seed(root_seed, streams::OPAMP_UNIT, k)
}

impl OpampStudy {
    /// Builds the accuracy reference: a large post-layout pool.
    /// Units draw their inputs from `seed`.
    ///
    /// # Errors
    ///
    /// Simulation and statistics failures.
    pub fn setup(seed: u64, threads: usize) -> Result<OpampStudy, String> {
        let tb = OpAmpTestbench::default_45nm();
        let pool = run_monte_carlo_seeded(
            &tb,
            Stage::PostLayout,
            REFERENCE_POOL,
            REFERENCE_SEED,
            threads,
        )
        .map_err(err)?;
        let reference = MomentEstimate {
            mean: descriptive::mean_vector(&pool.samples).map_err(err)?,
            cov: descriptive::covariance_mle(&pool.samples).map_err(err)?,
        };
        Ok(OpampStudy {
            root_seed: seed,
            tb: tb.clone(),
            timed: Timed::new(tb),
            reference,
        })
    }

    /// Runs unit `k`.
    ///
    /// # Errors
    ///
    /// Any library error of the unit's calls.
    pub fn unit(&self, k: u64, ctx: &Ctx<'_>) -> Result<UnitOutcome, String> {
        let seed = unit_seed(self.root_seed, k);
        let tr = ctx.tracer;
        let traced = tr.enabled();
        let root = tr.span("unit.opamp_study", ctx.unit, crate::trace::ROOT);
        let (names, early_csv, late_csv, study) = {
            let study = {
                let _s = tr.span("circuits.monte_carlo", ctx.unit, root.id());
                if traced {
                    two_stage_study_seeded(&self.timed, N_EARLY, N_LATE, seed, ctx.threads)
                } else {
                    two_stage_study_seeded(&self.tb, N_EARLY, N_LATE, seed, ctx.threads)
                }
                .map_err(err)?
            };
            let names: Vec<String> = study.metric_names.iter().map(|s| s.to_string()).collect();
            let _s = tr.span("core.io.csv_write", ctx.unit, root.id());
            let early_csv = generated_csv(&names, &study.early)?;
            let late_csv = generated_csv(&names, &study.late)?;
            (names, early_csv, late_csv, study)
        };
        let (early, late) = {
            let _s = tr.span("core.io.csv_read", ctx.unit, root.id());
            (
                read_samples_csv(&mut early_csv.as_slice()).map_err(err)?,
                read_samples_csv(&mut late_csv.as_slice()).map_err(err)?,
            )
        };
        let (early_moments, late_norm, late_t) = {
            let _s = tr.span("core.transform", ctx.unit, root.id());
            normalize(&early.samples, &late.samples)?
        };
        let (est, report) = {
            let _s = tr.span("core.pipeline.estimate", ctx.unit, root.id());
            estimate_pipeline(seed, ctx.threads)
                .estimate(&early_moments, &late_norm)
                .map_err(err)?
        };
        let output = {
            let _s = tr.span("core.io.csv_write", ctx.unit, root.id());
            let physical = late_t.invert_moments(&est).map_err(err)?;
            moments_csv(&names, &physical)?
        };
        drop(root);

        let reference = late_t.apply_moments(&self.reference).map_err(err)?;
        let mle = MleEstimator::new().estimate(&late_norm).map_err(err)?;
        let (mean_err, cov_err, mle_cov_err) = accuracy(&est, &mle, &reference)?;
        let below_map = report.fallback != FallbackLevel::Map;
        let problem = if below_map {
            Some(format!("estimate fell to the {} rung", report.fallback))
        } else {
            check_fused(&est)
        };
        let mut draws = Vec::new();
        if traced {
            draws.push(("opamp", self.timed.take_log()));
        }
        Ok(UnitOutcome {
            output,
            packets: Vec::new(),
            samples: (study.early.sample_count() + study.late.sample_count()) as u64,
            fusions: 1,
            mean_err,
            cov_err,
            mle_cov_err,
            curve_cost_reduction: None,
            problem,
            draws,
            extras: vec![
                ("io.csv_bytes", (early_csv.len() + late_csv.len()) as f64),
                ("pipeline.below_map", f64::from(u8::from(below_map))),
            ],
        })
    }
}

/// A stage's samples as `bmf generate` writes them: the nominal run as
/// row 0, then one row per draw.
fn generated_csv(names: &[String], data: &StageData) -> Result<Vec<u8>, String> {
    let (n, d) = (data.samples.nrows(), data.samples.ncols());
    let mut all = Matrix::zeros(n + 1, d);
    all.row_mut(0).copy_from_slice(data.nominal.as_slice());
    for i in 0..n {
        all.row_mut(i + 1).copy_from_slice(data.samples.row(i));
    }
    let labelled = LabelledSamples {
        names: names.to_vec(),
        samples: all,
    };
    let mut buf = Vec::new();
    write_samples_csv(&mut buf, &labelled).map_err(err)?;
    Ok(buf)
}

/// `bmf estimate`'s shift/scale: row 0 of each stage is its nominal run,
/// both stages scale by the early-stage σ.
fn normalize(
    early: &Matrix,
    late: &Matrix,
) -> Result<(MomentEstimate, Matrix, ShiftScale), String> {
    let cols: Vec<usize> = (0..early.ncols()).collect();
    let early_mc = early.submatrix(&(1..early.nrows()).collect::<Vec<_>>(), &cols);
    let late_mc = late.submatrix(&(1..late.nrows()).collect::<Vec<_>>(), &cols);
    let early_sd = descriptive::column_stddevs(&early_mc).map_err(err)?;
    let early_t =
        ShiftScale::from_nominal_and_early_sd(&early.row_vec(0), &early_sd).map_err(err)?;
    let late_t = ShiftScale::from_nominal_and_early_sd(&late.row_vec(0), &early_sd).map_err(err)?;
    let early_norm = early_t.apply_samples(&early_mc).map_err(err)?;
    let late_norm = late_t.apply_samples(&late_mc).map_err(err)?;
    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm).map_err(err)?,
        cov: descriptive::covariance_mle(&early_norm).map_err(err)?,
    };
    Ok((early_moments, late_norm, late_t))
}

/// The pipeline `bmf estimate --seed <seed> --report <path>` runs.
fn estimate_pipeline(seed: u64, threads: usize) -> RobustPipeline {
    let cv_seed = rand::rngs::StdRng::seed_from_u64(seed).next_u64();
    RobustPipeline::new()
        .with_mode(FailureMode::Degrade)
        .with_cv(CrossValidation::default())
        .with_seed(cv_seed)
        .with_threads(threads)
}
