//! The three workloads. Each builds its inputs from the run's seed in
//! `setup` and then runs units of work through the library's public
//! calls. A unit is timed from outside; when the [`Tracer`] records, the
//! unit also opens a span around each layer call it makes.

pub mod adc_sharded;
pub mod adc_sweep;
pub mod opamp_study;

use crate::timed::DrawLog;
use crate::trace::Tracer;
use bmf_core::error_metrics::{error_cov, error_mean};
use bmf_core::io::write_moments_csv;
use bmf_core::MomentEstimate;
use bmf_linalg::Cholesky;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["opamp_study", "adc_sweep", "adc_sharded"];

/// Seed-derivation streams, so every input a run draws from its root seed
/// comes from its own stream.
mod streams {
    pub const OPAMP_UNIT: u64 = 0xBE_0001;
    pub const SWEEP_UNIT: u64 = 0xBE_0011;
    pub const SHARD_UNIT: u64 = 0xBE_0021;
    pub const SHARD_CHECK: u64 = 0xBE_0023;
}

/// Seed of the large reference pools the accuracy metrics compare
/// against. The reference stands in for the true moments, so it is the
/// same in every run; the units' inputs come from the run's seed.
const REFERENCE_SEED: u64 = 2015;

/// What one unit produced.
#[derive(Debug, Clone, Default)]
pub struct UnitOutcome {
    /// The unit's user-visible output bytes (a moments CSV, or the sweep
    /// table's bit patterns); repeated units must reproduce them exactly.
    pub output: Vec<u8>,
    /// Shard packets the unit encoded, which must also repeat exactly.
    pub packets: Vec<String>,
    /// Monte Carlo draws the unit consumed.
    pub samples: u64,
    /// Fused (BMF) estimates the unit produced.
    pub fusions: u64,
    /// Eq. 37 error of the fused mean against the workload's reference.
    pub mean_err: f64,
    /// Eq. 38 error of the fused covariance against the reference.
    pub cov_err: f64,
    /// Eq. 38 error of the MLE estimate from the same late samples.
    pub mle_cov_err: f64,
    /// MLE samples ÷ BMF samples for equal covariance accuracy, where the
    /// unit measures both error curves itself (the sweep).
    pub curve_cost_reduction: Option<f64>,
    /// First failed correctness check, if any.
    pub problem: Option<String>,
    /// Per-draw log of each circuit the traced unit simulated.
    pub draws: Vec<(&'static str, DrawLog)>,
    /// Extra per-unit observations (sizes, counts) for the per-layer report.
    pub extras: Vec<(&'static str, f64)>,
}

/// The run's context handed to every unit.
pub struct Ctx<'a> {
    /// Worker threads for the library's parallel calls.
    pub threads: usize,
    /// Span recorder (inert in untraced runs).
    pub tracer: &'a Tracer,
    /// Unit id stamped on this unit's spans.
    pub unit: u64,
}

/// A set-up workload, ready to run units.
pub enum Workload {
    /// CLI `generate → estimate` on the op-amp.
    OpampStudy(Box<opamp_study::OpampStudy>),
    /// The fig5 error sweep on the flash ADC.
    AdcSweep(adc_sweep::AdcSweep),
    /// CLI `shard × 4 → merge` on the flash ADC.
    AdcSharded(adc_sharded::AdcSharded),
}

impl Workload {
    /// Builds the named workload's inputs from `seed`.
    ///
    /// # Errors
    ///
    /// Unknown workload names and failed set-up steps.
    pub fn setup(name: &str, seed: u64, threads: usize) -> Result<Workload, String> {
        match name {
            "opamp_study" => opamp_study::OpampStudy::setup(seed, threads)
                .map(|w| Workload::OpampStudy(Box::new(w))),
            "adc_sweep" => adc_sweep::AdcSweep::setup(seed, threads).map(Workload::AdcSweep),
            "adc_sharded" => {
                adc_sharded::AdcSharded::setup(seed, threads).map(Workload::AdcSharded)
            }
            other => Err(format!(
                "unknown workload '{other}' (expected one of {})",
                NAMES.join(", ")
            )),
        }
    }

    /// Runs unit `k` (its inputs derive from the run seed and `k`).
    ///
    /// # Errors
    ///
    /// Any library error the unit's calls return.
    pub fn unit(&self, k: u64, ctx: &Ctx<'_>) -> Result<UnitOutcome, String> {
        match self {
            Workload::OpampStudy(w) => w.unit(k, ctx),
            Workload::AdcSweep(w) => w.unit(k, ctx),
            Workload::AdcSharded(w) => w.unit(k, ctx),
        }
    }
}

/// Formats a library error for the report.
pub(crate) fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Moments written as the CLI writes them (`bmf estimate`/`bmf merge`).
pub(crate) fn moments_csv(names: &[String], m: &MomentEstimate) -> Result<Vec<u8>, String> {
    let mut buf = Vec::new();
    write_moments_csv(&mut buf, names, m).map_err(err)?;
    Ok(buf)
}

/// The per-unit check on a fused estimate: finite moments and an SPD
/// covariance.
pub(crate) fn check_fused(est: &MomentEstimate) -> Option<String> {
    if !est.mean.is_finite() || !est.cov.is_finite() {
        return Some("fused moments are not finite".to_string());
    }
    if Cholesky::new(&est.cov).is_err() {
        return Some("fused covariance is not SPD".to_string());
    }
    None
}

/// Eq. 37 and Eq. 38 errors of a fused estimate, and Eq. 38 of the MLE
/// estimate from the same late samples.
pub(crate) fn accuracy(
    fused: &MomentEstimate,
    mle: &MomentEstimate,
    reference: &MomentEstimate,
) -> Result<(f64, f64, f64), String> {
    Ok((
        error_mean(fused, reference).map_err(err)?,
        error_cov(fused, reference).map_err(err)?,
        error_cov(mle, reference).map_err(err)?,
    ))
}
