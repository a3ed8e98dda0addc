//! `adc_sharded`: the CLI `bmf shard × 4 → bmf merge` path on the flash
//! ADC, in one process.
//!
//! Unit, on `StudyConfig { adc, n_early 1000, n_late 64, K = 4, fault
//! rate 0.05 }`: `run_shard` for each shard in turn → `to_json` →
//! `merge_packet_texts` → `bmf merge`'s normalization →
//! `RobustPipeline::estimate_from_stats` → moments CSV.
//!
//! A traced unit replays `run_shard` through its public parts (the seeded
//! slice runner and `StageSuffStats`) around a timing testbench, and must
//! produce the same packet bytes.

use super::{accuracy, check_fused, err, moments_csv, streams, Ctx, UnitOutcome, REFERENCE_SEED};
use crate::timed::{DrawLog, Timed};
use crate::trace::{Tracer, ROOT};
use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::monte_carlo::{
    run_monte_carlo_seeded, run_monte_carlo_slice_seeded_with_policy, two_stage_study_seeded,
    RetryPolicy, Stage, Testbench,
};
use bmf_circuits::shard::{
    merge_packet_texts, run_shard, study_reference_stats, MergeOutcome, MergePolicy, ShardPacket,
    StageMoments, StageSuffStats, StudyConfig,
};
use bmf_core::mle::MleEstimator;
use bmf_core::pipeline::{FailureMode, FallbackLevel, RobustPipeline};
use bmf_core::suffstats::SufficientStats;
use bmf_core::transform::ShiftScale;
use bmf_core::MomentEstimate;
use bmf_linalg::{Matrix, Vector};
use bmf_stats::descriptive;
use bmf_stats::parallel::derive_seed;

/// Schematic draws per study.
pub const N_EARLY: usize = 1000;
/// Post-layout draws per study.
pub const N_LATE: usize = 64;
/// Shards per study.
pub const SHARDS: usize = 4;
/// Simulated failure rate of the study's testbench.
pub const FAULT_RATE: f64 = 0.05;
/// Clean post-layout draws in the accuracy reference pool.
const REFERENCE_POOL: usize = 2000;

/// The set-up workload.
pub struct AdcSharded {
    root_seed: u64,
    /// Clean post-layout moments of a large pool, in physical units.
    reference: MomentEstimate,
}

/// The study of unit `k` (its `seed` is what `bmf shard --seed` takes).
pub fn study_config(root_seed: u64, k: u64) -> StudyConfig {
    StudyConfig {
        circuit: "adc".to_string(),
        n_early: N_EARLY,
        n_late: N_LATE,
        shard_count: SHARDS,
        seed: derive_seed(root_seed, streams::SHARD_UNIT, k),
        max_attempts: RetryPolicy::default().max_attempts,
        fault_rate: FAULT_RATE,
    }
}

impl AdcSharded {
    /// Builds the clean reference pool and checks, once, that a sharded
    /// study's merged statistics equal the single-process study's bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// Simulation and statistics failures, and a failed check.
    pub fn setup(seed: u64, threads: usize) -> Result<AdcSharded, String> {
        let tb = AdcTestbench::default_180nm();
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

        let mut config = study_config(seed, 0);
        config.seed = derive_seed(seed, streams::SHARD_CHECK, 0);
        let texts = (0..SHARDS)
            .map(|i| run_shard(&config, i, threads).map(|p| (format!("shard-{i}"), p.to_json())))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)?;
        let merged = merge_packet_texts(&texts, &MergePolicy::default()).map_err(err)?;
        let tb = config.testbench().map_err(err)?;
        let study = two_stage_study_seeded(tb.as_ref(), N_EARLY, N_LATE, config.seed, threads)
            .map_err(err)?;
        let (early, late) = study_reference_stats(&study);
        if merged.early != early || merged.late != late {
            return Err("merged shard statistics differ from the single-process study".to_string());
        }
        Ok(AdcSharded {
            root_seed: seed,
            reference,
        })
    }

    /// Runs unit `k`.
    ///
    /// # Errors
    ///
    /// Any library error of the unit's calls.
    pub fn unit(&self, k: u64, ctx: &Ctx<'_>) -> Result<UnitOutcome, String> {
        let config = study_config(self.root_seed, k);
        let tr = ctx.tracer;
        let root = tr.span("unit.adc_sharded", ctx.unit, ROOT);
        let mut texts = Vec::with_capacity(SHARDS);
        let mut log = DrawLog::default();
        for i in 0..SHARDS {
            let packet = if tr.enabled() {
                let (packet, shard_log) = traced_shard(tr, ctx, root.id(), &config, i)?;
                log.attempts += shard_log.attempts;
                log.ok += shard_log.ok;
                log.ns.extend(shard_log.ns);
                packet
            } else {
                run_shard(&config, i, ctx.threads).map_err(err)?
            };
            let _s = tr.span("circuits.shard.encode", ctx.unit, root.id());
            texts.push((format!("shard-{i}"), packet.to_json()));
        }
        let outcome = {
            let _s = tr.span("circuits.shard.merge", ctx.unit, root.id());
            merge_packet_texts(&texts, &MergePolicy::default()).map_err(err)?
        };
        let (early_norm, late_stats, late_t) = {
            let _s = tr.span("core.transform", ctx.unit, root.id());
            normalized_study(&outcome)?
        };
        let (est, report) = {
            let _s = tr.span("core.pipeline.estimate_from_stats", ctx.unit, root.id());
            RobustPipeline::new()
                .with_mode(FailureMode::Degrade)
                .with_threads(ctx.threads)
                .estimate_from_stats(&early_norm, &late_stats, Some(outcome.coverage.clone()))
                .map_err(err)?
        };
        let output = {
            let _s = tr.span("core.io.csv_write", ctx.unit, root.id());
            let physical = late_t.invert_moments(&est).map_err(err)?;
            let names: Vec<String> = config
                .testbench()
                .map_err(err)?
                .metric_names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            moments_csv(&names, &physical)?
        };
        drop(root);

        let reference = late_t.apply_moments(&self.reference).map_err(err)?;
        let mle = MleEstimator::new()
            .estimate_from_stats(&late_stats)
            .map_err(err)?;
        let (mean_err, cov_err, mle_cov_err) = accuracy(&est, &mle, &reference)?;
        let below_map = report.fallback != FallbackLevel::Map;
        let problem = if below_map {
            Some(format!("estimate fell to the {} rung", report.fallback))
        } else if !outcome.coverage.is_complete() {
            Some("merge is missing shards".to_string())
        } else {
            check_fused(&est)
        };
        let packet_bytes = texts.iter().map(|(_, t)| t.len()).sum::<usize>() as f64 / SHARDS as f64;
        Ok(UnitOutcome {
            output,
            packets: texts.into_iter().map(|(_, t)| t).collect(),
            samples: (outcome.early.n + outcome.late.n) as u64,
            fusions: 1,
            mean_err,
            cov_err,
            mle_cov_err,
            curve_cost_reduction: None,
            problem,
            draws: if tr.enabled() {
                vec![("adc", log)]
            } else {
                Vec::new()
            },
            extras: vec![
                ("shard.packet_bytes", packet_bytes),
                ("pipeline.below_map", f64::from(u8::from(below_map))),
            ],
        })
    }
}

/// `run_shard` rebuilt from its public parts, with spans and a timing
/// testbench. Telemetry stays `None`, as in a process that does not
/// record.
fn traced_shard(
    tr: &Tracer,
    ctx: &Ctx<'_>,
    parent: u64,
    config: &StudyConfig,
    index: usize,
) -> Result<(ShardPacket, DrawLog), String> {
    let span = tr.span("circuits.shard.run", ctx.unit, parent);
    config.validate().map_err(err)?;
    let tb = Timed::new(config.testbench().map_err(err)?);
    let policy = RetryPolicy {
        max_attempts: config.max_attempts,
    };
    let mut retries = 0;
    let mut stage = |stage: Stage, total: usize| -> Result<StageSuffStats, String> {
        let (start, len) = StudyConfig::slice(total, index, config.shard_count);
        let slice = {
            let _s = tr.span("circuits.monte_carlo", ctx.unit, span.id());
            run_monte_carlo_slice_seeded_with_policy(
                &tb,
                stage,
                start,
                len,
                config.seed,
                ctx.threads,
                &policy,
            )
            .map_err(err)?
        };
        retries += slice.retries;
        let _s = tr.span("stats.exact.accumulate", ctx.unit, span.id());
        let mut stats = StageSuffStats::new(slice.nominal);
        stats.accumulate(&slice.samples);
        Ok(stats)
    };
    let early = stage(Stage::Schematic, config.n_early)?;
    let late = stage(Stage::PostLayout, config.n_late)?;
    let packet = ShardPacket {
        config: config.clone(),
        shard_index: index,
        early,
        late,
        retries,
        telemetry: None,
    };
    Ok((packet, tb.take_log()))
}

/// Per-dimension σ of a stage (unbiased), as `bmf merge` derives it.
fn stage_sd(moments: &StageMoments) -> Result<Vector, String> {
    if moments.n < 2 {
        return Err(format!("need at least 2 merged samples, got {}", moments.n));
    }
    let nm1 = (moments.n - 1) as f64;
    Ok(Vector::from_fn(moments.mean.len(), |j| {
        (moments.scatter[(j, j)] / nm1).max(0.0).sqrt()
    }))
}

/// `bmf merge`'s normalization of a merged study: early moments and late
/// sufficient statistics, centred on their stage nominal and scaled by the
/// early-stage σ.
fn normalized_study(
    outcome: &MergeOutcome,
) -> Result<(MomentEstimate, SufficientStats, ShiftScale), String> {
    let early_m = outcome.early.moments().map_err(err)?;
    let late_m = outcome.late.moments().map_err(err)?;
    let early_sd = stage_sd(&early_m)?;
    let early_t =
        ShiftScale::from_nominal_and_early_sd(&outcome.early.nominal, &early_sd).map_err(err)?;
    let late_t =
        ShiftScale::from_nominal_and_early_sd(&outcome.late.nominal, &early_sd).map_err(err)?;
    let early_norm = early_t
        .apply_moments(&MomentEstimate {
            cov: &early_m.scatter / early_m.n as f64,
            mean: early_m.mean,
        })
        .map_err(err)?;
    let d = late_m.mean.len();
    let late_stats = SufficientStats {
        n: late_m.n,
        dropped: outcome.late.dropped,
        mean: late_t.apply_vector(&late_m.mean).map_err(err)?,
        scatter: Matrix::from_fn(d, d, |i, j| {
            late_m.scatter[(i, j)] / (early_sd[i] * early_sd[j])
        }),
    };
    Ok((early_norm, late_stats, late_t))
}
