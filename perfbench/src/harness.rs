//! Runs a workload for a fixed time and turns what it saw into metrics.
//!
//! * The untraced run (`--trace 0`) sets up three times, runs one untimed
//!   warm-up unit, then runs units back to back until the time is up, and
//!   reports the end-to-end metrics.
//! * The traced run (`--trace 1`) times the kernels rung, then alternates
//!   untraced and traced units of the workload for the same time, runs one
//!   unit on a single thread, and finally a few traced units of each other
//!   workload (the stage rung), and reports the per-layer metrics.

use crate::hostspeed;
use crate::kernels;
use crate::summary::{fnv1a, median, peak_rss_mb, percentile, tail};
use crate::trace::{SpanRecord, Tracer, UnitTree};
use crate::workloads::{Ctx, UnitOutcome, Workload, NAMES};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Units the traced run repeats on one thread for the parallel efficiency.
const ONE_THREAD_UNITS: u64 = 3;
/// Every this many units, a unit re-runs the previous unit's inputs and
/// must reproduce its output bits.
const REPEAT_EVERY: u64 = 8;

/// One reported metric.
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run: the correctness tally, the metrics and readable notes.
pub struct Report {
    /// Units attempted.
    pub attempted: u64,
    /// Units that errored, fell below the MAP rung or failed a check.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Counts attempted and failed units and keeps the first few problems.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Records one unit, counting it failed if it errored, failed its own
    /// check, or does not reproduce the fingerprint `must_match`. Returns
    /// the outcome of any unit that ran to the end, so a failed check
    /// still leaves its measurements in the report.
    fn record(
        &mut self,
        label: &str,
        outcome: Result<UnitOutcome, String>,
        must_match: Option<u64>,
    ) -> Option<UnitOutcome> {
        self.attempted += 1;
        let problem = match &outcome {
            Err(e) => Some(format!("error: {e}")),
            Ok(o) => match (&o.problem, must_match) {
                (Some(p), _) => Some(p.clone()),
                (None, Some(fp)) if fingerprint(o) != fp => {
                    Some("output bits differ from the same inputs' earlier run".to_string())
                }
                _ => None,
            },
        };
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 5 {
                self.problems.push(format!("{label}: {p}"));
            }
        }
        outcome.ok()
    }

    fn notes(&self, notes: &mut Vec<String>) {
        notes.push(format!(
            "failed_frac = {} share ({} of {} units)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        ));
        for p in &self.problems {
            notes.push(format!("FAILED {p}"));
        }
    }
}

/// Fingerprint of everything a unit must reproduce exactly.
fn fingerprint(o: &UnitOutcome) -> u64 {
    let mut bytes = o.output.clone();
    for p in &o.packets {
        bytes.extend_from_slice(p.as_bytes());
    }
    fnv1a(&bytes)
}

fn ctx(tracer: &Tracer, threads: usize, unit: u64) -> Ctx<'_> {
    Ctx {
        threads,
        tracer,
        unit,
    }
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// A failed set-up or warm-up unit, or a metric that came out non-finite.
pub fn run_untraced(
    workload: &str,
    seed: u64,
    seconds: f64,
    threads: usize,
) -> Result<Report, String> {
    let (mut setup_raw, mut setup_ref) = (Vec::new(), Vec::new());
    let mut built = None;
    for _ in 0..SETUPS {
        let (w, raw, at_ref) =
            hostspeed::timed(threads, || Workload::setup(workload, seed, threads));
        built = Some(w?);
        setup_raw.push(raw);
        setup_ref.push(at_ref);
    }
    let w = built.expect("at least one set-up ran");
    let quiet = Tracer::new(false);
    let warm = w.unit(0, &ctx(&quiet, threads, 0))?;

    let mut tally = Tally::default();
    let (mut k, mut last_fp) = (0u64, fingerprint(&warm));
    // Unit times at the reference host speed, and as measured.
    let (mut unit_s, mut unit_raw) = (Vec::new(), Vec::new());
    let (mut samples, mut fusions) = (0u64, 0u64);
    let mut accuracy = Accuracy::default();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut i = 0u64;
    while i == 0 || start.elapsed() < budget {
        // Unit 0 repeats the warm-up's inputs; after that every
        // REPEAT_EVERY-th unit repeats its predecessor's.
        let repeat = i == 0 || i.is_multiple_of(REPEAT_EVERY);
        if !repeat {
            k += 1;
        }
        let (outcome, raw, at_ref) =
            hostspeed::timed(threads, || w.unit(k, &ctx(&quiet, threads, i + 1)));
        unit_raw.push(raw);
        unit_s.push(at_ref);
        let fp = outcome.as_ref().map(fingerprint).ok();
        let label = format!("unit {i} (inputs {k})");
        if let Some(o) = tally.record(&label, outcome, repeat.then_some(last_fp)) {
            samples += o.samples;
            fusions += o.fusions;
            accuracy.add(&o);
        }
        if let Some(fp) = fp {
            last_fp = fp;
        }
        i += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let units = unit_s.len() as f64;
    let busy: f64 = unit_s.iter().sum();
    let (tail_s, tail_pct, beyond) = tail(&unit_s);

    let metrics = vec![
        metric("setup_s", median(&setup_ref), "s"),
        metric("wall_s", busy / units, "s"),
        metric("unit_s.p50", median(&unit_s), "s"),
        metric("unit_s.tail", tail_s, "s"),
        metric("samples_per_s", samples as f64 / busy, "1/s"),
        metric("fusions_per_s", fusions as f64 / busy, "1/s"),
        metric("bmf_cov_err", mean(&accuracy.cov_err), "norm"),
        metric("bmf_mean_err", mean(&accuracy.mean_err), "norm"),
        metric("cov_cost_reduction", accuracy.cost_reduction(), "x"),
        metric(
            "peak_rss_mb",
            peak_rss_mb().ok_or("peak RSS is not available (/proc/self/status)")?,
            "MB",
        ),
    ];
    let raw_busy: f64 = unit_raw.iter().sum();
    let mut notes = vec![
        format!(
            "{workload}: {} units in {wall:.3} s on {threads} thread(s)",
            unit_s.len()
        ),
        format!(
            "as measured, before rescaling to the reference host speed: set-ups {setup_raw:.3?} s, unit p50 {:.4} s, tail {:.4} s, {:.1} samples/s; host at {:.3}x the reference",
            median(&unit_raw),
            tail(&unit_raw).0,
            samples as f64 / raw_busy,
            busy / raw_busy
        ),
    ];
    notes.push(format!(
        "unit_s.tail is p{tail_pct:.1} of {} units ({beyond} beyond it)",
        unit_s.len()
    ));
    tally.notes(&mut notes);
    finish(tally, metrics, notes)
}

/// Accuracy of the run's units. Errors are averaged over units, as the
/// paper averages Eq. 37/38 over repetitions.
#[derive(Default)]
struct Accuracy {
    mean_err: Vec<f64>,
    cov_err: Vec<f64>,
    mle_cov_err: Vec<f64>,
    curve: Vec<f64>,
}

impl Accuracy {
    fn add(&mut self, o: &UnitOutcome) {
        self.mean_err.push(o.mean_err);
        self.cov_err.push(o.cov_err);
        self.mle_cov_err.push(o.mle_cov_err);
        self.curve.extend(o.curve_cost_reduction);
    }

    /// From the units' own error curves where they measure them (median
    /// over units); otherwise from the mean MLE and BMF errors at the
    /// units' sample count, under the MLE error's n^-1/2 law: MLE needs
    /// (MLE err ÷ BMF err)² times the samples to match BMF.
    fn cost_reduction(&self) -> f64 {
        if !self.curve.is_empty() {
            return median(&self.curve);
        }
        (mean(&self.mle_cov_err) / mean(&self.cov_err)).powi(2)
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn finish(tally: Tally, metrics: Vec<Metric>, notes: Vec<String>) -> Result<Report, String> {
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} came out {}", m.name, m.value));
    }
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        notes,
    })
}

/// Raw observations by series name, from traced units.
#[derive(Default)]
struct Observations {
    series: BTreeMap<String, Vec<f64>>,
}

impl Observations {
    fn push(&mut self, key: impl Into<String>, value: f64) {
        self.series.entry(key.into()).or_default().push(value);
    }

    fn get(&self, key: &str) -> &[f64] {
        self.series.get(key).map_or(&[], Vec::as_slice)
    }

    fn add_outcome(&mut self, o: &UnitOutcome) {
        for (circuit, log) in &o.draws {
            let key = format!("draw_ns:{circuit}");
            for &ns in &log.ns {
                self.push(key.clone(), ns as f64);
            }
            self.push(format!("attempts:{circuit}"), log.attempts as f64);
            self.push(format!("ok:{circuit}"), log.ok as f64);
        }
        for &(key, value) in &o.extras {
            self.push(key, value);
        }
    }

    fn add_spans(&mut self, spans: &[SpanRecord]) {
        for u in UnitTree::group(spans) {
            let wall = u.root.dur_ns().max(1) as f64;
            self.push("unit.coverage", u.coverage());
            self.push("unit.share.circuits", u.layer_share("circuits"));
            let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
            let mut reps: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for s in u.spans.iter().filter(|s| s.id != u.root.id) {
                self.push(format!("span:{}", s.name), s.dur_ns() as f64);
                *sums.entry(s.name).or_default() += s.dur_ns();
                if s.name == "core.cv.select" && s.arg == 256 {
                    self.push("span:core.cv.select@256", s.dur_ns() as f64);
                }
                if s.name == "core.experiment.repetition" {
                    reps.entry(s.arg).or_default().push(s.dur_ns() as f64);
                }
            }
            for (name, ns) in sums {
                self.push(format!("sum:{name}"), ns as f64);
            }
            // CV share: of repetition time where the unit has sweep
            // repetitions; elsewhere CV runs (if at all) inside the
            // pipeline call, whose share of the unit bounds it from above.
            let rep_ns = u.total_ns("core.experiment.repetition");
            let cv_share = if rep_ns > 0 {
                u.total_ns("core.cv.select") as f64 / rep_ns as f64
            } else {
                (u.total_ns("core.pipeline.estimate")
                    + u.total_ns("core.pipeline.estimate_from_stats")) as f64
                    / wall
            };
            self.push("unit.share.cv", cv_share);
            for durations in reps.values() {
                let max = durations.iter().copied().fold(f64::MIN, f64::max);
                self.push("straggler", max / median(durations));
            }
        }
    }
}

/// Per-layer series: the traced workload's own where it has them, the
/// stage rung's otherwise.
struct Layered<'a> {
    primary: &'a Observations,
    ladder: &'a Observations,
    /// Series that came from the stage rung.
    from_ladder: RefCell<BTreeSet<String>>,
}

impl Layered<'_> {
    fn get(&self, key: &str) -> &[f64] {
        if !self.primary.get(key).is_empty() {
            return self.primary.get(key);
        }
        if !self.ladder.get(key).is_empty() {
            self.from_ladder.borrow_mut().insert(key.to_string());
        }
        self.ladder.get(key)
    }
}

/// Time spent running units of one workload, with their spans.
fn traced_segment(
    w: &Workload,
    tracer: &Tracer,
    threads: usize,
    units: std::ops::Range<u64>,
    obs: &mut Observations,
    tally: &mut Tally,
    label: &str,
) {
    let first = units.start;
    for id in units {
        let outcome = w.unit(id - first, &ctx(tracer, threads, id));
        if let Some(o) = tally.record(
            &format!("{label} traced unit {}", id - first),
            outcome,
            None,
        ) {
            obs.add_outcome(&o);
        }
    }
}

/// Spans of units `ids`.
fn spans_of(tracer: &Tracer, ids: std::ops::Range<u64>) -> Vec<SpanRecord> {
    tracer
        .spans()
        .into_iter()
        .filter(|s| ids.contains(&s.unit))
        .collect()
}

/// Traced units of each other workload in the stage rung.
fn ladder_units(workload: &str) -> u64 {
    match workload {
        "adc_sweep" => 1,
        _ => 3,
    }
}

/// The traced run: per-layer metrics. Writes the spans to `trace_path`.
///
/// # Errors
///
/// A failed set-up, kernel or warm-up unit, an unwritable trace file, or a
/// metric that came out non-finite.
pub fn run_traced(
    workload: &str,
    seed: u64,
    seconds: f64,
    threads: usize,
    trace_path: &std::path::Path,
) -> Result<Report, String> {
    let w = Workload::setup(workload, seed, threads)?;
    let kernel_values = kernels::run()?;
    let quiet = Tracer::new(false);
    let tracer = Tracer::new(true);
    w.unit(0, &ctx(&quiet, threads, 0))?;

    // Paired units: the same inputs untraced and traced, in alternating
    // order; the traced unit must reproduce the untraced one's bits.
    let mut tally = Tally::default();
    let mut primary = Observations::default();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut k = 0u64;
    while k == 0 || start.elapsed() < budget {
        let id = k + 1;
        let run = |traced: bool| {
            let t = Instant::now();
            let out = if traced {
                w.unit(k, &ctx(&tracer, threads, id))
            } else {
                w.unit(k, &ctx(&quiet, threads, id))
            };
            (out, t.elapsed().as_secs_f64())
        };
        let ((plain, tp), (traced, tt)) = if k.is_multiple_of(2) {
            let p = run(false);
            (p, run(true))
        } else {
            let t = run(true);
            (run(false), t)
        };
        plain_s.push(tp);
        traced_s.push(tt);
        let plain_fp = plain.as_ref().map(fingerprint).ok();
        tally.record(&format!("unit {k}"), plain, None);
        if let Some(o) = tally.record(&format!("traced unit {k}"), traced, plain_fp) {
            primary.add_outcome(&o);
        }
        k += 1;
    }
    let paired_s = start.elapsed().as_secs_f64();
    let primary_units = 1..k + 1;
    primary.add_spans(&spans_of(&tracer, primary_units.clone()));

    let mut one_thread = Vec::with_capacity(ONE_THREAD_UNITS as usize);
    for k in 0..ONE_THREAD_UNITS {
        let t = Instant::now();
        w.unit(k, &ctx(&quiet, 1, 0))?;
        one_thread.push(t.elapsed().as_secs_f64());
    }
    let one_thread_s = median(&one_thread);
    // Against the T-thread times of the same inputs.
    let same = plain_s.len().min(one_thread.len());
    let efficiency = one_thread_s / (threads as f64 * median(&plain_s[..same]));

    let mut ladder = Observations::default();
    let mut next = primary_units.end;
    for other in NAMES.iter().filter(|&&n| n != workload) {
        let lw = Workload::setup(other, seed, threads)?;
        let ids = next..next + ladder_units(other);
        traced_segment(
            &lw,
            &tracer,
            threads,
            ids.clone(),
            &mut ladder,
            &mut tally,
            other,
        );
        ladder.add_spans(&spans_of(&tracer, ids.clone()));
        next = ids.end;
    }

    if let Some(dir) = trace_path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(trace_path, tracer.perfetto_json())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let kernel = |name: &str| {
        kernel_values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |&(_, v)| v)
    };
    let s = Layered {
        primary: &primary,
        ladder: &ladder,
        from_ladder: RefCell::new(BTreeSet::new()),
    };
    let opamp_p50 = percentile(s.get("draw_ns:opamp"), 0.5);
    let opamp_p99 = percentile(s.get("draw_ns:opamp"), 0.99);
    let adc_p50 = percentile(s.get("draw_ns:adc"), 0.5);
    let adc_p99 = percentile(s.get("draw_ns:adc"), 0.99);
    let ratio =
        |ok: &[f64], attempts: &[f64]| ok.iter().sum::<f64>() / attempts.iter().sum::<f64>();
    let opamp_attempts = median(s.get("attempts:opamp"));
    let opamp_ok = ratio(s.get("ok:opamp"), s.get("attempts:opamp"));
    let adc_attempts = median(s.get("attempts:adc"));
    let adc_ok = ratio(s.get("ok:adc"), s.get("attempts:adc"));
    let ac_ns = kernel("circuits.mna.ac_solve_ns");
    let analyze_us = kernel("circuits.spectrum.analyze_us");
    let select_p50_ms = percentile(s.get("span:core.cv.select"), 0.5) / 1e6;
    let candidates = median(s.get("cv.feasible_candidates"));

    let metrics = vec![
        metric("circuits.opamp.sample_us.p50", opamp_p50 / 1e3, "us"),
        metric("circuits.opamp.sample_us.p99", opamp_p99 / 1e3, "us"),
        metric("circuits.adc.sample_us.p50", adc_p50 / 1e3, "us"),
        metric("circuits.adc.sample_us.p99", adc_p99 / 1e3, "us"),
        metric("circuits.opamp.attempts", opamp_attempts, "count"),
        metric("circuits.opamp.ok_ratio", opamp_ok, "ratio"),
        metric("circuits.adc.attempts", adc_attempts, "count"),
        metric("circuits.adc.ok_ratio", adc_ok, "ratio"),
        metric("circuits.mna.ac_solve_ns", ac_ns, "ns"),
        metric("circuits.opamp.implied_solves", opamp_p50 / ac_ns, "count"),
        metric("circuits.spectrum.analyze_us", analyze_us, "us"),
        metric(
            "circuits.spectrum.share",
            analyze_us * 1e3 / adc_p50,
            "ratio",
        ),
        metric(
            "circuits.monte_carlo.busy_s",
            median(s.get("sum:circuits.monte_carlo")) / 1e9,
            "s",
        ),
        metric(
            "circuits.shard.run_s",
            median(s.get("sum:circuits.shard.run")) / 1e9,
            "s",
        ),
        metric(
            "circuits.shard.encode_us",
            median(s.get("span:circuits.shard.encode")) / 1e3,
            "us",
        ),
        metric(
            "circuits.shard.packet_bytes",
            median(s.get("shard.packet_bytes")),
            "bytes",
        ),
        metric(
            "circuits.shard.merge_ms",
            median(s.get("span:circuits.shard.merge")) / 1e6,
            "ms",
        ),
        metric(
            "core.io.csv_write_ms",
            median(s.get("sum:core.io.csv_write")) / 1e6,
            "ms",
        ),
        metric(
            "core.io.csv_read_ms",
            median(s.get("sum:core.io.csv_read")) / 1e6,
            "ms",
        ),
        metric("core.io.csv_bytes", median(s.get("io.csv_bytes")), "bytes"),
        metric(
            "core.pipeline.estimate_ms",
            median(s.get("span:core.pipeline.estimate")) / 1e6,
            "ms",
        ),
        metric(
            "core.pipeline.estimate_from_stats_us",
            median(s.get("span:core.pipeline.estimate_from_stats")) / 1e3,
            "us",
        ),
        metric(
            "core.pipeline.below_map",
            primary.get("pipeline.below_map").iter().sum::<f64>()
                + ladder.get("pipeline.below_map").iter().sum::<f64>(),
            "count",
        ),
        metric("core.cv.select_ms.p50", select_p50_ms, "ms"),
        metric(
            "core.cv.select_ms.p99",
            percentile(s.get("span:core.cv.select"), 0.99) / 1e6,
            "ms",
        ),
        metric(
            "core.cv.select_ms.n256",
            median(s.get("span:core.cv.select@256")) / 1e6,
            "ms",
        ),
        metric(
            "core.cv.candidates_per_s",
            candidates / (select_p50_ms / 1e3),
            "1/s",
        ),
        metric(
            "core.cv.share",
            median(primary.get("unit.share.cv")),
            "ratio",
        ),
        metric(
            "core.map.estimate_us",
            median(s.get("span:core.map.estimate")) / 1e3,
            "us",
        ),
        metric(
            "core.mle.estimate_us",
            median(s.get("span:core.mle.estimate")) / 1e3,
            "us",
        ),
        metric(
            "linalg.cholesky.d5_ns",
            kernel("linalg.cholesky.d5_ns"),
            "ns",
        ),
        metric(
            "linalg.complex_lu.n6_ns",
            kernel("linalg.complex_lu.n6_ns"),
            "ns",
        ),
        metric("stats.parallel.efficiency", efficiency, "ratio"),
        metric(
            "stats.parallel.straggler_ratio",
            median(s.get("straggler")),
            "ratio",
        ),
        metric(
            "stats.exact.accumulate_us",
            median(s.get("span:stats.exact.accumulate")) / 1e3,
            "us",
        ),
        metric(
            "trace.coverage",
            median(primary.get("unit.coverage")),
            "ratio",
        ),
        metric(
            "trace.overhead",
            median(&traced_s) / median(&plain_s) - 1.0,
            "ratio",
        ),
        metric(
            "trace.share.circuits",
            median(primary.get("unit.share.circuits")),
            "ratio",
        ),
    ];
    let ladder_keys: Vec<String> = s.from_ladder.into_inner().into_iter().collect();

    let mut notes = vec![format!(
        "{workload} traced: {k} paired units in {paired_s:.3} s on {threads} thread(s); units on 1 thread took {one_thread_s:.3} s (median)"
    )];
    notes.push(format!(
        "shares of unit wall time: circuits {:.4}, core.cv {:.4}{}",
        median(primary.get("unit.share.circuits")),
        median(primary.get("unit.share.cv")),
        if workload == "adc_sweep" {
            " (of repetition time)"
        } else {
            " (upper bound: the whole fusion call)"
        }
    ));
    notes.push(
        "implied_solves and spectrum.share are computed from the kernels rung and the draw times"
            .to_string(),
    );
    notes.push(format!(
        "from the stage rung (the workload does not call these layers): {}",
        if ladder_keys.is_empty() {
            "none".to_string()
        } else {
            ladder_keys.join(", ")
        }
    ));
    notes.push(format!("spans written to {}", trace_path.display()));
    tally.notes(&mut notes);
    finish(tally, metrics, notes)
}
