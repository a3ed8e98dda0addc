//! CI gate for the disabled-path cost of the `bmf_obs` instrumentation.
//!
//! The observability layer promises that when no `--trace-out` /
//! `--profile` / `--metrics-out` flag is given, every span and counter
//! call collapses to a relaxed atomic load plus a branch. This bin
//! measures that cost and fails (exit 1) when the estimated overhead on
//! the CV-selection micro-benchmark exceeds the budget.
//!
//! Method — the disabled branches are compiled in, so the overhead
//! cannot be measured by diffing two binaries at runtime; instead it is
//! bounded from measurements in one process:
//!
//! 1. calibrate the per-call cost of a disabled span + counter pair with
//!    a tight loop;
//! 2. run one CV selection with recording *enabled* to count how many
//!    instrumentation hits (span events + counter calls + histogram
//!    observations) the workload performs — a counter bumped once by
//!    `add(k)` is one call, not `k`;
//! 3. time the same CV selection with recording *disabled* (the shipped
//!    configuration) and report `hits x per_call_cost / workload_time`;
//! 4. gate the *events-enabled* path the same way: calibrate the cost of
//!    one structured-event emission (TLS buffer push + flight-ring
//!    insert), count the events the workload emits, and require
//!    `events x per_event_cost / workload_time` inside the same budget —
//!    so `--events-out` telemetry stays effectively free.
//! 5. gate the *server-enabled* path directly: against one live
//!    `--obs-listen` server, time interleaved pairs of workload blocks
//!    with a client scraping (one `/metrics` + `/health` pull every
//!    100 ms) and not scraping, alternating which arm runs first. A
//!    pilot of pairs measures the noise and sizes the run; the gate
//!    fires only when the lower 95% confidence bound of the median
//!    paired overhead exceeds the budget, so a regression must be
//!    larger than the noise to fail it.
//!
//! Usage: `cargo run --release -p bmf-bench --bin obs_overhead
//!         [--budget-percent <f>]` (default budget: 2%).

use bmf_core::cv::CrossValidation;
use bmf_core::MomentEstimate;
use bmf_linalg::{Matrix, Vector};
use bmf_stats::MultivariateNormal;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const CALIBRATION_ITERS: u64 = 20_000_000;

fn synthetic(d: usize, n: usize) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 7) as f64 / 7.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    let early = MomentEstimate {
        mean: Vector::zeros(d),
        cov: cov.clone(),
    };
    let truth = MultivariateNormal::new(Vector::zeros(d), cov).expect("spd");
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    (early, truth.sample_matrix(&mut rng, n))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let budget_percent: f64 = args
        .iter()
        .position(|a| a == "--budget-percent")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2.0);

    // 1. Per-call cost of the disabled fast path (span + counter pair).
    bmf_obs::reset();
    assert!(!bmf_obs::is_enabled(), "recording must start disabled");
    let t0 = Instant::now();
    for i in 0..CALIBRATION_ITERS {
        let _span = bmf_obs::span("obs_overhead.calibration");
        bmf_obs::counters::CV_FOLD_EVALS.incr();
        black_box(i);
    }
    let per_call = t0.elapsed().as_secs_f64() / CALIBRATION_ITERS as f64;
    eprintln!(
        "disabled span+counter pair: {:.2} ns/call ({CALIBRATION_ITERS} iterations)",
        per_call * 1e9
    );

    // 2. Count the workload's instrumentation hits with recording on.
    let (early, late) = synthetic(5, 48);
    let cv = CrossValidation::default();
    bmf_obs::reset();
    bmf_obs::enable();
    cv.select_seeded(&early, &late, 6, 1).expect("cv select");
    let events = bmf_obs::take_events().len() as u64;
    let calls: u64 = bmf_obs::counters::all().iter().map(|c| c.calls()).sum();
    let observations: u64 = bmf_obs::histograms::all()
        .iter()
        .map(|h| h.stats().count)
        .sum();
    bmf_obs::reset();
    let hits = events + calls + observations;
    eprintln!(
        "CV workload: {events} span events + {calls} counter calls + {observations} histogram observations = {hits} hits"
    );

    // 3. Time the workload in the shipped (disabled) configuration.
    cv.select_seeded(&early, &late, 6, 1).expect("warm-up");
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        cv.select_seeded(&early, &late, 6, 1).expect("cv select");
        best = best.min(t0.elapsed().as_secs_f64());
    }
    let overhead = hits as f64 * per_call / best;
    println!(
        "obs_overhead: {hits} hits x {:.2} ns = {:.1} us over a {:.1} ms CV select -> {:.4}% (budget {budget_percent}%)",
        per_call * 1e9,
        hits as f64 * per_call * 1e6,
        best * 1e3,
        overhead * 100.0
    );
    if overhead * 100.0 > budget_percent {
        eprintln!("FAIL: disabled-recorder overhead exceeds the {budget_percent}% budget");
        std::process::exit(1);
    }
    println!("OK: disabled-recorder overhead within budget");

    // 4. Events-enabled path: per-emission cost (field rendering + TLS
    //    push + flight-ring insert) times the workload's event volume.
    const EVENT_ITERS: u64 = 200_000;
    bmf_obs::reset();
    bmf_obs::enable();
    let t0 = Instant::now();
    for i in 0..EVENT_ITERS {
        bmf_obs::event!(Debug, "obs_overhead.calibration", "i": i);
        black_box(i);
    }
    let per_event = t0.elapsed().as_secs_f64() / EVENT_ITERS as f64;
    bmf_obs::reset();
    eprintln!(
        "enabled event emission: {:.1} ns/event ({EVENT_ITERS} iterations)",
        per_event * 1e9
    );

    bmf_obs::enable();
    cv.select_seeded(&early, &late, 6, 1).expect("cv select");
    let event_count = bmf_obs::take_event_records().len() as u64;
    bmf_obs::reset();
    let event_overhead = event_count as f64 * per_event / best;
    println!(
        "obs_overhead: events-on: {event_count} event(s) x {:.1} ns = {:.2} us over a {:.1} ms CV select -> {:.4}% (budget {budget_percent}%)",
        per_event * 1e9,
        event_count as f64 * per_event * 1e6,
        best * 1e3,
        event_overhead * 100.0
    );
    if event_overhead * 100.0 > budget_percent {
        eprintln!("FAIL: events-enabled overhead exceeds the {budget_percent}% budget");
        std::process::exit(1);
    }
    println!("OK: events-enabled overhead within budget");

    // 5. Server-enabled path: interleaved paired blocks of the workload
    //    with scraping off and on against one live server, sized from
    //    the measured noise; the gate reads a confidence bound on the
    //    median paired overhead, not one pair of timings.
    bmf_obs::reset();
    let block = ((SCRAPE_INTERVAL.as_secs_f64() / best).ceil() as usize).clamp(8, 400);
    let mut server = bmf_obs::ObsServer::start("127.0.0.1:0").expect("bind loopback");
    let scraper = Scraper::start(server.local_addr());
    let run_pairs = |pairs: std::ops::Range<usize>| -> Vec<f64> {
        pairs
            .map(|i| {
                // Alternate which arm runs first so drift within a pair
                // cancels across pairs instead of biasing one arm.
                let mut off = 0.0;
                let mut on = 0.0;
                for scraping in [i % 2 == 1, i % 2 == 0] {
                    scraper.set_scraping(scraping);
                    let t0 = Instant::now();
                    for _ in 0..block {
                        cv.select_seeded(&early, &late, 6, 1).expect("cv select");
                    }
                    let elapsed = t0.elapsed().as_secs_f64();
                    if scraping {
                        on = elapsed;
                    } else {
                        off = elapsed;
                    }
                }
                (on - off) / off
            })
            .collect()
    };
    let mut overheads = run_pairs(0..PILOT_PAIRS);
    let pairs = pairs_needed(&overheads, budget_percent / 100.0);
    overheads.extend(run_pairs(PILOT_PAIRS..pairs));
    let pulls = scraper.stop();
    server.stop();

    let gate = paired_gate(&overheads, budget_percent / 100.0);
    println!(
        "obs_overhead: server-on: median {:+.2}% [{:+.2}%, {:+.2}%] (95% CI) over {} pairs of {block}-select blocks under {pulls} scrape(s) (budget {budget_percent}%)",
        gate.median * 100.0,
        gate.lower * 100.0,
        gate.upper * 100.0,
        overheads.len(),
    );
    if gate.fires {
        eprintln!(
            "FAIL: server-enabled overhead exceeds the {budget_percent}% budget beyond the noise"
        );
        std::process::exit(1);
    }
    println!("OK: server-enabled overhead within budget");
}

/// Scrape cadence of the server gate: one `/metrics` + `/health` pull
/// per interval while scraping is on. A block lasts about one interval.
const SCRAPE_INTERVAL: std::time::Duration = std::time::Duration::from_millis(100);
/// Pairs run before sizing the experiment from their spread.
const PILOT_PAIRS: usize = 31;
/// Upper bound on the pair count, so a very noisy host still finishes.
const MAX_PAIRS: usize = 401;
/// Two-sided 95% normal quantile.
const Z95: f64 = 1.96;

/// A background client that pulls `/metrics` and `/health` at
/// [`SCRAPE_INTERVAL`] while scraping is switched on, and idles
/// otherwise.
struct Scraper {
    state: std::sync::Arc<std::sync::atomic::AtomicU8>,
    thread: std::thread::JoinHandle<u64>,
}

impl Scraper {
    const OFF: u8 = 0;
    const ON: u8 = 1;
    const STOP: u8 = 2;

    fn start(addr: std::net::SocketAddr) -> Scraper {
        use std::sync::atomic::Ordering::Relaxed;
        let state = std::sync::Arc::new(std::sync::atomic::AtomicU8::new(Self::OFF));
        let shared = std::sync::Arc::clone(&state);
        let thread = std::thread::spawn(move || {
            use std::io::{Read, Write};
            let mut pulls = 0u64;
            let mut last_pull: Option<Instant> = None;
            loop {
                match shared.load(Relaxed) {
                    Self::STOP => return pulls,
                    Self::ON if last_pull.is_none_or(|t| t.elapsed() >= SCRAPE_INTERVAL) => {
                        last_pull = Some(Instant::now());
                        for target in ["/metrics", "/health"] {
                            if let Ok(mut conn) = std::net::TcpStream::connect(addr) {
                                let _ = conn.write_all(
                                    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n")
                                        .as_bytes(),
                                );
                                let mut sink = String::new();
                                let _ = conn.read_to_string(&mut sink);
                                pulls += 1;
                            }
                        }
                    }
                    Self::OFF => last_pull = None,
                    _ => {}
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        Scraper { state, thread }
    }

    fn set_scraping(&self, on: bool) {
        let state = if on { Self::ON } else { Self::OFF };
        self.state
            .store(state, std::sync::atomic::Ordering::Relaxed);
    }

    /// Stops the client and returns how many pulls it made.
    fn stop(self) -> u64 {
        self.state
            .store(Self::STOP, std::sync::atomic::Ordering::Relaxed);
        self.thread.join().expect("scraper thread")
    }
}

/// The server gate's verdict on a set of paired relative overheads
/// (`(on - off) / off` per pair).
#[derive(Debug, Clone, Copy, PartialEq)]
struct PairedGate {
    median: f64,
    /// Lower end of the distribution-free 95% confidence interval of
    /// the median.
    lower: f64,
    /// Upper end of that interval.
    upper: f64,
    /// Whether the overhead exceeds the budget beyond the noise: the
    /// lower bound is above it.
    fires: bool,
}

/// Median of the paired overheads with its order-statistic 95%
/// confidence interval (the binomial sign-test interval, normal
/// approximation). Fires only when the whole interval sits above
/// `budget`, so noise alone cannot fail the gate.
fn paired_gate(overheads: &[f64], budget: f64) -> PairedGate {
    assert!(!overheads.is_empty(), "the gate needs at least one pair");
    let mut sorted = overheads.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    };
    // 1-based ranks k and n+1-k bracket the median with ~95% coverage.
    let k = ((n as f64 - Z95 * (n as f64).sqrt()) / 2.0)
        .floor()
        .max(1.0) as usize;
    let lower = sorted[k - 1];
    let upper = sorted[n - k];
    PairedGate {
        median,
        lower,
        upper,
        fires: lower > budget,
    }
}

/// How many pairs make the median's confidence half-width about
/// `budget`, given the spread of the pilot pairs: the gate can then
/// tell a regression of twice the budget from noise. The spread is the
/// MAD scaled to a normal sigma; the median's standard error is
/// `1.2533 sigma / sqrt(n)`. Never fewer than the pilot, never more
/// than [`MAX_PAIRS`].
fn pairs_needed(pilot: &[f64], budget: f64) -> usize {
    let mut sorted = pilot.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    let mut deviations: Vec<f64> = sorted.iter().map(|x| (x - median).abs()).collect();
    deviations.sort_by(f64::total_cmp);
    let sigma = 1.4826 * deviations[deviations.len() / 2];
    let needed = (Z95 * 1.2533 * sigma / budget).powi(2).ceil();
    (needed as usize).clamp(pilot.len(), MAX_PAIRS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// Paired overheads with a true shift and noise of the size seen on
    /// a busy 2-core host (roughly ±10% per pair).
    fn synthetic_pairs(shift: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let noise: f64 = (0..4).map(|_| rng.gen_range(-0.1..0.1)).sum::<f64>() / 2.0;
                shift + noise
            })
            .collect()
    }

    #[test]
    fn a_a_noise_never_fires() {
        for seed in 0..50 {
            for n in [PILOT_PAIRS, 101, MAX_PAIRS] {
                let gate = paired_gate(&synthetic_pairs(0.0, n, seed), 0.02);
                assert!(!gate.fires, "seed {seed}, {n} pairs: {gate:?}");
                assert!(gate.lower <= gate.median && gate.median <= gate.upper);
            }
        }
    }

    #[test]
    fn a_ten_percent_shift_fires() {
        for seed in 0..50 {
            let pilot = synthetic_pairs(0.10, PILOT_PAIRS, seed);
            let n = pairs_needed(&pilot, 0.02);
            let gate = paired_gate(&synthetic_pairs(0.10, n, seed), 0.02);
            assert!(gate.fires, "seed {seed}, {n} pairs: {gate:?}");
        }
    }

    #[test]
    fn pair_count_grows_with_the_noise() {
        let quiet = pairs_needed(&synthetic_pairs(0.0, PILOT_PAIRS, 1), 0.02);
        let loud: Vec<f64> = synthetic_pairs(0.0, PILOT_PAIRS, 1)
            .iter()
            .map(|x| 4.0 * x)
            .collect();
        assert!(pairs_needed(&loud, 0.02) > quiet);
        assert_eq!(pairs_needed(&[0.0; PILOT_PAIRS], 0.02), PILOT_PAIRS);
        assert_eq!(pairs_needed(&loud, 1e-6), MAX_PAIRS);
    }

    #[test]
    fn interval_uses_order_statistics() {
        let pairs: Vec<f64> = (0..31).map(|i| i as f64).collect();
        let gate = paired_gate(&pairs, 100.0);
        assert_eq!(gate.median, 15.0);
        // n = 31: k = floor((31 - 1.96 * sqrt(31)) / 2) = 10.
        assert_eq!((gate.lower, gate.upper), (9.0, 21.0));
        assert!(!gate.fires);
        assert!(paired_gate(&pairs, 8.5).fires);
    }
}
