//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared virtual machine the same code runs up to ~1.8× slower for
//! minutes at a time when neighbours load the host, which no amount of
//! repetition inside one run can average away. The untraced run therefore
//! brackets every timed step with a short calibration burst — a fixed
//! matrix-product loop owned by the benchmark, run on the same T threads —
//! and reports each step's wall time rescaled to a reference host speed:
//! `wall × REFERENCE_S ÷ burst`. A change to the library moves the step
//! and not the burst, so it still shows in full; a slower host moves both.

use std::hint::black_box;
use std::time::Instant;

/// Burst time that defines the reference host speed. On a 2-vCPU Intel
/// Xeon VM a burst took 5.3–10.7 ms as host load varied, so its timings
/// come out at roughly 0.5–0.95× the measured wall time.
pub const REFERENCE_S: f64 = 5.0e-3;

/// Matrix order and repetitions of one burst.
const N: usize = 48;
const REPS: usize = 60;

/// One calibration burst on `threads` threads; returns the slowest
/// thread's time in seconds (a statically split parallel step waits for
/// its slowest worker too).
fn burst(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|i| s.spawn(move || matmul(i as f64)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("calibration worker panicked"))
            .fold(0.0, f64::max)
    })
}

/// The fixed loop: repeated 48 × 48 matrix products, throughput-bound
/// floating-point work on cache-resident data. It tracks the host's load
/// better than a latency-bound loop does, because a loaded host slows
/// throughput-bound code (the simulator and the estimator) the most.
fn matmul(seed: f64) -> f64 {
    let a: Vec<f64> = (0..N * N)
        .map(|i| ((i as f64 + seed) * 0.37).sin())
        .collect();
    let b: Vec<f64> = (0..N * N)
        .map(|i| ((i as f64 - seed) * 0.91).cos())
        .collect();
    let mut c = vec![0.0f64; N * N];
    let start = Instant::now();
    for _ in 0..REPS {
        for i in 0..N {
            for k in 0..N {
                let aik = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += aik * b[k * N + j];
                }
            }
        }
        black_box(&mut c);
    }
    start.elapsed().as_secs_f64()
}

/// Times `f`, bracketed by calibration bursts. Returns its result, its
/// wall time and its wall time at the reference host speed.
pub fn timed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, f64, f64) {
    let before = burst(threads);
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed().as_secs_f64();
    let after = burst(threads);
    (out, wall, wall * REFERENCE_S / (0.5 * (before + after)))
}
