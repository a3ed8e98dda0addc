//! The kernels rung of the ladder: complex LU at n = 6, one AC solve of
//! the op-amp's small-signal topology, one 4096-point spectral analysis,
//! and Cholesky at d = 5. Each is timed over batches long enough for the
//! clock to resolve, and reported as the median per-call time.

use bmf_circuits::mna::AcAnalysis;
use bmf_circuits::netlist::Netlist;
use bmf_circuits::spectrum::{analyze, coherent_sine};
use bmf_linalg::{CLu, CMatrix, CVector, Cholesky, Complex64, Matrix};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time of one timed batch.
const BATCH: Duration = Duration::from_millis(40);
/// Timed batches per kernel (the median is reported).
const BATCHES: usize = 7;

/// Median nanoseconds per call of `f`, over [`BATCHES`] batches of a call
/// count calibrated so one batch lasts about [`BATCH`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        if start.elapsed() >= BATCH / 4 || calls >= 1 << 30 {
            break;
        }
        calls *= 2;
    }
    calls *= 4;
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[BATCHES / 2]
}

/// The op-amp's small-signal netlist (nodes: 1 in, 2 stage-1 out, 3 out,
/// 4 Rz) at representative bias-point values of the 45 nm design.
fn opamp_small_signal() -> Result<Netlist, String> {
    let e = |r: bmf_circuits::Result<()>| r.map_err(|e| e.to_string());
    let mut nl = Netlist::new(5);
    e(nl.voltage_source(1, 0, 1.0))?;
    e(nl.vccs(2, 0, 1, 0, 1.2e-3))?;
    e(nl.resistor(2, 0, 1.5e5))?;
    e(nl.capacitor(2, 0, 1.0e-13))?;
    e(nl.vccs(3, 0, 2, 0, 6.0e-3))?;
    e(nl.resistor(3, 0, 4.0e4))?;
    e(nl.capacitor(3, 0, 1.0e-12))?;
    e(nl.capacitor(2, 4, 3.0e-13))?;
    e(nl.resistor(4, 3, 1.0e3))?;
    Ok(nl)
}

/// A well-conditioned complex n × n matrix (diagonally dominant).
fn complex_matrix(n: usize) -> CMatrix {
    let mut a = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let x = (i * n + j) as f64;
            a[(i, j)] = Complex64::new((0.37 * x).sin(), (0.91 * x).cos() * 0.5);
        }
        a[(i, i)] = Complex64::new(2.0 * n as f64, 1.0);
    }
    a
}

/// An SPD d × d matrix: a correlation-like matrix with unit diagonal.
fn spd_matrix(d: usize) -> Matrix {
    Matrix::from_fn(d, d, |i, j| 0.6f64.powi((i as i32 - j as i32).abs()))
}

/// Times every kernel; returns `(metric name, value)` pairs.
///
/// # Errors
///
/// A kernel whose inputs the library rejects.
pub fn run() -> Result<Vec<(&'static str, f64)>, String> {
    let a = complex_matrix(6);
    let b = CVector::from_slice(&[Complex64::ONE; 6]);
    CLu::new(&a)
        .and_then(|lu| lu.solve_vec(&b))
        .map_err(|e| e.to_string())?;
    let lu_ns = ns_per_call(|| {
        let lu = CLu::new(black_box(&a)).expect("checked above");
        black_box(lu.solve_vec(black_box(&b)).expect("checked above"));
    });

    let nl = opamp_small_signal()?;
    let ac = AcAnalysis::new(&nl);
    let omega = 2.0 * std::f64::consts::PI * 1.0e6;
    ac.solve(omega).map_err(|e| e.to_string())?;
    let ac_ns = ns_per_call(|| {
        black_box(ac.solve(black_box(omega)).expect("checked above"));
    });

    // The ADC testbench's record: 4096 points, tone in bin 127.
    let record = coherent_sine(4096, 127, 0.9, 0.0, 0.3).map_err(|e| e.to_string())?;
    analyze(&record, 127).map_err(|e| e.to_string())?;
    let analyze_ns = ns_per_call(|| {
        black_box(analyze(black_box(&record), 127).expect("checked above"));
    });

    let s = spd_matrix(5);
    Cholesky::new(&s).map_err(|e| e.to_string())?;
    let chol_ns = ns_per_call(|| {
        black_box(Cholesky::new(black_box(&s)).expect("checked above"));
    });

    Ok(vec![
        ("linalg.complex_lu.n6_ns", lu_ns),
        ("circuits.mna.ac_solve_ns", ac_ns),
        ("circuits.spectrum.analyze_us", analyze_ns / 1e3),
        ("linalg.cholesky.d5_ns", chol_ns),
    ])
}
