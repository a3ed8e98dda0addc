//! A timing and counting wrapper around any [`Testbench`].
//!
//! It delegates every call unchanged, so the Monte Carlo runner draws the
//! same random streams and produces the same bits as with the bare
//! testbench; it only adds two clock reads and one short lock per draw.

use bmf_circuits::monte_carlo::{Stage, Testbench};
use bmf_circuits::Result;
use bmf_linalg::Vector;
use std::sync::Mutex;
use std::time::Instant;

/// What the wrapper saw: every `sample()` call and its duration.
#[derive(Debug, Clone, Default)]
pub struct DrawLog {
    /// `sample()` calls, failed ones included.
    pub attempts: u64,
    /// Calls that returned a metric vector.
    pub ok: u64,
    /// Duration of every call, in nanoseconds.
    pub ns: Vec<u64>,
}

/// [`Testbench`] wrapper that times and counts `sample()` calls.
pub struct Timed<T> {
    inner: T,
    log: Mutex<DrawLog>,
}

impl<T: Testbench> Timed<T> {
    /// Wraps `inner` with an empty log.
    pub fn new(inner: T) -> Timed<T> {
        Timed {
            inner,
            log: Mutex::new(DrawLog::default()),
        }
    }

    /// Takes the log, leaving an empty one behind.
    pub fn take_log(&self) -> DrawLog {
        std::mem::take(&mut *self.log.lock().expect("draw log lock poisoned"))
    }
}

impl<T: Testbench> Testbench for Timed<T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn metric_names(&self) -> Vec<&'static str> {
        self.inner.metric_names()
    }

    fn nominal(&self, stage: Stage) -> Result<Vector> {
        self.inner.nominal(stage)
    }

    fn sample(&self, stage: Stage, rng: &mut dyn rand::RngCore) -> Result<Vector> {
        let start = Instant::now();
        let out = self.inner.sample(stage, rng);
        let ns = start.elapsed().as_nanos() as u64;
        let mut log = self.log.lock().expect("draw log lock poisoned");
        log.attempts += 1;
        log.ok += u64::from(out.is_ok());
        log.ns.push(ns);
        out
    }
}
