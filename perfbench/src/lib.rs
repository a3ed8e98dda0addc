//! Benchmark harness for the bmf-ams workspace.
//!
//! Times the calls into each layer's public functions from outside the
//! library: the `bmf_circuits` simulator (op-amp MNA, flash-ADC spectrum),
//! `bmf_core` fusion (cross-validation, MAP, the robust pipeline) and the
//! `bmf_circuits::shard` codec with the pipeline's sufficient-statistics
//! path. See `README.md` in this directory for how to run it and read it.

pub mod harness;
pub mod hostspeed;
pub mod kernels;
pub mod summary;
pub mod timed;
pub mod trace;
pub mod workloads;
