//! Run correlation: one id that joins every artifact of a run.
//!
//! A [`RunContext`] derives a 64-bit run id from the run's root seed and
//! a hash of its configuration string, so two runs with the same inputs
//! get the same id (reproducibility is the repo's whole point — the id
//! is a *name* for the run's inputs, not a nonce). Binaries install the
//! context once via [`ObsOptions::set_run`](crate::cli::ObsOptions::set_run);
//! the id is then stamped into every JSONL event line, the
//! `FusionReport`, the Chrome trace and metrics exports, the dashboard
//! and any flight-recorder dump, letting offline tools join them
//! without guessing by timestamp.

use std::sync::Mutex;

/// Identity of the current process run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunContext {
    /// 16-hex-digit run id derived from `root_seed` and `config_hash`.
    pub run_id: String,
    /// The run's root RNG seed.
    pub root_seed: u64,
    /// FNV-1a hash of the configuration string.
    pub config_hash: u64,
}

/// FNV-1a, 64-bit. Public because shard packets reuse it as their
/// payload checksum — one hash, one implementation, everywhere.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64-style avalanche, so adjacent seeds get unrelated ids.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RunContext {
    /// Derives the context for a run with root seed `root_seed` and a
    /// free-form configuration description `config` (the binary's view
    /// of its own settings — flags, sample counts, thread count is
    /// deliberately *excluded* so the id is thread-count invariant).
    #[must_use]
    pub fn derive(root_seed: u64, config: &str) -> RunContext {
        let config_hash = fnv1a(config.as_bytes());
        let id = mix(root_seed.wrapping_add(0x9E37_79B9_7F4A_7C15) ^ mix(config_hash));
        RunContext {
            run_id: format!("{id:016x}"),
            root_seed,
            config_hash,
        }
    }

    /// Braceless JSON fields (`"run_id":...,"root_seed":...,...`) for
    /// splicing into export metadata objects.
    #[must_use]
    pub fn json_fields(&self) -> String {
        format!(
            "\"run_id\":\"{}\",\"root_seed\":{},\"config_hash\":\"{:016x}\"",
            crate::json::escape(&self.run_id),
            self.root_seed,
            self.config_hash
        )
    }
}

static CURRENT: Mutex<Option<RunContext>> = Mutex::new(None);

/// Installs `ctx` as the process-wide current run.
pub fn set(ctx: RunContext) {
    if let Ok(mut current) = CURRENT.lock() {
        *current = Some(ctx);
    }
}

/// The current run context, if one was installed.
#[must_use]
pub fn current() -> Option<RunContext> {
    CURRENT.lock().ok().and_then(|c| c.clone())
}

/// The current run id, if a context was installed.
#[must_use]
pub fn run_id() -> Option<String> {
    CURRENT
        .lock()
        .ok()
        .and_then(|c| c.as_ref().map(|ctx| ctx.run_id.clone()))
}

/// Clears the current run (test isolation; part of [`crate::reset`]).
pub(crate) fn clear() {
    if let Ok(mut current) = CURRENT.lock() {
        *current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::test_lock;

    #[test]
    fn derive_is_deterministic_and_sensitive_to_both_inputs() {
        let a = RunContext::derive(2015, "fig4 --quick");
        assert_eq!(a, RunContext::derive(2015, "fig4 --quick"));
        assert_eq!(a.run_id.len(), 16);
        assert!(a.run_id.chars().all(|c| c.is_ascii_hexdigit()));
        assert_ne!(a.run_id, RunContext::derive(2016, "fig4 --quick").run_id);
        assert_ne!(a.run_id, RunContext::derive(2015, "fig4").run_id);
    }

    #[test]
    fn json_fields_parse_inside_an_object() {
        let ctx = RunContext::derive(7, "ablations");
        let doc = format!("{{{}}}", ctx.json_fields());
        let v = crate::json::parse(&doc).unwrap();
        assert_eq!(
            v.get("run_id").and_then(crate::json::Value::as_str),
            Some(ctx.run_id.as_str())
        );
        assert_eq!(
            v.get("root_seed").and_then(crate::json::Value::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn set_current_clear_round_trip() {
        let _g = test_lock();
        crate::reset();
        assert_eq!(current(), None);
        assert_eq!(run_id(), None);
        let ctx = RunContext::derive(42, "test");
        set(ctx.clone());
        assert_eq!(current(), Some(ctx.clone()));
        assert_eq!(run_id(), Some(ctx.run_id));
        crate::reset();
        assert_eq!(current(), None, "reset clears the run context");
    }
}
