//! Shard-coverage vocabulary for sharded Monte Carlo studies.
//!
//! When a study is split into independently executed shards and merged
//! back from sufficient-statistic packets, the merge's view of *which*
//! shards actually arrived is itself a health signal: a missing or
//! corrupt shard means the merged estimate was built from fewer samples
//! than planned. [`ShardCoverage`] is the plain serializable record of
//! that view — planned versus observed shard indices and sample counts,
//! the quorum policy applied, and the variance-widening factor charged
//! for the shortfall. Like [`crate::health`], this module holds only
//! the vocabulary; the merge math lives in `bmf_circuits::shard` and
//! the estimate lives in `bmf_core`, which hand the finished record
//! back down for reports and the dashboard shard panel.

use crate::health::Severity;
use crate::json::{number, string};

/// Which shards a merge actually saw, and what that cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCoverage {
    /// Planned number of shards in the study partition.
    pub shard_count: usize,
    /// Distinct shard indices successfully merged.
    pub merged: usize,
    /// Shard indices that never arrived (sorted).
    pub missing: Vec<usize>,
    /// Shard indices whose packets failed validation (sorted).
    pub corrupt: Vec<usize>,
    /// Redundant packets dropped as exact duplicates.
    pub duplicates: usize,
    /// Quorum: the minimum number of merged shards the policy accepts.
    pub min_shards: usize,
    /// Late-stage samples the full partition would have contributed.
    pub planned_late: usize,
    /// Late-stage samples actually merged.
    pub observed_late: usize,
    /// Covariance widening factor `planned_late / observed_late` (≥ 1)
    /// charged to the fused covariance when coverage is incomplete, so
    /// a degraded merge reports honestly wider uncertainty.
    pub inflation: f64,
}

impl ShardCoverage {
    /// True when every planned shard merged cleanly.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.merged == self.shard_count && self.missing.is_empty() && self.corrupt.is_empty()
    }

    /// Fraction of planned shards that merged, in `[0, 1]`.
    #[must_use]
    pub fn coverage_fraction(&self) -> f64 {
        if self.shard_count == 0 {
            return 0.0;
        }
        self.merged as f64 / self.shard_count as f64
    }

    /// True when the merged shard count satisfies the quorum policy.
    #[must_use]
    pub fn quorum_met(&self) -> bool {
        self.merged >= self.min_shards
    }

    /// `Ok` for complete coverage, `Warn` for a degraded-but-quorate
    /// merge, `Critical` below quorum (strict mode refuses to produce
    /// an estimate at all in that case; the record still grades it).
    #[must_use]
    pub fn severity(&self) -> Severity {
        if !self.quorum_met() {
            Severity::Critical
        } else if !self.is_complete() {
            Severity::Warn
        } else {
            Severity::Ok
        }
    }

    /// Serializes the record as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let list = |v: &[usize]| {
            let items: Vec<String> = v.iter().map(|i| i.to_string()).collect();
            format!("[{}]", items.join(","))
        };
        let mut out = String::with_capacity(256);
        out.push_str("{\"severity\":");
        out.push_str(&string(self.severity().label()));
        out.push_str(&format!(
            ",\"shard_count\":{},\"merged\":{},\"missing\":{},\"corrupt\":{},\"duplicates\":{},\"min_shards\":{},\"planned_late\":{},\"observed_late\":{},\"inflation\":{}",
            self.shard_count,
            self.merged,
            list(&self.missing),
            list(&self.corrupt),
            self.duplicates,
            self.min_shards,
            self.planned_late,
            self.observed_late,
            number(self.inflation),
        ));
        out.push('}');
        out
    }

    /// One-line human summary for reports and status lines.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "shards: {}/{} merged ({} late samples of {})",
            self.merged, self.shard_count, self.observed_late, self.planned_late
        );
        if !self.missing.is_empty() {
            line.push_str(&format!(" missing={:?}", self.missing));
        }
        if !self.corrupt.is_empty() {
            line.push_str(&format!(" corrupt={:?}", self.corrupt));
        }
        if self.duplicates > 0 {
            line.push_str(&format!(" duplicates={}", self.duplicates));
        }
        if self.inflation > 1.0 {
            line.push_str(&format!(" inflation={:.4}", self.inflation));
        }
        line.push_str(&format!(" [{}]", self.severity().label()));
        line
    }
}

/// A shard's wall-clock is flagged as a straggler when it exceeds the
/// fleet median by this factor.
pub const STRAGGLER_RATIO: f64 = 1.5;

/// One shard's telemetry row in a merged fleet view.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetShardRow {
    /// Shard index within the partition.
    pub index: usize,
    /// Wall-clock span of the shard process's compute phase.
    pub wall_ns: u64,
    /// Monte Carlo simulations the shard ran (`monte_carlo.sims` delta).
    pub sims: u64,
    /// Simulator retries the shard absorbed.
    pub retries: u64,
    /// Structured events the shard recorded (tail length carried in the
    /// packet, capped at the packet's event-tail capacity).
    pub events: usize,
    /// Whether this shard's wall-clock exceeds [`STRAGGLER_RATIO`] ×
    /// the fleet median.
    pub straggler: bool,
}

/// Fleet-wide view folded from per-shard packet telemetry at merge
/// time: per-shard rows plus straggler detection as the slowest/median
/// wall-clock ratio. Only shards whose packets carried telemetry
/// appear (quiet shards contribute stats but no row).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Run id the packets were stamped with.
    pub run_id: String,
    /// Per-shard rows, sorted by shard index.
    pub shards: Vec<FleetShardRow>,
    /// Median shard wall-clock (average of the middle two when even).
    pub median_wall_ns: u64,
    /// Slowest shard wall-clock.
    pub slowest_wall_ns: u64,
    /// `slowest / median` — the straggler signal; 1.0 for a balanced
    /// fleet, 0.0 when no shard reported a wall-clock.
    pub straggler_ratio: f64,
}

impl FleetSummary {
    /// Folds per-shard rows into a fleet view, computing the median,
    /// the slowest shard, and straggler flags.
    #[must_use]
    pub fn from_rows(run_id: &str, mut shards: Vec<FleetShardRow>) -> FleetSummary {
        shards.sort_by_key(|r| r.index);
        let mut walls: Vec<u64> = shards.iter().map(|r| r.wall_ns).collect();
        walls.sort_unstable();
        let median_wall_ns = if walls.is_empty() {
            0
        } else if walls.len() % 2 == 1 {
            walls[walls.len() / 2]
        } else {
            (walls[walls.len() / 2 - 1] + walls[walls.len() / 2]) / 2
        };
        let slowest_wall_ns = walls.last().copied().unwrap_or(0);
        let straggler_ratio = if median_wall_ns > 0 {
            slowest_wall_ns as f64 / median_wall_ns as f64
        } else {
            0.0
        };
        for row in &mut shards {
            row.straggler =
                median_wall_ns > 0 && row.wall_ns as f64 >= STRAGGLER_RATIO * median_wall_ns as f64;
        }
        FleetSummary {
            run_id: run_id.to_string(),
            shards,
            median_wall_ns,
            slowest_wall_ns,
            straggler_ratio,
        }
    }

    /// Indices of the flagged stragglers, sorted.
    #[must_use]
    pub fn stragglers(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|r| r.straggler)
            .map(|r| r.index)
            .collect()
    }

    /// Serializes the fleet view as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.shards.len() * 96);
        out.push_str("{\"run_id\":");
        out.push_str(&string(&self.run_id));
        out.push_str(&format!(
            ",\"median_wall_ns\":{},\"slowest_wall_ns\":{},\"straggler_ratio\":{},\"stragglers\":[{}],\"shards\":[",
            self.median_wall_ns,
            self.slowest_wall_ns,
            number(self.straggler_ratio),
            self.stragglers()
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(","),
        ));
        for (i, row) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"wall_ns\":{},\"sims\":{},\"retries\":{},\"events\":{},\"straggler\":{}}}",
                row.index, row.wall_ns, row.sims, row.retries, row.events, row.straggler,
            ));
        }
        out.push_str("]}");
        out
    }

    /// One-line human summary for merge status lines.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "fleet: {} shard(s) reporting, median {:.3}s, slowest {:.3}s ({:.2}x)",
            self.shards.len(),
            self.median_wall_ns as f64 / 1e9,
            self.slowest_wall_ns as f64 / 1e9,
            self.straggler_ratio,
        );
        let stragglers = self.stragglers();
        if !stragglers.is_empty() {
            line.push_str(&format!(" stragglers={stragglers:?}"));
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete() -> ShardCoverage {
        ShardCoverage {
            shard_count: 4,
            merged: 4,
            missing: vec![],
            corrupt: vec![],
            duplicates: 0,
            min_shards: 3,
            planned_late: 200,
            observed_late: 200,
            inflation: 1.0,
        }
    }

    #[test]
    fn severity_ladder_complete_degraded_below_quorum() {
        let full = complete();
        assert!(full.is_complete());
        assert!(full.quorum_met());
        assert_eq!(full.severity(), Severity::Ok);
        assert_eq!(full.coverage_fraction(), 1.0);

        let degraded = ShardCoverage {
            merged: 3,
            missing: vec![2],
            planned_late: 200,
            observed_late: 150,
            inflation: 200.0 / 150.0,
            ..complete()
        };
        assert!(!degraded.is_complete());
        assert!(degraded.quorum_met());
        assert_eq!(degraded.severity(), Severity::Warn);

        let starved = ShardCoverage {
            merged: 2,
            missing: vec![1],
            corrupt: vec![3],
            observed_late: 100,
            inflation: 2.0,
            ..complete()
        };
        assert!(!starved.quorum_met());
        assert_eq!(starved.severity(), Severity::Critical);
    }

    #[test]
    fn json_is_parseable_and_carries_every_field() {
        let cov = ShardCoverage {
            merged: 3,
            missing: vec![0],
            duplicates: 2,
            observed_late: 150,
            inflation: 4.0 / 3.0,
            ..complete()
        };
        let v = crate::json::parse(&cov.to_json()).expect("coverage JSON parses");
        assert_eq!(
            v.get("severity").and_then(crate::json::Value::as_str),
            Some("warn")
        );
        assert_eq!(
            v.get("merged").and_then(crate::json::Value::as_f64),
            Some(3.0)
        );
        let missing = v
            .get("missing")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(missing.len(), 1);
        assert_eq!(
            v.get("duplicates").and_then(crate::json::Value::as_f64),
            Some(2.0)
        );
        assert!(
            v.get("inflation")
                .and_then(crate::json::Value::as_f64)
                .unwrap()
                > 1.3
        );
    }

    #[test]
    fn summary_mentions_gaps_and_severity() {
        let cov = ShardCoverage {
            merged: 3,
            missing: vec![2],
            duplicates: 1,
            observed_late: 150,
            inflation: 4.0 / 3.0,
            ..complete()
        };
        let line = cov.summary();
        assert!(line.contains("3/4"), "{line}");
        assert!(line.contains("missing=[2]"), "{line}");
        assert!(line.contains("duplicates=1"), "{line}");
        assert!(line.contains("inflation=1.3333"), "{line}");
        assert!(line.contains("[warn]"), "{line}");
        assert!(complete().summary().contains("[ok]"));
    }

    fn row(index: usize, wall_ns: u64) -> FleetShardRow {
        FleetShardRow {
            index,
            wall_ns,
            sims: 100,
            retries: 2,
            events: 10,
            straggler: false,
        }
    }

    #[test]
    fn fleet_summary_flags_stragglers_against_the_median() {
        let fleet = FleetSummary::from_rows(
            "deadbeefdeadbeef",
            vec![row(2, 1_000), row(0, 1_100), row(1, 900), row(3, 4_000)],
        );
        // Rows come back sorted by index.
        let indices: Vec<usize> = fleet.shards.iter().map(|r| r.index).collect();
        assert_eq!(indices, [0, 1, 2, 3]);
        // Even count: median of {900,1000,1100,4000} = (1000+1100)/2.
        assert_eq!(fleet.median_wall_ns, 1_050);
        assert_eq!(fleet.slowest_wall_ns, 4_000);
        assert!((fleet.straggler_ratio - 4_000.0 / 1_050.0).abs() < 1e-12);
        assert_eq!(fleet.stragglers(), [3]);
        assert!(fleet.shards[3].straggler);
        assert!(!fleet.shards[0].straggler);

        let v = crate::json::parse(&fleet.to_json()).expect("fleet JSON parses");
        assert_eq!(
            v.get("run_id").and_then(crate::json::Value::as_str),
            Some("deadbeefdeadbeef")
        );
        let shards = v
            .get("shards")
            .and_then(crate::json::Value::as_array)
            .unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(
            shards[3]
                .get("straggler")
                .and_then(crate::json::Value::as_bool),
            Some(true)
        );
        assert!(fleet.summary().contains("stragglers=[3]"));
    }

    #[test]
    fn balanced_fleet_has_no_stragglers_and_empty_fleet_is_sane() {
        let fleet = FleetSummary::from_rows("abc", vec![row(0, 1_000), row(1, 1_001)]);
        assert!(fleet.stragglers().is_empty());
        assert!(fleet.straggler_ratio >= 1.0 && fleet.straggler_ratio < 1.01);

        let empty = FleetSummary::from_rows("abc", vec![]);
        assert_eq!(empty.median_wall_ns, 0);
        assert_eq!(empty.straggler_ratio, 0.0);
        assert!(crate::json::parse(&empty.to_json()).is_ok());
    }

    #[test]
    fn zero_shard_plan_has_zero_coverage() {
        let cov = ShardCoverage {
            shard_count: 0,
            merged: 0,
            min_shards: 0,
            planned_late: 0,
            observed_late: 0,
            ..complete()
        };
        assert_eq!(cov.coverage_fraction(), 0.0);
    }
}
