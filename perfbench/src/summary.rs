//! Order statistics and small helpers for the report.

/// `values` sorted ascending (NaNs last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `values`; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median (the mean of the two middle values for an even count); NaN
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// The tail of a latency sample: the highest order statistic with at
/// least ten values beyond it, never below the median. Returns
/// `(value, percentile, values beyond it)`.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    if values.is_empty() {
        return (f64::NAN, 0.0, 0);
    }
    let v = sorted(values);
    let n = v.len();
    let idx = n.saturating_sub(11).max(n / 2);
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, n - 1 - idx)
}

/// 64-bit FNV-1a of `bytes`: a fingerprint for repeat checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond_and_never_drops_below_the_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0, 10));
        let small: Vec<f64> = (1..=12).map(f64::from).collect();
        let (value, _, beyond) = tail(&small);
        assert!(value >= median(&small));
        assert_eq!((value, beyond), (7.0, 5));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
