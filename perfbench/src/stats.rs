//! Order statistics for latency samples.
//!
//! Every latency is reported as a median plus a tail percentile. The
//! tail is only meaningful when enough samples lie beyond it, so
//! [`highest_supported`] picks the highest percentile on a fixed ladder
//! that still has at least [`MIN_BEYOND`] samples above it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles considered for a tail, highest first.
const LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 50.0];

/// 1-based nearest rank of the `p`-th percentile among `n > 0` samples,
/// computed in integers (tenths of a percent) so `p99` of 1000 samples
/// is exactly rank 990.
fn rank(n: usize, p: f64) -> usize {
    let tenths = (p * 10.0).round().clamp(0.0, 1000.0) as u128;
    let r = (tenths * n as u128).div_ceil(1000) as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
/// Returns `NaN` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Number of samples strictly beyond the nearest-rank `p`-th percentile
/// of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest percentile on the ladder with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when there are too few samples for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Median of unsorted values (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_interpolated(&v, 0.5)
}

/// Linear-interpolated quantile `q` in 0..=1 of an ascending slice.
fn percentile_interpolated(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// A latency distribution summarised for reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples recorded.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Highest supported percentile, if any.
    pub tail_pct: Option<f64>,
    /// Value at `tail_pct` (`NaN` when unsupported).
    pub tail: f64,
}

impl Latency {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Latency {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = highest_supported(v.len());
        Latency {
            n: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: tail_pct.map_or(f64::NAN, |p| percentile(&v, p)),
        }
    }

    /// Value at a fixed percentile `p` of `samples`.
    pub fn at(samples: &[f64], p: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        percentile(&v, p)
    }

    /// `p50 … p<tail> … (n=…)` for the report lines.
    pub fn describe(&self, unit: &str) -> String {
        match self.tail_pct {
            Some(p) => format!(
                "p50 {:.3} {unit}, p{p} {:.3} {unit} (n={}, {} beyond)",
                self.p50,
                self.tail,
                self.n,
                beyond(self.n, p)
            ),
            None => format!(
                "p50 {:.3} {unit} (n={}, too few for a tail)",
                self.p50, self.n
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn samples_beyond_a_percentile() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
    }

    #[test]
    fn highest_percentile_needs_ten_beyond() {
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(9_999), Some(99.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn latency_summary_uses_the_supported_tail() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let l = Latency::of(&samples);
        assert_eq!(l.n, 1000);
        assert_eq!(l.p50, 499.0);
        assert_eq!(l.tail_pct, Some(99.0));
        assert_eq!(l.tail, 989.0);
        let few = Latency::of(&[3.0, 1.0, 2.0]);
        assert_eq!(few.tail_pct, None);
        assert!(few.tail.is_nan());
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
        assert!(median(&[]).is_nan());
    }
}
