//! Timing rules: which part of the run the power measurement must cover.
//!
//! Aspect 1b of the methodology (paper Table 1):
//!
//! * **Level 1** — "the longer of one minute or 20% of the middle 80% of
//!   the core phase": the submitter picks *any* window of that length
//!   inside the middle 80%. Section 3 shows this choice is worth >20% on
//!   modern GPU systems.
//! * **Level 2** — ten equally spaced power-averaged measurements spanning
//!   the full run.
//! * **Level 3** — continual measurement across the full run.
//! * **Revised** (the paper's recommendation) — the power measurement must
//!   cover exactly the core phase, "preferably \[with\] a number of
//!   measurements before and after as well".

use power_workload::RunPhases;

use crate::{MethodError, Result};

/// A timing rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimingRule {
    /// Level 1: a single window of length `max(min_seconds, frac *
    /// middle-80% core phase)` placed anywhere within the middle 80%.
    ShortWindow {
        /// Fraction of the middle-80% core phase the window must cover.
        frac: f64,
        /// Absolute minimum window length in seconds.
        min_seconds: f64,
    },
    /// Level 2: `segments` equally spaced averaged measurements spanning
    /// the whole core phase.
    SpacedSegments {
        /// Number of segments (10 in the methodology).
        segments: usize,
    },
    /// Level 3 / revised rule: the full core phase.
    FullCore,
}

impl TimingRule {
    /// The Level 1 rule as published.
    pub fn level1() -> Self {
        TimingRule::ShortWindow {
            frac: 0.20,
            min_seconds: 60.0,
        }
    }

    /// The Level 2 rule as published.
    pub fn level2() -> Self {
        TimingRule::SpacedSegments { segments: 10 }
    }

    /// Required window length in seconds for a run with the given phases.
    pub fn window_length(&self, phases: &RunPhases) -> f64 {
        match *self {
            TimingRule::ShortWindow { frac, min_seconds } => {
                let (a, b) = phases.core_middle_80();
                (frac * (b - a)).max(min_seconds)
            }
            TimingRule::SpacedSegments { .. } | TimingRule::FullCore => phases.core(),
        }
    }

    /// The measurement windows for this rule, with the short window placed
    /// at `placement` in `[0, 1]` (0 = earliest legal position, 1 =
    /// latest). Returns `(from, to)` pairs in run time.
    pub fn windows(&self, phases: &RunPhases, placement: f64) -> Result<Vec<(f64, f64)>> {
        if !(0.0..=1.0).contains(&placement) {
            return Err(MethodError::InvalidConfig {
                field: "placement",
                reason: "placement must lie in [0, 1]",
            });
        }
        match *self {
            TimingRule::ShortWindow { .. } => {
                let (lo, hi) = phases.core_middle_80();
                let len = self.window_length(phases).min(hi - lo);
                let latest_start = hi - len;
                let start = lo + placement * (latest_start - lo);
                Ok(vec![(start, start + len)])
            }
            TimingRule::SpacedSegments { segments } => {
                if segments == 0 {
                    return Err(MethodError::InvalidConfig {
                        field: "segments",
                        reason: "at least one segment is required",
                    });
                }
                let seg = phases.core() / segments as f64;
                Ok((0..segments)
                    .map(|k| {
                        let a = phases.core_start() + k as f64 * seg;
                        (a, a + seg)
                    })
                    .collect())
            }
            TimingRule::FullCore => Ok(vec![(phases.core_start(), phases.core_end())]),
        }
    }

    /// All legal start positions of the short window, discretized into
    /// `steps` placements — the search space of the optimal-interval
    /// exploit. Full-coverage rules have a single "placement".
    pub fn placements(&self, steps: usize) -> Vec<f64> {
        match self {
            TimingRule::ShortWindow { .. } => {
                if steps <= 1 {
                    vec![0.0]
                } else {
                    (0..steps).map(|k| k as f64 / (steps - 1) as f64).collect()
                }
            }
            _ => vec![0.0],
        }
    }

    /// Whether this rule covers the entire core phase (the property the
    /// paper argues is the only defensible choice).
    pub fn covers_full_core(&self) -> bool {
        !matches!(self, TimingRule::ShortWindow { .. })
    }

    /// Fraction of the core phase this rule actually measures.
    pub fn coverage(&self, phases: &RunPhases) -> f64 {
        match *self {
            TimingRule::ShortWindow { .. } => (self.window_length(phases) / phases.core()).min(1.0),
            _ => 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> RunPhases {
        // 1000 s core phase starting at t = 100.
        RunPhases::new(100.0, 1000.0, 50.0).unwrap()
    }

    #[test]
    fn level1_window_length_is_20pct_of_middle80() {
        let rule = TimingRule::level1();
        // middle 80% = 800 s, 20% of that = 160 s.
        assert_eq!(rule.window_length(&phases()), 160.0);
    }

    #[test]
    fn level1_minimum_one_minute() {
        let rule = TimingRule::level1();
        let short = RunPhases::core_only(120.0).unwrap();
        // 20% of middle 80% = 19.2 s < 60 s minimum.
        assert_eq!(rule.window_length(&short), 60.0);
    }

    #[test]
    fn level1_placement_range() {
        let rule = TimingRule::level1();
        let p = phases();
        // Earliest: starts at core_start + 10% = 200.
        let w = rule.windows(&p, 0.0).unwrap();
        assert_eq!(w, vec![(200.0, 360.0)]);
        // Latest: ends at core_end - 10% = 1000.
        let w = rule.windows(&p, 1.0).unwrap();
        assert_eq!(w, vec![(840.0, 1000.0)]);
        // Middle placement stays inside the middle 80%.
        let w = rule.windows(&p, 0.5).unwrap();
        assert!(w[0].0 >= 200.0 && w[0].1 <= 1000.0);
        assert!(rule.windows(&p, 1.5).is_err());
    }

    #[test]
    fn level2_ten_segments_span_core() {
        let rule = TimingRule::level2();
        let w = rule.windows(&phases(), 0.0).unwrap();
        assert_eq!(w.len(), 10);
        assert_eq!(w[0].0, 100.0);
        assert_eq!(w[9].1, 1100.0);
        // Contiguous and equal length.
        for pair in w.windows(2) {
            assert!((pair[0].1 - pair[1].0).abs() < 1e-9);
            assert!(((pair[0].1 - pair[0].0) - (pair[1].1 - pair[1].0)).abs() < 1e-9);
        }
    }

    #[test]
    fn full_core_is_single_window() {
        let w = TimingRule::FullCore.windows(&phases(), 0.0).unwrap();
        assert_eq!(w, vec![(100.0, 1100.0)]);
    }

    #[test]
    fn coverage_fractions() {
        let p = phases();
        assert!((TimingRule::level1().coverage(&p) - 0.16).abs() < 1e-12);
        assert_eq!(TimingRule::level2().coverage(&p), 1.0);
        assert_eq!(TimingRule::FullCore.coverage(&p), 1.0);
        assert!(!TimingRule::level1().covers_full_core());
        assert!(TimingRule::level2().covers_full_core());
        assert!(TimingRule::FullCore.covers_full_core());
    }

    #[test]
    fn placements_enumerate_search_space() {
        let rule = TimingRule::level1();
        let p = rule.placements(5);
        assert_eq!(p, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(TimingRule::FullCore.placements(5), vec![0.0]);
        assert_eq!(rule.placements(1), vec![0.0]);
    }

    #[test]
    fn window_never_exceeds_middle_80() {
        let rule = TimingRule::level1();
        let p = phases();
        for k in 0..=20 {
            let place = k as f64 / 20.0;
            let w = rule.windows(&p, place).unwrap()[0];
            let (lo, hi) = p.core_middle_80();
            assert!(w.0 >= lo - 1e-9 && w.1 <= hi + 1e-9, "window {w:?}");
        }
    }

    #[test]
    fn zero_segments_rejected() {
        assert!(TimingRule::SpacedSegments { segments: 0 }
            .windows(&phases(), 0.0)
            .is_err());
    }
}
