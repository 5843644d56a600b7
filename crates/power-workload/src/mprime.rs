//! MPrime (Prime95) torture-test load model.
//!
//! MPrime's Lucas–Lehmer FFT kernels hold a high, nearly constant load with
//! a slow periodic modulation as iteration lengths change between
//! exponents. It produced the LRZ dataset in the paper's Table 3.

use crate::phase::RunPhases;
use crate::Workload;
use power_stats::hash::Fnv1a;

/// An MPrime torture-test run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MPrime {
    phases: RunPhases,
    level: f64,
    swing: f64,
    period_secs: f64,
}

impl MPrime {
    /// Creates an MPrime run with default parameters: 96% sustained load
    /// with a ±1.5% modulation on a ~10 minute period.
    pub fn new(phases: RunPhases) -> Self {
        MPrime {
            phases,
            level: 0.96,
            swing: 0.015,
            period_secs: 600.0,
        }
    }

    /// Overrides the sustained level (clamped so `level + swing <= 1`).
    pub fn with_level(mut self, level: f64) -> Self {
        self.level = level.clamp(0.0, 1.0 - self.swing);
        self
    }

    /// Sustained load level.
    pub fn level(&self) -> f64 {
        self.level
    }
}

impl Workload for MPrime {
    fn name(&self) -> &str {
        "MPrime"
    }

    fn phases(&self) -> RunPhases {
        self.phases
    }

    fn utilization(&self, node: usize, t: f64) -> f64 {
        if !self.phases.in_run(t) {
            return 0.0;
        }
        if !self.phases.in_core(t) {
            return 0.05;
        }
        let dt = t - self.phases.core_start();
        // Each node works through its own exponent queue: dephase the
        // modulation per node.
        let phase = dt / self.period_secs * std::f64::consts::TAU + node as f64 * 1.618;
        (self.level + self.swing * phase.sin()).clamp(0.0, 1.0)
    }

    fn fingerprint(&self, h: &mut Fnv1a) {
        let MPrime {
            phases,
            level,
            swing,
            period_secs,
        } = self;
        h.write_str("mprime");
        phases.fingerprint(h);
        h.write_f64(*level);
        h.write_f64(*swing);
        h.write_f64(*period_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_covers_every_field() {
        let base = MPrime::new(RunPhases::core_only(600.0).unwrap());
        crate::assert_fingerprints_distinct(&[
            &base,
            &MPrime {
                phases: RunPhases::core_only(601.0).unwrap(),
                ..base
            },
            &MPrime { level: 0.9, ..base },
            &MPrime {
                swing: 0.02,
                ..base
            },
            &MPrime {
                period_secs: 601.0,
                ..base
            },
        ]);
    }

    #[test]
    fn stays_near_level() {
        let m = MPrime::new(RunPhases::core_only(3600.0).unwrap());
        for i in 0..360 {
            let u = m.utilization(3, i as f64 * 10.0);
            assert!((u - 0.96).abs() <= 0.015 + 1e-12, "u = {u}");
        }
    }

    #[test]
    fn modulation_moves_over_time() {
        let m = MPrime::new(RunPhases::core_only(3600.0).unwrap());
        let a = m.utilization(0, 100.0);
        let b = m.utilization(0, 250.0);
        assert!((a - b).abs() > 1e-4);
    }

    #[test]
    fn nodes_dephased() {
        let m = MPrime::new(RunPhases::core_only(3600.0).unwrap());
        assert!((m.utilization(0, 500.0) - m.utilization(1, 500.0)).abs() > 1e-6);
    }

    #[test]
    fn level_override() {
        let m = MPrime::new(RunPhases::core_only(10.0).unwrap()).with_level(0.5);
        assert!((m.level() - 0.5).abs() < 1e-12);
        let m = m.with_level(2.0);
        assert!(m.level() <= 1.0 - 0.015 + 1e-12);
    }
}
