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

/// `(sin, cos)` of node `node`'s modulation dephasing: each node works
/// through its own exponent queue.
fn node_dephase(node: usize) -> (f64, f64) {
    (node as f64 * 1.618).sin_cos()
}

/// The node-independent part of [`MPrime`]'s utilization at one instant.
#[derive(Debug, Clone, Copy)]
enum MPrimeAt {
    /// Outside the core phase: every node sits at this level.
    Flat(f64),
    /// Inside the core phase: `(sin, cos)` of the modulation's phase.
    Core((f64, f64)),
}

impl MPrime {
    /// Everything about the utilization at `t` that does not depend on the
    /// node: the phase checks and the modulation's one `sin_cos`.
    fn at(&self, t: f64) -> MPrimeAt {
        if !self.phases.in_run(t) {
            return MPrimeAt::Flat(0.0);
        }
        if !self.phases.in_core(t) {
            return MPrimeAt::Flat(0.05);
        }
        let dt = t - self.phases.core_start();
        MPrimeAt::Core((dt / self.period_secs * std::f64::consts::TAU).sin_cos())
    }

    /// `level + swing·sin(a + b)` by angle addition, clamped, from the
    /// step's `(sin a, cos a)` and the node's `(sin b, cos b)`.
    fn node(&self, (sa, ca): (f64, f64), (sb, cb): (f64, f64)) -> f64 {
        (self.level + self.swing * (sa * cb + ca * sb)).clamp(0.0, 1.0)
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
        match self.at(t) {
            MPrimeAt::Flat(u) => u,
            MPrimeAt::Core(sin_cos) => self.node(sin_cos, node_dephase(node)),
        }
    }

    /// `(sin, cos)` of the node's modulation dephasing.
    fn lane_term(&self, node: usize) -> [f64; 2] {
        let (sb, cb) = node_dephase(node);
        [sb, cb]
    }

    fn utilizations(&self, t: f64, nodes: &[usize], terms: &[[f64; 2]], out: &mut [f64]) {
        debug_assert_eq!(nodes.len(), out.len());
        debug_assert_eq!(terms.len(), out.len());
        match self.at(t) {
            MPrimeAt::Flat(u) => out.fill(u),
            MPrimeAt::Core(sin_cos) => {
                for (u, &[sb, cb]) in out.iter_mut().zip(terms) {
                    *u = self.node(sin_cos, (sb, cb));
                }
            }
        }
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
    fn angle_addition_matches_the_direct_sine() {
        let m = MPrime::new(RunPhases::core_only(3600.0).unwrap());
        for node in [0, 1, 7, 515, 99_999] {
            for i in 0..360 {
                let t = i as f64 * 10.0;
                let phase = t / 600.0 * std::f64::consts::TAU + node as f64 * 1.618;
                let direct = (0.96 + 0.015 * phase.sin()).clamp(0.0, 1.0);
                let u = m.utilization(node, t);
                // The direct sum rounds the phase at its own magnitude.
                let tol = 1e-15 + 0.015 * 2.0 * phase * f64::EPSILON;
                assert!(
                    (u - direct).abs() < tol,
                    "node {node} t {t}: {u} vs {direct}"
                );
            }
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
