//! FIRESTARTER processor stress test (Hackenberg et al., IGCC 2013).
//!
//! FIRESTARTER is designed to produce *maximal, constant* power draw — it
//! was the workload behind the TU Dresden per-node dataset in the paper's
//! Table 3. The model is a flat utilization at essentially peak, with only
//! a brief start-up transient.

use crate::phase::RunPhases;
use crate::Workload;
use power_stats::hash::Fnv1a;

/// A FIRESTARTER stress run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Firestarter {
    phases: RunPhases,
    level: f64,
    ramp_secs: f64,
}

impl Firestarter {
    /// Creates a FIRESTARTER run at the default near-peak stress level.
    pub fn new(phases: RunPhases) -> Self {
        Firestarter {
            phases,
            level: 0.995,
            ramp_secs: 5.0,
        }
    }

    /// Overrides the sustained stress level (clamped to `[0, 1]`).
    pub fn with_level(mut self, level: f64) -> Self {
        self.level = level.clamp(0.0, 1.0);
        self
    }

    /// Sustained stress level.
    pub fn level(&self) -> f64 {
        self.level
    }
}

impl Workload for Firestarter {
    fn name(&self) -> &str {
        "FIRESTARTER"
    }

    fn phases(&self) -> RunPhases {
        self.phases
    }

    fn utilization(&self, _node: usize, t: f64) -> f64 {
        if !self.phases.in_run(t) {
            return 0.0;
        }
        if !self.phases.in_core(t) {
            return 0.05;
        }
        // Seconds into the core phase; short linear ramp then flat-out.
        let dt = t - self.phases.core_start();
        if dt < self.ramp_secs {
            self.level * (0.5 + 0.5 * dt / self.ramp_secs)
        } else {
            self.level
        }
    }

    fn fingerprint(&self, h: &mut Fnv1a) {
        let Firestarter {
            phases,
            level,
            ramp_secs,
        } = self;
        h.write_str("firestarter");
        phases.fingerprint(h);
        h.write_f64(*level);
        h.write_f64(*ramp_secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_covers_every_field() {
        let base = Firestarter::new(RunPhases::core_only(600.0).unwrap());
        crate::assert_fingerprints_distinct(&[
            &base,
            &Firestarter {
                phases: RunPhases::core_only(601.0).unwrap(),
                ..base
            },
            &Firestarter { level: 0.9, ..base },
            &Firestarter {
                ramp_secs: 6.0,
                ..base
            },
        ]);
    }

    #[test]
    fn flat_at_level_after_ramp() {
        let f = Firestarter::new(RunPhases::core_only(600.0).unwrap());
        for i in 1..60 {
            let t = 10.0 + i as f64 * 9.0;
            assert_eq!(f.utilization(0, t), 0.995);
        }
    }

    #[test]
    fn ramp_rises() {
        let f = Firestarter::new(RunPhases::core_only(600.0).unwrap());
        assert!(f.utilization(0, 0.0) < f.utilization(0, 2.5));
        assert!(f.utilization(0, 2.5) < f.utilization(0, 10.0));
    }

    #[test]
    fn node_independent() {
        let f = Firestarter::new(RunPhases::core_only(600.0).unwrap());
        assert_eq!(f.utilization(0, 100.0), f.utilization(123, 100.0));
    }

    #[test]
    fn level_override_clamps() {
        let f = Firestarter::new(RunPhases::core_only(10.0).unwrap()).with_level(2.0);
        assert_eq!(f.level(), 1.0);
        let f = f.with_level(-0.5);
        assert_eq!(f.level(), 0.0);
    }

    #[test]
    fn idle_outside_run() {
        let f = Firestarter::new(RunPhases::new(10.0, 100.0, 10.0).unwrap());
        assert_eq!(f.utilization(0, -1.0), 0.0);
        assert_eq!(f.utilization(0, 5.0), 0.05);
        assert_eq!(f.utilization(0, 115.0), 0.05);
        assert_eq!(f.utilization(0, 121.0), 0.0);
    }
}
