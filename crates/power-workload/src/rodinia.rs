//! Rodinia CFD solver load model (Che et al., IISWC 2009).
//!
//! The ORNL Titan dataset in the paper's Table 3 measured GPU power while
//! running the Rodinia computational-fluid-dynamics solver on the GPUs of
//! 1000 nodes. The solver iterates an unstructured-grid Euler kernel:
//! sustained high GPU load with short per-iteration dips at kernel
//! boundaries.

use crate::phase::RunPhases;
use crate::Workload;
use power_stats::hash::Fnv1a;

/// A Rodinia CFD run on a GPU-accelerated machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RodiniaCfd {
    phases: RunPhases,
    level: f64,
    dip_depth: f64,
    iter_secs: f64,
    dip_frac: f64,
}

impl RodiniaCfd {
    /// Creates a Rodinia CFD run: 93% sustained load with 8%-deep dips
    /// for the trailing 10% of every 2-second iteration.
    pub fn new(phases: RunPhases) -> Self {
        RodiniaCfd {
            phases,
            level: 0.93,
            dip_depth: 0.08,
            iter_secs: 2.0,
            dip_frac: 0.1,
        }
    }

    /// Sustained load level.
    pub fn level(&self) -> f64 {
        self.level
    }
}

impl Workload for RodiniaCfd {
    fn name(&self) -> &str {
        "Rodinia CFD"
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
        let dt = t - self.phases.core_start() + node as f64 * 0.37;
        let iter_pos = (dt / self.iter_secs).fract();
        if iter_pos > 1.0 - self.dip_frac {
            (self.level - self.dip_depth).clamp(0.0, 1.0)
        } else {
            self.level
        }
    }

    fn fingerprint(&self, h: &mut Fnv1a) {
        let RodiniaCfd {
            phases,
            level,
            dip_depth,
            iter_secs,
            dip_frac,
        } = self;
        h.write_str("rodinia_cfd");
        phases.fingerprint(h);
        h.write_f64(*level);
        h.write_f64(*dip_depth);
        h.write_f64(*iter_secs);
        h.write_f64(*dip_frac);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_covers_every_field() {
        let base = RodiniaCfd::new(RunPhases::core_only(600.0).unwrap());
        crate::assert_fingerprints_distinct(&[
            &base,
            &RodiniaCfd {
                phases: RunPhases::core_only(601.0).unwrap(),
                ..base
            },
            &RodiniaCfd { level: 0.9, ..base },
            &RodiniaCfd {
                dip_depth: 0.09,
                ..base
            },
            &RodiniaCfd {
                iter_secs: 2.5,
                ..base
            },
            &RodiniaCfd {
                dip_frac: 0.2,
                ..base
            },
        ]);
    }

    #[test]
    fn mostly_at_level_with_dips() {
        let r = RodiniaCfd::new(RunPhases::core_only(600.0).unwrap());
        let mut at_level = 0;
        let mut dipped = 0;
        for i in 0..2000 {
            let u = r.utilization(0, i as f64 * 0.3);
            if (u - 0.93).abs() < 1e-12 {
                at_level += 1;
            } else if (u - 0.85).abs() < 1e-12 {
                dipped += 1;
            } else {
                panic!("unexpected utilization {u}");
            }
        }
        assert!(at_level > dipped * 5, "{at_level} vs {dipped}");
        assert!(dipped > 0);
    }

    #[test]
    fn dips_dephased_across_nodes() {
        let r = RodiniaCfd::new(RunPhases::core_only(600.0).unwrap());
        // At some instant, one node dips while another doesn't.
        let mut differs = false;
        for i in 0..100 {
            let t = i as f64 * 0.13;
            if (r.utilization(0, t) - r.utilization(1, t)).abs() > 1e-12 {
                differs = true;
                break;
            }
        }
        assert!(differs);
    }

    #[test]
    fn idle_outside_core() {
        let r = RodiniaCfd::new(RunPhases::new(30.0, 100.0, 30.0).unwrap());
        assert_eq!(r.utilization(0, 10.0), 0.05);
        assert_eq!(r.utilization(0, -10.0), 0.0);
        assert_eq!(r.utilization(0, 161.0), 0.0);
    }
}
