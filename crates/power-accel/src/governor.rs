//! Power-cap governor.
//!
//! Real accelerator power management is a sensor-driven control loop:
//! the card's own power telemetry is compared against the enforced cap
//! every tick, and the clock moves one rung down the ladder when over,
//! one rung up when there is verified headroom for the *next* rung.
//! Stepping by one rung per tick and requiring headroom before an
//! up-step gives the loop its defining invariant: device power never
//! exceeds the cap by more than the power delta of one ladder step
//! (except when even the ladder floor is over the cap — an infeasible
//! cap the governor cannot fix, only report).

/// A one-step-per-tick power-cap control loop over a frequency ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCapGovernor {
    /// Enforced board power cap in watts.
    pub cap_w: f64,
}

impl PowerCapGovernor {
    /// Creates a governor enforcing `cap_w` (must be positive).
    pub fn new(cap_w: f64) -> Option<Self> {
        if cap_w > 0.0 && cap_w.is_finite() {
            Some(PowerCapGovernor { cap_w })
        } else {
            None
        }
    }

    /// The feed-forward settling point: the highest rung whose predicted
    /// power fits under the cap, given the per-rung powers `ladder_w`
    /// (ascending in frequency). Falls back to rung 0 when even the
    /// floor is over the cap.
    pub fn settle(&self, ladder_w: &[f64]) -> usize {
        let mut best = 0;
        for (idx, &w) in ladder_w.iter().enumerate() {
            if w <= self.cap_w {
                best = idx;
            }
        }
        best
    }

    /// One control tick: `idx` is the current rung, `measured_w` the
    /// sensor reading at that rung, `ladder_w` the per-rung powers.
    /// Returns the next rung — down one on overshoot, up one only when
    /// the next rung's power is known to fit.
    pub fn tick(&self, idx: usize, measured_w: f64, ladder_w: &[f64]) -> usize {
        if measured_w > self.cap_w {
            return idx.saturating_sub(1);
        }
        if idx + 1 < ladder_w.len() && ladder_w[idx + 1] <= self.cap_w {
            return idx + 1;
        }
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Vec<f64> {
        // Monotone rung powers 100, 110, ..., 190 W.
        (0..10).map(|i| 100.0 + 10.0 * i as f64).collect()
    }

    #[test]
    fn settle_picks_highest_fitting_rung() {
        let l = ladder();
        assert_eq!(PowerCapGovernor::new(145.0).unwrap().settle(&l), 4);
        assert_eq!(PowerCapGovernor::new(1000.0).unwrap().settle(&l), 9);
        // Infeasible cap: floor rung.
        assert_eq!(PowerCapGovernor::new(50.0).unwrap().settle(&l), 0);
    }

    #[test]
    fn tick_steps_down_on_overshoot_and_up_with_headroom() {
        let l = ladder();
        let g = PowerCapGovernor::new(145.0).unwrap();
        // Over the cap: one rung down.
        assert_eq!(g.tick(5, 150.0, &l), 4);
        // At the settling rung: the next rung (150 W) does not fit; hold.
        assert_eq!(g.tick(4, 140.0, &l), 4);
        // Below the settling rung with headroom: one rung up.
        assert_eq!(g.tick(2, 120.0, &l), 3);
        // Floor rung over an infeasible cap: stays at the floor.
        let tight = PowerCapGovernor::new(50.0).unwrap();
        assert_eq!(tight.tick(0, 100.0, &l), 0);
        // Top rung under a loose cap: stays at the top.
        let loose = PowerCapGovernor::new(1000.0).unwrap();
        assert_eq!(loose.tick(9, 190.0, &l), 9);
    }

    #[test]
    fn settle_point_is_tick_fixed_point() {
        let l = ladder();
        for cap in [105.0, 125.0, 163.0, 200.0, 90.0] {
            let g = PowerCapGovernor::new(cap).unwrap();
            let s = g.settle(&l);
            assert_eq!(g.tick(s, l[s], &l), s, "cap {cap}");
        }
    }

    #[test]
    fn rejects_bad_caps() {
        assert!(PowerCapGovernor::new(0.0).is_none());
        assert!(PowerCapGovernor::new(-5.0).is_none());
        assert!(PowerCapGovernor::new(f64::NAN).is_none());
    }
}
