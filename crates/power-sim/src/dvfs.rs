//! Dynamic voltage and frequency scaling (DVFS).
//!
//! The methodology explicitly allows DVFS — the L-CSC cluster gained 22% in
//! Linpack energy efficiency from it — but Section 3 shows how a governor
//! whose low-voltage period coincides with a short Level 1 measurement
//! window can game the result. A [`Governor`] selects the operating point
//! `(frequency, voltage)` for a processor as a function of time and
//! utilization.

use crate::vid::VoltagePolicy;
use power_stats::hash::Fnv1a;

use crate::{Result, SimError};

/// An operating point: frequency and the voltage policy that accompanies it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PState {
    /// Core frequency in MHz.
    pub f_mhz: f64,
    /// Voltage selection at this frequency.
    pub voltage: VoltagePolicy,
}

impl PState {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let PState { f_mhz, voltage } = *self;
        h.write_f64(f_mhz);
        voltage.fingerprint(h);
    }

    /// Validates the operating point.
    pub fn validate(&self) -> Result<()> {
        if !(self.f_mhz > 0.0 && self.f_mhz.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "f_mhz",
                reason: "frequency must be positive",
            });
        }
        Ok(())
    }
}

/// A frequency/voltage governor.
#[derive(Debug, Clone, PartialEq)]
pub enum Governor {
    /// One fixed operating point for the whole run (e.g. L-CSC's tuned
    /// 774 MHz / 1.018 V).
    Static(PState),
    /// Utilization-driven: `high` above the threshold, `low` below —
    /// an idealized `ondemand` governor.
    OnDemand {
        /// Operating point under load.
        high: PState,
        /// Operating point when (nearly) idle.
        low: PState,
        /// Utilization threshold separating the two.
        threshold: f64,
    },
    /// A time schedule of operating points: `(switch_time_s, state)` pairs,
    /// sorted by time; the state with the largest switch time `<= t`
    /// applies. This is the primitive behind the DVFS gaming experiment.
    Schedule(Vec<(f64, PState)>),
}

impl Governor {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        match self {
            Governor::Static(state) => {
                h.write(&[0]);
                state.fingerprint(h);
            }
            Governor::OnDemand {
                high,
                low,
                threshold,
            } => {
                h.write(&[1]);
                high.fingerprint(h);
                low.fingerprint(h);
                h.write_f64(*threshold);
            }
            Governor::Schedule(steps) => {
                h.write(&[2]);
                h.write_u64(steps.len() as u64);
                for (at, state) in steps {
                    h.write_f64(*at);
                    state.fingerprint(h);
                }
            }
        }
    }

    /// Validates governor configuration.
    pub fn validate(&self) -> Result<()> {
        match self {
            Governor::Static(p) => p.validate(),
            Governor::OnDemand {
                high,
                low,
                threshold,
            } => {
                high.validate()?;
                low.validate()?;
                if !(0.0..=1.0).contains(threshold) {
                    return Err(SimError::InvalidConfig {
                        field: "threshold",
                        reason: "must lie in [0, 1]",
                    });
                }
                Ok(())
            }
            Governor::Schedule(entries) => {
                if entries.is_empty() {
                    return Err(SimError::InvalidConfig {
                        field: "schedule",
                        reason: "schedule must contain at least one entry",
                    });
                }
                let mut prev = f64::NEG_INFINITY;
                for (t, p) in entries {
                    if *t < prev {
                        return Err(SimError::InvalidConfig {
                            field: "schedule",
                            reason: "entries must be sorted by time",
                        });
                    }
                    prev = *t;
                    p.validate()?;
                }
                Ok(())
            }
        }
    }

    /// Operating point at time `t` (seconds into the run) with current
    /// `utilization`.
    pub fn pstate(&self, t: f64, utilization: f64) -> PState {
        match self {
            Governor::Static(p) => *p,
            Governor::OnDemand {
                high,
                low,
                threshold,
            } => {
                if utilization >= *threshold {
                    *high
                } else {
                    *low
                }
            }
            Governor::Schedule(entries) => {
                // Largest switch time <= t; before the first entry, the
                // first entry applies.
                let mut current = entries[0].1;
                for (switch, state) in entries {
                    if *switch <= t {
                        current = *state;
                    } else {
                        break;
                    }
                }
                current
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vid::{VidTable, VoltagePolicy};

    fn fixed(f: f64, v: f64) -> PState {
        PState {
            f_mhz: f,
            voltage: VoltagePolicy::Fixed(v),
        }
    }

    #[test]
    fn static_governor_constant() {
        let g = Governor::Static(fixed(774.0, 1.018));
        assert!(g.validate().is_ok());
        for t in [0.0, 100.0, 1e6] {
            let p = g.pstate(t, 0.5);
            assert_eq!(p.f_mhz, 774.0);
            assert_eq!(p.voltage.voltage(3), 1.018);
        }
    }

    #[test]
    fn ondemand_switches_on_threshold() {
        let g = Governor::OnDemand {
            high: fixed(900.0, 1.1),
            low: fixed(300.0, 0.85),
            threshold: 0.3,
        };
        assert!(g.validate().is_ok());
        assert_eq!(g.pstate(0.0, 0.9).f_mhz, 900.0);
        assert_eq!(g.pstate(0.0, 0.1).f_mhz, 300.0);
        assert_eq!(g.pstate(0.0, 0.3).f_mhz, 900.0);
    }

    #[test]
    fn schedule_selects_by_time() {
        let g = Governor::Schedule(vec![
            (0.0, fixed(900.0, 1.1)),
            (100.0, fixed(600.0, 0.95)),
            (200.0, fixed(900.0, 1.1)),
        ]);
        assert!(g.validate().is_ok());
        assert_eq!(g.pstate(-5.0, 1.0).f_mhz, 900.0);
        assert_eq!(g.pstate(0.0, 1.0).f_mhz, 900.0);
        assert_eq!(g.pstate(150.0, 1.0).f_mhz, 600.0);
        assert_eq!(g.pstate(200.0, 1.0).f_mhz, 900.0);
        assert_eq!(g.pstate(1e9, 1.0).f_mhz, 900.0);
    }

    #[test]
    fn vid_voltage_flows_through() {
        let g = Governor::Static(PState {
            f_mhz: 900.0,
            voltage: VoltagePolicy::UseVid(VidTable::firepro_s9150()),
        });
        let p = g.pstate(0.0, 1.0);
        assert!(p.voltage.voltage(5) > p.voltage.voltage(0));
    }

    #[test]
    fn validation_catches_errors() {
        assert!(Governor::Static(fixed(0.0, 1.0)).validate().is_err());
        assert!(Governor::Schedule(vec![]).validate().is_err());
        assert!(
            Governor::Schedule(vec![(100.0, fixed(900.0, 1.0)), (50.0, fixed(600.0, 1.0)),])
                .validate()
                .is_err()
        );
        assert!(Governor::OnDemand {
            high: fixed(900.0, 1.0),
            low: fixed(300.0, 1.0),
            threshold: 1.5,
        }
        .validate()
        .is_err());
    }
}
