//! Node fan power and control.
//!
//! The L-CSC case study found system fans to vary node power by **more than
//! 100 W** with temperature and load — "larger variances in power efficiency
//! than the actual CPU/GPU variability". Fan aerodynamic power grows with
//! the cube of speed. A [`FanPolicy`] either regulates speed automatically
//! against temperature (the default on real systems) or pins it (the
//! mitigation the paper recommends for measurement runs).

use power_stats::hash::Fnv1a;

use crate::{Result, SimError};

/// Physical fan-bank parameters of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FanSpec {
    /// Electrical power at full speed (all node fans together).
    pub max_power_w: f64,
    /// Minimum sustainable speed fraction.
    pub min_speed: f64,
}

impl FanSpec {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let FanSpec {
            max_power_w,
            min_speed,
        } = *self;
        h.write_f64(max_power_w);
        h.write_f64(min_speed);
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<()> {
        if !(self.max_power_w >= 0.0 && self.max_power_w.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "max_power_w",
                reason: "must be non-negative",
            });
        }
        if !(0.0..=1.0).contains(&self.min_speed) {
            return Err(SimError::InvalidConfig {
                field: "min_speed",
                reason: "must lie in [0, 1]",
            });
        }
        Ok(())
    }

    /// Electrical power at a speed fraction (cubic fan law).
    pub fn power(&self, speed: f64) -> f64 {
        let s = speed.clamp(0.0, 1.0);
        self.max_power_w * s * s * s
    }
}

/// How fan speed is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FanPolicy {
    /// Automatic regulation: speed rises linearly with inlet/die
    /// temperature above `t_low_c`, reaching full speed at `t_high_c`.
    Auto {
        /// Temperature at/below which fans run at minimum speed.
        t_low_c: f64,
        /// Temperature at/above which fans run at full speed.
        t_high_c: f64,
    },
    /// Pinned to a fixed speed fraction — the paper's mitigation: "the
    /// fans of all nodes should be pinned to the same speed".
    Pinned {
        /// Speed fraction in `[0, 1]`.
        speed: f64,
    },
}

impl FanPolicy {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        match *self {
            FanPolicy::Auto { t_low_c, t_high_c } => {
                h.write(&[0]);
                h.write_f64(t_low_c);
                h.write_f64(t_high_c);
            }
            FanPolicy::Pinned { speed } => {
                h.write(&[1]);
                h.write_f64(speed);
            }
        }
    }

    /// Validates the policy.
    pub fn validate(&self) -> Result<()> {
        match *self {
            FanPolicy::Auto { t_low_c, t_high_c } => {
                if !(t_high_c > t_low_c) {
                    return Err(SimError::InvalidConfig {
                        field: "t_high_c",
                        reason: "must exceed t_low_c",
                    });
                }
                Ok(())
            }
            FanPolicy::Pinned { speed } => {
                if !(0.0..=1.0).contains(&speed) {
                    return Err(SimError::InvalidConfig {
                        field: "speed",
                        reason: "must lie in [0, 1]",
                    });
                }
                Ok(())
            }
        }
    }

    /// Speed fraction commanded at die temperature `temp_c`, given the
    /// fan bank's minimum speed.
    pub fn speed(&self, temp_c: f64, spec: &FanSpec) -> f64 {
        match *self {
            FanPolicy::Auto { t_low_c, t_high_c } => {
                let x = ((temp_c - t_low_c) / (t_high_c - t_low_c)).clamp(0.0, 1.0);
                spec.min_speed + (1.0 - spec.min_speed) * x
            }
            FanPolicy::Pinned { speed } => speed.max(spec.min_speed),
        }
    }

    /// Whether this policy eliminates fan-driven node variability.
    pub fn is_pinned(&self) -> bool {
        matches!(self, FanPolicy::Pinned { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> FanSpec {
        FanSpec {
            max_power_w: 160.0,
            min_speed: 0.3,
        }
    }

    #[test]
    fn cubic_law() {
        let s = spec();
        assert_eq!(s.power(0.0), 0.0);
        assert_eq!(s.power(1.0), 160.0);
        assert!((s.power(0.5) - 20.0).abs() < 1e-12);
        // Clamped outside [0,1].
        assert_eq!(s.power(2.0), 160.0);
        assert_eq!(s.power(-1.0), 0.0);
    }

    #[test]
    fn auto_policy_tracks_temperature() {
        let p = FanPolicy::Auto {
            t_low_c: 50.0,
            t_high_c: 80.0,
        };
        let s = spec();
        assert_eq!(p.speed(40.0, &s), 0.3);
        assert_eq!(p.speed(80.0, &s), 1.0);
        let mid = p.speed(65.0, &s);
        assert!((mid - 0.65).abs() < 1e-12);
        // Monotone.
        assert!(p.speed(70.0, &s) > p.speed(60.0, &s));
    }

    #[test]
    fn pinned_policy_ignores_temperature() {
        let p = FanPolicy::Pinned { speed: 0.45 };
        let s = spec();
        assert_eq!(p.speed(30.0, &s), 0.45);
        assert_eq!(p.speed(95.0, &s), 0.45);
        assert!(p.is_pinned());
        // Pinned below minimum clamps up to the sustainable floor.
        let low = FanPolicy::Pinned { speed: 0.1 };
        assert_eq!(low.speed(50.0, &s), 0.3);
    }

    #[test]
    fn fan_swing_exceeds_100w_for_lcsc_like_spec() {
        // L-CSC observation: >100 W swing between low and high fan speeds.
        let s = FanSpec {
            max_power_w: 180.0,
            min_speed: 0.35,
        };
        let p = FanPolicy::Auto {
            t_low_c: 55.0,
            t_high_c: 85.0,
        };
        let cool = s.power(p.speed(55.0, &s));
        let hot = s.power(p.speed(85.0, &s));
        assert!(hot - cool > 100.0, "swing = {}", hot - cool);
    }

    #[test]
    fn validation() {
        assert!(spec().validate().is_ok());
        assert!(FanSpec {
            max_power_w: -1.0,
            min_speed: 0.3
        }
        .validate()
        .is_err());
        assert!(FanSpec {
            max_power_w: 10.0,
            min_speed: 1.5
        }
        .validate()
        .is_err());
        assert!(FanPolicy::Auto {
            t_low_c: 80.0,
            t_high_c: 50.0
        }
        .validate()
        .is_err());
        assert!(FanPolicy::Pinned { speed: 1.2 }.validate().is_err());
        assert!(FanPolicy::Pinned { speed: 0.5 }.validate().is_ok());
    }
}
