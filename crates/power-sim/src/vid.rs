//! Voltage-ID (VID) tables.
//!
//! Vendors program a per-ASIC voltage ID that selects the supply voltage
//! sufficient for stable operation at a given frequency (Section 5 of the
//! paper, on the FirePro S9150 boards of L-CSC). A [`VidTable`] maps a VID
//! bin to the programmed voltage; an operating point can either honour the
//! VID ([`VoltagePolicy::UseVid`]) or pin all parts to one fixed voltage
//! ([`VoltagePolicy::Fixed`]), as the L-CSC team did (774 MHz at 1.018 V)
//! for their Green500 submission.

use power_stats::hash::Fnv1a;

use crate::{Result, SimError};

/// A VID-to-voltage mapping: `voltage(bin) = base_v + step_v * bin`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VidTable {
    /// Voltage of bin 0 (the best silicon).
    pub base_v: f64,
    /// Voltage increment per bin.
    pub step_v: f64,
    /// Number of bins.
    pub bins: u8,
}

impl VidTable {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let VidTable {
            base_v,
            step_v,
            bins,
        } = *self;
        h.write_f64(base_v);
        h.write_f64(step_v);
        h.write(&[bins]);
    }

    /// Creates a table; voltages must be positive and bins non-zero.
    pub fn new(base_v: f64, step_v: f64, bins: u8) -> Result<Self> {
        if !(base_v > 0.0 && base_v.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "base_v",
                reason: "base voltage must be positive",
            });
        }
        if !(step_v >= 0.0 && step_v.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "step_v",
                reason: "voltage step must be non-negative",
            });
        }
        if bins == 0 {
            return Err(SimError::InvalidConfig {
                field: "bins",
                reason: "at least one VID bin is required",
            });
        }
        Ok(VidTable {
            base_v,
            step_v,
            bins,
        })
    }

    /// The FirePro S9150-like table used by the L-CSC case study: six bins
    /// from 1.125 V in 12.5 mV steps at the 900 MHz default clock (the
    /// tuned Green500 operating point pinned 774 MHz / 1.018 V instead).
    pub fn firepro_s9150() -> Self {
        VidTable {
            base_v: 1.125,
            step_v: 0.0125,
            bins: 6,
        }
    }

    /// Programmed voltage for a VID bin (clamped to the top bin).
    pub fn voltage(&self, bin: u8) -> f64 {
        let b = bin.min(self.bins - 1) as f64;
        self.base_v + self.step_v * b
    }

    /// The highest programmed voltage.
    pub fn max_voltage(&self) -> f64 {
        self.voltage(self.bins - 1)
    }
}

/// How the operating voltage is chosen for a part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VoltagePolicy {
    /// Honour the per-ASIC VID (vendor default).
    UseVid(VidTable),
    /// Pin every part to one fixed voltage (the L-CSC tuning: the lowest
    /// voltage stable for *all* parts at the chosen frequency).
    Fixed(f64),
}

impl VoltagePolicy {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        match *self {
            VoltagePolicy::UseVid(table) => {
                h.write(&[0]);
                table.fingerprint(h);
            }
            VoltagePolicy::Fixed(v) => {
                h.write(&[1]);
                h.write_f64(v);
            }
        }
    }

    /// Operating voltage for a part with the given VID bin.
    pub fn voltage(&self, vid_bin: u8) -> f64 {
        match *self {
            VoltagePolicy::UseVid(table) => table.voltage(vid_bin),
            VoltagePolicy::Fixed(v) => v,
        }
    }

    /// Whether the policy removes VID-driven node variability.
    pub fn is_fixed(&self) -> bool {
        matches!(self, VoltagePolicy::Fixed(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_voltages_monotone() {
        let t = VidTable::firepro_s9150();
        let mut prev = 0.0;
        for b in 0..t.bins {
            let v = t.voltage(b);
            assert!(v > prev);
            prev = v;
        }
        assert!((t.voltage(0) - 1.125).abs() < 1e-12);
        assert!((t.max_voltage() - 1.1875).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_bin_clamps() {
        let t = VidTable::firepro_s9150();
        assert_eq!(t.voltage(200), t.max_voltage());
    }

    #[test]
    fn fixed_policy_ignores_vid() {
        let p = VoltagePolicy::Fixed(1.018);
        for b in 0..10 {
            assert_eq!(p.voltage(b), 1.018);
        }
        assert!(p.is_fixed());
    }

    #[test]
    fn vid_policy_honours_table() {
        let p = VoltagePolicy::UseVid(VidTable::firepro_s9150());
        assert!(p.voltage(5) > p.voltage(0));
        assert!(!p.is_fixed());
    }

    #[test]
    fn rejects_invalid_tables() {
        assert!(VidTable::new(0.0, 0.01, 4).is_err());
        assert!(VidTable::new(1.0, -0.01, 4).is_err());
        assert!(VidTable::new(1.0, 0.01, 0).is_err());
        assert!(VidTable::new(1.0, 0.0, 1).is_ok());
    }
}
