//! Per-GPU device model.
//!
//! A [`GpuSpec`] describes one accelerator SKU: a discrete frequency
//! ladder (vendors expose supported application clocks, not a
//! continuum), the voltage/frequency curve, and the nominal power split
//! between idle, leakage and dynamic power. A [`GpuDevice`] is one
//! manufactured instance: its leakage factor and Vmin offset are drawn
//! from the same chip-binning model the node simulator uses
//! ([`power_sim::variability::VariabilityModel`]), so CPU nodes and GPU
//! fleets share one notion of manufacturing spread.
//!
//! Power at frequency `f`, utilization `u` follows the classic CMOS
//! split: `P = idle + leak(v) + dyn * u * (f / f_max) * (v / v_max)^2`,
//! with `v` the device's ladder voltage (curve plus its binned Vmin
//! offset) — hungrier silicon needs more voltage, which taxes both
//! leakage and dynamic power. Performance is frequency-proportional:
//! `gflops(f) = gflops_at_fmax * f / f_max`.

use crate::{AccelError, Result};
use power_sim::variability::VariabilityModel;

/// One accelerator SKU: ladder, voltage curve and nominal power split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// SKU name (e.g. `"K20X"`).
    pub name: &'static str,
    /// Top of the frequency ladder in MHz.
    pub f_max_mhz: f64,
    /// Bottom of the frequency ladder in MHz.
    pub f_min_mhz: f64,
    /// Ladder step in MHz (the governor moves one step per tick).
    pub f_step_mhz: f64,
    /// Core voltage at `f_min_mhz`.
    pub v_min: f64,
    /// Core voltage at `f_max_mhz` (nominal bin).
    pub v_max: f64,
    /// Always-on power in watts (memory, board, fans on the card).
    pub idle_w: f64,
    /// Nominal-bin leakage power at `v_max`, in watts.
    pub leak_nom_w: f64,
    /// Nominal dynamic power at `f_max_mhz`, `v_max`, full utilization.
    pub dyn_nom_w: f64,
    /// Throughput at `f_max_mhz` in GFLOP/s.
    pub gflops_at_fmax: f64,
    /// Vendor TDP in watts (documentation; the model's power at nominal
    /// settings should land near it).
    pub tdp_w: f64,
}

impl GpuSpec {
    /// Validates the SKU parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.f_max_mhz > self.f_min_mhz && self.f_min_mhz > 0.0) {
            return Err(AccelError::InvalidConfig {
                field: "f_max_mhz",
                reason: "ladder needs f_max > f_min > 0",
            });
        }
        if !(self.f_step_mhz > 0.0 && self.f_step_mhz <= self.f_max_mhz - self.f_min_mhz) {
            return Err(AccelError::InvalidConfig {
                field: "f_step_mhz",
                reason: "step must be positive and fit the ladder",
            });
        }
        if !(self.v_max >= self.v_min && self.v_min > 0.0) {
            return Err(AccelError::InvalidConfig {
                field: "v_min",
                reason: "voltage curve needs v_max >= v_min > 0",
            });
        }
        if !(self.idle_w >= 0.0 && self.leak_nom_w >= 0.0 && self.dyn_nom_w > 0.0) {
            return Err(AccelError::InvalidConfig {
                field: "dyn_nom_w",
                reason: "power split needs idle, leak >= 0 and dyn > 0",
            });
        }
        if !(self.gflops_at_fmax > 0.0) {
            return Err(AccelError::InvalidConfig {
                field: "gflops_at_fmax",
                reason: "throughput must be positive",
            });
        }
        Ok(())
    }

    /// Number of rungs on the frequency ladder.
    pub fn ladder_len(&self) -> usize {
        ((self.f_max_mhz - self.f_min_mhz) / self.f_step_mhz).floor() as usize + 1
    }

    /// Frequency of ladder rung `idx` (0 = `f_min`, top = `f_max`).
    pub fn freq_mhz(&self, idx: usize) -> f64 {
        (self.f_min_mhz + idx as f64 * self.f_step_mhz).min(self.f_max_mhz)
    }

    /// Nominal-curve voltage at frequency `f` (linear V/F interpolation).
    pub fn voltage(&self, f_mhz: f64) -> f64 {
        let span = self.f_max_mhz - self.f_min_mhz;
        let frac = ((f_mhz - self.f_min_mhz) / span).clamp(0.0, 1.0);
        self.v_min + (self.v_max - self.v_min) * frac
    }

    /// Power of `device` at frequency `f` and utilization `u in [0, 1]`.
    pub fn power_w(&self, device: &GpuDevice, f_mhz: f64, u: f64) -> f64 {
        let v = self.voltage(f_mhz) + device.vmin_shift_v;
        let vr = v / self.v_max;
        let leak = self.leak_nom_w * device.leakage_factor * vr * vr;
        let dynamic = self.dyn_nom_w * u.clamp(0.0, 1.0) * (f_mhz / self.f_max_mhz) * vr * vr;
        (self.idle_w + leak + dynamic) * device.residual
    }

    /// Throughput at frequency `f` in GFLOP/s.
    pub fn gflops(&self, f_mhz: f64) -> f64 {
        self.gflops_at_fmax * f_mhz / self.f_max_mhz
    }

    /// Largest power increase one ladder step can cause for `device` at
    /// full utilization — the governor's overshoot bound.
    pub fn max_step_delta_w(&self, device: &GpuDevice) -> f64 {
        let mut max = 0.0f64;
        for idx in 1..self.ladder_len() {
            let delta = self.power_w(device, self.freq_mhz(idx), 1.0)
                - self.power_w(device, self.freq_mhz(idx - 1), 1.0);
            max = max.max(delta);
        }
        max
    }
}

/// Chip-binning parameters of a device population: the shared
/// manufacturing model plus how much extra voltage each worse bin needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinnedPopulationSpec {
    /// Manufacturing-spread model shared with the node simulator
    /// (leakage log-sigma, residual sigma, bin count, bin/leakage
    /// correlation).
    pub variability: VariabilityModel,
    /// Extra Vmin per bin in volts: bin `b` runs at `+ b * vmin_step_v`
    /// over the nominal curve (worse silicon needs margin).
    pub vmin_step_v: f64,
}

impl BinnedPopulationSpec {
    /// Validates the binning parameters.
    pub fn validate(&self) -> Result<()> {
        self.variability
            .validate()
            .map_err(|_| AccelError::InvalidConfig {
                field: "variability",
                reason: "manufacturing model out of range",
            })?;
        if !(self.vmin_step_v >= 0.0 && self.vmin_step_v < 0.1) {
            return Err(AccelError::InvalidConfig {
                field: "vmin_step_v",
                reason: "per-bin Vmin step must lie in [0, 0.1)",
            });
        }
        Ok(())
    }

    /// Draws device `index` from the population stream rooted at `seed`
    /// (order-independent: every device has its own substream).
    pub fn draw(&self, seed: u64, index: u64) -> GpuDevice {
        let asic = self.variability.sample_asic_at(seed, index);
        let residual = self.variability.sample_node_multiplier_at(seed, index);
        GpuDevice {
            index,
            leakage_factor: asic.leakage_factor,
            vmin_shift_v: asic.vid_bin as f64 * self.vmin_step_v,
            bin: asic.vid_bin,
            residual,
        }
    }
}

/// One manufactured device: the binning outcome applied to a [`GpuSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuDevice {
    /// Position in the population (also its RNG substream).
    pub index: u64,
    /// Log-normal multiplier on nominal leakage.
    pub leakage_factor: f64,
    /// Extra voltage this device's bin needs over the nominal curve.
    pub vmin_shift_v: f64,
    /// Assigned bin, `0 ..= bins - 1` (higher = worse silicon).
    pub bin: u8,
    /// Residual board-level multiplier on total power.
    pub residual: f64,
}

impl GpuDevice {
    /// A perfectly nominal device (bin 0, unit factors).
    pub fn nominal() -> Self {
        GpuDevice {
            index: 0,
            leakage_factor: 1.0,
            vmin_shift_v: 0.0,
            bin: 0,
            residual: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::AccelPreset;

    #[test]
    fn ladder_endpoints_and_len() {
        let spec = AccelPreset::k20x().spec;
        spec.validate().unwrap();
        assert_eq!(spec.freq_mhz(0), spec.f_min_mhz);
        let top = spec.ladder_len() - 1;
        assert!((spec.freq_mhz(top) - spec.f_max_mhz).abs() < spec.f_step_mhz);
        assert!(spec.ladder_len() >= 8, "ladder too coarse for a governor");
    }

    #[test]
    fn power_is_monotone_in_frequency_and_utilization() {
        let spec = AccelPreset::v100().spec;
        let dev = GpuDevice::nominal();
        for idx in 1..spec.ladder_len() {
            let lo = spec.power_w(&dev, spec.freq_mhz(idx - 1), 1.0);
            let hi = spec.power_w(&dev, spec.freq_mhz(idx), 1.0);
            assert!(hi > lo, "rung {idx}: {hi} <= {lo}");
        }
        assert!(spec.power_w(&dev, spec.f_max_mhz, 0.5) < spec.power_w(&dev, spec.f_max_mhz, 1.0));
        assert!(spec.power_w(&dev, spec.f_max_mhz, 0.0) > 0.0, "idle power");
    }

    #[test]
    fn nominal_full_power_lands_near_tdp() {
        for preset in [AccelPreset::k20x(), AccelPreset::v100()] {
            let spec = preset.spec;
            let p = spec.power_w(&GpuDevice::nominal(), spec.f_max_mhz, 1.0);
            assert!(
                (p - spec.tdp_w).abs() / spec.tdp_w < 0.05,
                "{}: {p} vs TDP {}",
                spec.name,
                spec.tdp_w
            );
        }
    }

    #[test]
    fn worse_bins_draw_more_power() {
        let spec = AccelPreset::k20x().spec;
        let binning = AccelPreset::k20x().binning;
        let mut good = GpuDevice::nominal();
        let mut bad = GpuDevice::nominal();
        bad.bin = 5;
        bad.vmin_shift_v = 5.0 * binning.vmin_step_v;
        bad.leakage_factor = 1.2;
        good.leakage_factor = 0.9;
        assert!(spec.power_w(&bad, spec.f_max_mhz, 1.0) > spec.power_w(&good, spec.f_max_mhz, 1.0));
    }

    #[test]
    fn draws_are_deterministic_per_index() {
        let binning = AccelPreset::k20x().binning;
        let a = binning.draw(7, 13);
        let b = binning.draw(7, 13);
        assert_eq!(a, b);
        assert_ne!(a.leakage_factor, binning.draw(7, 14).leakage_factor);
        assert_ne!(a.leakage_factor, binning.draw(8, 13).leakage_factor);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut bad = AccelPreset::k20x().spec;
        bad.f_min_mhz = bad.f_max_mhz + 1.0;
        assert!(bad.validate().is_err());
        let mut bad = AccelPreset::k20x().spec;
        bad.f_step_mhz = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = AccelPreset::k20x().spec;
        bad.dyn_nom_w = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = AccelPreset::k20x().spec;
        bad.v_min = 0.0;
        assert!(bad.validate().is_err());
        let mut binning = AccelPreset::k20x().binning;
        binning.vmin_step_v = 0.5;
        assert!(binning.validate().is_err());
    }

    #[test]
    fn step_delta_bounds_every_rung() {
        let spec = AccelPreset::v100().spec;
        let dev = GpuDevice::nominal();
        let bound = spec.max_step_delta_w(&dev);
        for idx in 1..spec.ladder_len() {
            let delta = spec.power_w(&dev, spec.freq_mhz(idx), 1.0)
                - spec.power_w(&dev, spec.freq_mhz(idx - 1), 1.0);
            assert!(delta <= bound + 1e-12);
        }
        assert!(bound > 0.0 && bound < 20.0, "bound = {bound}");
    }
}
