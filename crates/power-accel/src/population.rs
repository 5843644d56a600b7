//! Binned device populations and fixed-work sweeps.
//!
//! A [`GpuPopulation`] draws `n` devices from a [`BinnedPopulationSpec`]
//! under one seed — deterministically and order-independently, so two
//! builds of the same fleet agree bit-for-bit. A [`SweepConfig`] then
//! runs every device through the same fixed amount of work, either
//! unconstrained or under a [`PowerCapGovernor`]; the per-device
//! [`DeviceRun`] records average/peak power, runtime, energy-to-solution
//! and cap residency. The population-level accessors expose exactly the
//! quantities the methodology cares about: power CV (what Eq. 5 sizes
//! from), runtime CV and energy CV (what a cap converts it into).

use crate::device::{BinnedPopulationSpec, GpuDevice, GpuSpec};
use crate::governor::PowerCapGovernor;
use crate::{AccelError, Result};
use power_stats::summary::Summary;

/// A seeded population of binned devices of one SKU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPopulation {
    spec: GpuSpec,
    binning: BinnedPopulationSpec,
    devices: Vec<GpuDevice>,
    seed: u64,
}

impl GpuPopulation {
    /// Draws a population of `n` devices from the stream rooted at
    /// `seed`.
    pub fn build(
        spec: GpuSpec,
        binning: BinnedPopulationSpec,
        n: usize,
        seed: u64,
    ) -> Result<Self> {
        spec.validate()?;
        binning.validate()?;
        if n == 0 {
            return Err(AccelError::InvalidConfig {
                field: "n",
                reason: "population needs at least one device",
            });
        }
        let devices = (0..n as u64).map(|i| binning.draw(seed, i)).collect();
        Ok(GpuPopulation {
            spec,
            binning,
            devices,
            seed,
        })
    }

    /// The SKU.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The drawn devices.
    pub fn devices(&self) -> &[GpuDevice] {
        &self.devices
    }

    /// The population seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-rung full-utilization powers of one device (ascending).
    pub fn ladder_w(&self, device: &GpuDevice) -> Vec<f64> {
        (0..self.spec.ladder_len())
            .map(|idx| self.spec.power_w(device, self.spec.freq_mhz(idx), 1.0))
            .collect()
    }

    /// Runs every device through the sweep and aggregates the results.
    pub fn sweep(&self, cfg: &SweepConfig) -> Result<SweepResult> {
        cfg.validate()?;
        let governor = cfg.cap_w.map(PowerCapGovernor::new).map(|g| {
            g.expect("validated cap") // cfg.validate checked positivity
        });
        let mut runs = Vec::with_capacity(self.devices.len());
        let mut device_steps = 0u64;
        for device in &self.devices {
            let run = self.run_device(device, cfg, governor.as_ref());
            device_steps += run.steps;
            runs.push(run);
        }
        Ok(SweepResult {
            cap_w: cfg.cap_w,
            runs,
            device_steps,
        })
    }

    /// Simulates one device: fixed work at `cfg.utilization`, the
    /// governor (when capped) ticking once per `dt_s`.
    fn run_device(
        &self,
        device: &GpuDevice,
        cfg: &SweepConfig,
        governor: Option<&PowerCapGovernor>,
    ) -> DeviceRun {
        let ladder = self.ladder_w(device);
        let top = ladder.len() - 1;
        // Feed-forward settle from the device's own sensor, then the
        // per-tick loop keeps it honest (and handles utilization dips).
        let mut idx = match governor {
            Some(g) => g.settle(&ladder),
            None => top,
        };
        let mut t = 0.0f64;
        let mut energy = 0.0f64;
        let mut progress = 0.0f64;
        let mut peak = 0.0f64;
        let mut throttled_s = 0.0f64;
        let mut steps = 0u64;
        loop {
            let f = self.spec.freq_mhz(idx);
            let p = self.spec.power_w(device, f, cfg.utilization);
            let rate = self.spec.gflops(f) * cfg.utilization;
            peak = peak.max(p);
            let remaining = cfg.work_gflop - progress;
            steps += 1;
            if rate * cfg.dt_s >= remaining {
                // Fractional last tick: exact runtime, no dt rounding.
                let frac = remaining / rate;
                t += frac;
                energy += p * frac;
                if idx < top {
                    throttled_s += frac;
                }
                progress = cfg.work_gflop;
                break;
            }
            t += cfg.dt_s;
            energy += p * cfg.dt_s;
            progress += rate * cfg.dt_s;
            if idx < top {
                throttled_s += cfg.dt_s;
            }
            if let Some(g) = governor {
                idx = g.tick(idx, p, &ladder);
            }
        }
        let _ = progress;
        DeviceRun {
            index: device.index,
            bin: device.bin,
            avg_power_w: energy / t,
            peak_power_w: peak,
            runtime_s: t,
            energy_j: energy,
            f_final_mhz: self.spec.freq_mhz(idx),
            throttle_frac: throttled_s / t,
            steps,
        }
    }
}

/// Parameters of one fixed-work sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepConfig {
    /// Per-device board cap in watts; `None` runs uncapped.
    pub cap_w: Option<f64>,
    /// Work per device in GFLOP (fixed — the "solution" in
    /// energy-to-solution).
    pub work_gflop: f64,
    /// Governor tick / integration step in seconds.
    pub dt_s: f64,
    /// Compute-phase utilization in `[0, 1]`.
    pub utilization: f64,
}

impl SweepConfig {
    /// Validates the sweep parameters.
    pub fn validate(&self) -> Result<()> {
        if let Some(cap) = self.cap_w {
            if !(cap > 0.0 && cap.is_finite()) {
                return Err(AccelError::InvalidConfig {
                    field: "cap_w",
                    reason: "cap must be positive",
                });
            }
        }
        if !(self.work_gflop > 0.0 && self.work_gflop.is_finite()) {
            return Err(AccelError::InvalidConfig {
                field: "work_gflop",
                reason: "work must be positive",
            });
        }
        if !(self.dt_s > 0.0 && self.dt_s.is_finite()) {
            return Err(AccelError::InvalidConfig {
                field: "dt_s",
                reason: "tick must be positive",
            });
        }
        if !(self.utilization > 0.0 && self.utilization <= 1.0) {
            return Err(AccelError::InvalidConfig {
                field: "utilization",
                reason: "utilization must lie in (0, 1]",
            });
        }
        Ok(())
    }
}

/// One device's accounting over a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceRun {
    /// Device index in the population.
    pub index: u64,
    /// The device's bin.
    pub bin: u8,
    /// Time-averaged board power over the run.
    pub avg_power_w: f64,
    /// Peak instantaneous board power over the run.
    pub peak_power_w: f64,
    /// Time to solution in seconds.
    pub runtime_s: f64,
    /// Energy to solution in joules.
    pub energy_j: f64,
    /// Frequency at the end of the run.
    pub f_final_mhz: f64,
    /// Fraction of the runtime spent below the ladder top.
    pub throttle_frac: f64,
    /// Governor/integration ticks executed (the bench's device-steps).
    pub steps: u64,
}

/// The population-level outcome of one sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The cap in force, if any.
    pub cap_w: Option<f64>,
    /// Per-device accounting, in population order.
    pub runs: Vec<DeviceRun>,
    /// Total governor ticks across all devices (bench metric).
    pub device_steps: u64,
}

impl SweepResult {
    fn cv_of<F: Fn(&DeviceRun) -> f64>(&self, f: F) -> f64 {
        let s: Summary = self.runs.iter().map(f).collect();
        match s.sample_std_dev() {
            Ok(sd) if s.mean() > 0.0 => sd / s.mean(),
            _ => 0.0,
        }
    }

    /// Mean per-device average power in watts.
    pub fn mean_power_w(&self) -> f64 {
        let s: Summary = self.runs.iter().map(|r| r.avg_power_w).collect();
        s.mean()
    }

    /// Coefficient of variation of per-device average power.
    pub fn power_cv(&self) -> f64 {
        self.cv_of(|r| r.avg_power_w)
    }

    /// Coefficient of variation of per-device runtime.
    pub fn runtime_cv(&self) -> f64 {
        self.cv_of(|r| r.runtime_s)
    }

    /// Coefficient of variation of per-device energy-to-solution.
    pub fn energy_cv(&self) -> f64 {
        self.cv_of(|r| r.energy_j)
    }

    /// Relative spread `max/min - 1` of per-device runtime.
    pub fn runtime_spread(&self) -> f64 {
        let min = self
            .runs
            .iter()
            .map(|r| r.runtime_s)
            .fold(f64::MAX, f64::min);
        let max = self.runs.iter().map(|r| r.runtime_s).fold(0.0, f64::max);
        if min > 0.0 {
            max / min - 1.0
        } else {
            0.0
        }
    }

    /// Fraction of devices that spent any time throttled.
    pub fn throttled_device_frac(&self) -> f64 {
        let n = self.runs.iter().filter(|r| r.throttle_frac > 0.0).count();
        n as f64 / self.runs.len() as f64
    }

    /// Worst overshoot above the cap across devices (watts over the cap
    /// at the device's *peak* instantaneous power; 0 when uncapped or
    /// all under).
    pub fn max_over_cap_w(&self) -> f64 {
        match self.cap_w {
            Some(cap) => self
                .runs
                .iter()
                .map(|r| (r.peak_power_w - cap).max(0.0))
                .fold(0.0, f64::max),
            None => 0.0,
        }
    }

    /// Per-device average powers (for downstream sampling studies).
    pub fn powers_w(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.avg_power_w).collect()
    }

    /// Per-device energies-to-solution (for downstream sampling studies).
    pub fn energies_j(&self) -> Vec<f64> {
        self.runs.iter().map(|r| r.energy_j).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preset::AccelPreset;

    fn small_pop() -> GpuPopulation {
        let p = AccelPreset::k20x();
        GpuPopulation::build(p.spec, p.binning, 64, 0xACCE1).unwrap()
    }

    fn sweep_cfg(cap: Option<f64>) -> SweepConfig {
        SweepConfig {
            cap_w: cap,
            work_gflop: 1310.0 * 120.0, // ~2 minutes at full clock
            dt_s: 1.0,
            utilization: 1.0,
        }
    }

    #[test]
    fn population_build_is_deterministic() {
        let a = small_pop();
        let b = small_pop();
        assert_eq!(a, b);
        let p = AccelPreset::k20x();
        let c = GpuPopulation::build(p.spec, p.binning, 64, 0xACCE2).unwrap();
        assert_ne!(a.devices()[0], c.devices()[0]);
    }

    #[test]
    fn uncapped_sweep_has_power_spread_and_no_runtime_spread() {
        let pop = small_pop();
        let r = pop.sweep(&sweep_cfg(None)).unwrap();
        assert!(r.power_cv() > 0.01, "power cv = {}", r.power_cv());
        // Same clock, same work: identical runtimes.
        assert!(r.runtime_cv() < 1e-12, "runtime cv = {}", r.runtime_cv());
        assert!(r.runtime_spread() < 1e-12);
        assert_eq!(r.throttled_device_frac(), 0.0);
        assert_eq!(r.max_over_cap_w(), 0.0);
        // Energy spread mirrors power spread exactly.
        assert!((r.energy_cv() - r.power_cv()).abs() < 1e-12);
    }

    #[test]
    fn capped_sweep_converts_power_spread_into_runtime_spread() {
        let pop = small_pop();
        let preset = AccelPreset::k20x();
        let uncapped = pop.sweep(&sweep_cfg(None)).unwrap();
        let capped = pop.sweep(&sweep_cfg(Some(preset.cap_w))).unwrap();
        // The cap binds for a meaningful share of the fleet...
        assert!(
            capped.throttled_device_frac() > 0.2,
            "throttled = {}",
            capped.throttled_device_frac()
        );
        // ...which compresses power spread and creates runtime spread.
        assert!(capped.power_cv() < uncapped.power_cv());
        assert!(capped.runtime_cv() > 0.003, "cv = {}", capped.runtime_cv());
        assert!(capped.runtime_spread() > 0.01);
        // Throttled devices run longer, never shorter.
        for (u, c) in uncapped.runs.iter().zip(&capped.runs) {
            assert!(c.runtime_s >= u.runtime_s - 1e-9);
            assert!(c.f_final_mhz <= pop.spec().f_max_mhz);
        }
    }

    #[test]
    fn capped_power_respects_the_one_step_bound() {
        let pop = small_pop();
        let preset = AccelPreset::k20x();
        let capped = pop.sweep(&sweep_cfg(Some(preset.cap_w))).unwrap();
        for (dev, run) in pop.devices().iter().zip(&capped.runs) {
            let bound = pop.spec().max_step_delta_w(dev);
            let floor_w = pop.ladder_w(dev)[0];
            assert!(
                run.peak_power_w <= preset.cap_w + bound + 1e-9 || floor_w > preset.cap_w,
                "device {}: peak {} over cap {} by more than one step {}",
                dev.index,
                run.peak_power_w,
                preset.cap_w,
                bound
            );
        }
    }

    #[test]
    fn energy_accounting_is_consistent() {
        let pop = small_pop();
        let r = pop
            .sweep(&sweep_cfg(Some(AccelPreset::k20x().cap_w)))
            .unwrap();
        for run in &r.runs {
            assert!((run.energy_j - run.avg_power_w * run.runtime_s).abs() < 1e-6);
            assert!(run.steps >= 1);
        }
        assert_eq!(r.device_steps, r.runs.iter().map(|x| x.steps).sum::<u64>());
        assert_eq!(r.powers_w().len(), 64);
        assert_eq!(r.energies_j().len(), 64);
    }

    #[test]
    fn sweep_config_validation() {
        let pop = small_pop();
        let mut bad = sweep_cfg(None);
        bad.work_gflop = 0.0;
        assert!(pop.sweep(&bad).is_err());
        let mut bad = sweep_cfg(None);
        bad.dt_s = -1.0;
        assert!(pop.sweep(&bad).is_err());
        let mut bad = sweep_cfg(None);
        bad.utilization = 0.0;
        assert!(pop.sweep(&bad).is_err());
        let mut bad = sweep_cfg(Some(0.0));
        bad.cap_w = Some(0.0);
        assert!(pop.sweep(&bad).is_err());
        let p = AccelPreset::k20x();
        assert!(GpuPopulation::build(p.spec, p.binning, 0, 1).is_err());
    }
}
