//! Named accelerator fleet presets.
//!
//! The campaign harness resolves accelerator systems by short names the
//! way it resolves CPU systems through `SystemPreset::by_name`. Each
//! preset pairs a SKU with its binning spread, a default fleet size, the
//! vendor-enforced board cap and a default per-device work quantum.
//!
//! Two SKUs are shipped: the K20X (the Titan-era accelerator whose
//! 400-device study in "Not All GPUs Are Created Equal" motivates this
//! crate) and the V100 (the Summit-era part metered by the on-chip OCC).

use crate::device::{BinnedPopulationSpec, GpuSpec};
use crate::population::{GpuPopulation, SweepConfig};
use crate::Result;
use power_sim::variability::VariabilityModel;

/// A named accelerator fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelPreset {
    /// Preset name as used in scenario files.
    pub name: &'static str,
    /// The SKU.
    pub spec: GpuSpec,
    /// Manufacturing spread of the population.
    pub binning: BinnedPopulationSpec,
    /// Default fleet size (devices).
    pub devices: usize,
    /// Vendor-enforced per-board power cap in watts.
    pub cap_w: f64,
    /// Default per-device work in GFLOP (the fixed "solution").
    pub work_gflop: f64,
    /// Default governor tick in seconds.
    pub dt_s: f64,
}

impl AccelPreset {
    /// The Titan-era K20X: 235 W TDP enforced as the board cap, binned
    /// silicon with a heavy leakage tail — uncapped fleet power CV ~4%.
    pub fn k20x() -> Self {
        let spec = GpuSpec {
            name: "K20X",
            f_max_mhz: 758.0,
            f_min_mhz: 500.0,
            f_step_mhz: 13.0,
            v_min: 0.85,
            v_max: 1.0,
            idle_w: 20.0,
            leak_nom_w: 45.0,
            dyn_nom_w: 170.0,
            gflops_at_fmax: 1_310.0,
            tdp_w: 235.0,
        };
        AccelPreset {
            name: "k20x",
            spec,
            binning: BinnedPopulationSpec {
                variability: VariabilityModel {
                    leakage_sigma: 0.12,
                    node_sigma: 0.01,
                    vid_bins: 6,
                    vid_leakage_corr: 0.6,
                },
                vmin_step_v: 0.012,
            },
            devices: 400,
            cap_w: 235.0,
            work_gflop: 1_310.0 * 300.0,
            dt_s: 1.0,
        }
    }

    /// The Summit-era V100: 300 W TDP cap, tighter binning (finer
    /// process), OCC-metered in situ.
    pub fn v100() -> Self {
        let spec = GpuSpec {
            name: "V100",
            f_max_mhz: 1_530.0,
            f_min_mhz: 1_000.0,
            f_step_mhz: 15.0,
            v_min: 0.80,
            v_max: 1.0,
            idle_w: 30.0,
            leak_nom_w: 60.0,
            dyn_nom_w: 210.0,
            gflops_at_fmax: 7_000.0,
            tdp_w: 300.0,
        };
        AccelPreset {
            name: "v100",
            spec,
            binning: BinnedPopulationSpec {
                variability: VariabilityModel {
                    leakage_sigma: 0.10,
                    node_sigma: 0.008,
                    vid_bins: 8,
                    vid_leakage_corr: 0.5,
                },
                vmin_step_v: 0.008,
            },
            devices: 1_000,
            cap_w: 300.0,
            work_gflop: 7_000.0 * 300.0,
            dt_s: 1.0,
        }
    }

    /// All shipped presets, in registry order.
    pub fn all() -> Vec<AccelPreset> {
        vec![AccelPreset::k20x(), AccelPreset::v100()]
    }

    /// Canonical names accepted by [`AccelPreset::by_name`].
    pub fn names() -> [&'static str; 2] {
        ["k20x", "v100"]
    }

    /// Looks a preset up by name (case-insensitive, punctuation
    /// ignored), so scenario files can say `"K20X"` or `"v-100"`.
    pub fn by_name(name: &str) -> Option<AccelPreset> {
        let key: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        AccelPreset::all().into_iter().find(|p| p.name == key)
    }

    /// Builds a population of `n` devices (`None` = the preset's default
    /// fleet size) from the given seed.
    pub fn population(&self, n: Option<usize>, seed: u64) -> Result<GpuPopulation> {
        GpuPopulation::build(self.spec, self.binning, n.unwrap_or(self.devices), seed)
    }

    /// The preset's default sweep, capped or not.
    pub fn sweep_config(&self, capped: bool) -> SweepConfig {
        SweepConfig {
            cap_w: capped.then_some(self.cap_w),
            work_gflop: self.work_gflop,
            dt_s: self.dt_s,
            utilization: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_resolves() {
        for name in AccelPreset::names() {
            let p = AccelPreset::by_name(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(p.name, name);
            p.spec.validate().unwrap();
            p.binning.validate().unwrap();
            assert!(p.devices > 0);
            assert!(p.cap_w > 0.0 && p.cap_w <= p.spec.tdp_w + 1e-9);
        }
        assert!(AccelPreset::by_name("K20X").is_some());
        assert!(AccelPreset::by_name("v-100").is_some());
        assert!(AccelPreset::by_name("h100").is_none());
    }

    #[test]
    fn preset_population_and_sweeps_run() {
        let p = AccelPreset::v100();
        let pop = p.population(Some(32), 99).unwrap();
        assert_eq!(pop.devices().len(), 32);
        let capped = pop.sweep(&p.sweep_config(true)).unwrap();
        let uncapped = pop.sweep(&p.sweep_config(false)).unwrap();
        assert!(capped.cap_w.is_some() && uncapped.cap_w.is_none());
        assert!(uncapped.power_cv() > capped.power_cv());
    }

    #[test]
    fn default_population_size_used_when_unspecified() {
        let p = AccelPreset::k20x();
        let pop = p.population(None, 1).unwrap();
        assert_eq!(pop.devices().len(), 400);
    }
}
