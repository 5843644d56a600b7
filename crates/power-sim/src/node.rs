//! Node assembly: from component models to watts at the wall.
//!
//! A [`NodeSpec`] describes the hardware of one node; [`NodeSpec::power`]
//! combines component power, per-ASIC manufacturing samples, the DVFS
//! operating point, fan state and die temperature into a [`NodePower`]
//! breakdown. The breakdown is kept per-component because the EE HPC WG
//! methodology cares about *which subsystems* a measurement includes (the
//! Titan dataset in the paper metered GPUs only).

use crate::components::{MemorySpec, ProcessorSpec, StaticSpec};
use crate::dvfs::PState;
use crate::fan::{FanPolicy, FanSpec};
use crate::thermal::ThermalSpec;
use crate::variability::AsicSample;
use crate::{Result, SimError};
use power_stats::hash::Fnv1a;

/// Hardware description of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Processor sockets / accelerator boards (one entry each).
    pub processors: Vec<ProcessorSpec>,
    /// Memory subsystem (all DIMMs together).
    pub memory: MemorySpec,
    /// Static board power.
    pub static_power: StaticSpec,
    /// Fan bank.
    pub fan: FanSpec,
    /// Thermal model.
    pub thermal: ThermalSpec,
    /// Node PSU efficiency (DC out / AC in) in `(0, 1]`.
    pub psu_efficiency: f64,
}

impl NodeSpec {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let NodeSpec {
            processors,
            memory,
            static_power,
            fan,
            thermal,
            psu_efficiency,
        } = self;
        h.write_u64(processors.len() as u64);
        for p in processors {
            p.fingerprint(h);
        }
        memory.fingerprint(h);
        static_power.fingerprint(h);
        fan.fingerprint(h);
        thermal.fingerprint(h);
        h.write_f64(*psu_efficiency);
    }

    /// Validates the node description.
    pub fn validate(&self) -> Result<()> {
        if self.processors.is_empty() {
            return Err(SimError::InvalidConfig {
                field: "processors",
                reason: "a node needs at least one processor",
            });
        }
        if !(self.psu_efficiency > 0.0 && self.psu_efficiency <= 1.0) {
            return Err(SimError::InvalidConfig {
                field: "psu_efficiency",
                reason: "must lie in (0, 1]",
            });
        }
        self.fan.validate()?;
        self.thermal.validate()?;
        Ok(())
    }

    /// Computes the node's power breakdown.
    ///
    /// * `asics` — manufacturing samples, one per processor (extra entries
    ///   ignored; missing entries treated as nominal);
    /// * `node_multiplier` — residual node-level efficiency multiplier;
    /// * `utilization` — workload activity in `[0, 1]`;
    /// * `pstate` — DVFS operating point (the voltage policy is resolved
    ///   against each processor's VID bin);
    /// * `fan_policy` — fan control in force;
    /// * `temp_c` — current die temperature.
    #[allow(clippy::too_many_arguments)]
    pub fn power(
        &self,
        asics: &[AsicSample],
        node_multiplier: f64,
        utilization: f64,
        pstate: &PState,
        fan_policy: &FanPolicy,
        temp_c: f64,
    ) -> NodePower {
        let nominal = AsicSample::nominal();
        let processors_w: f64 = self
            .processors
            .iter()
            .enumerate()
            .map(|(i, proc)| {
                let asic = asics.get(i).unwrap_or(&nominal);
                let v = pstate.voltage.voltage(asic.vid_bin);
                proc.power(utilization, pstate.f_mhz, v, temp_c, asic.leakage_factor)
            })
            .sum();
        let memory_w = self.memory.power(utilization);
        let static_w = self.static_power.power();
        let fan_speed = fan_policy.speed(temp_c, &self.fan);
        let fan_w = self.fan.power(fan_speed);

        // The node multiplier models residual manufacturing/assembly spread
        // in the compute path; fans are modelled explicitly and excluded.
        let compute_w = (processors_w + memory_w + static_w) * node_multiplier;
        let dc_w = compute_w + fan_w;
        NodePower {
            processors_w,
            memory_w,
            static_w,
            fan_w,
            fan_speed,
            node_multiplier,
            dc_w,
            wall_w: dc_w / self.psu_efficiency,
        }
    }

    /// Heat dissipated inside the chassis (drives the thermal model):
    /// the compute-path DC power. Fan electrical power mostly becomes
    /// airflow and is excluded.
    pub fn heat_w(power: &NodePower) -> f64 {
        power.dc_w - power.fan_w
    }
}

/// Instantaneous power breakdown of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePower {
    /// Summed processor power in watts (processors added in
    /// `NodeSpec::processors` order) — the scope of the Titan GPU dataset.
    pub processors_w: f64,
    /// Memory subsystem power.
    pub memory_w: f64,
    /// Static board power.
    pub static_w: f64,
    /// Fan electrical power.
    pub fan_w: f64,
    /// Fan speed fraction in force.
    pub fan_speed: f64,
    /// Node multiplier that was applied.
    pub node_multiplier: f64,
    /// Total DC power (after the node multiplier, including fans).
    pub dc_w: f64,
    /// AC power at the wall (DC / PSU efficiency).
    pub wall_w: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vid::VoltagePolicy;

    pub(crate) fn test_node() -> NodeSpec {
        NodeSpec {
            processors: vec![
                ProcessorSpec {
                    dynamic_w: 95.0,
                    leakage_w: 20.0,
                    idle_fraction: 0.12,
                    f_nom_mhz: 2700.0,
                    v_nom: 1.0,
                    leakage_temp_coeff: 0.008,
                    t_ref_c: 60.0,
                };
                2
            ],
            memory: MemorySpec {
                idle_w: 15.0,
                active_w: 25.0,
            },
            static_power: StaticSpec { watts: 40.0 },
            fan: FanSpec {
                max_power_w: 60.0,
                min_speed: 0.3,
            },
            thermal: ThermalSpec {
                t_ambient_c: 25.0,
                r_th_max: 0.10,
                r_th_min: 0.04,
                tau_s: 120.0,
            },
            psu_efficiency: 0.92,
        }
    }

    fn pstate() -> PState {
        PState {
            f_mhz: 2700.0,
            voltage: VoltagePolicy::Fixed(1.0),
        }
    }

    #[test]
    fn breakdown_adds_up() {
        let spec = test_node();
        let p = spec.power(
            &[AsicSample::nominal(), AsicSample::nominal()],
            1.0,
            1.0,
            &pstate(),
            &FanPolicy::Pinned { speed: 0.5 },
            60.0,
        );
        let expect_compute = 2.0 * 115.0 + 40.0 + 40.0; // procs + mem + static
        let expect_fan = 60.0 * 0.125;
        assert!((p.dc_w - (expect_compute + expect_fan)).abs() < 1e-9);
        assert!((p.wall_w - p.dc_w / 0.92).abs() < 1e-9);
        assert!((p.processors_w - 230.0).abs() < 1e-9);
        assert!((NodeSpec::heat_w(&p) - expect_compute).abs() < 1e-9);
    }

    #[test]
    fn multiplier_scales_compute_not_fans() {
        let spec = test_node();
        let fan = FanPolicy::Pinned { speed: 0.5 };
        let base = spec.power(&[], 1.0, 1.0, &pstate(), &fan, 60.0);
        let scaled = spec.power(&[], 1.05, 1.0, &pstate(), &fan, 60.0);
        assert!((scaled.fan_w - base.fan_w).abs() < 1e-12);
        let compute_base = base.dc_w - base.fan_w;
        let compute_scaled = scaled.dc_w - scaled.fan_w;
        assert!((compute_scaled / compute_base - 1.05).abs() < 1e-9);
    }

    #[test]
    fn missing_asics_default_to_nominal() {
        let spec = test_node();
        let fan = FanPolicy::Pinned { speed: 0.5 };
        let a = spec.power(&[], 1.0, 0.7, &pstate(), &fan, 60.0);
        let b = spec.power(
            &[AsicSample::nominal(), AsicSample::nominal()],
            1.0,
            0.7,
            &pstate(),
            &fan,
            60.0,
        );
        assert_eq!(a, b);
    }

    #[test]
    fn leaky_asic_draws_more() {
        let spec = test_node();
        let fan = FanPolicy::Pinned { speed: 0.5 };
        let leaky = AsicSample {
            leakage_factor: 1.4,
            vid_bin: 0,
        };
        let a = spec.power(&[leaky, leaky], 1.0, 1.0, &pstate(), &fan, 60.0);
        let b = spec.power(&[], 1.0, 1.0, &pstate(), &fan, 60.0);
        assert!(a.wall_w > b.wall_w);
        // 2 procs * 20 W leakage * 0.4 extra = 16 W DC.
        assert!((a.dc_w - b.dc_w - 16.0).abs() < 1e-9);
    }

    #[test]
    fn hotter_node_draws_more_with_auto_fans() {
        let spec = test_node();
        let auto = FanPolicy::Auto {
            t_low_c: 50.0,
            t_high_c: 80.0,
        };
        let cool = spec.power(&[], 1.0, 1.0, &pstate(), &auto, 50.0);
        let hot = spec.power(&[], 1.0, 1.0, &pstate(), &auto, 80.0);
        // Both leakage and fan power rise with temperature.
        assert!(hot.wall_w > cool.wall_w);
        assert!(hot.fan_w > cool.fan_w);
        assert!(hot.fan_speed > cool.fan_speed);
    }

    #[test]
    fn validation() {
        assert!(test_node().validate().is_ok());
        let mut s = test_node();
        s.processors.clear();
        assert!(s.validate().is_err());
        let mut s = test_node();
        s.psu_efficiency = 0.0;
        assert!(s.validate().is_err());
        let mut s = test_node();
        s.psu_efficiency = 1.2;
        assert!(s.validate().is_err());
    }
}
