//! Component-level power models.
//!
//! A node's power is assembled from processors (CPUs or GPU boards), memory
//! DIMMs, and a static remainder (board, NIC, drives). Processor power
//! follows the classic CMOS decomposition: dynamic power scales with
//! utilization, frequency and the square of voltage; leakage scales with
//! voltage squared and rises with temperature.

use power_stats::hash::Fnv1a;

/// A processor (CPU socket or GPU board) power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcessorSpec {
    /// Dynamic power at full utilization, nominal frequency and voltage.
    pub dynamic_w: f64,
    /// Leakage power at nominal voltage and reference temperature.
    pub leakage_w: f64,
    /// Idle dynamic power fraction (clock trees, uncore) of `dynamic_w`.
    pub idle_fraction: f64,
    /// Nominal core frequency in MHz.
    pub f_nom_mhz: f64,
    /// Nominal core voltage in volts.
    pub v_nom: f64,
    /// Leakage temperature coefficient per kelvin (typ. 0.005–0.015).
    pub leakage_temp_coeff: f64,
    /// Reference temperature (deg C) at which `leakage_w` is specified.
    pub t_ref_c: f64,
}

impl ProcessorSpec {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let ProcessorSpec {
            dynamic_w,
            leakage_w,
            idle_fraction,
            f_nom_mhz,
            v_nom,
            leakage_temp_coeff,
            t_ref_c,
        } = *self;
        h.write_f64(dynamic_w);
        h.write_f64(leakage_w);
        h.write_f64(idle_fraction);
        h.write_f64(f_nom_mhz);
        h.write_f64(v_nom);
        h.write_f64(leakage_temp_coeff);
        h.write_f64(t_ref_c);
    }

    /// Power drawn by this processor.
    ///
    /// * `utilization` — activity factor in `[0, 1]`;
    /// * `f_mhz`, `v` — operating point (from the DVFS governor);
    /// * `temp_c` — die temperature;
    /// * `leakage_factor` — per-ASIC manufacturing multiplier on leakage.
    pub fn power(
        &self,
        utilization: f64,
        f_mhz: f64,
        v: f64,
        temp_c: f64,
        leakage_factor: f64,
    ) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        let f_ratio = (f_mhz / self.f_nom_mhz).max(0.0);
        let v_ratio2 = (v / self.v_nom).max(0.0).powi(2);
        // Dynamic: alpha C V^2 f, with a floor for always-on clocks.
        let activity = self.idle_fraction + (1.0 - self.idle_fraction) * u;
        let dynamic = self.dynamic_w * activity * f_ratio * v_ratio2;
        // Leakage: ~ V^2 with a linear-in-T correction around t_ref.
        let leakage = self.leakage_w
            * leakage_factor
            * v_ratio2
            * (1.0 + self.leakage_temp_coeff * (temp_c - self.t_ref_c));
        dynamic + leakage.max(0.0)
    }

    /// Nameplate (TDP-like) power: full utilization at nominal operating
    /// point, reference temperature, nominal ASIC.
    pub fn nameplate_w(&self) -> f64 {
        self.power(1.0, self.f_nom_mhz, self.v_nom, self.t_ref_c, 1.0)
    }
}

/// Memory subsystem power model (all DIMMs of a node together).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySpec {
    /// Power at idle (refresh, standby).
    pub idle_w: f64,
    /// Additional power at full access rate.
    pub active_w: f64,
}

impl MemorySpec {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let MemorySpec { idle_w, active_w } = *self;
        h.write_f64(idle_w);
        h.write_f64(active_w);
    }

    /// Memory power at a given utilization.
    pub fn power(&self, utilization: f64) -> f64 {
        self.idle_w + self.active_w * utilization.clamp(0.0, 1.0)
    }
}

/// Static board power: baseboard, VRM overhead floor, NIC, drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticSpec {
    /// Constant power in watts.
    pub watts: f64,
}

impl StaticSpec {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let StaticSpec { watts } = *self;
        h.write_f64(watts);
    }

    /// The constant draw.
    pub fn power(&self) -> f64 {
        self.watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xeon() -> ProcessorSpec {
        ProcessorSpec {
            dynamic_w: 95.0,
            leakage_w: 20.0,
            idle_fraction: 0.12,
            f_nom_mhz: 2700.0,
            v_nom: 1.0,
            leakage_temp_coeff: 0.008,
            t_ref_c: 60.0,
        }
    }

    #[test]
    fn power_monotone_in_utilization() {
        let p = xeon();
        let mut prev = 0.0;
        for i in 0..=10 {
            let u = i as f64 / 10.0;
            let w = p.power(u, 2700.0, 1.0, 60.0, 1.0);
            assert!(w > prev);
            prev = w;
        }
    }

    #[test]
    fn nameplate_is_dynamic_plus_leakage() {
        let p = xeon();
        assert!((p.nameplate_w() - 115.0).abs() < 1e-9);
    }

    #[test]
    fn voltage_squared_scaling() {
        let p = xeon();
        let lo = p.power(1.0, 2700.0, 0.9, 60.0, 1.0);
        let hi = p.power(1.0, 2700.0, 1.1, 60.0, 1.0);
        // Both dynamic and leakage scale ~V^2.
        assert!((hi / lo - (1.1f64 / 0.9).powi(2)).abs() < 1e-9);
    }

    #[test]
    fn frequency_scales_dynamic_only() {
        let p = xeon();
        let base = p.power(1.0, 2700.0, 1.0, 60.0, 1.0);
        let half = p.power(1.0, 1350.0, 1.0, 60.0, 1.0);
        // Halving f halves dynamic (95) but not leakage (20).
        assert!((base - half - 47.5).abs() < 1e-9);
    }

    #[test]
    fn leakage_rises_with_temperature() {
        let p = xeon();
        let cold = p.power(0.0, 2700.0, 1.0, 40.0, 1.0);
        let hot = p.power(0.0, 2700.0, 1.0, 80.0, 1.0);
        // +40 K at 0.008/K => +32% of 20 W leakage = 6.4 W.
        assert!((hot - cold - 6.4).abs() < 1e-9);
    }

    #[test]
    fn leakage_factor_scales_leakage_only() {
        let p = xeon();
        let nominal = p.power(1.0, 2700.0, 1.0, 60.0, 1.0);
        let leaky = p.power(1.0, 2700.0, 1.0, 60.0, 1.5);
        assert!((leaky - nominal - 10.0).abs() < 1e-9);
    }

    #[test]
    fn idle_floor_present() {
        let p = xeon();
        let idle = p.power(0.0, 2700.0, 1.0, 60.0, 1.0);
        // 12% of 95 dynamic + 20 leakage.
        assert!((idle - (0.12 * 95.0 + 20.0)).abs() < 1e-9);
    }

    #[test]
    fn utilization_clamps() {
        let p = xeon();
        assert_eq!(
            p.power(1.5, 2700.0, 1.0, 60.0, 1.0),
            p.power(1.0, 2700.0, 1.0, 60.0, 1.0)
        );
        assert_eq!(
            p.power(-0.5, 2700.0, 1.0, 60.0, 1.0),
            p.power(0.0, 2700.0, 1.0, 60.0, 1.0)
        );
    }

    #[test]
    fn leakage_never_negative() {
        let p = xeon();
        // Absurdly cold: the linear model would go negative; it must clamp.
        let w = p.power(0.0, 2700.0, 1.0, -300.0, 1.0);
        assert!(w >= 0.12 * 95.0 - 1e-9);
    }

    #[test]
    fn memory_model() {
        let m = MemorySpec {
            idle_w: 12.0,
            active_w: 18.0,
        };
        assert_eq!(m.power(0.0), 12.0);
        assert_eq!(m.power(1.0), 30.0);
        assert_eq!(m.power(2.0), 30.0);
        assert!((m.power(0.5) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn static_model() {
        assert_eq!(StaticSpec { watts: 35.0 }.power(), 35.0);
    }
}
