//! First-order node thermal model.
//!
//! Die temperature matters twice in the paper: it drives leakage (a source
//! of inter-node and over-time variability) and it drives automatic fan
//! regulation (the dominant variability source on L-CSC). A first-order RC
//! model is sufficient for both effects: the die approaches a steady-state
//! temperature `T_amb + R_th * P_heat` with time constant `tau`, where the
//! thermal resistance falls as fan speed rises. The warm-up transient this
//! produces is exactly the "not flat at the very beginning" behaviour that
//! motivated the middle-80% rule.

use power_stats::hash::Fnv1a;

use crate::{Result, SimError};

/// Thermal parameters of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSpec {
    /// Ambient (inlet) temperature in deg C.
    pub t_ambient_c: f64,
    /// Thermal resistance (K/W) at minimum fan speed.
    pub r_th_max: f64,
    /// Thermal resistance (K/W) at full fan speed.
    pub r_th_min: f64,
    /// Thermal time constant in seconds.
    pub tau_s: f64,
}

impl ThermalSpec {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let ThermalSpec {
            t_ambient_c,
            r_th_max,
            r_th_min,
            tau_s,
        } = *self;
        h.write_f64(t_ambient_c);
        h.write_f64(r_th_max);
        h.write_f64(r_th_min);
        h.write_f64(tau_s);
    }

    /// Validates the spec.
    pub fn validate(&self) -> Result<()> {
        if !(self.r_th_min > 0.0 && self.r_th_max >= self.r_th_min) {
            return Err(SimError::InvalidConfig {
                field: "r_th",
                reason: "need 0 < r_th_min <= r_th_max",
            });
        }
        if !(self.tau_s > 0.0 && self.tau_s.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "tau_s",
                reason: "time constant must be positive",
            });
        }
        if !self.t_ambient_c.is_finite() {
            return Err(SimError::InvalidConfig {
                field: "t_ambient_c",
                reason: "ambient temperature must be finite",
            });
        }
        Ok(())
    }

    /// Effective thermal resistance at a fan speed fraction: interpolates
    /// `1/R` linearly in speed (airflow ~ speed, conductance ~ airflow).
    pub fn r_th(&self, fan_speed: f64) -> f64 {
        let s = fan_speed.clamp(0.0, 1.0);
        let g_min = 1.0 / self.r_th_max;
        let g_max = 1.0 / self.r_th_min;
        1.0 / (g_min + (g_max - g_min) * s)
    }

    /// Steady-state die temperature at `heat_w` dissipated and a given fan
    /// speed.
    pub fn steady_temp(&self, heat_w: f64, fan_speed: f64) -> f64 {
        self.t_ambient_c + self.r_th(fan_speed) * heat_w.max(0.0)
    }

    /// Fraction of the remaining gap to the steady state closed in one
    /// step of `dt` seconds: `1 - exp(-dt / tau)`. Constant over a
    /// fixed-step run, so sweeps compute it once.
    pub(crate) fn step_alpha(&self, dt: f64) -> f64 {
        1.0 - (-dt / self.tau_s).exp()
    }
}

/// Mutable thermal state of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalState {
    /// Current die temperature in deg C.
    pub temp_c: f64,
}

impl ThermalState {
    /// A node starting at ambient temperature.
    pub fn at_ambient(spec: &ThermalSpec) -> Self {
        ThermalState {
            temp_c: spec.t_ambient_c,
        }
    }

    /// Advances the state by `dt` seconds with `heat_w` dissipated and the
    /// given fan speed (exact exponential step of the first-order ODE).
    pub fn step(&mut self, spec: &ThermalSpec, heat_w: f64, fan_speed: f64, dt: f64) {
        self.step_with_alpha(spec, heat_w, fan_speed, spec.step_alpha(dt));
    }

    /// [`ThermalState::step`] with the step's `alpha` precomputed by
    /// [`ThermalSpec::step_alpha`]; bit-identical to `step` for the same
    /// `dt`.
    pub(crate) fn step_with_alpha(
        &mut self,
        spec: &ThermalSpec,
        heat_w: f64,
        fan_speed: f64,
        alpha: f64,
    ) {
        let target = spec.steady_temp(heat_w, fan_speed);
        self.temp_c += (target - self.temp_c) * alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ThermalSpec {
        ThermalSpec {
            t_ambient_c: 25.0,
            r_th_max: 0.10,
            r_th_min: 0.04,
            tau_s: 120.0,
        }
    }

    #[test]
    fn faster_fans_cool_better() {
        let s = spec();
        assert!(s.r_th(1.0) < s.r_th(0.0));
        assert_eq!(s.r_th(0.0), 0.10);
        assert!((s.r_th(1.0) - 0.04).abs() < 1e-12);
        assert!(s.steady_temp(400.0, 1.0) < s.steady_temp(400.0, 0.2));
    }

    #[test]
    fn steady_temperature_values() {
        let s = spec();
        assert_eq!(s.steady_temp(0.0, 0.5), 25.0);
        assert!((s.steady_temp(400.0, 0.0) - 65.0).abs() < 1e-12);
        // Negative heat clamps.
        assert_eq!(s.steady_temp(-100.0, 0.0), 25.0);
    }

    #[test]
    fn warmup_transient_converges() {
        let s = spec();
        let mut st = ThermalState::at_ambient(&s);
        assert_eq!(st.temp_c, 25.0);
        let target = s.steady_temp(400.0, 0.5);
        // After one time constant: ~63% of the way.
        let mut one_tau = st;
        one_tau.step(&s, 400.0, 0.5, 120.0);
        let frac = (one_tau.temp_c - 25.0) / (target - 25.0);
        assert!((frac - 0.632).abs() < 0.01, "frac = {frac}");
        // After many small steps totalling 10 tau: converged.
        for _ in 0..1200 {
            st.step(&s, 400.0, 0.5, 1.0);
        }
        assert!((st.temp_c - target).abs() < 0.1);
    }

    #[test]
    fn step_is_stable_for_large_dt() {
        let s = spec();
        let mut st = ThermalState::at_ambient(&s);
        st.step(&s, 400.0, 0.5, 1e6);
        let target = s.steady_temp(400.0, 0.5);
        // Exact exponential step never overshoots.
        assert!((st.temp_c - target).abs() < 1e-6);
    }

    #[test]
    fn cooling_down_works_too() {
        let s = spec();
        let mut st = ThermalState { temp_c: 80.0 };
        st.step(&s, 0.0, 1.0, 600.0);
        assert!(st.temp_c < 80.0);
        assert!(st.temp_c >= 25.0);
    }

    #[test]
    fn validation() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.r_th_min = 0.2; // > r_th_max
        assert!(s.validate().is_err());
        let mut s = spec();
        s.tau_s = 0.0;
        assert!(s.validate().is_err());
        let mut s = spec();
        s.t_ambient_c = f64::NAN;
        assert!(s.validate().is_err());
    }
}
