//! Meter fault injection.
//!
//! Real measurement campaigns fail in undramatic ways: a PDU firmware
//! drops samples under SNMP load, an un-recalibrated meter drifts over a
//! 28-hour Sequoia run, a stuck register repeats the last reading. The
//! methodology's accuracy claims are only as good as a campaign's
//! robustness to these, so the reproduction makes them injectable:
//! [`FaultyMeter`] wraps a [`SamplingMeter`] with a fault model and the
//! tests quantify what each fault does to a window average.

use crate::device::SamplingMeter;
use crate::reading::Reading;
use crate::{MeterError, Result};
use rand::Rng;

/// A fault model for one instrument.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MeterFault {
    /// No fault (pass-through).
    None,
    /// Each sample is independently lost with probability `prob`.
    DropSamples {
        /// Loss probability in `[0, 1)`.
        prob: f64,
    },
    /// Multiplicative gain drift: the reading is scaled by
    /// `1 + rate_per_hour * t/3600` (uncorrected sensor aging /
    /// temperature drift).
    Drift {
        /// Relative drift per hour (can be negative).
        rate_per_hour: f64,
    },
    /// After `after_s` seconds of the window, the meter repeats its last
    /// good sample forever.
    StuckAfter {
        /// Seconds into the window at which the register freezes.
        after_s: f64,
    },
}

impl MeterFault {
    /// Validates fault parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            MeterFault::None => Ok(()),
            MeterFault::DropSamples { prob } => {
                if !(0.0..1.0).contains(&prob) {
                    return Err(MeterError::InvalidConfig {
                        field: "prob",
                        reason: "drop probability must lie in [0, 1)",
                    });
                }
                Ok(())
            }
            MeterFault::Drift { rate_per_hour } => {
                if !(rate_per_hour.is_finite() && rate_per_hour.abs() < 1.0) {
                    return Err(MeterError::InvalidConfig {
                        field: "rate_per_hour",
                        reason: "drift must be finite and |rate| < 1/h",
                    });
                }
                Ok(())
            }
            MeterFault::StuckAfter { after_s } => {
                if !(after_s >= 0.0 && after_s.is_finite()) {
                    return Err(MeterError::InvalidConfig {
                        field: "after_s",
                        reason: "freeze time must be non-negative",
                    });
                }
                Ok(())
            }
        }
    }

    /// Applies the fault to one already-metered sample taken `t_rel`
    /// seconds into the measurement window — the streaming path.
    ///
    /// Returns `None` when the sample is lost. `last_good` carries the
    /// stuck-register state across calls and must start as `None` at the
    /// window start; `rng` is drawn from only by [`MeterFault::DropSamples`],
    /// in the same order as the batch [`FaultyMeter::measure`] loop.
    pub fn apply_sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        w: f64,
        t_rel: f64,
        last_good: &mut Option<f64>,
    ) -> Option<f64> {
        let sample = match *self {
            MeterFault::None => Some(w),
            MeterFault::DropSamples { prob } => {
                if rng.random::<f64>() < prob {
                    None
                } else {
                    Some(w)
                }
            }
            MeterFault::Drift { rate_per_hour } => Some(w * (1.0 + rate_per_hour * t_rel / 3600.0)),
            MeterFault::StuckAfter { after_s } => {
                if t_rel >= after_s {
                    last_good.or(Some(w))
                } else {
                    Some(w)
                }
            }
        };
        if let Some(s) = sample {
            if !matches!(*self, MeterFault::StuckAfter { after_s } if t_rel >= after_s) {
                *last_good = Some(s);
            }
        }
        sample
    }
}

/// A sampling meter wrapped with a fault model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultyMeter {
    meter: SamplingMeter,
    fault: MeterFault,
}

impl FaultyMeter {
    /// Wraps a meter with a fault.
    pub fn new(meter: SamplingMeter, fault: MeterFault) -> Result<Self> {
        fault.validate()?;
        Ok(FaultyMeter { meter, fault })
    }

    /// The fault model in force.
    pub fn fault(&self) -> MeterFault {
        self.fault
    }

    /// Measures like [`SamplingMeter::measure`] but through the fault.
    ///
    /// Returns [`MeterError::EmptyWindow`] if every sample was lost.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        series: &[f64],
        t0: f64,
        dt: f64,
        from: f64,
        to: f64,
    ) -> Result<Reading> {
        // Base instrument behaviour (gain + noise + quantization), then
        // the fault layer — both shared with the streaming path.
        let mut last_good: Option<f64> = None;
        self.meter
            .measure_through(rng, series, t0, dt, from, to, |rng, w, t_rel| {
                self.fault.apply_sample(rng, w, t_rel, &mut last_good)
            })
    }
}

/// Detects a stalled on-chip metering cadence from a read stream.
///
/// An OCC-style meter ([`crate::occ::OccMeter`]) refreshes its sensor
/// register once per cadence, so out-of-band reads *legitimately* repeat
/// the same value for up to one cadence (plus read latency). When the
/// internal cadence loop dies, reads keep returning the last register
/// value forever — constant, plausible-looking power. The generic
/// detectors miss this failure: a drift detector sees zero slope, and a
/// run-length "stuck" detector tuned to the read rate either false-fires
/// on the healthy within-cadence repeats or, if its threshold is raised
/// past them, cannot distinguish a stall from a flat workload faster
/// than many cadences.
///
/// This detector is cadence-aware: it tracks how long the reported value
/// has been *bit-identical* and alarms only once that span exceeds
/// `max_stale_intervals` full cadences — long enough that a healthy
/// register must have refreshed (quantization makes exact repeats across
/// refreshes possible but a true constant across many cadences is the
/// stall signature; widen `max_stale_intervals` for very flat loads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CadenceStallDetector {
    cadence_s: f64,
    max_stale_intervals: u32,
    last_value: Option<f64>,
    run_start: f64,
    fired: bool,
}

impl CadenceStallDetector {
    /// Creates a detector for a meter with the given refresh cadence;
    /// `max_stale_intervals` is how many full cadences a bit-identical
    /// value is tolerated before alarming (at least 1).
    pub fn new(cadence_s: f64, max_stale_intervals: u32) -> Result<Self> {
        if !(cadence_s > 0.0 && cadence_s.is_finite()) {
            return Err(MeterError::InvalidConfig {
                field: "cadence_s",
                reason: "cadence must be positive",
            });
        }
        if max_stale_intervals == 0 {
            return Err(MeterError::InvalidConfig {
                field: "max_stale_intervals",
                reason: "must tolerate at least one cadence",
            });
        }
        Ok(CadenceStallDetector {
            cadence_s,
            max_stale_intervals,
            last_value: None,
            run_start: 0.0,
            fired: false,
        })
    }

    /// Feeds one read `(t, w)`; `t` must be non-decreasing across calls.
    /// Returns `true` exactly once per stall, when the constant-value
    /// span first exceeds the tolerance.
    pub fn observe(&mut self, t: f64, w: f64) -> bool {
        match self.last_value {
            Some(last) if last.to_bits() == w.to_bits() => {
                if !self.fired
                    && t - self.run_start > self.cadence_s * self.max_stale_intervals as f64
                {
                    self.fired = true;
                    return true;
                }
                false
            }
            _ => {
                self.last_value = Some(w);
                self.run_start = t;
                self.fired = false;
                false
            }
        }
    }

    /// Whether the detector is currently in the alarmed state.
    pub fn is_stalled(&self) -> bool {
        self.fired
    }

    /// How long the current value has persisted as of read time `t`.
    pub fn stale_for(&self, t: f64) -> f64 {
        if self.last_value.is_some() {
            t - self.run_start
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MeterModel;
    use crate::occ::OccModel;
    use power_stats::rng::seeded;

    fn ideal_meter() -> SamplingMeter {
        let mut rng = seeded(1);
        MeterModel::ideal().instantiate(&mut rng).unwrap()
    }

    fn ramp(n: usize) -> Vec<f64> {
        (0..n).map(|i| 100.0 + i as f64).collect()
    }

    #[test]
    fn none_fault_is_passthrough() {
        let m = FaultyMeter::new(ideal_meter(), MeterFault::None).unwrap();
        let mut rng = seeded(2);
        let series = ramp(100);
        let r = m.measure(&mut rng, &series, 0.0, 1.0, 0.0, 100.0).unwrap();
        let plain = ideal_meter()
            .measure(&mut rng, &series, 0.0, 1.0, 0.0, 100.0)
            .unwrap();
        assert!((r.average_w - plain.average_w).abs() < 1e-9);
        assert_eq!(r.samples, 100);
    }

    #[test]
    fn dropped_samples_reduce_count_not_bias() {
        let m = FaultyMeter::new(ideal_meter(), MeterFault::DropSamples { prob: 0.3 }).unwrap();
        let mut rng = seeded(3);
        let series = vec![400.0; 3600];
        let r = m.measure(&mut rng, &series, 0.0, 1.0, 0.0, 3600.0).unwrap();
        assert!(r.samples < 3000 && r.samples > 2200, "{}", r.samples);
        // Flat series: no bias regardless of which samples were lost.
        assert!((r.average_w - 400.0).abs() < 1e-9);
    }

    #[test]
    fn dropped_samples_can_empty_the_window() {
        let m = FaultyMeter::new(ideal_meter(), MeterFault::DropSamples { prob: 0.999 }).unwrap();
        let mut rng = seeded(4);
        let series = vec![400.0; 3];
        // Expect EmptyWindow most of the time with 3 samples at p=0.999;
        // try a few seeds to hit it deterministically with seeded rng.
        let r = m.measure(&mut rng, &series, 0.0, 1.0, 0.0, 3.0);
        assert!(matches!(r, Err(MeterError::EmptyWindow)) || r.unwrap().samples <= 1);
    }

    #[test]
    fn drift_biases_long_windows() {
        // +1%/hour drift over a 10-hour flat run biases the average ~+5%.
        let m = FaultyMeter::new(
            ideal_meter(),
            MeterFault::Drift {
                rate_per_hour: 0.01,
            },
        )
        .unwrap();
        let mut rng = seeded(5);
        let series = vec![400.0; 36_000];
        let r = m
            .measure(&mut rng, &series, 0.0, 1.0, 0.0, 36_000.0)
            .unwrap();
        let bias = r.average_w / 400.0 - 1.0;
        assert!((bias - 0.05).abs() < 0.002, "bias = {bias}");
        // Short window: negligible.
        let r = m.measure(&mut rng, &series, 0.0, 1.0, 0.0, 60.0).unwrap();
        assert!((r.average_w / 400.0 - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stuck_meter_freezes_at_last_good_value() {
        let m = FaultyMeter::new(ideal_meter(), MeterFault::StuckAfter { after_s: 10.0 }).unwrap();
        let mut rng = seeded(6);
        // Ramp 100..=199: frozen at the sample just before t=10 (~109).
        let series = ramp(100);
        let r = m.measure(&mut rng, &series, 0.0, 1.0, 0.0, 100.0).unwrap();
        // 10 live samples (100..109 avg 104.5) + 90 stuck at 109.
        let want = (104.5 * 10.0 + 109.0 * 90.0) / 100.0;
        assert!((r.average_w - want).abs() < 1.0, "avg = {}", r.average_w);
        assert_eq!(r.samples, 100);
    }

    #[test]
    fn validation() {
        assert!(MeterFault::DropSamples { prob: 1.0 }.validate().is_err());
        assert!(MeterFault::Drift { rate_per_hour: 2.0 }.validate().is_err());
        assert!(MeterFault::StuckAfter { after_s: -1.0 }.validate().is_err());
        assert!(MeterFault::None.validate().is_ok());
        assert!(FaultyMeter::new(ideal_meter(), MeterFault::DropSamples { prob: 1.5 }).is_err());
    }

    #[test]
    fn methodology_consequence_drift_vs_window_length() {
        // A drifting meter hurts the revised full-core rule *more* than a
        // short Level 1 window in absolute bias — an honest trade-off the
        // fault model exposes (and recalibration schedules fix).
        let m = FaultyMeter::new(
            ideal_meter(),
            MeterFault::Drift {
                rate_per_hour: 0.005,
            },
        )
        .unwrap();
        let mut rng = seeded(7);
        let series = vec![400.0; 100_800];
        let full = m
            .measure(&mut rng, &series, 0.0, 1.0, 0.0, 100_800.0)
            .unwrap();
        let short = m
            .measure(&mut rng, &series, 0.0, 1.0, 40_000.0, 45_000.0)
            .unwrap();
        let full_bias = (full.average_w / 400.0 - 1.0).abs();
        let short_bias = (short.average_w / 400.0 - 1.0).abs();
        assert!(full_bias > 5.0 * short_bias, "{full_bias} vs {short_bias}");
    }

    #[test]
    fn cadence_stall_detector_fires_on_stalled_occ_not_healthy_occ() {
        // A healthy OCC read at 10 Hz repeats each register value for one
        // 250 ms cadence; a stalled OCC repeats it forever. The detector
        // must stay quiet on the former and fire on the latter.
        let mut rng = seeded(11);
        let model = OccModel {
            quantization_w: 0.0, // exact registers: repeats only via cadence
            ..OccModel::power9()
        };
        let healthy = model.instantiate(&mut rng).unwrap();
        let stalled = healthy.with_stall_after(20.0);
        // A varying true series so successive cadence windows differ.
        let series: Vec<f64> = (0..4000)
            .map(|i| 300.0 + (i as f64 * 0.05).sin() * 30.0)
            .collect();
        let mut det = CadenceStallDetector::new(0.25, 3).unwrap();
        for i in 0..900 {
            let t = 1.0 + i as f64 * 0.1;
            let fired = det.observe(t, healthy.read(&series, 0.0, 0.25, t).unwrap());
            assert!(!fired, "false alarm at t = {t}");
        }
        assert!(!det.is_stalled());

        let mut det = CadenceStallDetector::new(0.25, 3).unwrap();
        let mut alarms = 0;
        let mut alarm_t = f64::NAN;
        for i in 0..900 {
            let t = 1.0 + i as f64 * 0.1;
            if det.observe(t, stalled.read(&series, 0.0, 0.25, t).unwrap()) {
                alarms += 1;
                alarm_t = t;
            }
        }
        assert_eq!(alarms, 1, "stall must raise exactly one alarm");
        assert!(det.is_stalled());
        // Fired shortly after the tolerance window past the 20 s stall.
        assert!(
            alarm_t > 20.0 && alarm_t < 20.0 + 3.0 * 0.25 + 1.0,
            "alarm at {alarm_t}"
        );
    }

    #[test]
    fn cadence_stall_detector_tracks_staleness_and_validates() {
        let mut det = CadenceStallDetector::new(1.0, 2).unwrap();
        assert_eq!(det.stale_for(5.0), 0.0);
        assert!(!det.observe(0.0, 100.0));
        assert!(!det.observe(1.0, 100.0));
        assert!((det.stale_for(1.0) - 1.0).abs() < 1e-12);
        // Value change resets the run.
        assert!(!det.observe(2.0, 101.0));
        assert!((det.stale_for(2.0) - 0.0).abs() < 1e-12);
        // Constant past 2 cadences fires once, then stays latched.
        assert!(!det.observe(3.0, 101.0));
        assert!(!det.observe(4.0, 101.0));
        assert!(det.observe(4.5, 101.0));
        assert!(!det.observe(5.0, 101.0));
        assert!(det.is_stalled());
        // Recovery clears the alarm.
        assert!(!det.observe(6.0, 102.0));
        assert!(!det.is_stalled());
        assert!(CadenceStallDetector::new(0.0, 3).is_err());
        assert!(CadenceStallDetector::new(1.0, 0).is_err());
    }
}
