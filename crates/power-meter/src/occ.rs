//! OCC-style on-chip power meter.
//!
//! POWER9-class processors carry an On-Chip Controller (OCC) that meters
//! the chip and node power *itself*: an internal loop accumulates current
//! and voltage telemetry over a fixed cadence, averages each completed
//! window into a sensor register, and out-of-band readers (BMC, AMESTER)
//! fetch that register some latency later. The published evaluation of
//! the POWER9 OCC shows this pipeline is accurate but not artifact-free:
//! readings are quantized to whole watts, carry a bounded calibration
//! gain/offset error, and are *stale* by up to one cadence plus the read
//! latency — a read never sees the window currently accumulating, only
//! the last completed one.
//!
//! [`OccModel`] describes the pipeline; [`OccMeter`] is one instantiated
//! instrument with drawn gain/offset. The distinguishing failure mode —
//! the internal cadence stalling so every read returns the same stale
//! register — is injectable via [`OccMeter::with_stall_after`] and is
//! what [`crate::faults::CadenceStallDetector`] exists to catch.

use crate::reading::Reading;
use crate::{MeterError, Result};
use rand::Rng;

/// Parameters of an OCC-style on-chip metering pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccModel {
    /// Internal accumulation cadence in seconds: the sensor register is
    /// refreshed with the average of each completed cadence window.
    pub cadence_s: f64,
    /// Register quantization in watts (0 disables).
    pub quantization_w: f64,
    /// Bound on the calibration gain error (e.g. `0.016` = ±1.6%).
    pub gain_bound: f64,
    /// Bound on the additive calibration offset in watts.
    pub offset_bound_w: f64,
    /// Out-of-band read-path latency in seconds: a read issued at `t`
    /// sees the register as of `t - read_latency_s`.
    pub read_latency_s: f64,
}

impl OccModel {
    /// The POWER9 OCC as published: 250 ms sensor refresh, whole-watt
    /// registers, ±1.6% gain, ±2 W offset, 100 ms out-of-band read path.
    pub fn power9() -> Self {
        OccModel {
            cadence_s: 0.25,
            quantization_w: 1.0,
            gain_bound: 0.016,
            offset_bound_w: 2.0,
            read_latency_s: 0.1,
        }
    }

    /// Validates the pipeline parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.cadence_s > 0.0 && self.cadence_s.is_finite()) {
            return Err(MeterError::InvalidConfig {
                field: "cadence_s",
                reason: "cadence must be positive",
            });
        }
        if !(self.quantization_w >= 0.0 && self.quantization_w.is_finite()) {
            return Err(MeterError::InvalidConfig {
                field: "quantization_w",
                reason: "must be non-negative",
            });
        }
        if !(self.gain_bound >= 0.0 && self.gain_bound < 0.2) {
            return Err(MeterError::InvalidConfig {
                field: "gain_bound",
                reason: "must lie in [0, 0.2)",
            });
        }
        if !(self.offset_bound_w >= 0.0 && self.offset_bound_w.is_finite()) {
            return Err(MeterError::InvalidConfig {
                field: "offset_bound_w",
                reason: "must be non-negative",
            });
        }
        if !(self.read_latency_s >= 0.0 && self.read_latency_s.is_finite()) {
            return Err(MeterError::InvalidConfig {
                field: "read_latency_s",
                reason: "must be non-negative",
            });
        }
        Ok(())
    }

    /// Instantiates one on-chip meter, drawing its calibration errors.
    pub fn instantiate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<OccMeter> {
        self.validate()?;
        let gain = 1.0 + self.gain_bound * (rng.random::<f64>() * 2.0 - 1.0);
        let offset = self.offset_bound_w * (rng.random::<f64>() * 2.0 - 1.0);
        Ok(OccMeter {
            model: *self,
            gain,
            offset,
            stall_at: None,
        })
    }
}

/// One instantiated OCC with fixed calibration gain/offset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccMeter {
    model: OccModel,
    gain: f64,
    offset: f64,
    /// If set, the internal cadence loop dies at this absolute time: the
    /// register freezes at the last window completed before it.
    stall_at: Option<f64>,
}

impl OccMeter {
    /// The pipeline parameters.
    pub fn model(&self) -> &OccModel {
        &self.model
    }

    /// The drawn calibration gain (1.0 = perfect).
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The drawn calibration offset in watts.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Injects a cadence stall: from `t` on, the sensor register is never
    /// refreshed again.
    pub fn with_stall_after(mut self, t: f64) -> Self {
        self.stall_at = Some(t);
        self
    }

    /// End time of the cadence window a read at absolute time `t` reports
    /// (the last window *completed* by `t - read_latency_s`, further
    /// capped by a stall if one is injected).
    pub fn reported_window_end(&self, t0: f64, t: f64) -> f64 {
        let mut seen = t - self.model.read_latency_s;
        if let Some(stall) = self.stall_at {
            seen = seen.min(stall);
        }
        let completed = ((seen - t0) / self.model.cadence_s).floor();
        t0 + completed * self.model.cadence_s
    }

    /// How stale the value returned by a read at `t` is (seconds between
    /// the reported window's end and the read instant).
    pub fn staleness(&self, t0: f64, t: f64) -> f64 {
        t - self.reported_window_end(t0, t)
    }

    /// Reads the sensor register at absolute time `t` over the true power
    /// series (`series[i]` averages `[t0 + i*dt, t0 + (i+1)*dt)`).
    ///
    /// Errors with [`MeterError::EmptyWindow`] if no cadence window has
    /// completed yet at `t` (or the reported window precedes the series).
    pub fn read(&self, series: &[f64], t0: f64, dt: f64, t: f64) -> Result<f64> {
        let end = self.reported_window_end(t0, t);
        let start = end - self.model.cadence_s;
        if !(start >= t0) {
            return Err(MeterError::EmptyWindow);
        }
        // Exact integral of the recorded series over the window — the
        // OCC's internal accumulator runs far faster than any trace dt.
        let mut energy = 0.0;
        let mut covered = 0.0;
        let first = ((start - t0) / dt) as usize;
        for (i, &w) in series.iter().enumerate().skip(first) {
            let a = t0 + i as f64 * dt;
            if a >= end {
                break;
            }
            let b = a + dt;
            let overlap = (b.min(end) - a.max(start)).max(0.0);
            energy += w * overlap;
            covered += overlap;
        }
        if covered <= 0.0 {
            return Err(MeterError::EmptyWindow);
        }
        let mut w = self.gain * (energy / covered) + self.offset;
        if self.model.quantization_w > 0.0 {
            w = (w / self.model.quantization_w).round() * self.model.quantization_w;
        }
        Ok(w)
    }

    /// Measures the window `[from, to)` the way an out-of-band collector
    /// does: poll the register once per cadence and average the reads.
    pub fn measure(&self, series: &[f64], t0: f64, dt: f64, from: f64, to: f64) -> Result<Reading> {
        if !(to > from) {
            return Err(MeterError::InvalidConfig {
                field: "to",
                reason: "window end must exceed window start",
            });
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        let t_last = to.min(t0 + series.len() as f64 * dt);
        let mut t = from.max(t0) + self.model.cadence_s;
        while t < t_last {
            if let Ok(w) = self.read(series, t0, dt, t) {
                sum += w;
                count += 1;
            }
            t += self.model.cadence_s;
        }
        if count == 0 {
            return Err(MeterError::EmptyWindow);
        }
        let average = sum / count as f64;
        let start = from.max(t0);
        Ok(Reading {
            t_start: start,
            t_end: t_last,
            average_w: average,
            energy_j: average * (t_last - start),
            samples: count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::seeded;

    fn ideal_model() -> OccModel {
        OccModel {
            cadence_s: 0.25,
            quantization_w: 0.0,
            gain_bound: 0.0,
            offset_bound_w: 0.0,
            read_latency_s: 0.1,
        }
    }

    #[test]
    fn read_reports_last_completed_window() {
        let mut rng = seeded(1);
        let occ = ideal_model().instantiate(&mut rng).unwrap();
        // Series at dt = 0.25: values 0, 1, 2, ... per window.
        let series: Vec<f64> = (0..40).map(|i| i as f64).collect();
        // A read at t = 1.0 sees t - latency = 0.9 -> last completed
        // window is [0.5, 0.75) -> value 2.
        let w = occ.read(&series, 0.0, 0.25, 1.0).unwrap();
        assert_eq!(w, 2.0);
        // Just past a refresh plus latency, the new window appears.
        let w = occ.read(&series, 0.0, 0.25, 1.1 + 1e-9).unwrap();
        assert_eq!(w, 3.0);
    }

    #[test]
    fn staleness_is_bounded_by_cadence_plus_latency() {
        let mut rng = seeded(2);
        let occ = ideal_model().instantiate(&mut rng).unwrap();
        for i in 0..400 {
            let t = 1.0 + i as f64 * 0.01;
            let s = occ.staleness(0.0, t);
            assert!(
                (0.1 - 1e-9..0.25 + 0.1 + 1e-9).contains(&s),
                "staleness {s} at t = {t}"
            );
        }
    }

    #[test]
    fn no_completed_window_is_an_error() {
        let mut rng = seeded(3);
        let occ = ideal_model().instantiate(&mut rng).unwrap();
        let series = vec![100.0; 40];
        assert!(matches!(
            occ.read(&series, 0.0, 0.25, 0.2),
            Err(MeterError::EmptyWindow)
        ));
    }

    #[test]
    fn quantization_and_calibration_apply() {
        let mut rng = seeded(4);
        let model = OccModel::power9();
        let occ = model.instantiate(&mut rng).unwrap();
        assert!((occ.gain() - 1.0).abs() <= model.gain_bound + 1e-12);
        assert!(occ.offset().abs() <= model.offset_bound_w + 1e-12);
        let series = vec![400.4; 400];
        let w = occ.read(&series, 0.0, 0.25, 5.0).unwrap();
        // Whole-watt register.
        assert_eq!(w, w.round());
        // Within the calibration envelope.
        let bound = 400.4 * model.gain_bound + model.offset_bound_w + model.quantization_w;
        assert!((w - 400.4).abs() <= bound, "w = {w}");
    }

    #[test]
    fn stalled_cadence_freezes_the_register() {
        let mut rng = seeded(5);
        let occ = ideal_model().instantiate(&mut rng).unwrap();
        let stalled = occ.with_stall_after(2.0);
        let series: Vec<f64> = (0..400).map(|i| i as f64).collect();
        let frozen = stalled.read(&series, 0.0, 0.25, 2.2).unwrap();
        for i in 0..50 {
            let t = 2.2 + i as f64 * 0.33;
            assert_eq!(stalled.read(&series, 0.0, 0.25, t).unwrap(), frozen);
        }
        // The healthy meter keeps advancing.
        assert_ne!(occ.read(&series, 0.0, 0.25, 9.0).unwrap(), frozen);
        // And staleness grows without bound after the stall.
        assert!(stalled.staleness(0.0, 50.0) > 47.0);
    }

    #[test]
    fn measure_averages_register_polls() {
        let mut rng = seeded(6);
        let occ = ideal_model().instantiate(&mut rng).unwrap();
        let series = vec![250.0; 4000];
        let r = occ.measure(&series, 0.0, 0.25, 0.0, 1000.0).unwrap();
        assert!((r.average_w - 250.0).abs() < 1e-9);
        assert!(r.samples > 3900, "samples = {}", r.samples);
        assert!((r.energy_j - 250.0 * 1000.0).abs() < 1e-6);
    }

    #[test]
    fn validation_rejects_bad_pipelines() {
        let mut bad = OccModel::power9();
        bad.cadence_s = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = OccModel::power9();
        bad.gain_bound = 0.5;
        assert!(bad.validate().is_err());
        let mut bad = OccModel::power9();
        bad.offset_bound_w = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = OccModel::power9();
        bad.read_latency_s = -1.0;
        assert!(bad.validate().is_err());
        assert!(OccModel::power9().validate().is_ok());
    }
}
