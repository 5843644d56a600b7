//! Meter device models.
//!
//! A [`MeterModel`] describes an accuracy *class* (systematic gain error
//! bound, per-sample noise, quantization, sample rate); instantiating it
//! draws one concrete [`SamplingMeter`] whose gain error is fixed for its
//! lifetime — exactly how real instruments behave, and why the paper's
//! "standard variance of power measurement equipment of 1-1.5%" matters
//! when different nodes are metered by different devices.

use crate::reading::Reading;
use crate::{MeterError, Result};
use power_stats::rng::StandardNormal;
use rand::Rng;

/// An accuracy class of sampling power meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeterModel {
    /// Bound on the systematic gain error (e.g. `0.01` = ±1%); each
    /// instrument draws its error uniformly within the bound.
    pub accuracy_class: f64,
    /// Per-sample multiplicative noise sigma.
    pub noise_sigma: f64,
    /// Reading quantization in watts (0 disables).
    pub quantization_w: f64,
    /// Sampling interval in seconds (Level 1/2 require at least 1 Hz,
    /// i.e. `<= 1.0`).
    pub sample_interval_s: f64,
}

impl MeterModel {
    /// A revenue-grade meter: ±0.5% class, low noise, 1 Hz.
    pub fn revenue_grade() -> Self {
        MeterModel {
            accuracy_class: 0.005,
            noise_sigma: 0.001,
            quantization_w: 0.1,
            sample_interval_s: 1.0,
        }
    }

    /// A typical cluster PDU meter: ±1.5% class (the paper's "standard
    /// variance of power measurement equipment of 1-1.5%"), 1 W steps,
    /// 1 Hz.
    pub fn pdu_grade() -> Self {
        MeterModel {
            accuracy_class: 0.015,
            noise_sigma: 0.004,
            quantization_w: 1.0,
            sample_interval_s: 1.0,
        }
    }

    /// An ideal meter (for isolating methodology effects from instrument
    /// effects in experiments).
    pub fn ideal() -> Self {
        MeterModel {
            accuracy_class: 0.0,
            noise_sigma: 0.0,
            quantization_w: 0.0,
            sample_interval_s: 1.0,
        }
    }

    /// The sampling-class equivalent of an OCC-style on-chip meter:
    /// ±1.6% calibration class, whole-watt registers, 4 Hz effective
    /// sample rate (the 250 ms cadence of [`crate::occ::OccModel::power9`]).
    /// The full staleness/read-latency pipeline lives in [`crate::occ`];
    /// this class lets campaign grids meter any system "through the OCC".
    pub fn occ_grade() -> Self {
        MeterModel {
            accuracy_class: 0.016,
            noise_sigma: 0.002,
            quantization_w: 1.0,
            sample_interval_s: 0.25,
        }
    }

    /// Looks an accuracy class up by its scenario-file name: `"revenue"`,
    /// `"pdu"`, `"ideal"` or `"occ"` (case-insensitive). The campaign
    /// harness selects meters by these names; [`MeterModel::names`] lists
    /// them.
    pub fn by_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "revenue" | "revenue_grade" => Some(MeterModel::revenue_grade()),
            "pdu" | "pdu_grade" => Some(MeterModel::pdu_grade()),
            "ideal" => Some(MeterModel::ideal()),
            "occ" | "occ_grade" => Some(MeterModel::occ_grade()),
            _ => None,
        }
    }

    /// Canonical names accepted by [`MeterModel::by_name`].
    pub fn names() -> [&'static str; 4] {
        ["revenue", "pdu", "ideal", "occ"]
    }

    /// Validates the class parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.accuracy_class >= 0.0 && self.accuracy_class < 0.2) {
            return Err(MeterError::InvalidConfig {
                field: "accuracy_class",
                reason: "must lie in [0, 0.2)",
            });
        }
        if !(self.noise_sigma >= 0.0 && self.noise_sigma < 0.2) {
            return Err(MeterError::InvalidConfig {
                field: "noise_sigma",
                reason: "must lie in [0, 0.2)",
            });
        }
        if !(self.quantization_w >= 0.0 && self.quantization_w.is_finite()) {
            return Err(MeterError::InvalidConfig {
                field: "quantization_w",
                reason: "must be non-negative",
            });
        }
        if !(self.sample_interval_s > 0.0 && self.sample_interval_s.is_finite()) {
            return Err(MeterError::InvalidConfig {
                field: "sample_interval_s",
                reason: "must be positive",
            });
        }
        Ok(())
    }

    /// Whether the class satisfies the methodology's "one power sample per
    /// second" granularity requirement.
    pub fn meets_1hz_requirement(&self) -> bool {
        self.sample_interval_s <= 1.0
    }

    /// Instantiates one physical meter, drawing its systematic gain error.
    pub fn instantiate<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<SamplingMeter> {
        self.validate()?;
        let gain = 1.0 + self.accuracy_class * (rng.random::<f64>() * 2.0 - 1.0);
        Ok(SamplingMeter { model: *self, gain })
    }
}

/// One physical sampling meter with a fixed systematic gain error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplingMeter {
    model: MeterModel,
    gain: f64,
}

impl SamplingMeter {
    /// The meter's class.
    pub fn model(&self) -> &MeterModel {
        &self.model
    }

    /// The instrument's systematic gain (1.0 = perfect).
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Applies the instrument transfer function (gain, per-sample noise,
    /// quantization) to one true power value — the streaming path used by
    /// live telemetry, where samples arrive one at a time instead of as a
    /// recorded series.
    ///
    /// `gauss` must be the meter's *persistent* normal sampler: the polar
    /// method caches a spare variate, so a long-lived sampler consumes the
    /// RNG in exactly the same order as the per-sample window loop
    /// (`FaultyMeter::measure` with no fault) over the same samples.
    pub fn sample_one_with<R: Rng + ?Sized>(
        &self,
        gauss: &mut StandardNormal,
        rng: &mut R,
        true_w: f64,
    ) -> f64 {
        let mut w = true_w * self.gain;
        if self.model.noise_sigma > 0.0 {
            w *= 1.0 + self.model.noise_sigma * gauss.sample(rng);
        }
        if self.model.quantization_w > 0.0 {
            w = (w / self.model.quantization_w).round() * self.model.quantization_w;
        }
        w
    }

    /// Measures a true power series (`series[i]` is the average over
    /// `[t0 + i*dt, t0 + (i+1)*dt)`) over the window `[from, to)`.
    ///
    /// The meter samples at its own interval, taking the trace value
    /// containing each sample instant; each reading is
    /// `gain·w_i·(1 + σZ_i)` rounded to the quantum `q`, and the window
    /// reports their average.
    ///
    /// That average is drawn in closed form, with one normal draw per
    /// window: `gain·Σw/n + sqrt((gain·σ)²·Σw²/n² + q²/(12n))·Z`. The
    /// sum of independent normal readings is exactly normal, and the
    /// rounding adds Sheppard's `q²/12` of variance per sample with a bias
    /// of order `exp(-2π²(σ·gain·w/q)²)`. The form is used when `σ > 0`
    /// and either `q = 0` or `q ≤ 2·σ·gain·min w` over the sampled values,
    /// where that bias is below `e^-4.9` of a quantum. Any other window
    /// (an ideal or noise-free meter, or coarse rounding of small values)
    /// takes the per-sample loop. Either way the sample instants, `samples`,
    /// `t_start` and `t_end` are the per-sample loop's exactly.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        series: &[f64],
        t0: f64,
        dt: f64,
        from: f64,
        to: f64,
    ) -> Result<Reading> {
        let sigma = self.model.noise_sigma;
        let q = self.model.quantization_w;
        if sigma > 0.0 {
            let walk = self.sample_walk(series.len(), t0, dt, from, to)?;
            let (window_start, t_last) = (walk.window_start, walk.t_last);
            let WindowMoments {
                n,
                sum,
                sum_sq,
                min_w,
            } = walk.moments(series);
            if n == 0 {
                return Err(MeterError::EmptyWindow);
            }
            if q == 0.0 || q <= 2.0 * sigma * self.gain * min_w {
                let n = n as f64;
                let noise = self.gain * sigma;
                let sd = (noise * noise * sum_sq / (n * n) + q * q / (12.0 * n)).sqrt();
                let average = self.gain * sum / n + sd * StandardNormal::new().sample(rng);
                return Ok(Reading {
                    t_start: window_start,
                    t_end: t_last,
                    average_w: average,
                    energy_j: average * (t_last - window_start),
                    samples: n as usize,
                });
            }
        }
        self.measure_through(rng, series, t0, dt, from, to, |_, w, _| Some(w))
    }

    /// The sample instants of a window over a series of `len` values:
    /// `(index, instant)` for each sample, every `sample_interval_s` from
    /// half an interval into the window. [`SamplingMeter::measure`] and
    /// the per-sample loop walk a window through this one iterator.
    pub fn sample_walk(
        &self,
        len: usize,
        t0: f64,
        dt: f64,
        from: f64,
        to: f64,
    ) -> Result<SampleWalk> {
        if !(to > from) {
            return Err(MeterError::InvalidConfig {
                field: "to",
                reason: "window end must exceed window start",
            });
        }
        let window_start = from.max(t0);
        Ok(SampleWalk {
            window_start,
            t_last: to.min(t0 + len as f64 * dt),
            t: window_start + self.model.sample_interval_s / 2.0,
            interval: self.model.sample_interval_s,
            t0,
            dt,
            len,
            idx: 0,
            limit: f64::NEG_INFINITY,
        })
    }

    /// The per-sample window loop: [`SamplingMeter::measure`]'s fallback,
    /// the test oracle for its closed form, and `FaultyMeter::measure`.
    /// Each metered sample passes through `fault(rng, w, t_rel)` (`t_rel`
    /// is seconds into the window), which returns the sample to average or
    /// `None` when it is lost. `fault` draws from `rng` after the sample's
    /// noise, so a fault that draws nothing leaves the plain meter's draw
    /// order unchanged.
    ///
    /// Returns [`MeterError::EmptyWindow`] if every sample was lost.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn measure_through<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        series: &[f64],
        t0: f64,
        dt: f64,
        from: f64,
        to: f64,
        mut fault: impl FnMut(&mut R, f64, f64) -> Option<f64>,
    ) -> Result<Reading> {
        let walk = self.sample_walk(series.len(), t0, dt, from, to)?;
        let (window_start, t_last) = (walk.window_start, walk.t_last);
        let mut gauss = StandardNormal::new();
        let mut sum = 0.0;
        let mut count = 0usize;
        for (idx, t) in walk {
            let w = self.sample_one_with(&mut gauss, rng, series[idx]);
            if let Some(s) = fault(rng, w, t - window_start) {
                sum += s;
                count += 1;
            }
        }
        if count == 0 {
            return Err(MeterError::EmptyWindow);
        }
        let average = sum / count as f64;
        Ok(Reading {
            t_start: window_start,
            t_end: t_last,
            average_w: average,
            energy_j: average * (t_last - window_start),
            samples: count,
        })
    }
}

/// The sample instants of one window; see [`SamplingMeter::sample_walk`].
///
/// Instant `t` reads the series at `index(t) = ((t − t0)/dt) as usize`,
/// and the instants are produced by repeated `t += interval`. The walk
/// evaluates that formula bit for bit, but not at every instant:
///
/// * **Monotonicity.** Every instant lies at or after `t0`, so `t − t0`
///   is non-negative; rounded subtraction and division by `dt > 0` keep
///   order, and the saturating cast maps the negative quotients of
///   `dt < 0` and any NaN to 0 (and `dt = 0` gives NaN, then +∞). So over
///   `t ≥ t0` the index never decreases as `t` grows, and `t` only grows.
///   Once an instant reads `idx`, every later instant below the first
///   float `b` with `index(b) > idx` reads `idx` too, and needs no
///   division.
/// * **The search for `b`.** Starting from `t0 + (idx + 1)·dt`, the walk
///   steps with `next_down` while the float below is still past `idx`, or
///   with `next_up` until it is; each candidate is tested with the same
///   `index` formula, so the `b` it settles on is exact. Rounding puts the
///   start within a few floats of `b`, and the search takes at most
///   [`SampleWalk::MAX_SEARCH_STEPS`] steps. Where it does not settle
///   (say, `dt < 0` or a start that overflowed), the walk divides again
///   at the next instant.
///
/// So a walk divides once per series value it visits (plus once at each
/// unsettled search), not once per instant, and yields exactly the
/// `(index, instant)` pairs of a division per instant. The closed form
/// reads a walk through [`SampleWalk::moments`], which steps a run's
/// instants without yielding them and then adds the run's value once per
/// instant, so its sums are the per-instant sums bit for bit.
#[derive(Debug, Clone)]
pub struct SampleWalk {
    window_start: f64,
    t_last: f64,
    /// The next sample instant.
    t: f64,
    interval: f64,
    t0: f64,
    dt: f64,
    len: usize,
    /// The series index of the current run of instants.
    idx: usize,
    /// The instants below `limit` read `idx` and lie before `t_last`; it
    /// is the smaller of the two bounds.
    limit: f64,
}

impl SampleWalk {
    /// The most `next_up`/`next_down` steps one search for a run's end
    /// takes before the walk falls back to dividing at the next instant.
    const MAX_SEARCH_STEPS: usize = 16;

    /// Σw, Σw² and min w over the rest of the walk, reading `series`
    /// (the closed form's sufficient statistics), each sample added in
    /// instant order.
    pub fn moments(mut self, series: &[f64]) -> WindowMoments {
        let mut m = WindowMoments {
            n: 0,
            sum: 0.0,
            sum_sq: 0.0,
            min_w: f64::INFINITY,
        };
        while let Some((idx, _)) = self.next() {
            // The rest of this run reads the same value.
            let mut k = 1;
            while self.t < self.limit {
                self.t += self.interval;
                k += 1;
            }
            let w = series[idx];
            let w_sq = w * w;
            m.n += k;
            for _ in 0..k {
                m.sum += w;
                m.sum_sq += w_sq;
            }
            m.min_w = m.min_w.min(w);
        }
        m
    }

    /// The series index instant `t` reads.
    fn index(&self, t: f64) -> usize {
        ((t - self.t0) / self.dt) as usize
    }

    /// A bound below which every instant from `t` on reads `idx`, where
    /// `index(t) == idx`: the first float past `idx` when the search
    /// settles, else the float just above `t`.
    fn run_end(&self, idx: usize, t: f64) -> f64 {
        let past = |x: f64| self.index(x) > idx;
        let mut b = self.t0 + (idx + 1) as f64 * self.dt;
        if past(b) {
            for _ in 0..Self::MAX_SEARCH_STEPS {
                let below = b.next_down();
                if !past(below) {
                    return b;
                }
                b = below;
            }
        } else {
            for _ in 0..Self::MAX_SEARCH_STEPS {
                b = b.next_up();
                if past(b) {
                    return b;
                }
            }
        }
        t.next_up()
    }
}

impl Iterator for SampleWalk {
    type Item = (usize, f64);

    #[inline]
    fn next(&mut self) -> Option<(usize, f64)> {
        let t = self.t;
        if !(t < self.limit) {
            if !(t < self.t_last) {
                return None;
            }
            let idx = self.index(t);
            if idx >= self.len {
                return None;
            }
            let end = self.run_end(idx, t);
            self.idx = idx;
            self.limit = if end < self.t_last { end } else { self.t_last };
        }
        self.t += self.interval;
        Some((self.idx, t))
    }
}

/// The sample statistics of one window's walk; see
/// [`SampleWalk::moments`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowMoments {
    /// Number of sample instants.
    pub n: usize,
    /// Σw over the sampled true values.
    pub sum: f64,
    /// Σw² over the sampled true values.
    pub sum_sq: f64,
    /// The smallest sampled value (+∞ for an empty walk).
    pub min_w: f64,
}

/// A continuously integrating energy meter — the Level 3 instrument.
///
/// Integrates the true series exactly (up to its gain error); reports
/// energy and derives average power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntegratingMeter {
    gain: f64,
}

impl IntegratingMeter {
    /// Creates an integrating meter with the given accuracy class,
    /// drawing its systematic gain error.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, accuracy_class: f64) -> Result<Self> {
        if !(0.0..0.2).contains(&accuracy_class) {
            return Err(MeterError::InvalidConfig {
                field: "accuracy_class",
                reason: "must lie in [0, 0.2)",
            });
        }
        Ok(IntegratingMeter {
            gain: 1.0 + accuracy_class * (rng.random::<f64>() * 2.0 - 1.0),
        })
    }

    /// A perfect integrating meter.
    pub fn ideal() -> Self {
        IntegratingMeter { gain: 1.0 }
    }

    /// Integrates the true series over `[from, to)`.
    pub fn measure(&self, series: &[f64], t0: f64, dt: f64, from: f64, to: f64) -> Result<Reading> {
        if !(to > from) {
            return Err(MeterError::InvalidConfig {
                field: "to",
                reason: "window end must exceed window start",
            });
        }
        // Only indices whose interval can overlap [from, to) are walked,
        // with a one-index margin either side against rounding in the
        // bounds; every index outside adds exactly zero, so for finite
        // series the sums equal a walk over the whole series bit for bit.
        let lo = (((from - t0) / dt).floor() - 1.0).max(0.0) as usize;
        let hi = ((((to - t0) / dt).ceil() + 1.0).max(0.0) as usize).min(series.len());
        let mut energy = 0.0;
        let mut covered = 0.0;
        for (i, &w) in series.iter().enumerate().take(hi).skip(lo) {
            let a = t0 + i as f64 * dt;
            let b = a + dt;
            let overlap = (b.min(to) - a.max(from)).max(0.0);
            energy += w * overlap;
            covered += overlap;
        }
        if covered <= 0.0 {
            return Err(MeterError::EmptyWindow);
        }
        let energy = energy * self.gain;
        Ok(Reading {
            t_start: from,
            t_end: from + covered,
            average_w: energy / covered,
            energy_j: energy,
            samples: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::seeded;

    fn flat_series(w: f64, n: usize) -> Vec<f64> {
        vec![w; n]
    }

    #[test]
    fn ideal_meter_reads_truth() {
        let mut rng = seeded(1);
        let m = MeterModel::ideal().instantiate(&mut rng).unwrap();
        let r = m
            .measure(&mut rng, &flat_series(400.0, 100), 0.0, 1.0, 0.0, 100.0)
            .unwrap();
        assert!((r.average_w - 400.0).abs() < 1e-9);
        assert_eq!(r.samples, 100);
        assert!((r.energy_j - 40_000.0).abs() < 1e-6);
    }

    #[test]
    fn gain_error_bounded_by_class() {
        let mut rng = seeded(2);
        for _ in 0..200 {
            let m = MeterModel::pdu_grade().instantiate(&mut rng).unwrap();
            assert!((m.gain() - 1.0).abs() <= 0.015 + 1e-12);
        }
    }

    #[test]
    fn noise_averages_out() {
        let mut rng = seeded(3);
        let mut model = MeterModel::pdu_grade();
        model.accuracy_class = 0.0; // isolate noise
        let m = model.instantiate(&mut rng).unwrap();
        let r = m
            .measure(&mut rng, &flat_series(400.0, 3600), 0.0, 1.0, 0.0, 3600.0)
            .unwrap();
        // Noise sigma 0.4% over 3600 samples -> SE ~ 0.0067%.
        assert!((r.average_w - 400.0).abs() < 0.4, "avg = {}", r.average_w);
    }

    #[test]
    fn quantization_rounds() {
        let mut rng = seeded(4);
        let model = MeterModel {
            accuracy_class: 0.0,
            noise_sigma: 0.0,
            quantization_w: 10.0,
            sample_interval_s: 1.0,
        };
        let m = model.instantiate(&mut rng).unwrap();
        let r = m
            .measure(&mut rng, &flat_series(404.0, 10), 0.0, 1.0, 0.0, 10.0)
            .unwrap();
        assert_eq!(r.average_w, 400.0);
    }

    #[test]
    fn slow_meter_takes_fewer_samples() {
        let mut rng = seeded(5);
        let model = MeterModel {
            sample_interval_s: 10.0,
            ..MeterModel::ideal()
        };
        let m = model.instantiate(&mut rng).unwrap();
        let r = m
            .measure(&mut rng, &flat_series(100.0, 100), 0.0, 1.0, 0.0, 100.0)
            .unwrap();
        assert_eq!(r.samples, 10);
        assert!(!model.meets_1hz_requirement());
        assert!(MeterModel::pdu_grade().meets_1hz_requirement());
    }

    #[test]
    fn window_clipping_and_errors() {
        let mut rng = seeded(6);
        let m = MeterModel::ideal().instantiate(&mut rng).unwrap();
        let series = flat_series(100.0, 10);
        // Window extends past the series: clipped.
        let r = m.measure(&mut rng, &series, 0.0, 1.0, 5.0, 50.0).unwrap();
        assert_eq!(r.samples, 5);
        // Disjoint window: error.
        assert!(matches!(
            m.measure(&mut rng, &series, 0.0, 1.0, 50.0, 60.0),
            Err(MeterError::EmptyWindow)
        ));
        // Degenerate window: error.
        assert!(m.measure(&mut rng, &series, 0.0, 1.0, 5.0, 5.0).is_err());
    }

    #[test]
    fn integrating_meter_exact_partial_overlap() {
        let m = IntegratingMeter::ideal();
        let series = [100.0, 200.0, 300.0];
        let r = m.measure(&series, 0.0, 1.0, 0.5, 2.5).unwrap();
        // Energy: 0.5*100 + 1.0*200 + 0.5*300 = 400 J over 2 s.
        assert!((r.energy_j - 400.0).abs() < 1e-9);
        assert!((r.average_w - 200.0).abs() < 1e-9);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn integrating_meter_gain() {
        let mut rng = seeded(7);
        let m = IntegratingMeter::new(&mut rng, 0.01).unwrap();
        let r = m.measure(&[100.0; 10], 0.0, 1.0, 0.0, 10.0).unwrap();
        assert!((r.average_w - 100.0).abs() <= 1.0 + 1e-12);
        assert!(IntegratingMeter::new(&mut rng, 0.5).is_err());
    }

    #[test]
    fn validation_rejects_bad_classes() {
        let mut bad = MeterModel::ideal();
        bad.accuracy_class = 0.5;
        assert!(bad.validate().is_err());
        let mut bad = MeterModel::ideal();
        bad.noise_sigma = -0.1;
        assert!(bad.validate().is_err());
        let mut bad = MeterModel::ideal();
        bad.sample_interval_s = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = MeterModel::ideal();
        bad.quantization_w = f64::NAN;
        assert!(bad.validate().is_err());
    }

    /// The per-sample window loop, which the closed form replaces.
    fn per_sample<R: Rng + ?Sized>(
        m: &SamplingMeter,
        rng: &mut R,
        series: &[f64],
        (t0, dt, from, to): (f64, f64, f64, f64),
    ) -> Result<Reading> {
        m.measure_through(rng, series, t0, dt, from, to, |_, w, _| Some(w))
    }

    #[test]
    fn streaming_path_reproduces_per_sample_loop() {
        // Feeding the same samples one at a time through sample_one_with
        // (with a persistent gauss sampler) must be bit-identical to the
        // per-sample window loop over the same window.
        let mut rng = seeded(9);
        let m = MeterModel::pdu_grade().instantiate(&mut rng).unwrap();
        let series: Vec<f64> = (0..500)
            .map(|i| 380.0 + (i as f64 * 0.31).sin() * 25.0)
            .collect();
        let mut batch_rng = seeded(10);
        let batch = per_sample(&m, &mut batch_rng, &series, (0.0, 1.0, 0.0, 500.0)).unwrap();
        let mut stream_rng = seeded(10);
        let mut gauss = StandardNormal::new();
        let mut sum = 0.0;
        for &w in &series {
            sum += m.sample_one_with(&mut gauss, &mut stream_rng, w);
        }
        let avg = sum / series.len() as f64;
        assert_eq!(avg, batch.average_w, "{avg} vs {}", batch.average_w);
    }

    /// Mean and variance of `reps` window readings.
    fn moments(mut read: impl FnMut() -> Reading, reps: usize) -> (f64, f64) {
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..reps {
            let x = read().average_w;
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / reps as f64;
        (
            mean,
            (sum_sq / reps as f64 - mean * mean) * reps as f64 / (reps - 1) as f64,
        )
    }

    #[test]
    fn closed_form_matches_per_sample_oracle() {
        // 10,000 windows per class, each metered once by the closed form
        // and once by the per-sample loop, over a series whose step
        // (dt = 0.7 s) differs from the meter's interval. The edge class
        // sits exactly on the threshold q = 2·σ·gain·min w.
        let series: Vec<f64> = (0..400)
            .map(|i| 380.0 + (i as f64 * 0.31).sin() * 25.0)
            .collect();
        let window = (2.0, 0.7, 13.3, 151.9);
        let min_w = series.iter().copied().fold(f64::INFINITY, f64::min);
        let pdu = MeterModel::pdu_grade();
        let mut edge = MeterModel::revenue_grade();
        edge.accuracy_class = 0.0;
        edge.quantization_w = 2.0 * edge.noise_sigma * min_w;
        for model in [
            pdu,
            MeterModel::revenue_grade(),
            edge,
            MeterModel::occ_grade(),
        ] {
            let m = model.instantiate(&mut seeded(21)).unwrap();
            let reps = 10_000;
            let mut a = seeded(1);
            let mut b = seeded(2);
            let (mean_c, var_c) = moments(
                || {
                    m.measure(&mut a, &series, window.0, window.1, window.2, window.3)
                        .unwrap()
                },
                reps,
            );
            let (mean_o, var_o) =
                moments(|| per_sample(&m, &mut b, &series, window).unwrap(), reps);
            // Five standard errors of a difference of means, and of a
            // ratio of variances (relative SE sqrt(2/(reps-1)) each).
            let se_mean = ((var_c + var_o) / reps as f64).sqrt();
            assert!(
                (mean_c - mean_o).abs() < 5.0 * se_mean,
                "{model:?}: mean {mean_c} vs {mean_o} (se {se_mean})"
            );
            let se_ratio = (4.0 / (reps - 1) as f64).sqrt();
            assert!(
                (var_c / var_o - 1.0).abs() < 5.0 * se_ratio,
                "{model:?}: variance {var_c} vs {var_o}"
            );
        }
    }

    #[test]
    fn closed_form_keeps_the_sample_walk() {
        // samples, t_start and t_end equal the per-sample loop's for
        // windows clipped at either end, off-grid and shorter than one
        // interval.
        let series: Vec<f64> = (0..300).map(|i| 400.0 + i as f64 * 0.1).collect();
        let m = MeterModel::occ_grade().instantiate(&mut seeded(3)).unwrap();
        let mut rng = seeded(4);
        for (t0, dt, from, to) in [
            (0.0, 1.0, 0.0, 300.0),
            (5.0, 0.7, 0.0, 400.0),
            (0.0, 1.3, 17.05, 17.2),
            (2.5, 0.25, 3.1, 60.77),
            (0.0, 2.0, 598.9, 700.0),
        ] {
            let closed = m.measure(&mut rng, &series, t0, dt, from, to).unwrap();
            let oracle = per_sample(&m, &mut rng, &series, (t0, dt, from, to)).unwrap();
            assert_eq!(closed.samples, oracle.samples, "{from}..{to}");
            assert_eq!(closed.t_start.to_bits(), oracle.t_start.to_bits());
            assert_eq!(closed.t_end.to_bits(), oracle.t_end.to_bits());
        }
        assert!(matches!(
            m.measure(&mut rng, &series, 0.0, 1.0, 400.0, 500.0),
            Err(MeterError::EmptyWindow)
        ));
    }

    #[test]
    fn run_end_is_the_first_float_past_the_run() {
        // For finite steps the search settles on the exact first float
        // whose index exceeds the run's, from either side of the start.
        let mut rng = seeded(13);
        let (mut from_above, mut from_below) = (0, 0);
        for _ in 0..20_000 {
            let t0 = [
                0.0,
                rng.random::<f64>() * 10.0,
                1e6 + rng.random::<f64>() * 1e3,
            ][rng.random_range(0..3usize)];
            let dt = 10f64.powf(rng.random::<f64>() * 6.0 - 3.0);
            let walk = MeterModel::ideal()
                .instantiate(&mut rng)
                .unwrap()
                .sample_walk(1 << 20, t0, dt, t0, f64::INFINITY)
                .unwrap();
            let idx = rng.random_range(0..100_000usize);
            let t = t0 + (idx as f64 + 0.5) * dt;
            if walk.index(t) != idx {
                continue;
            }
            if walk.index(t0 + (idx + 1) as f64 * dt) > idx {
                from_above += 1;
            } else {
                from_below += 1;
            }
            let end = walk.run_end(idx, t);
            assert!(walk.index(end) > idx, "{t0} {dt} {idx}");
            assert_eq!(walk.index(end.next_down()), idx, "{t0} {dt} {idx}");
        }
        assert!(
            from_above > 1_000 && from_below > 1_000,
            "{from_above} {from_below}"
        );
    }

    #[test]
    fn coarse_rounding_takes_the_per_sample_loop() {
        // Above the threshold (q > 2·σ·gain·min w) and for noise-free
        // meters, measure is the per-sample loop bit for bit.
        let series: Vec<f64> = (0..200).map(|i| 40.0 + (i % 7) as f64).collect();
        let coarse = MeterModel {
            quantization_w: 1.0,
            ..MeterModel::pdu_grade()
        };
        let quiet = MeterModel {
            noise_sigma: 0.0,
            ..MeterModel::pdu_grade()
        };
        for model in [coarse, quiet] {
            let m = model.instantiate(&mut seeded(5)).unwrap();
            let got = m
                .measure(&mut seeded(6), &series, 0.0, 0.9, 3.0, 170.0)
                .unwrap();
            let want = per_sample(&m, &mut seeded(6), &series, (0.0, 0.9, 3.0, 170.0)).unwrap();
            assert_eq!(got, want, "{model:?}");
        }
    }

    #[test]
    fn integrating_meter_walks_only_the_window_bit_for_bit() {
        // The whole-series loop the windowed walk replaced.
        fn whole_series(
            gain: f64,
            series: &[f64],
            t0: f64,
            dt: f64,
            from: f64,
            to: f64,
        ) -> (f64, f64) {
            let (mut energy, mut covered) = (0.0, 0.0);
            for (i, &w) in series.iter().enumerate() {
                let a = t0 + i as f64 * dt;
                let b = a + dt;
                let overlap = (b.min(to) - a.max(from)).max(0.0);
                energy += w * overlap;
                covered += overlap;
            }
            (energy * gain, covered)
        }
        let series: Vec<f64> = (0..1000)
            .map(|i| 300.0 + (i as f64 * 0.17).sin() * 40.0 - (i % 13) as f64)
            .collect();
        let m = IntegratingMeter::new(&mut seeded(11), 0.01).unwrap();
        let mut rng = seeded(12);
        for _ in 0..2_000 {
            let t0 = rng.random::<f64>() * 10.0 - 5.0;
            let dt = 0.1 + rng.random::<f64>() * 2.0;
            let span = series.len() as f64 * dt;
            let from = t0 - 3.0 + rng.random::<f64>() * (span + 6.0);
            let to = from + rng.random::<f64>() * span * 0.5 + 1e-3;
            let (energy, covered) = whole_series(m.gain, &series, t0, dt, from, to);
            match m.measure(&series, t0, dt, from, to) {
                Ok(r) => {
                    assert_eq!(
                        r.energy_j.to_bits(),
                        energy.to_bits(),
                        "{t0} {dt} {from} {to}"
                    );
                    assert_eq!(r.t_end.to_bits(), (from + covered).to_bits());
                    assert_eq!(r.average_w.to_bits(), (energy / covered).to_bits());
                }
                Err(_) => assert!(covered <= 0.0, "{t0} {dt} {from} {to}"),
            }
        }
    }

    #[test]
    fn different_instruments_different_gains() {
        let mut rng = seeded(8);
        let a = MeterModel::pdu_grade().instantiate(&mut rng).unwrap();
        let b = MeterModel::pdu_grade().instantiate(&mut rng).unwrap();
        assert_ne!(a.gain(), b.gain());
    }
}
