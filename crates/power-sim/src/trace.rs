//! Power traces.
//!
//! Two containers cover every analysis in the paper:
//!
//! * [`SystemTrace`] — whole-machine power vs time (Figure 1, Table 2);
//! * [`NodeTrace`] — per-node power samples for a metered subset (the
//!   methodology's machine-fraction rules, Figures 2 and 4, Table 4).
//!
//! Both store regularly sampled data (`t0 + i * dt`), matching the
//! methodology's "one power sample per second" granularity requirement.
//!
//! # Window queries are O(1)
//!
//! Because sampling is regular, a window `[from, to)` maps to a fractional
//! index span in sample coordinates, and every window integral is a
//! difference of two cumulative-energy lookups. Each trace lazily builds a
//! cumulative (prefix-sum) array over its samples on first query — using
//! Neumaier-compensated summation so long traces lose no precision — after
//! which [`SystemTrace::window_average`], [`SystemTrace::window_energy`] and
//! [`NodeTrace::node_window_averages`] cost O(1) per node instead of a scan
//! over every sample. The linear-scan reference implementations are kept as
//! `*_naive` methods; differential tests and the ablation benchmark hold the
//! two within 1e-9 of each other.
//!
//! The sample buffers stay public for ergonomic construction in tests and
//! experiments. Mutating `watts`/`samples` **after** a window query would
//! stale the cached prefix sums, so in-place scaling is offered as
//! [`SystemTrace::scaled`] (returns a fresh trace) and any other in-place
//! mutation must be followed by [`SystemTrace::invalidate_cache`] /
//! [`NodeTrace::invalidate_cache`].

use crate::{Result, SimError};
use std::sync::OnceLock;

/// Neumaier-compensated running sum.
///
/// The single summation algorithm every aggregate in the workspace uses:
/// the prefix sums here, the block summaries in `power-archive`, and the
/// pruned-scan window queries all fold their terms through this
/// accumulator, so a sum derived from on-disk block summaries agrees with
/// the in-memory prefix-sum reference to within rounding of the final
/// fold rather than drifting by O(n) ULPs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Neumaier {
    sum: f64,
    comp: f64,
}

impl Neumaier {
    /// A fresh accumulator at zero.
    pub fn new() -> Self {
        Neumaier::default()
    }

    /// Folds one term into the sum.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        self.comp += if self.sum.abs() >= v.abs() {
            (self.sum - t) + v
        } else {
            (v - t) + self.sum
        };
        self.sum = t;
    }

    /// The compensated total so far.
    #[inline]
    pub fn total(&self) -> f64 {
        self.sum + self.comp
    }
}

/// Neumaier-compensated prefix sums: `prefix[i]` is the sum of
/// `values[..i]`, with the running compensation folded into every entry.
fn compensated_prefix(values: &[f64]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(values.len() + 1);
    prefix.push(0.0);
    let mut acc = Neumaier::new();
    for &v in values {
        acc.add(v);
        prefix.push(acc.total());
    }
    prefix
}

/// Cumulative sample-sum at fractional index `x ∈ [0, len]`: full samples
/// below `floor(x)` plus a linear fraction of sample `floor(x)`.
fn cum_at(prefix: &[f64], values: &[f64], x: f64) -> f64 {
    let i = x as usize;
    if i >= values.len() {
        prefix[values.len()]
    } else {
        prefix[i] + values[i] * (x - i as f64)
    }
}

/// Clamps `[from, to)` (seconds) to the sampled range and converts it to
/// fractional sample coordinates; `None` when the overlap has zero measure.
///
/// This is *the* window-semantics contract, shared by every query path:
/// the in-memory prefix-sum methods below, and the archive's pruned scan
/// over compressed blocks. Sample `i` covers `[t0 + i*dt, t0 + (i+1)*dt)`
/// — half-open on the right, so a window starting exactly at a sample
/// boundary includes that sample and one ending exactly on a boundary
/// excludes the sample that starts there. Any other implementation of the
/// clamp risks off-by-one disagreement at block edges; derive from this
/// helper instead.
pub fn window_span(t0: f64, dt: f64, len: usize, from: f64, to: f64) -> Option<(f64, f64)> {
    let n = len as f64;
    let lo = ((from - t0) / dt).clamp(0.0, n);
    let hi = ((to - t0) / dt).clamp(0.0, n);
    if hi > lo {
        Some((lo, hi))
    } else {
        None
    }
}

/// The error every query path returns for a window with `to <= from`.
pub fn err_degenerate_window() -> SimError {
    SimError::InvalidConfig {
        field: "to",
        reason: "window end must exceed window start",
    }
}

/// The error every query path returns for a window that does not overlap
/// the sampled range.
pub fn err_outside_window() -> SimError {
    SimError::InvalidConfig {
        field: "window",
        reason: "window does not overlap the trace",
    }
}

/// Whole-machine power versus time, regularly sampled.
#[derive(Debug, Clone)]
pub struct SystemTrace {
    /// Time of the first sample (seconds).
    pub t0: f64,
    /// Sample interval (seconds).
    pub dt: f64,
    /// Total machine power at each sample (watts).
    pub watts: Vec<f64>,
    /// Lazily built compensated prefix sums over `watts` (length + 1).
    cum: OnceLock<Vec<f64>>,
}

impl PartialEq for SystemTrace {
    fn eq(&self, other: &Self) -> bool {
        // The prefix cache is derived state; equality is over the data.
        self.t0 == other.t0 && self.dt == other.dt && self.watts == other.watts
    }
}

impl SystemTrace {
    /// Creates a trace; `dt` must be positive.
    pub fn new(t0: f64, dt: f64, watts: Vec<f64>) -> Result<Self> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "dt",
                reason: "sample interval must be positive",
            });
        }
        Ok(SystemTrace {
            t0,
            dt,
            watts,
            cum: OnceLock::new(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.watts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.watts.is_empty()
    }

    /// Time of sample `i`.
    pub fn time_at(&self, i: usize) -> f64 {
        self.t0 + i as f64 * self.dt
    }

    /// End time (one interval past the last sample).
    pub fn t_end(&self) -> f64 {
        self.t0 + self.watts.len() as f64 * self.dt
    }

    /// The prefix-sum cache, built on first use.
    fn cum(&self) -> &[f64] {
        self.cum.get_or_init(|| compensated_prefix(&self.watts))
    }

    /// Drops the cached prefix sums. Required after mutating `watts` in
    /// place; prefer [`SystemTrace::scaled`] where it fits.
    pub fn invalidate_cache(&mut self) {
        self.cum = OnceLock::new();
    }

    /// A copy of this trace with every sample multiplied by `factor`
    /// (e.g. extrapolating a metered fraction to the full machine).
    pub fn scaled(&self, factor: f64) -> Self {
        SystemTrace {
            t0: self.t0,
            dt: self.dt,
            watts: self.watts.iter().map(|w| w * factor).collect(),
            cum: OnceLock::new(),
        }
    }

    /// Average power over the time window `[from, to)` in seconds.
    ///
    /// Samples are treated as averages over `[t_i, t_i + dt)`; partial
    /// overlap at the window edges is weighted accordingly, and windows
    /// extending beyond the trace clip to it. O(1) after the first query
    /// on this trace.
    pub fn window_average(&self, from: f64, to: f64) -> Result<f64> {
        if !(to > from) {
            return Err(err_degenerate_window());
        }
        let (lo, hi) = window_span(self.t0, self.dt, self.watts.len(), from, to)
            .ok_or_else(err_outside_window)?;
        let cum = self.cum();
        Ok((cum_at(cum, &self.watts, hi) - cum_at(cum, &self.watts, lo)) / (hi - lo))
    }

    /// Energy in joules over `[from, to)`, clipped to the trace. O(1)
    /// after the first query; errors up front on degenerate windows and on
    /// windows entirely outside the sampled range.
    pub fn window_energy(&self, from: f64, to: f64) -> Result<f64> {
        if !(to > from) {
            return Err(err_degenerate_window());
        }
        let (lo, hi) = window_span(self.t0, self.dt, self.watts.len(), from, to)
            .ok_or_else(err_outside_window)?;
        let cum = self.cum();
        Ok((cum_at(cum, &self.watts, hi) - cum_at(cum, &self.watts, lo)) * self.dt)
    }

    /// Linear-scan reference for [`SystemTrace::window_average`]; kept for
    /// differential tests and the ablation benchmark.
    pub fn window_average_naive(&self, from: f64, to: f64) -> Result<f64> {
        if !(to > from) {
            return Err(err_degenerate_window());
        }
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for (i, &w) in self.watts.iter().enumerate() {
            let a = self.time_at(i);
            let b = a + self.dt;
            let overlap = (b.min(to) - a.max(from)).max(0.0);
            weighted += w * overlap;
            weight += overlap;
        }
        if weight <= 0.0 {
            return Err(err_outside_window());
        }
        Ok(weighted / weight)
    }

    /// Linear-scan reference for [`SystemTrace::window_energy`]; kept for
    /// differential tests and the ablation benchmark.
    pub fn window_energy_naive(&self, from: f64, to: f64) -> Result<f64> {
        if !(to > from) {
            return Err(err_degenerate_window());
        }
        let mut energy = 0.0;
        let mut weight = 0.0;
        for (i, &w) in self.watts.iter().enumerate() {
            let a = self.time_at(i);
            let b = a + self.dt;
            let overlap = (b.min(to) - a.max(from)).max(0.0);
            energy += w * overlap;
            weight += overlap;
        }
        if weight <= 0.0 {
            return Err(err_outside_window());
        }
        Ok(energy)
    }

    /// Average power over the whole trace.
    pub fn mean(&self) -> f64 {
        if self.watts.is_empty() {
            return f64::NAN;
        }
        let cum = self.cum();
        cum[self.watts.len()] / self.watts.len() as f64
    }

    /// Peak power over the whole trace.
    pub fn peak(&self) -> f64 {
        self.watts.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Per-node power samples for a metered subset of nodes.
#[derive(Debug, Clone)]
pub struct NodeTrace {
    /// Global indices of the metered nodes.
    pub node_ids: Vec<usize>,
    /// Time of the first sample (seconds).
    pub t0: f64,
    /// Sample interval (seconds).
    pub dt: f64,
    /// `samples[k]` holds the trace of `node_ids[k]`.
    pub samples: Vec<Vec<f64>>,
    /// Lazily built per-node compensated prefix sums.
    cum: OnceLock<Vec<Vec<f64>>>,
}

impl PartialEq for NodeTrace {
    fn eq(&self, other: &Self) -> bool {
        self.node_ids == other.node_ids
            && self.t0 == other.t0
            && self.dt == other.dt
            && self.samples == other.samples
    }
}

impl NodeTrace {
    /// Creates a trace; all node series must have equal length.
    pub fn new(node_ids: Vec<usize>, t0: f64, dt: f64, samples: Vec<Vec<f64>>) -> Result<Self> {
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "dt",
                reason: "sample interval must be positive",
            });
        }
        if node_ids.len() != samples.len() {
            return Err(SimError::InvalidConfig {
                field: "samples",
                reason: "one series per node id is required",
            });
        }
        if let Some(first) = samples.first() {
            if samples.iter().any(|s| s.len() != first.len()) {
                return Err(SimError::InvalidConfig {
                    field: "samples",
                    reason: "all node series must have equal length",
                });
            }
        }
        Ok(NodeTrace {
            node_ids,
            t0,
            dt,
            samples,
            cum: OnceLock::new(),
        })
    }

    /// Number of metered nodes.
    pub fn node_count(&self) -> usize {
        self.node_ids.len()
    }

    /// Number of samples per node.
    pub fn sample_count(&self) -> usize {
        self.samples.first().map_or(0, Vec::len)
    }

    /// Per-node prefix-sum caches, built on first use.
    fn cum(&self) -> &[Vec<f64>] {
        self.cum
            .get_or_init(|| self.samples.iter().map(|s| compensated_prefix(s)).collect())
    }

    /// Drops the cached prefix sums. Required after mutating `samples` in
    /// place.
    pub fn invalidate_cache(&mut self) {
        self.cum = OnceLock::new();
    }

    /// Time-averaged power of each metered node over the whole trace.
    pub fn node_averages(&self) -> Vec<f64> {
        let cum = self.cum();
        self.samples
            .iter()
            .zip(cum)
            .map(|(s, c)| {
                if s.is_empty() {
                    f64::NAN
                } else {
                    c[s.len()] / s.len() as f64
                }
            })
            .collect()
    }

    /// Time-averaged power of each node over the window `[from, to)`,
    /// clipped to the trace. O(1) per node after the first query.
    pub fn node_window_averages(&self, from: f64, to: f64) -> Result<Vec<f64>> {
        if !(to > from) {
            return Err(err_degenerate_window());
        }
        let (lo, hi) = window_span(self.t0, self.dt, self.sample_count(), from, to)
            .ok_or_else(err_outside_window)?;
        let cum = self.cum();
        Ok(self
            .samples
            .iter()
            .zip(cum)
            .map(|(s, c)| (cum_at(c, s, hi) - cum_at(c, s, lo)) / (hi - lo))
            .collect())
    }

    /// Linear-scan reference for [`NodeTrace::node_window_averages`]; kept
    /// for differential tests and the ablation benchmark.
    pub fn node_window_averages_naive(&self, from: f64, to: f64) -> Result<Vec<f64>> {
        if !(to > from) {
            return Err(err_degenerate_window());
        }
        let mut out = Vec::with_capacity(self.samples.len());
        for series in &self.samples {
            let mut weighted = 0.0;
            let mut weight = 0.0;
            for (i, &w) in series.iter().enumerate() {
                let a = self.t0 + i as f64 * self.dt;
                let b = a + self.dt;
                let overlap = (b.min(to) - a.max(from)).max(0.0);
                weighted += w * overlap;
                weight += overlap;
            }
            if weight <= 0.0 {
                return Err(err_outside_window());
            }
            out.push(weighted / weight);
        }
        Ok(out)
    }

    /// Sum across metered nodes at each sample — the aggregate a shared
    /// PDU meter would report.
    pub fn aggregate(&self) -> Result<SystemTrace> {
        let len = self.sample_count();
        let mut total = vec![0.0; len];
        for series in &self.samples {
            for (t, &w) in total.iter_mut().zip(series) {
                *t += w;
            }
        }
        SystemTrace::new(self.t0, self.dt, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_trace() -> SystemTrace {
        // 10 samples, watts = 100, 110, ..., 190, dt = 1 s, t0 = 0.
        SystemTrace::new(0.0, 1.0, (0..10).map(|i| 100.0 + 10.0 * i as f64).collect()).unwrap()
    }

    #[test]
    fn window_average_whole_trace() {
        let t = ramp_trace();
        assert!((t.window_average(0.0, 10.0).unwrap() - 145.0).abs() < 1e-12);
        assert!((t.mean() - 145.0).abs() < 1e-12);
        assert_eq!(t.peak(), 190.0);
    }

    #[test]
    fn window_average_partial_samples() {
        let t = ramp_trace();
        // Window [0.5, 1.5): half of sample 0 (100) + half of sample 1 (110).
        assert!((t.window_average(0.5, 1.5).unwrap() - 105.0).abs() < 1e-12);
    }

    #[test]
    fn window_average_beyond_trace_clips() {
        let t = ramp_trace();
        // Window [8, 100) only overlaps samples 8 and 9.
        assert!((t.window_average(8.0, 100.0).unwrap() - 185.0).abs() < 1e-12);
        // Entirely outside: error.
        assert!(t.window_average(50.0, 60.0).is_err());
        // Degenerate: error.
        assert!(t.window_average(3.0, 3.0).is_err());
    }

    #[test]
    fn window_energy() {
        let t = ramp_trace();
        // First two seconds: 100 + 110 J.
        assert!((t.window_energy(0.0, 2.0).unwrap() - 210.0).abs() < 1e-12);
        // Whole trace: sum = 1450 J.
        assert!((t.window_energy(0.0, 10.0).unwrap() - 1450.0).abs() < 1e-12);
        // Validation is up front: degenerate and non-overlapping windows
        // error before any work.
        assert!(t.window_energy(5.0, 5.0).is_err());
        assert!(t.window_energy(50.0, 60.0).is_err());
    }

    #[test]
    fn prefix_and_naive_agree() {
        let t = SystemTrace::new(
            12.5,
            0.75,
            (0..257)
                .map(|i| 1e5 + (i as f64 * 0.37).sin() * 3e4)
                .collect(),
        )
        .unwrap();
        for &(from, to) in &[
            (12.5, 205.25),
            (13.0, 14.0),
            (12.9, 13.1),
            (-50.0, 20.0),
            (100.0, 1e9),
            (12.5, 12.5 + 0.75),
        ] {
            let fast = t.window_average(from, to).unwrap();
            let slow = t.window_average_naive(from, to).unwrap();
            assert!(
                (fast - slow).abs() <= 1e-9 * (1.0 + slow.abs()),
                "avg [{from}, {to}): {fast} vs {slow}"
            );
            let fast_e = t.window_energy(from, to).unwrap();
            let slow_e = t.window_energy_naive(from, to).unwrap();
            assert!(
                (fast_e - slow_e).abs() <= 1e-9 * (1.0 + slow_e.abs()),
                "energy [{from}, {to}): {fast_e} vs {slow_e}"
            );
        }
    }

    #[test]
    fn scaled_and_invalidate() {
        let t = ramp_trace();
        // Prime the cache, then derive a scaled copy: fresh cache, scaled
        // answers.
        assert!((t.window_average(0.0, 10.0).unwrap() - 145.0).abs() < 1e-12);
        let double = t.scaled(2.0);
        assert!((double.window_average(0.0, 10.0).unwrap() - 290.0).abs() < 1e-12);
        // In-place mutation requires explicit invalidation.
        let mut m = ramp_trace();
        assert!((m.window_average(0.0, 10.0).unwrap() - 145.0).abs() < 1e-12);
        for w in &mut m.watts {
            *w *= 3.0;
        }
        m.invalidate_cache();
        assert!((m.window_average(0.0, 10.0).unwrap() - 435.0).abs() < 1e-12);
    }

    #[test]
    fn equality_ignores_cache_state() {
        let a = ramp_trace();
        let b = ramp_trace();
        let _ = a.window_average(0.0, 10.0); // prime only a's cache
        assert_eq!(a, b);
        let c = a.clone(); // clones carry the data (and any cache) along
        assert_eq!(c, b);
    }

    #[test]
    fn time_accessors() {
        let t = SystemTrace::new(100.0, 2.0, vec![1.0; 5]).unwrap();
        assert_eq!(t.time_at(0), 100.0);
        assert_eq!(t.time_at(4), 108.0);
        assert_eq!(t.t_end(), 110.0);
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
    }

    #[test]
    fn rejects_bad_dt() {
        assert!(SystemTrace::new(0.0, 0.0, vec![]).is_err());
        assert!(SystemTrace::new(0.0, -1.0, vec![]).is_err());
        assert!(NodeTrace::new(vec![], 0.0, 0.0, vec![]).is_err());
    }

    #[test]
    fn node_trace_shape_checks() {
        assert!(NodeTrace::new(vec![0, 1], 0.0, 1.0, vec![vec![1.0]]).is_err());
        assert!(NodeTrace::new(vec![0, 1], 0.0, 1.0, vec![vec![1.0], vec![1.0, 2.0]]).is_err());
        let t = NodeTrace::new(
            vec![3, 7],
            0.0,
            1.0,
            vec![vec![100.0, 110.0], vec![200.0, 190.0]],
        )
        .unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.sample_count(), 2);
    }

    #[test]
    fn node_averages_and_aggregate() {
        let t = NodeTrace::new(
            vec![3, 7],
            0.0,
            1.0,
            vec![vec![100.0, 110.0], vec![200.0, 190.0]],
        )
        .unwrap();
        let avg = t.node_averages();
        assert!((avg[0] - 105.0).abs() < 1e-12);
        assert!((avg[1] - 195.0).abs() < 1e-12);
        let agg = t.aggregate().unwrap();
        assert_eq!(agg.watts, vec![300.0, 300.0]);
    }

    #[test]
    fn node_window_averages() {
        let t = NodeTrace::new(vec![0], 0.0, 1.0, vec![vec![100.0, 200.0, 300.0, 400.0]]).unwrap();
        let w = t.node_window_averages(1.0, 3.0).unwrap();
        assert!((w[0] - 250.0).abs() < 1e-12);
        assert!(t.node_window_averages(10.0, 20.0).is_err());
        assert!(t.node_window_averages(2.0, 2.0).is_err());
        let naive = t.node_window_averages_naive(1.0, 3.0).unwrap();
        assert!((w[0] - naive[0]).abs() < 1e-12);
    }
}
