//! Empirical distributions.
//!
//! The bootstrap study of Figure 3 simulates "complete supercomputers" by
//! resampling from the *observed empirical distribution* of a pilot sample;
//! this module provides that distribution object along with empirical
//! quantiles (type-7 linear interpolation, the R/NumPy default).

use crate::{Result, StatsError};
use rand::Rng;

/// An empirical distribution backed by a sorted copy of the observations.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    sorted: Vec<f64>,
    /// Draws indices into `sorted`.
    index: UniformIndex,
}

/// A uniform index in `[0, span)` by Lemire-style threshold rejection:
/// the sampler behind `Rng::random_range(0..span)`, with its rejection
/// zone computed once instead of on every draw. It takes the same words
/// from the generator and returns the same indices.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UniformIndex {
    span: u64,
    /// The largest accepted word: `u64::MAX - 2^64 mod span`.
    zone: u64,
}

impl UniformIndex {
    /// A sampler over `[0, span)`; `span` must be at least 1.
    fn new(span: u64) -> Self {
        debug_assert!(span >= 1);
        UniformIndex {
            span,
            zone: u64::MAX - (u64::MAX - span + 1) % span,
        }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                return v % self.span;
            }
        }
    }
}

impl Empirical {
    /// Builds an empirical distribution from observations.
    ///
    /// Fails on an empty slice or non-finite values.
    pub fn new(values: &[f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "values",
                reason: "observations must be finite",
            });
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        let index = UniformIndex::new(sorted.len() as u64);
        Ok(Empirical { sorted, index })
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the distribution is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted observations.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// Empirical CDF: fraction of observations `<= x`.
    pub fn cdf(&self, x: f64) -> f64 {
        // partition_point gives the count of elements <= x on sorted data.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile with type-7 linear interpolation, `p` in `[0, 1]`.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StatsError::InvalidParameter {
                name: "p",
                reason: "probability must lie in [0, 1]",
            });
        }
        let n = self.sorted.len();
        if n == 1 {
            return Ok(self.sorted[0]);
        }
        let h = p * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = h - lo as f64;
        Ok(self.sorted[lo] + frac * (self.sorted[hi] - self.sorted[lo]))
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5).expect("0.5 is in range")
    }

    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75).expect("in range") - self.quantile(0.25).expect("in range")
    }

    /// Minimum observation.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum observation.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Draws one observation uniformly (resampling with replacement):
    /// the observation `rng.random_range(0..len)` would pick.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sorted[self.index.sample(rng) as usize]
    }

    /// Draws `n` observations with replacement — the bootstrap primitive.
    pub fn resample<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.draw(rng)).collect()
    }

    /// Counts observations further than `k` IQRs outside the quartiles
    /// (Tukey's fence outlier rule) — the paper notes "outliers of a larger
    /// magnitude than truly normal data" in several systems.
    pub fn tukey_outliers(&self, k: f64) -> usize {
        let q1 = self.quantile(0.25).expect("in range");
        let q3 = self.quantile(0.75).expect("in range");
        let iqr = q3 - q1;
        let lo = q1 - k * iqr;
        let hi = q3 + k * iqr;
        self.sorted.iter().filter(|&&v| v < lo || v > hi).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    #[test]
    fn cdf_step_behaviour() {
        let e = Empirical::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(99.0), 1.0);
    }

    #[test]
    fn quantile_interpolation() {
        let e = Empirical::new(&[10.0, 20.0, 30.0]).unwrap();
        assert_eq!(e.quantile(0.0).unwrap(), 10.0);
        assert_eq!(e.quantile(0.5).unwrap(), 20.0);
        assert_eq!(e.quantile(1.0).unwrap(), 30.0);
        assert!((e.quantile(0.25).unwrap() - 15.0).abs() < 1e-12);
        assert!(e.quantile(1.5).is_err());
    }

    #[test]
    fn median_and_iqr() {
        let e = Empirical::new(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert!((e.median() - 2.5).abs() < 1e-12);
        assert!((e.iqr() - 1.5).abs() < 1e-12);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
    }

    #[test]
    fn singleton_distribution() {
        let e = Empirical::new(&[7.0]).unwrap();
        assert_eq!(e.quantile(0.3).unwrap(), 7.0);
        assert_eq!(e.median(), 7.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Empirical::new(&[]).is_err());
        assert!(Empirical::new(&[1.0, f64::NAN]).is_err());
        assert!(Empirical::new(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn uniform_index_takes_the_words_random_range_takes() {
        // Same generator state in, same index and same state out — also
        // where the rejection zone is widest (spans just above a power of
        // two) and for spans too large to back with observations.
        let mut spans = vec![1u64, 2, 3, 1_024];
        for k in [2u32, 5, 10, 31, 32, 62, 63] {
            spans.extend([(1u64 << k) - 1, (1u64 << k) + 1]);
        }
        spans.push(u64::MAX);
        for span in spans {
            let sampler = UniformIndex::new(span);
            let mut ours = seeded(span ^ 0x5EED);
            let mut theirs = ours.clone();
            for _ in 0..2_000 {
                assert_eq!(
                    sampler.sample(&mut ours),
                    theirs.random_range(0..span),
                    "span {span}"
                );
            }
            assert_eq!(ours.next_u64(), theirs.next_u64(), "span {span}");
        }
        // And `draw` indexes the sorted observations with it.
        let values: Vec<f64> = (0..37).map(f64::from).collect();
        let e = Empirical::new(&values).unwrap();
        let mut ours = seeded(3);
        let mut theirs = ours.clone();
        for _ in 0..2_000 {
            assert_eq!(
                e.draw(&mut ours),
                values[theirs.random_range(0..values.len())]
            );
        }
    }

    #[test]
    fn resample_draws_only_observed_values() {
        let vals = [5.0, 6.0, 7.0];
        let e = Empirical::new(&vals).unwrap();
        let mut rng = seeded(11);
        let sample = e.resample(&mut rng, 1000);
        assert_eq!(sample.len(), 1000);
        assert!(sample.iter().all(|v| vals.contains(v)));
        // All three values should appear in 1000 draws.
        for v in vals {
            assert!(sample.contains(&v), "missing {v}");
        }
    }

    #[test]
    fn resample_mean_close_to_population_mean() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let e = Empirical::new(&vals).unwrap();
        let mut rng = seeded(12);
        let mean: f64 = e.resample(&mut rng, 100_000).iter().sum::<f64>() / 100_000.0;
        assert!((mean - 49.5).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn tukey_outlier_detection() {
        // 20 tight values plus two gross outliers.
        let mut vals: Vec<f64> = (0..20).map(|i| 100.0 + i as f64 * 0.1).collect();
        vals.push(150.0);
        vals.push(50.0);
        let e = Empirical::new(&vals).unwrap();
        assert_eq!(e.tukey_outliers(1.5), 2);
        // No outliers in uniform data.
        let u = Empirical::new(&(0..50).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        assert_eq!(u.tukey_outliers(1.5), 0);
    }
}
