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

/// Uniform indices in `[0, span)` by Lemire's 32-bit multiply-shift
/// rejection ("Fast random integer generation in an interval", ACM TOMACS
/// 2019): a half-word `x` maps to `(x·span) >> 32`, and is rejected when
/// the low half of `x·span` falls below `2³² mod span`, so every index
/// keeps exactly `⌊2³²/span⌋` of the `2³²` half-words. The threshold is
/// computed once; a draw costs one multiply and one compare.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UniformIndex {
    span: u32,
    /// `(2³² − span) mod span`, which is `2³² mod span`.
    threshold: u32,
}

impl UniformIndex {
    /// A sampler over `[0, span)`: `span` must lie in `1..=u32::MAX`.
    fn new(span: usize) -> Result<Self> {
        let Ok(span) = u32::try_from(span) else {
            return Err(StatsError::TooManyObservations {
                max: u32::MAX as usize,
                got: span,
            });
        };
        if span == 0 {
            return Err(StatsError::InsufficientData { needed: 1, got: 0 });
        }
        Ok(UniformIndex {
            span,
            threshold: span.wrapping_neg() % span,
        })
    }

    /// The endless stream of indices read from `rng`, two candidates per
    /// word: its low half, then its high half.
    fn indices<R: Rng + ?Sized>(self, rng: &mut R) -> Indices<'_, R> {
        Indices {
            sampler: self,
            rng,
            spare: None,
        }
    }
}

/// The iterator behind [`UniformIndex::indices`]; it never ends.
struct Indices<'a, R: ?Sized> {
    sampler: UniformIndex,
    rng: &'a mut R,
    /// The high half of the last word, when it has not been read yet.
    spare: Option<u32>,
}

impl<R: Rng + ?Sized> Iterator for Indices<'_, R> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            let x = match self.spare.take() {
                Some(hi) => hi,
                None => {
                    let word = self.rng.next_u64();
                    self.spare = Some((word >> 32) as u32);
                    word as u32
                }
            };
            let m = u64::from(x) * u64::from(self.sampler.span);
            if m as u32 >= self.sampler.threshold {
                return Some((m >> 32) as usize);
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

impl Empirical {
    /// Builds an empirical distribution from observations.
    ///
    /// Fails on an empty slice, on more than `u32::MAX` observations
    /// ([`StatsError::TooManyObservations`]) or on non-finite values.
    pub fn new(values: &[f64]) -> Result<Self> {
        let index = UniformIndex::new(values.len())?;
        if values.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::InvalidParameter {
                name: "values",
                reason: "observations must be finite",
            });
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
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

    /// The endless stream of observations drawn uniformly with
    /// replacement, the bootstrap primitive: each word of `rng` gives up
    /// to two draws, from its low half and then its high half. Keep one
    /// stream for many draws; a stream dropped after an odd number of
    /// half-words leaves its last high half unread.
    pub fn draws<'a, R: Rng + ?Sized>(&'a self, rng: &'a mut R) -> impl Iterator<Item = f64> + 'a {
        self.index.indices(rng).map(|i| self.sorted[i])
    }

    /// Draws `n` observations with replacement, from one [`Empirical::draws`]
    /// stream.
    pub fn resample<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        self.draws(rng).take(n).collect()
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

    /// A generator that counts the words taken from it.
    struct Counted<R> {
        rng: R,
        words: usize,
    }

    impl<R: Rng> Rng for Counted<R> {
        fn next_u64(&mut self) -> u64 {
            self.words += 1;
            self.rng.next_u64()
        }
    }

    fn counted(seed: u64) -> Counted<rand::rngs::StdRng> {
        Counted {
            rng: seeded(seed),
            words: 0,
        }
    }

    /// Words to indices written out plainly: each word's low half and
    /// then its high half, `x`, becomes `⌊x·span / 2³²⌋`, except that `x`
    /// is skipped when `x·span mod 2³²` is below `2³² mod span`.
    fn reference_indices(words: &[u64], span: u64) -> Vec<usize> {
        let two32 = 1u128 << 32;
        let threshold = two32 % u128::from(span);
        let mut out = Vec::new();
        for &w in words {
            for x in [w & 0xFFFF_FFFF, w >> 32] {
                let m = u128::from(x) * u128::from(span);
                if m % two32 >= threshold {
                    out.push((m / two32) as usize);
                }
            }
        }
        out
    }

    const SPANS: [u64; 7] = [1, 2, 3, 7, 1_000, (1 << 31) + 1, u32::MAX as u64];

    #[test]
    fn indices_match_the_plain_reference() {
        // 2^31 + 1 has the widest rejection zone: almost half the
        // half-words are skipped.
        for span in SPANS {
            let sampler = UniformIndex::new(span as usize).unwrap();
            let mut rng = counted(span ^ 0x5EED);
            let ours: Vec<usize> = sampler.indices(&mut rng).take(5_000).collect();
            let used = rng.words;
            let mut theirs = seeded(span ^ 0x5EED);
            let words: Vec<u64> = (0..used).map(|_| theirs.next_u64()).collect();
            // The stream read exactly the words its indices needed: the
            // last one (whose high half may be left over) and no more.
            let reference = reference_indices(&words, span);
            assert_eq!(reference[..ours.len()], ours[..], "span {span}");
            assert!(reference.len() <= ours.len() + 1, "span {span}");
            assert!(
                reference_indices(&words[..used - 1], span).len() < ours.len(),
                "span {span}"
            );
            assert!(ours.iter().all(|&i| (i as u64) < span), "span {span}");
        }
    }

    #[test]
    fn draws_index_the_sorted_observations() {
        let values: Vec<f64> = (0..37).rev().map(f64::from).collect();
        let e = Empirical::new(&values).unwrap();
        let mut rng = seeded(3);
        let draws: Vec<f64> = e.draws(&mut rng).take(2_000).collect();
        let mut rng = seeded(3);
        let indices = UniformIndex::new(37).unwrap().indices(&mut rng);
        let want: Vec<f64> = indices.take(2_000).map(|i| e.values()[i]).collect();
        assert_eq!(draws, want);
        assert_eq!(e.resample(&mut seeded(3), 2_000), want);
    }

    #[test]
    fn index_frequencies_are_uniform() {
        // Pearson's chi-square over the indices of small spans; the 99.99th
        // percentiles for 6 and 999 degrees of freedom are 27.9 and 1 185.
        for (span, bound) in [(7usize, 27.9), (1_000, 1_185.0)] {
            let draws = 1_000 * span;
            let mut counts = vec![0u64; span];
            let sampler = UniformIndex::new(span).unwrap();
            for i in sampler.indices(&mut seeded(span as u64)).take(draws) {
                counts[i] += 1;
            }
            let expected = (draws / span) as f64;
            let chi2: f64 = counts
                .iter()
                .map(|&c| (c as f64 - expected).powi(2) / expected)
                .sum();
            assert!(chi2 < bound, "span {span}: chi-square {chi2}");
        }
        // At 2^31 + 1, 2^31 - 1 of the 2^32 half-words are rejected: a
        // rejection rate of one half, less 2^-32. The accepted indices
        // still split evenly at the middle of the span.
        let span = (1usize << 31) + 1;
        let mut rng = counted(17);
        let n = 200_000;
        let low = UniformIndex::new(span)
            .unwrap()
            .indices(&mut rng)
            .take(n)
            .filter(|&i| i < span / 2)
            .count();
        let rejected = 1.0 - n as f64 / (2 * rng.words) as f64;
        assert!((rejected - 0.5).abs() < 0.005, "rejection rate {rejected}");
        let low = low as f64 / n as f64;
        assert!((low - 0.5).abs() < 0.005, "lower half {low}");
    }

    #[test]
    fn sampler_takes_one_to_u32_max_observations() {
        assert!(UniformIndex::new(1).is_ok());
        assert!(UniformIndex::new(u32::MAX as usize).is_ok());
        assert_eq!(
            UniformIndex::new(0),
            Err(StatsError::InsufficientData { needed: 1, got: 0 })
        );
        #[cfg(target_pointer_width = "64")]
        assert_eq!(
            UniformIndex::new(u32::MAX as usize + 1),
            Err(StatsError::TooManyObservations {
                max: u32::MAX as usize,
                got: u32::MAX as usize + 1,
            })
        );
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
