//! Cross-seed variance bands with compensated accumulation.

use power_sim::trace::Neumaier;

/// Mean/σ/min/max of one metric across a cell's seeds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Band {
    /// Number of seeds folded in.
    pub n: usize,
    /// Cross-seed mean.
    pub mean: f64,
    /// Cross-seed sample standard deviation (0 for a single seed).
    pub std: f64,
    /// Smallest per-seed value.
    pub min: f64,
    /// Largest per-seed value.
    pub max: f64,
}

impl Band {
    /// Cross-seed spread `max - min` — what `max_seed_delta` gates bound.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

/// Folds per-seed values (in seed order) into a [`Band`].
///
/// Returns `None` for an empty slice. The two-pass compensated form —
/// mean first, then squared deviations from it, both summed with
/// [`Neumaier`] — keeps σ stable for metrics whose mean dwarfs their
/// spread (e.g. reported watts on a 100 000-node machine).
pub fn fold(values: &[f64]) -> Option<Band> {
    if values.is_empty() {
        return None;
    }
    let n = values.len();
    let mut sum = Neumaier::new();
    for &v in values {
        sum.add(v);
    }
    let mean = sum.total() / n as f64;
    let std = if n >= 2 {
        let mut ss = Neumaier::new();
        for &v in values {
            ss.add((v - mean) * (v - mean));
        }
        (ss.total().max(0.0) / (n - 1) as f64).sqrt()
    } else {
        0.0
    };
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(Band {
        n,
        mean,
        std,
        min,
        max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_band() {
        let b = fold(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(b.n, 4);
        assert_eq!(b.mean, 2.5);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.max, 4.0);
        assert_eq!(b.spread(), 3.0);
        // Sample std of 1..4 is sqrt(5/3).
        assert!((b.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn single_seed_has_zero_std() {
        let b = fold(&[7.25]).unwrap();
        assert_eq!(b.std, 0.0);
        assert_eq!(b.mean, 7.25);
        assert_eq!(b.spread(), 0.0);
        assert!(fold(&[]).is_none());
    }

    #[test]
    fn compensation_survives_large_offsets() {
        // Naive single-pass variance catastrophically cancels here; the
        // two-pass compensated fold does not.
        let offset = 1.0e12;
        let vals: Vec<f64> = [0.0, 1.0, 2.0, 3.0].iter().map(|v| v + offset).collect();
        let b = fold(&vals).unwrap();
        assert!((b.mean - (offset + 1.5)).abs() < 1e-3);
        let want = (5.0f64 / 3.0).sqrt(); // same spread as 0..3
        assert!((b.std - want).abs() < 1e-6, "std = {}", b.std);
    }

    #[test]
    fn neumaier_beats_naive_on_cancellation() {
        // 1 + 1e100 - 1e100 == 1 under Neumaier, 0 under naive f64 sum.
        let b = fold(&[1.0, 1.0e100, -1.0e100]).unwrap();
        assert_eq!(b.mean, 1.0 / 3.0);
    }
}
