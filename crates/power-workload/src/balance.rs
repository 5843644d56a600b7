//! Load balance across nodes.
//!
//! The paper's statistical method assumes a *balanced* workload — every
//! node doing essentially the same work, as HPL and the stress tests do.
//! Davis et al. (the related-work baseline) studied data-intensive
//! workloads with "substantial differences in nodes' average power", where
//! normal-theory sample sizes are no longer safe. [`LoadBalance`] lets
//! experiments inject exactly that contrast: a per-node multiplicative
//! factor applied to workload utilization.

use power_stats::hash::Fnv1a;

/// Per-node load distribution policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadBalance {
    /// All nodes carry identical load (HPL-style).
    Balanced,
    /// Node loads vary smoothly over `[1 - spread, 1 + spread]`, e.g. from
    /// slightly uneven domain decomposition.
    Uneven {
        /// Half-width of the load factor range (`0 < spread < 1`).
        spread: f64,
    },
    /// A fraction of nodes is "hot" (e.g. holds the working set of a
    /// data-intensive job) and runs at full load while the rest idle at a
    /// lower factor — the regime where the paper says its method does NOT
    /// apply.
    HotCold {
        /// Fraction of hot nodes in `(0, 1)`.
        hot_fraction: f64,
        /// Load factor of the cold nodes relative to hot ones, in `[0, 1)`.
        cold_factor: f64,
    },
}

impl LoadBalance {
    /// Load factor for `node` of a machine with `total` nodes.
    ///
    /// Deterministic in `(node, total)` so traces are reproducible. Factors
    /// are always in `[0, 2]` and equal to 1 for [`LoadBalance::Balanced`].
    pub fn factor(&self, node: usize, total: usize) -> f64 {
        debug_assert!(node < total.max(1));
        match *self {
            LoadBalance::Balanced => 1.0,
            LoadBalance::Uneven { spread } => {
                let spread = spread.clamp(0.0, 0.99);
                // Low-discrepancy assignment: golden-ratio sequence mapped
                // to [-1, 1], so any contiguous subset sees the full range.
                let u = ((node as f64 + 0.5) * 0.618_033_988_749_895).fract() * 2.0 - 1.0;
                1.0 + spread * u
            }
            LoadBalance::HotCold {
                hot_fraction,
                cold_factor,
            } => {
                let hot_fraction = hot_fraction.clamp(0.0, 1.0);
                let cold_factor = cold_factor.clamp(0.0, 1.0);
                // Spread hot nodes evenly through the index space.
                let pos = ((node as f64 + 0.5) * 0.618_033_988_749_895).fract();
                if pos < hot_fraction {
                    1.0
                } else {
                    cold_factor
                }
            }
        }
    }

    /// Feeds the policy — a variant tag, then its parameters — into `h`
    /// (see [`Workload::fingerprint`](crate::Workload::fingerprint)).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        match *self {
            LoadBalance::Balanced => h.write(&[0]),
            LoadBalance::Uneven { spread } => {
                h.write(&[1]);
                h.write_f64(spread);
            }
            LoadBalance::HotCold {
                hot_fraction,
                cold_factor,
            } => {
                h.write(&[2]);
                h.write_f64(hot_fraction);
                h.write_f64(cold_factor);
            }
        }
    }

    /// Whether this distribution satisfies the paper's "balanced workload"
    /// precondition for the normal-theory sample-size method.
    pub fn is_balanced(&self) -> bool {
        match *self {
            LoadBalance::Balanced => true,
            LoadBalance::Uneven { spread } => spread <= 0.05,
            LoadBalance::HotCold { .. } => false,
        }
    }

    /// Mean load factor over a machine of `total` nodes.
    pub fn mean_factor(&self, total: usize) -> f64 {
        if total == 0 {
            return 1.0;
        }
        (0..total).map(|i| self.factor(i, total)).sum::<f64>() / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_is_unity() {
        let b = LoadBalance::Balanced;
        for i in 0..10 {
            assert_eq!(b.factor(i, 10), 1.0);
        }
        assert!(b.is_balanced());
        assert_eq!(b.mean_factor(100), 1.0);
    }

    #[test]
    fn uneven_spans_range_and_averages_to_one() {
        let u = LoadBalance::Uneven { spread: 0.2 };
        let n = 1000;
        let factors: Vec<f64> = (0..n).map(|i| u.factor(i, n)).collect();
        let min = factors.iter().copied().fold(f64::INFINITY, f64::min);
        let max = factors.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!((0.8 - 1e-12..0.81).contains(&min), "min = {min}");
        assert!(max <= 1.2 + 1e-12 && max > 1.19, "max = {max}");
        assert!((u.mean_factor(n) - 1.0).abs() < 0.01);
        assert!(!u.is_balanced());
        assert!(LoadBalance::Uneven { spread: 0.01 }.is_balanced());
    }

    #[test]
    fn uneven_subsets_see_full_range() {
        // The paper's subset extrapolation should not be biased by which
        // contiguous block of nodes is metered.
        let u = LoadBalance::Uneven { spread: 0.3 };
        let first_100: f64 = (0..100).map(|i| u.factor(i, 1000)).sum::<f64>() / 100.0;
        let last_100: f64 = (900..1000).map(|i| u.factor(i, 1000)).sum::<f64>() / 100.0;
        assert!((first_100 - last_100).abs() < 0.03);
    }

    #[test]
    fn hot_cold_fractions() {
        let hc = LoadBalance::HotCold {
            hot_fraction: 0.25,
            cold_factor: 0.4,
        };
        let n = 10_000;
        let hot = (0..n).filter(|&i| hc.factor(i, n) == 1.0).count();
        assert!(
            (hot as f64 / n as f64 - 0.25).abs() < 0.02,
            "hot fraction = {}",
            hot as f64 / n as f64
        );
        assert!(!hc.is_balanced());
        let mean = hc.mean_factor(n);
        assert!((mean - (0.25 + 0.75 * 0.4)).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn clamping_of_pathological_parameters() {
        let u = LoadBalance::Uneven { spread: 5.0 };
        for i in 0..100 {
            let f = u.factor(i, 100);
            assert!((0.0..=2.0).contains(&f));
        }
        let hc = LoadBalance::HotCold {
            hot_fraction: 2.0,
            cold_factor: -1.0,
        };
        for i in 0..100 {
            assert_eq!(hc.factor(i, 100), 1.0);
        }
    }

    #[test]
    fn mean_factor_empty_machine() {
        assert_eq!(LoadBalance::Balanced.mean_factor(0), 1.0);
    }
}
