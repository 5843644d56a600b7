//! Subset-to-full-system extrapolation with accuracy assessment.
//!
//! The methodology extrapolates measured subset power linearly to the full
//! machine; the paper's closing recommendation is "that all submissions
//! include an assessment of their measurement accuracy". This module
//! produces that assessment: a t-based confidence interval (paper
//! Equation 1) with the finite-population correction, scaled to the
//! full-system estimate.

use power_stats::ci::{mean_ci_t_finite, ConfidenceInterval};
use power_stats::summary::Summary;

use crate::{MethodError, Result};

/// A full-system power estimate derived from a node sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtrapolationReport {
    /// Machine size.
    pub total_nodes: usize,
    /// Nodes in the sample.
    pub sampled_nodes: usize,
    /// Mean per-node power in the sample (watts).
    pub node_mean_w: f64,
    /// Sample standard deviation of per-node power (watts).
    pub node_sigma_w: f64,
    /// Coefficient of variation `sigma/mu` of the sample.
    pub cv: f64,
    /// Full-system power estimate (watts).
    pub estimate_w: f64,
    /// Lower bound of the full-system confidence interval (watts).
    pub ci_lower_w: f64,
    /// Upper bound of the full-system confidence interval (watts).
    pub ci_upper_w: f64,
    /// Confidence level of the interval.
    pub confidence: f64,
    /// Relative accuracy `lambda`: CI half-width over the estimate.
    pub relative_accuracy: f64,
}

impl ExtrapolationReport {
    /// The full-system confidence interval as a [`ConfidenceInterval`].
    pub fn ci(&self) -> ConfidenceInterval {
        ConfidenceInterval {
            estimate: self.estimate_w,
            half_width: (self.ci_upper_w - self.ci_lower_w) / 2.0,
            confidence: self.confidence,
        }
    }

    /// Whether the assessment meets an accuracy target (e.g. the paper's
    /// 1%-at-95% planning point).
    pub fn meets_accuracy(&self, lambda: f64) -> bool {
        self.relative_accuracy <= lambda
    }
}

/// Extrapolates per-node sample powers to a machine of `total_nodes`.
///
/// A full census (`sample.len() == total_nodes`) yields a zero-width
/// interval (the finite-population correction collapses).
pub fn extrapolate(
    per_node_w: &[f64],
    total_nodes: usize,
    confidence: f64,
) -> Result<ExtrapolationReport> {
    if per_node_w.len() < 2 {
        return Err(MethodError::InvalidConfig {
            field: "per_node_w",
            reason: "at least two sampled nodes are required for an assessment",
        });
    }
    if per_node_w.len() > total_nodes {
        return Err(MethodError::InvalidConfig {
            field: "total_nodes",
            reason: "sample cannot exceed the machine size",
        });
    }
    let summary = Summary::from_slice(per_node_w);
    let node_ci = mean_ci_t_finite(&summary, confidence, total_nodes as u64)?;
    let scale = total_nodes as f64;
    let estimate = node_ci.estimate * scale;
    let half = node_ci.half_width * scale;
    Ok(ExtrapolationReport {
        total_nodes,
        sampled_nodes: per_node_w.len(),
        node_mean_w: summary.mean(),
        node_sigma_w: summary.sample_std_dev()?,
        cv: summary.coefficient_of_variation()?,
        estimate_w: estimate,
        ci_lower_w: estimate - half,
        ci_upper_w: estimate + half,
        confidence,
        relative_accuracy: half / estimate.abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::{normal_draw, seeded};

    fn sample(n: usize, mu: f64, sigma: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        (0..n).map(|_| normal_draw(&mut rng, mu, sigma)).collect()
    }

    #[test]
    fn estimate_scales_linearly() {
        let s = sample(16, 400.0, 8.0, 1);
        let r = extrapolate(&s, 1024, 0.95).unwrap();
        let mean: f64 = s.iter().sum::<f64>() / 16.0;
        assert!((r.estimate_w - mean * 1024.0).abs() < 1e-6);
        assert_eq!(r.total_nodes, 1024);
        assert_eq!(r.sampled_nodes, 16);
    }

    #[test]
    fn bigger_samples_tighter_intervals() {
        let small = extrapolate(&sample(4, 400.0, 8.0, 2), 10_000, 0.95).unwrap();
        let large = extrapolate(&sample(100, 400.0, 8.0, 2), 10_000, 0.95).unwrap();
        assert!(large.relative_accuracy < small.relative_accuracy);
    }

    #[test]
    fn census_has_zero_width() {
        let s = sample(50, 400.0, 8.0, 3);
        let r = extrapolate(&s, 50, 0.95).unwrap();
        assert!(r.relative_accuracy < 1e-12);
        assert!((r.ci_upper_w - r.ci_lower_w).abs() < 1e-6);
    }

    #[test]
    fn paper_regime_meets_1_5_pct() {
        // 16 nodes at cv ~ 2% should assess within ~1.5-2% at 95%.
        let s = sample(16, 400.0, 8.0, 4);
        let r = extrapolate(&s, 10_000, 0.95).unwrap();
        assert!(r.relative_accuracy < 0.03, "{}", r.relative_accuracy);
        assert!(r.meets_accuracy(0.03));
        assert!(!r.meets_accuracy(r.relative_accuracy / 2.0));
    }

    #[test]
    fn ci_accessor_consistent() {
        let s = sample(20, 400.0, 8.0, 5);
        let r = extrapolate(&s, 1000, 0.95).unwrap();
        let ci = r.ci();
        assert!((ci.lower() - r.ci_lower_w).abs() < 1e-9);
        assert!((ci.upper() - r.ci_upper_w).abs() < 1e-9);
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(extrapolate(&[400.0], 100, 0.95).is_err());
        assert!(extrapolate(&[400.0, 410.0, 390.0], 2, 0.95).is_err());
    }
}
