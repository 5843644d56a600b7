//! Confidence intervals for a population mean.
//!
//! Implements the paper's Equation 1 (t-based, exact for normal data) and
//! Equation 2 (z-based large-sample approximation), plus the
//! finite-population-corrected variants used when the sampled node count is
//! not negligible relative to the machine size.

use crate::normal::z_critical;
use crate::student_t::t_critical;
use crate::summary::Summary;
use crate::{Result, StatsError};

/// A two-sided confidence interval for a mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub estimate: f64,
    /// Half-width of the interval (the `+/-` term).
    pub half_width: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub confidence: f64,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    pub fn lower(&self) -> f64 {
        self.estimate - self.half_width
    }

    /// Upper bound of the interval.
    pub fn upper(&self) -> f64 {
        self.estimate + self.half_width
    }

    /// Whether the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower() && value <= self.upper()
    }

    /// Relative accuracy `lambda = half_width / |estimate|` — the paper's
    /// headline accuracy number (e.g. "within 3.2% of the true total").
    pub fn relative_accuracy(&self) -> Result<f64> {
        if self.estimate == 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "estimate",
                reason: "relative accuracy undefined for zero estimate",
            });
        }
        Ok(self.half_width / self.estimate.abs())
    }
}

impl std::fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.4} +/- {:.4} ({}% CI)",
            self.estimate,
            self.half_width,
            self.confidence * 100.0
        )
    }
}

/// Paper Equation 1: t-based confidence interval
/// `mu-hat +/- t_{n-1, 1-alpha/2} * sigma-hat / sqrt(n)`.
#[inline]
pub fn mean_ci_t(summary: &Summary, confidence: f64) -> Result<ConfidenceInterval> {
    let n = summary.count();
    if n < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: n as usize,
        });
    }
    let t = t_critical(confidence, n as f64 - 1.0)?;
    mean_ci_with_critical(summary, t, confidence)
}

/// The interval `mu-hat +/- critical * sigma-hat / sqrt(n)` for a
/// critical value the caller already holds — the one formula behind
/// [`mean_ci_t`] and [`mean_ci_z`], for loops that score many samples
/// of one size at one confidence (the coverage study computes each
/// `t_{n-1}` once, not once per replication).
#[inline]
pub fn mean_ci_with_critical(
    summary: &Summary,
    critical: f64,
    confidence: f64,
) -> Result<ConfidenceInterval> {
    Ok(ConfidenceInterval {
        estimate: summary.mean(),
        half_width: critical * summary.std_error()?,
        confidence,
    })
}

/// Paper Equation 2: z-based (large-sample) confidence interval
/// `mu-hat +/- z_{1-alpha/2} * sigma-hat / sqrt(n)`.
///
/// For small `n` this interval is too narrow; see
/// [`crate::student_t::z_undercoverage_ratio`].
#[inline]
pub fn mean_ci_z(summary: &Summary, confidence: f64) -> Result<ConfidenceInterval> {
    let n = summary.count();
    if n < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: n as usize,
        });
    }
    let z = z_critical(confidence)?;
    mean_ci_with_critical(summary, z, confidence)
}

/// Finite-population correction factor `sqrt((N - n) / (N - 1))`.
///
/// When a sample of `n` nodes is drawn *without replacement* from a machine
/// of `N` nodes, the standard error shrinks by this factor; it approaches 0
/// as the sample approaches a census and 1 when `n << N`.
pub fn fpc_factor(population: u64, sample: u64) -> Result<f64> {
    if population < 2 {
        return Err(StatsError::InvalidParameter {
            name: "population",
            reason: "population must contain at least 2 units",
        });
    }
    if sample == 0 || sample > population {
        return Err(StatsError::InvalidParameter {
            name: "sample",
            reason: "sample size must be in 1..=population",
        });
    }
    Ok((((population - sample) as f64) / ((population - 1) as f64)).sqrt())
}

/// t-based confidence interval with the finite-population correction
/// applied to the standard error.
pub fn mean_ci_t_finite(
    summary: &Summary,
    confidence: f64,
    population: u64,
) -> Result<ConfidenceInterval> {
    let base = mean_ci_t(summary, confidence)?;
    let fpc = fpc_factor(population, summary.count())?;
    Ok(ConfidenceInterval {
        half_width: base.half_width * fpc,
        ..base
    })
}

/// z-based confidence interval with the finite-population correction.
pub fn mean_ci_z_finite(
    summary: &Summary,
    confidence: f64,
    population: u64,
) -> Result<ConfidenceInterval> {
    let base = mean_ci_z(summary, confidence)?;
    let fpc = fpc_factor(population, summary.count())?;
    Ok(ConfidenceInterval {
        half_width: base.half_width * fpc,
        ..base
    })
}

/// Incremental (sequential) relative accuracy of the running mean held by
/// `summary`, with the finite-population correction for a machine of
/// `population` nodes.
///
/// This is the quantity a live campaign recomputes after every accepted
/// node: the Eq. 1 (t) or Eq. 2 (z) half-width, shrunk by
/// [`fpc_factor`], divided by the running mean. Because `summary` is a
/// Welford accumulator the recomputation is O(1) per sample, which is what
/// makes an online analogue of the paper's Table 5 stopping rule feasible.
pub fn sequential_relative_accuracy(
    summary: &Summary,
    confidence: f64,
    population: u64,
    use_t: bool,
) -> Result<f64> {
    let base = if use_t {
        mean_ci_t(summary, confidence)?
    } else {
        mean_ci_z(summary, confidence)?
    };
    let fpc = fpc_factor(population, summary.count())?;
    if base.estimate == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "mean",
            reason: "relative accuracy undefined for zero running mean",
        });
    }
    Ok(base.half_width * fpc / base.estimate.abs())
}

/// Predicted relative accuracy of a mean estimate from `n` sampled nodes,
/// given an assumed coefficient of variation `cv = sigma/mu`.
///
/// This is the inverse view of the sample-size formula: the paper's Section
/// 4 worked example states that measuring 4 of 210 nodes at `cv = 2%` gives
/// 95% confidence of being "within 3.2%", while 292 of 18 688 nodes gives
/// "within 0.2%".
pub fn predicted_relative_accuracy(confidence: f64, cv: f64, n: u64, use_t: bool) -> Result<f64> {
    if n < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: n as usize,
        });
    }
    if !(cv.is_finite() && cv > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "cv",
            reason: "coefficient of variation must be positive and finite",
        });
    }
    let crit = if use_t {
        t_critical(confidence, n as f64 - 1.0)?
    } else {
        z_critical(confidence)?
    };
    Ok(crit * cv / (n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_summary() -> Summary {
        // 20 observations, mean 10, sd ~2.
        Summary::from_slice(&[
            8.1, 9.2, 10.3, 11.4, 12.0, 7.9, 10.1, 9.8, 10.5, 11.1, 8.8, 9.9, 10.0, 10.2, 12.3,
            7.5, 9.4, 10.9, 11.6, 9.0,
        ])
    }

    #[test]
    fn t_interval_wider_than_z() {
        let s = demo_summary();
        let t = mean_ci_t(&s, 0.95).unwrap();
        let z = mean_ci_z(&s, 0.95).unwrap();
        assert!(t.half_width > z.half_width);
        assert_eq!(t.estimate, z.estimate);
    }

    #[test]
    fn interval_bounds_and_contains() {
        let s = demo_summary();
        let ci = mean_ci_t(&s, 0.95).unwrap();
        assert!(ci.lower() < ci.estimate && ci.estimate < ci.upper());
        assert!(ci.contains(ci.estimate));
        assert!(!ci.contains(ci.upper() + 1.0));
        assert!((ci.upper() - ci.lower() - 2.0 * ci.half_width).abs() < 1e-12);
    }

    #[test]
    fn higher_confidence_wider_interval() {
        let s = demo_summary();
        let c80 = mean_ci_t(&s, 0.80).unwrap();
        let c95 = mean_ci_t(&s, 0.95).unwrap();
        let c99 = mean_ci_t(&s, 0.99).unwrap();
        assert!(c80.half_width < c95.half_width);
        assert!(c95.half_width < c99.half_width);
    }

    #[test]
    fn fpc_limits() {
        // Census: zero sampling error.
        assert!(fpc_factor(100, 100).unwrap().abs() < 1e-15);
        // Tiny sample of a huge population: essentially 1.
        assert!((fpc_factor(1_000_000, 10).unwrap() - 1.0).abs() < 1e-4);
        // Errors.
        assert!(fpc_factor(1, 1).is_err());
        assert!(fpc_factor(100, 0).is_err());
        assert!(fpc_factor(100, 101).is_err());
    }

    #[test]
    fn finite_interval_narrower() {
        let s = demo_summary();
        let inf = mean_ci_t(&s, 0.95).unwrap();
        let fin = mean_ci_t_finite(&s, 0.95, 40).unwrap();
        assert!(fin.half_width < inf.half_width);
    }

    #[test]
    fn paper_worked_example_small_system() {
        // N = 210, sigma/mu = 2%, Level 1 rule gives n = 4 nodes:
        // t_{3,0.975} * 0.02 / sqrt(4) ~ 3.18% -> "within 3.2%".
        let acc = predicted_relative_accuracy(0.95, 0.02, 4, true).unwrap();
        assert!((acc - 0.0318).abs() < 5e-4, "acc = {acc}");
    }

    #[test]
    fn paper_worked_example_large_system() {
        // N = 18688, n = 292: z * 0.02 / sqrt(292) ~ 0.229% -> "within 0.2%".
        let acc = predicted_relative_accuracy(0.95, 0.02, 292, false).unwrap();
        assert!((acc - 0.00229).abs() < 5e-5, "acc = {acc}");
    }

    #[test]
    fn relative_accuracy_roundtrip() {
        let ci = ConfidenceInterval {
            estimate: 200.0,
            half_width: 4.0,
            confidence: 0.95,
        };
        assert!((ci.relative_accuracy().unwrap() - 0.02).abs() < 1e-15);
        let zero = ConfidenceInterval {
            estimate: 0.0,
            half_width: 1.0,
            confidence: 0.95,
        };
        assert!(zero.relative_accuracy().is_err());
    }

    #[test]
    fn sequential_accuracy_matches_finite_ci() {
        let s = demo_summary();
        // The incremental helper must agree exactly with the batch
        // finite-population interval it is the online form of.
        for use_t in [true, false] {
            let seq = sequential_relative_accuracy(&s, 0.95, 100, use_t).unwrap();
            let ci = if use_t {
                mean_ci_t_finite(&s, 0.95, 100).unwrap()
            } else {
                mean_ci_z_finite(&s, 0.95, 100).unwrap()
            };
            let batch = ci.relative_accuracy().unwrap();
            assert!((seq - batch).abs() < 1e-15, "{seq} vs {batch}");
        }
        // Shrinks as the sample approaches a census.
        let near = sequential_relative_accuracy(&s, 0.95, 21, true).unwrap();
        let far = sequential_relative_accuracy(&s, 0.95, 10_000, true).unwrap();
        assert!(near < far);
        // Errors propagate: sample larger than the population.
        assert!(sequential_relative_accuracy(&s, 0.95, 10, true).is_err());
        let mut tiny = Summary::new();
        tiny.push(1.0);
        assert!(sequential_relative_accuracy(&tiny, 0.95, 100, true).is_err());
    }

    /// The coverage study scores intervals from critical values it
    /// computed once; they must equal `mean_ci_t`'s bit for bit.
    #[test]
    fn hoisted_critical_value_gives_the_same_interval_bits() {
        let data: Vec<f64> = (0..64)
            .map(|i| 200.0 + 7.0 * ((i as f64) * 1.37).sin())
            .collect();
        for n in 2..=data.len() {
            let s = Summary::from_slice(&data[..n]);
            for conf in [0.80, 0.90, 0.95, 0.99] {
                let direct = mean_ci_t(&s, conf).unwrap();
                let t = t_critical(conf, n as f64 - 1.0).unwrap();
                let hoisted = mean_ci_with_critical(&s, t, conf).unwrap();
                assert_eq!(direct.estimate.to_bits(), hoisted.estimate.to_bits());
                assert_eq!(direct.half_width.to_bits(), hoisted.half_width.to_bits());
                assert_eq!(direct.confidence.to_bits(), hoisted.confidence.to_bits());
            }
        }
    }

    #[test]
    fn insufficient_data_errors() {
        let mut s = Summary::new();
        assert!(mean_ci_t(&s, 0.95).is_err());
        s.push(1.0);
        assert!(mean_ci_z(&s, 0.95).is_err());
        assert!(predicted_relative_accuracy(0.95, 0.02, 1, true).is_err());
        assert!(predicted_relative_accuracy(0.95, -0.02, 10, true).is_err());
    }

    #[test]
    fn display_formatting() {
        let ci = ConfidenceInterval {
            estimate: 10.0,
            half_width: 0.5,
            confidence: 0.95,
        };
        let s = format!("{ci}");
        assert!(s.contains("95% CI"), "{s}");
    }
}
