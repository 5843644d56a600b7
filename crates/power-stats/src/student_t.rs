//! The Student-t distribution.
//!
//! The paper's Equation 1 computes confidence intervals with the t-quantile
//! `t_{n-1, 1-alpha/2}`; Section 4.2 quantifies the under-coverage incurred
//! by approximating it with the normal quantile (about 9% too-narrow
//! intervals at `n = 15`). Both quantile functions live here and in
//! [`crate::normal`].

use crate::normal::{standard_pdf, standard_quantile};
use crate::special::{beta_inc, ln_beta};
use crate::{Result, StatsError};

/// A Student-t distribution with `nu` degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
}

impl StudentT {
    /// Creates a t distribution; degrees of freedom must be positive.
    pub fn new(nu: f64) -> Result<Self> {
        if !(nu.is_finite() && nu > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "nu",
                reason: "degrees of freedom must be positive and finite",
            });
        }
        Ok(StudentT { nu })
    }

    /// Degrees of freedom.
    pub fn dof(&self) -> f64 {
        self.nu
    }

    /// Probability density function.
    pub fn pdf(&self, t: f64) -> f64 {
        let nu = self.nu;
        let ln_norm = -0.5 * nu.ln() - ln_beta(0.5, nu / 2.0);
        (ln_norm - (nu + 1.0) / 2.0 * (1.0 + t * t / nu).ln()).exp()
    }

    /// Cumulative distribution function.
    ///
    /// Evaluated via the regularized incomplete beta function:
    /// for `t >= 0`, `F(t) = 1 - I_{nu/(nu+t^2)}(nu/2, 1/2) / 2`.
    pub fn cdf(&self, t: f64) -> f64 {
        if t == 0.0 {
            return 0.5;
        }
        let x = self.nu / (self.nu + t * t);
        let tail = 0.5
            * beta_inc(self.nu / 2.0, 0.5, x)
                .expect("incomplete beta arguments are in-domain by construction");
        if t > 0.0 {
            1.0 - tail
        } else {
            tail
        }
    }

    /// Survival function `1 - cdf(t)` without cancellation.
    pub fn sf(&self, t: f64) -> f64 {
        self.cdf(-t)
    }

    /// Quantile (inverse CDF) at probability `p` in `(0, 1)`.
    ///
    /// Starts from the normal quantile (exact as `nu -> inf`) corrected by
    /// the leading Cornish–Fisher term, then polishes with safeguarded
    /// Newton iterations on the CDF.
    pub fn quantile(&self, p: f64) -> Result<f64> {
        if !(p > 0.0 && p < 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "p",
                reason: "probability must lie strictly in (0, 1)",
            });
        }
        if (p - 0.5).abs() < f64::EPSILON {
            return Ok(0.0);
        }
        // By symmetry, solve in the upper half and mirror.
        if p < 0.5 {
            return Ok(-self.quantile(1.0 - p)?);
        }
        let z = standard_quantile(p)?;
        // Cornish-Fisher first-order expansion: t ~ z + (z^3 + z)/(4 nu).
        let mut t = z + (z * z * z + z) / (4.0 * self.nu);
        if self.nu <= 2.0 {
            // Heavy tails: the expansion is poor; fall back to a wide
            // bracket and let the safeguard do the work.
            t = t.max(z);
        }
        // Safeguarded Newton on F(t) - p = 0 over bracket [lo, hi].
        let mut lo = 0.0_f64;
        let mut hi = t.max(1.0);
        while self.cdf(hi) < p {
            lo = hi;
            hi *= 2.0;
            if hi > 1e12 {
                return Err(StatsError::NoConvergence {
                    routine: "student_t_quantile_bracket",
                });
            }
        }
        t = t.clamp(lo, hi);
        for _ in 0..100 {
            let f = self.cdf(t) - p;
            if f > 0.0 {
                hi = t;
            } else {
                lo = t;
            }
            let d = self.pdf(t);
            let step = f / d;
            let mut next = t - step;
            if !(next > lo && next < hi && next.is_finite()) {
                next = 0.5 * (lo + hi);
            }
            if (next - t).abs() <= 1e-14 * (1.0 + t.abs()) {
                return Ok(next);
            }
            t = next;
        }
        // Bisection safeguard converges linearly; if we are here the
        // bracket is already extremely tight.
        Ok(0.5 * (lo + hi))
    }
}

/// The two-sided critical value `t_{nu, 1 - alpha/2}` for confidence level
/// `confidence = 1 - alpha` and `nu` degrees of freedom.
///
/// ```
/// use power_stats::student_t::t_critical;
/// // Paper Section 4: with n = 4 nodes (nu = 3), t ~ 3.182 so that
/// // 3.182 * 2% / sqrt(4) ~ 3.2% — the "within 3.2%" worked example.
/// let t = t_critical(0.95, 3.0).unwrap();
/// assert!((t - 3.182_446_305_284).abs() < 1e-6);
/// ```
pub fn t_critical(confidence: f64, nu: f64) -> Result<f64> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "confidence",
            reason: "confidence level must lie strictly in (0, 1)",
        });
    }
    // The quantile's Newton iteration costs several incomplete-beta
    // evaluations, and hot paths (sequential estimators re-checking a
    // stopped rule, leaderboard CIs) ask for the same `(confidence,
    // nu)` repeatedly — memoize the last pair per thread. The function
    // is deterministic, making the cache exact.
    use std::cell::Cell;
    thread_local! {
        static LAST: Cell<(f64, f64, f64)> = const { Cell::new((f64::NAN, f64::NAN, 0.0)) };
    }
    LAST.with(|last| {
        let (c, n, t) = last.get();
        if c == confidence && n == nu {
            return Ok(t);
        }
        let t = StudentT::new(nu)?.quantile(0.5 + confidence / 2.0)?;
        last.set((confidence, nu, t));
        Ok(t)
    })
}

/// Ratio of the t critical value to the z critical value at the same
/// confidence level.
///
/// This is the factor by which a z-based confidence interval is too narrow;
/// the paper reports "roughly 9%" at `n = 15` (`nu = 14`, 95% confidence).
pub fn z_undercoverage_ratio(confidence: f64, nu: f64) -> Result<f64> {
    let t = t_critical(confidence, nu)?;
    let z = crate::normal::z_critical(confidence)?;
    Ok(t / z)
}

#[allow(unused_imports)]
use standard_pdf as _pdf_keepalive;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_symmetry() {
        let t = StudentT::new(7.0).unwrap();
        for i in 0..50 {
            let x = i as f64 * 0.2;
            assert!((t.cdf(x) + t.cdf(-x) - 1.0).abs() < 1e-13);
        }
    }

    #[test]
    fn cdf_cauchy_special_case() {
        // nu = 1 is the Cauchy distribution: F(t) = 1/2 + atan(t)/pi.
        let t = StudentT::new(1.0).unwrap();
        for i in -30..=30 {
            let x = i as f64 * 0.5;
            let want = 0.5 + x.atan() / std::f64::consts::PI;
            assert!((t.cdf(x) - want).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &nu in &[1.0, 2.0, 3.0, 5.0, 14.0, 30.0, 120.0] {
            let t = StudentT::new(nu).unwrap();
            for i in 1..40 {
                let p = i as f64 / 40.0;
                let q = t.quantile(p).unwrap();
                assert!(
                    (t.cdf(q) - p).abs() < 1e-10,
                    "nu = {nu}, p = {p}, q = {q}, cdf = {}",
                    t.cdf(q)
                );
            }
        }
    }

    #[test]
    fn t_critical_table_values() {
        // Classic two-sided 95% critical values.
        let cases = [
            (1.0, 12.706_204_736),
            (2.0, 4.302_652_730),
            (3.0, 3.182_446_305),
            (4.0, 2.776_445_105),
            (9.0, 2.262_157_163),
            (14.0, 2.144_786_688),
            (19.0, 2.093_024_054),
            (29.0, 2.045_229_642),
        ];
        for (nu, want) in cases {
            let got = t_critical(0.95, nu).unwrap();
            assert!(
                (got - want).abs() < 1e-6,
                "nu = {nu}: got {got} want {want}"
            );
        }
    }

    /// The one-entry memos of `t_critical` and `z_critical` answer with
    /// the bits of a fresh quantile whether a call evicts the previous
    /// key (alternating arguments) or repeats it (a hit).
    #[test]
    fn critical_memos_are_exact_under_alternating_arguments() {
        use crate::normal::{standard_quantile, z_critical};
        for _round in 0..3 {
            for conf in [0.80, 0.90, 0.95, 0.99, 0.975] {
                for nu in [1.0, 65.0, 2.0, 2.5, 63.0, 127.0, 14.0, 1e6] {
                    let fresh = StudentT::new(nu)
                        .unwrap()
                        .quantile(0.5 + conf / 2.0)
                        .unwrap();
                    for _repeat in 0..2 {
                        let t = t_critical(conf, nu).unwrap();
                        assert_eq!(t.to_bits(), fresh.to_bits(), "conf {conf}, nu {nu}");
                    }
                    let fresh = standard_quantile(0.5 + conf / 2.0).unwrap();
                    assert_eq!(z_critical(conf).unwrap().to_bits(), fresh.to_bits());
                }
            }
        }
        // Errors are never stored.
        assert!(z_critical(0.95).is_ok());
        assert!(t_critical(0.95, f64::INFINITY).is_err());
        assert!(t_critical(0.95, 0.0).is_err());
        assert!(t_critical(0.95, f64::NAN).is_err());
    }

    #[test]
    fn paper_undercoverage_at_n_15() {
        // Section 4.2: at n = 15 a z-based 95% CI is "roughly 9% too
        // narrow" — i.e. t_{14,0.975} / z_{0.975} ~ 1.094.
        let ratio = z_undercoverage_ratio(0.95, 14.0).unwrap();
        assert!(
            (ratio - 1.0943).abs() < 5e-4,
            "ratio = {ratio}, expected ~1.094"
        );
    }

    #[test]
    fn converges_to_normal_for_large_nu() {
        let t = t_critical(0.95, 1e6).unwrap();
        assert!((t - 1.959_963_984_540_054).abs() < 1e-5);
    }

    #[test]
    fn pdf_integrates_to_one() {
        let t = StudentT::new(5.0).unwrap();
        let mut integral = 0.0;
        let step = 0.01;
        let mut x = -60.0;
        while x < 60.0 {
            integral += t.pdf(x) * step;
            x += step;
        }
        assert!((integral - 1.0).abs() < 1e-4);
    }

    #[test]
    fn median_is_zero() {
        let t = StudentT::new(4.0).unwrap();
        assert_eq!(t.quantile(0.5).unwrap(), 0.0);
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(StudentT::new(0.0).is_err());
        assert!(StudentT::new(-3.0).is_err());
        assert!(StudentT::new(f64::INFINITY).is_err());
        let t = StudentT::new(3.0).unwrap();
        assert!(t.quantile(0.0).is_err());
        assert!(t.quantile(1.0).is_err());
        assert!(t_critical(0.0, 3.0).is_err());
    }
}
