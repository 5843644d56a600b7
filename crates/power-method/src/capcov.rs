//! Eq. 5 sample sizing under power caps: does it still cover?
//!
//! The paper's Equation 5 sizes a node sample from the *power*
//! coefficient of variation — the only spread its CPU-era measurements
//! had. A power-capped accelerator fleet breaks that assumption: the
//! governor pins hungry devices at the cap, compressing the power CV
//! toward zero while the manufacturing spread re-emerges as *runtime*
//! (and therefore energy-to-solution) spread. A practitioner who sizes
//! a sample from the observed power CV and then reports energy is using
//! an interval calibrated for the wrong variable.
//!
//! This module quantifies that with the same Monte Carlo machinery the
//! t-vs-z study used: draw without-replacement samples of the Eq. 5
//! size from a finite population of per-device observations and count
//! how often the sample mean lands within `±lambda` of the true mean.
//! It works on plain `&[f64]` populations so it needs no knowledge of
//! where the numbers came from (the accelerator simulator, a real
//! fleet's telemetry, anything).

use power_stats::rng::substream;
use power_stats::sample_size::SampleSizePlan;
use power_stats::summary::Summary;
use rand::Rng;

use crate::{MethodError, Result};

/// Parameters of a coverage experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapCoverageConfig {
    /// Nominal confidence level, e.g. `0.95`.
    pub confidence: f64,
    /// Target relative accuracy `lambda`, e.g. `0.01` for ±1%.
    pub lambda: f64,
    /// Monte Carlo repetitions.
    pub reps: u32,
    /// RNG root seed (each repetition uses its own substream).
    pub seed: u64,
}

impl CapCoverageConfig {
    /// Validates the experiment parameters.
    pub fn validate(&self) -> Result<()> {
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(MethodError::InvalidConfig {
                field: "confidence",
                reason: "confidence must lie strictly in (0, 1)",
            });
        }
        if !(self.lambda.is_finite() && self.lambda > 0.0) {
            return Err(MethodError::InvalidConfig {
                field: "lambda",
                reason: "relative accuracy must be positive",
            });
        }
        if self.reps == 0 {
            return Err(MethodError::InvalidConfig {
                field: "reps",
                reason: "need at least one repetition",
            });
        }
        Ok(())
    }
}

/// The outcome of one coverage experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageOutcome {
    /// Population size `N`.
    pub population: u64,
    /// Empirical CV of the metric the sample size was derived from.
    pub sizing_cv: f64,
    /// Empirical CV of the metric whose mean was estimated.
    pub measured_cv: f64,
    /// The Eq. 5 sample size.
    pub required_n: u64,
    /// Fraction of repetitions whose sample mean landed within
    /// `±lambda` of the population mean.
    pub coverage: f64,
    /// The nominal confidence the practitioner believes they have.
    pub nominal: f64,
}

impl CoverageOutcome {
    /// Coverage shortfall versus nominal (positive = under-coverage).
    pub fn shortfall(&self) -> f64 {
        (self.nominal - self.coverage).max(0.0)
    }
}

fn empirical_cv(values: &[f64]) -> Result<f64> {
    let s = Summary::from_slice(values);
    Ok(s.coefficient_of_variation()?)
}

/// Sizes a sample from `sizing_values`' CV (Eq. 5) and Monte Carlo
/// estimates the coverage of the `±lambda` claim on `measured_values`'
/// mean. The two slices must describe the same devices (same length);
/// pass the same slice twice for the self-consistent case.
pub fn eq5_coverage_cross(
    sizing_values: &[f64],
    measured_values: &[f64],
    cfg: &CapCoverageConfig,
) -> Result<CoverageOutcome> {
    cfg.validate()?;
    if sizing_values.len() != measured_values.len() {
        return Err(MethodError::InvalidConfig {
            field: "measured_values",
            reason: "sizing and measured populations must have equal length",
        });
    }
    let population = measured_values.len() as u64;
    let sizing_cv = empirical_cv(sizing_values)?;
    let measured_cv = empirical_cv(measured_values)?;
    let plan = SampleSizePlan::new(cfg.confidence, cfg.lambda, sizing_cv)?;
    let n = plan.required_nodes(population)?;
    let truth = Summary::from_slice(measured_values).mean();

    let mut hits = 0u32;
    let mut indices: Vec<usize> = (0..measured_values.len()).collect();
    for rep in 0..cfg.reps {
        let mut rng = substream(cfg.seed, u64::from(rep));
        // Partial Fisher–Yates: the first `n` slots become a uniform
        // without-replacement sample.
        for i in 0..n as usize {
            let j = rng.random_range(i..indices.len());
            indices.swap(i, j);
        }
        let mean: f64 = indices[..n as usize]
            .iter()
            .map(|&i| measured_values[i])
            .sum::<f64>()
            / n as f64;
        if (mean - truth).abs() <= cfg.lambda * truth.abs() {
            hits += 1;
        }
    }
    Ok(CoverageOutcome {
        population,
        sizing_cv,
        measured_cv,
        required_n: n,
        coverage: f64::from(hits) / f64::from(cfg.reps),
        nominal: cfg.confidence,
    })
}

/// The self-consistent case: size and measure the same metric.
pub fn eq5_coverage(values: &[f64], cfg: &CapCoverageConfig) -> Result<CoverageOutcome> {
    eq5_coverage_cross(values, values, cfg)
}

/// Runtime-spread-aware sizing: plan from the *worst* CV among the
/// metrics the submission will report (per-device power and
/// energy-to-solution), so the interval holds for both. This is the
/// module's recommended fix for the capped regime.
pub fn runtime_aware_required_nodes(
    confidence: f64,
    lambda: f64,
    power_cv: f64,
    energy_cv: f64,
    population: u64,
) -> Result<u64> {
    let cv = power_cv.max(energy_cv);
    Ok(SampleSizePlan::new(confidence, lambda, cv)?.required_nodes(population)?)
}

/// The full capped-fleet sizing study: the four coverage experiments
/// that answer EXPERIMENTS.md's headline question.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapSizingStudy {
    /// Uncapped fleet, power sized and measured — the paper's regime.
    pub uncapped_power: CoverageOutcome,
    /// Capped fleet, power sized and measured — still fine (the cap
    /// *shrinks* power CV, so Eq. 5 if anything oversamples).
    pub capped_power: CoverageOutcome,
    /// Capped fleet, sample sized from the *power* CV but used to
    /// estimate mean *energy-to-solution* — the naive practitioner.
    pub capped_energy_power_sized: CoverageOutcome,
    /// Capped fleet, sized from the energy CV itself (runtime-aware).
    pub capped_energy_runtime_aware: CoverageOutcome,
}

/// Runs the four-way study over per-device observations of one fleet:
/// `uncapped_powers` from the uncapped sweep, `capped_powers` and
/// `capped_energies` from the capped sweep (all index-aligned).
pub fn capped_sizing_study(
    uncapped_powers: &[f64],
    capped_powers: &[f64],
    capped_energies: &[f64],
    cfg: &CapCoverageConfig,
) -> Result<CapSizingStudy> {
    Ok(CapSizingStudy {
        uncapped_power: eq5_coverage(uncapped_powers, cfg)?,
        capped_power: eq5_coverage(capped_powers, cfg)?,
        capped_energy_power_sized: eq5_coverage_cross(capped_powers, capped_energies, cfg)?,
        capped_energy_runtime_aware: eq5_coverage(capped_energies, cfg)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::{normal_draw, seeded};

    fn cfg() -> CapCoverageConfig {
        CapCoverageConfig {
            confidence: 0.95,
            lambda: 0.01,
            reps: 2_000,
            seed: 0xCAB5,
        }
    }

    /// A synthetic fleet of `n` devices with the given relative spread.
    fn population(n: usize, mean: f64, cv: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        (0..n)
            .map(|_| normal_draw(&mut rng, mean, mean * cv))
            .collect()
    }

    #[test]
    fn self_consistent_sizing_covers_at_nominal() {
        let powers = population(2_048, 235.0, 0.04, 7);
        let out = eq5_coverage(&powers, &cfg()).unwrap();
        assert!(out.required_n > 1 && out.required_n < 2_048);
        assert!(
            out.coverage > out.nominal - 0.03,
            "coverage {} vs nominal {}",
            out.coverage,
            out.nominal
        );
        assert!(out.shortfall() < 0.03);
    }

    #[test]
    fn power_sized_energy_estimates_under_cover() {
        // The capped regime: power CV compressed to 0.5%, the spread
        // moved into energy (4%). Same device ordering for both.
        let capped_powers = population(2_048, 234.0, 0.005, 11);
        let capped_energies = population(2_048, 1.6e8, 0.04, 13);
        let naive = eq5_coverage_cross(&capped_powers, &capped_energies, &cfg()).unwrap();
        let aware = eq5_coverage(&capped_energies, &cfg()).unwrap();
        // Sizing from the compressed power CV prescribes far too few
        // devices to pin down energy...
        assert!(naive.required_n < aware.required_n);
        assert!(
            naive.coverage < naive.nominal - 0.10,
            "expected under-coverage, got {}",
            naive.coverage
        );
        // ...while sizing from the energy CV itself restores coverage.
        assert!(aware.coverage > aware.nominal - 0.03);
        // And the runtime-aware planner picks the bigger requirement.
        let n = runtime_aware_required_nodes(0.95, 0.01, naive.sizing_cv, aware.sizing_cv, 2_048)
            .unwrap();
        assert_eq!(n, aware.required_n);
    }

    #[test]
    fn full_study_is_deterministic_and_ordered() {
        let uncapped = population(1_024, 248.0, 0.045, 3);
        let capped_p = population(1_024, 233.0, 0.004, 5);
        let capped_e = population(1_024, 1.7e8, 0.03, 9);
        let a = capped_sizing_study(&uncapped, &capped_p, &capped_e, &cfg()).unwrap();
        let b = capped_sizing_study(&uncapped, &capped_p, &capped_e, &cfg()).unwrap();
        assert_eq!(a, b);
        assert!(a.uncapped_power.shortfall() < 0.03);
        assert!(a.capped_power.shortfall() < 0.03);
        assert!(
            a.capped_energy_power_sized.shortfall() > a.capped_energy_runtime_aware.shortfall()
        );
    }

    #[test]
    fn sampling_the_whole_population_always_covers() {
        // Tiny fleet: Eq. 5 demands nearly all of it; with n == N the
        // sample mean is the truth.
        let powers = population(8, 300.0, 0.08, 21);
        let out = eq5_coverage(&powers, &cfg()).unwrap();
        assert_eq!(out.required_n, 8);
        assert!((out.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        let powers = population(64, 200.0, 0.03, 1);
        let mut bad = cfg();
        bad.confidence = 1.0;
        assert!(eq5_coverage(&powers, &bad).is_err());
        let mut bad = cfg();
        bad.lambda = 0.0;
        assert!(eq5_coverage(&powers, &bad).is_err());
        let mut bad = cfg();
        bad.reps = 0;
        assert!(eq5_coverage(&powers, &bad).is_err());
        // Length mismatch.
        assert!(eq5_coverage_cross(&powers, &powers[..32], &cfg()).is_err());
        // Degenerate population: CV undefined/zero.
        assert!(eq5_coverage(&[], &cfg()).is_err());
        assert!(eq5_coverage(&[5.0, 5.0, 5.0], &cfg()).is_err());
    }

    #[test]
    fn seeds_decorrelate_reps() {
        // Two different seeds should give close but not identical
        // coverage on a population where coverage is interior.
        let powers = population(2_048, 235.0, 0.04, 7);
        let a = eq5_coverage(&powers, &cfg()).unwrap();
        let mut other = cfg();
        other.seed ^= 0xFFFF;
        let b = eq5_coverage(&powers, &other).unwrap();
        assert!((a.coverage - b.coverage).abs() < 0.03);
    }
}
