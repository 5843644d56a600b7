//! Bootstrap re-sampling and the confidence-interval coverage study.
//!
//! Section 4.2 of the paper validates its normal-theory sample-size
//! procedure with a simulation: 100 000 times per sample size, (1) simulate
//! a complete supercomputer of `N` nodes by resampling with replacement from
//! the observed pilot data, (2) draw `n` nodes without replacement from the
//! simulated machine, (3) form 80%/95%/99% t-intervals from the sample
//! (Equation 1), and (4) check whether each interval contains the simulated
//! machine's true mean. Figure 3 plots the resulting coverage, showing good
//! calibration down to `n = 5`.
//!
//! [`coverage_study`] reproduces that procedure with common random
//! numbers: each replication simulates one machine and scores every
//! sample size on it, parallelized over replications with
//! `std::thread::scope` and deterministic per-worker RNG substreams.

use crate::ci::mean_ci_with_critical;
use crate::empirical::Empirical;
use crate::rng::substream;
use crate::student_t::t_critical;
use crate::summary::Summary;
use crate::{Result, StatsError};
use rand::Rng;

/// Configuration for the coverage simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageConfig {
    /// Size `N` of each simulated complete machine.
    pub population_size: usize,
    /// Sample sizes `n` to evaluate.
    pub sample_sizes: Vec<usize>,
    /// Confidence levels to check (the paper uses 0.80, 0.95, 0.99).
    pub confidences: Vec<f64>,
    /// Replications per sample size (the paper uses 100 000).
    pub replications: usize,
    /// Worker threads; clamped to at least 1.
    pub threads: usize,
    /// Root RNG seed.
    pub seed: u64,
}

/// One point of the coverage curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// Sample size `n`.
    pub n: usize,
    /// Nominal confidence level.
    pub confidence: f64,
    /// Fraction of replications whose interval contained the true mean.
    pub coverage: f64,
    /// Number of replications behind this estimate.
    pub replications: usize,
}

impl CoveragePoint {
    /// Monte-Carlo standard error of the coverage estimate.
    pub fn std_error(&self) -> f64 {
        (self.coverage * (1.0 - self.coverage) / self.replications as f64).sqrt()
    }

    /// Calibration error: `coverage - confidence`.
    pub fn calibration_error(&self) -> f64 {
        self.coverage - self.confidence
    }
}

/// Runs the paper's Figure 3 coverage simulation against a pilot dataset.
///
/// Every replication simulates one machine of `N` iid draws from the
/// pilot, and its first `n_max = max(sample_sizes)` draws are the sample:
/// the first `n` draws of an iid machine are a without-replacement sample
/// of it, so each size `n` is scored on the prefix `sample[..n]` against
/// the same true mean. That is steps (1)–(4) above for every size at once
/// (common random numbers), at `N` draws per replication instead of
/// `N` per size, and it keeps memory at `O(n_max)` per worker. The points
/// of different sizes are correlated within a replication; each point on
/// its own is the published estimator.
///
/// Worker `w` draws from `substream(seed, w)`, so the results depend on
/// `threads` but not on the order of `sample_sizes`: permuting the sizes
/// permutes the points. Each `t_{n-1}` critical value is computed once,
/// before any worker starts. Points come out size-major, in the order of
/// `sample_sizes` and then `confidences`; with either list empty the
/// result is empty and nothing is drawn.
pub fn coverage_study(pilot: &Empirical, cfg: &CoverageConfig) -> Result<Vec<CoveragePoint>> {
    if cfg.replications == 0 {
        return Err(StatsError::InvalidParameter {
            name: "replications",
            reason: "at least one replication is required",
        });
    }
    for &n in &cfg.sample_sizes {
        if n < 2 || n > cfg.population_size {
            return Err(StatsError::InvalidParameter {
                name: "sample_sizes",
                reason: "each n must satisfy 2 <= n <= population_size",
            });
        }
    }
    for &c in &cfg.confidences {
        if !(c > 0.0 && c < 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "confidences",
                reason: "confidence levels must lie strictly in (0, 1)",
            });
        }
    }
    let Some(&n_max) = cfg.sample_sizes.iter().max() else {
        return Ok(Vec::new());
    };
    if cfg.confidences.is_empty() {
        return Ok(Vec::new());
    }

    // The (n, confidence) cells, size-major; `critical` and each worker's
    // `hits` row are indexed alike.
    let cells = || {
        cfg.sample_sizes
            .iter()
            .flat_map(|&n| cfg.confidences.iter().map(move |&conf| (n, conf)))
    };
    let critical = cells()
        .map(|(n, conf)| t_critical(conf, n as f64 - 1.0))
        .collect::<Result<Vec<f64>>>()?;
    let threads = cfg.threads.max(1);
    let reps_per = split_evenly(cfg.replications, threads);
    let mut hits = vec![vec![0u64; critical.len()]; threads];

    std::thread::scope(|scope| {
        for (w, hit_row) in hits.iter_mut().enumerate() {
            let reps = reps_per[w];
            let critical = &critical;
            scope.spawn(move || {
                let mut rng = substream(cfg.seed, w as u64);
                // One stream across replications, so no half-word is
                // left unread between machines.
                let mut draws = pilot.draws(&mut rng);
                let mut sample = vec![0.0f64; n_max];
                for _ in 0..reps {
                    // (1)+(2): the sample is the machine's first draws;
                    // the rest contributes only to the true mean.
                    let mut total = 0.0;
                    for (s, v) in sample.iter_mut().zip(&mut draws) {
                        *s = v;
                        total += v;
                    }
                    for v in draws.by_ref().take(cfg.population_size - n_max) {
                        total += v;
                    }
                    let true_mean = total / cfg.population_size as f64;
                    // (3)+(4), for every size on its prefix of the sample.
                    let mut cell = 0;
                    for &n in &cfg.sample_sizes {
                        let summary = Summary::from_slice(&sample[..n]);
                        for &conf in &cfg.confidences {
                            let ci = mean_ci_with_critical(&summary, critical[cell], conf)
                                .expect("n >= 2 guarantees a valid interval");
                            hit_row[cell] += u64::from(ci.contains(true_mean));
                            cell += 1;
                        }
                    }
                }
            });
        }
    });

    Ok(cells()
        .enumerate()
        .map(|(cell, (n, confidence))| CoveragePoint {
            n,
            confidence,
            coverage: hits.iter().map(|row| row[cell]).sum::<u64>() as f64
                / cfg.replications as f64,
            replications: cfg.replications,
        })
        .collect())
}

fn split_evenly(total: usize, parts: usize) -> Vec<usize> {
    let base = total / parts;
    let extra = total % parts;
    (0..parts).map(|i| base + usize::from(i < extra)).collect()
}

/// Draws `reps` bootstrap replicates of the sample mean from `data`.
pub fn bootstrap_means<R: Rng + ?Sized>(rng: &mut R, data: &Empirical, reps: usize) -> Vec<f64> {
    let n = data.len();
    let mut draws = data.draws(rng);
    (0..reps)
        .map(|_| {
            let mut sum = 0.0;
            for v in draws.by_ref().take(n) {
                sum += v;
            }
            sum / n as f64
        })
        .collect()
}

/// Percentile bootstrap confidence interval for the mean of `data`.
pub fn bootstrap_percentile_ci<R: Rng + ?Sized>(
    rng: &mut R,
    data: &Empirical,
    confidence: f64,
    reps: usize,
) -> Result<crate::ci::ConfidenceInterval> {
    if !(confidence > 0.0 && confidence < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "confidence",
            reason: "confidence must lie strictly in (0, 1)",
        });
    }
    if reps < 100 {
        return Err(StatsError::InvalidParameter {
            name: "reps",
            reason: "at least 100 bootstrap replicates are required",
        });
    }
    let means = bootstrap_means(rng, data, reps);
    let dist = Empirical::new(&means)?;
    let alpha = 1.0 - confidence;
    let lo = dist.quantile(alpha / 2.0)?;
    let hi = dist.quantile(1.0 - alpha / 2.0)?;
    let estimate = 0.5 * (lo + hi);
    Ok(crate::ci::ConfidenceInterval {
        estimate,
        half_width: 0.5 * (hi - lo),
        confidence,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{normal_draw, seeded};

    fn lrz_like_pilot(n: usize, seed: u64) -> Empirical {
        // LRZ in Table 4: mu = 209.88 W, sigma = 5.31 W.
        let mut rng = seeded(seed);
        let vals: Vec<f64> = (0..n)
            .map(|_| normal_draw(&mut rng, 209.88, 5.31))
            .collect();
        Empirical::new(&vals).unwrap()
    }

    #[test]
    fn coverage_close_to_nominal_for_normal_pilot() {
        let pilot = lrz_like_pilot(516, 41);
        let cfg = CoverageConfig {
            population_size: 2000,
            sample_sizes: vec![5, 20],
            confidences: vec![0.80, 0.95],
            replications: 4000,
            threads: 4,
            seed: 42,
        };
        let pts = coverage_study(&pilot, &cfg).unwrap();
        assert_eq!(pts.len(), 4);
        for p in &pts {
            // MC noise at 4000 reps is ~0.6% for 95%; allow 3 sigma plus
            // small-n miscalibration slack.
            assert!(
                (p.coverage - p.confidence).abs() < 0.03,
                "n={} conf={} coverage={}",
                p.n,
                p.confidence,
                p.coverage
            );
        }
    }

    #[test]
    fn coverage_deterministic_given_seed_and_threads() {
        let pilot = lrz_like_pilot(100, 43);
        let cfg = CoverageConfig {
            population_size: 500,
            sample_sizes: vec![10],
            confidences: vec![0.95],
            replications: 500,
            threads: 3,
            seed: 7,
        };
        let a = coverage_study(&pilot, &cfg).unwrap();
        let b = coverage_study(&pilot, &cfg).unwrap();
        assert_eq!(a, b);
    }

    fn pinned_config(sample_sizes: Vec<usize>) -> CoverageConfig {
        CoverageConfig {
            population_size: 500,
            sample_sizes,
            confidences: vec![0.80, 0.95, 0.99],
            replications: 600,
            threads: 3,
            seed: 7,
        }
    }

    fn hits(points: &[CoveragePoint]) -> Vec<(usize, u64)> {
        points
            .iter()
            .map(|p| (p.n, (p.coverage * p.replications as f64).round() as u64))
            .collect()
    }

    /// The first-listed size reads the same draws as it did when every
    /// size simulated its own machine: these hit counts (of 600) are the
    /// ones that engine gave with each size listed first, re-recorded
    /// when the pilot's normal draws moved to the ziggurat and again when
    /// the bootstrap took two 32-bit indices from each generator word.
    #[test]
    fn first_listed_size_keeps_its_pinned_points() {
        let pilot = lrz_like_pilot(100, 43);
        for (sizes, first) in [
            (vec![5, 10, 20], [474, 561, 587]),
            (vec![20, 5, 10], [474, 560, 590]),
            (vec![10], [476, 561, 586]),
        ] {
            let pts = coverage_study(&pilot, &pinned_config(sizes.clone())).unwrap();
            assert_eq!(pts.len(), 3 * sizes.len());
            for ((p, conf), h) in pts.iter().zip([0.80, 0.95, 0.99]).zip(first) {
                let want = CoveragePoint {
                    n: sizes[0],
                    confidence: conf,
                    coverage: h as f64 / 600.0,
                    replications: 600,
                };
                assert_eq!(*p, want);
            }
        }
    }

    /// Every size is scored on one machine per replication, so the order
    /// of `sample_sizes` only orders the points.
    #[test]
    fn permuting_sample_sizes_permutes_the_points() {
        let pilot = lrz_like_pilot(100, 43);
        let base = coverage_study(&pilot, &pinned_config(vec![5, 10, 20])).unwrap();
        let permuted = coverage_study(&pilot, &pinned_config(vec![20, 5, 10])).unwrap();
        for n in [5, 10, 20] {
            let of = |pts: &[CoveragePoint]| -> Vec<CoveragePoint> {
                pts.iter().copied().filter(|p| p.n == n).collect()
            };
            assert_eq!(of(&base), of(&permuted), "n = {n}");
        }
        assert_eq!(
            hits(&base),
            [
                (5, 474),
                (5, 561),
                (5, 587),
                (10, 476),
                (10, 561),
                (10, 586),
                (20, 474),
                (20, 560),
                (20, 590)
            ]
        );
    }

    #[test]
    fn empty_sizes_or_confidences_give_no_points() {
        let pilot = lrz_like_pilot(50, 44);
        let mut cfg = pinned_config(vec![]);
        assert_eq!(coverage_study(&pilot, &cfg).unwrap(), vec![]);
        cfg.sample_sizes = vec![5];
        cfg.confidences = vec![];
        assert_eq!(coverage_study(&pilot, &cfg).unwrap(), vec![]);
    }

    #[test]
    fn coverage_validates_config() {
        let pilot = lrz_like_pilot(50, 44);
        let base = CoverageConfig {
            population_size: 100,
            sample_sizes: vec![5],
            confidences: vec![0.95],
            replications: 10,
            threads: 1,
            seed: 0,
        };
        let mut bad = base.clone();
        bad.sample_sizes = vec![1];
        assert!(coverage_study(&pilot, &bad).is_err());
        let mut bad = base.clone();
        bad.sample_sizes = vec![101];
        assert!(coverage_study(&pilot, &bad).is_err());
        let mut bad = base.clone();
        bad.confidences = vec![1.0];
        assert!(coverage_study(&pilot, &bad).is_err());
        let mut bad = base;
        bad.replications = 0;
        assert!(coverage_study(&pilot, &bad).is_err());
    }

    #[test]
    fn point_diagnostics() {
        let p = CoveragePoint {
            n: 10,
            confidence: 0.95,
            coverage: 0.94,
            replications: 10_000,
        };
        assert!((p.calibration_error() + 0.01).abs() < 1e-12);
        assert!((p.std_error() - (0.94f64 * 0.06 / 10_000.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn bootstrap_means_distribution() {
        let pilot = lrz_like_pilot(200, 45);
        let mut rng = seeded(46);
        let means = bootstrap_means(&mut rng, &pilot, 2000);
        let s = Summary::from_slice(&means);
        // Bootstrap mean ~ pilot mean; spread ~ sigma/sqrt(200).
        assert!((s.mean() - 209.88).abs() < 1.0);
        let se = 5.31 / (200.0f64).sqrt();
        assert!((s.sample_std_dev().unwrap() - se).abs() < se * 0.25);
    }

    #[test]
    fn percentile_ci_contains_true_mean_usually() {
        let pilot = lrz_like_pilot(200, 47);
        let mut rng = seeded(48);
        let ci = bootstrap_percentile_ci(&mut rng, &pilot, 0.95, 2000).unwrap();
        assert!(ci.contains(pilot.values().iter().sum::<f64>() / pilot.len() as f64));
        assert!(bootstrap_percentile_ci(&mut rng, &pilot, 0.95, 10).is_err());
        assert!(bootstrap_percentile_ci(&mut rng, &pilot, 2.0, 1000).is_err());
    }

    #[test]
    fn split_evenly_sums() {
        assert_eq!(split_evenly(10, 3), vec![4, 3, 3]);
        assert_eq!(split_evenly(9, 3), vec![3, 3, 3]);
        assert_eq!(split_evenly(2, 5), vec![1, 1, 0, 0, 0]);
        assert_eq!(split_evenly(0, 2).iter().sum::<usize>(), 0);
    }
}
