//! Online estimation with a sequential stopping rule.
//!
//! Table 5 of the paper answers "how many nodes must I meter?" *before*
//! the campaign, from an assumed coefficient of variation. A live
//! campaign can do better: re-evaluate the Eq. 1–2 confidence interval
//! (with the finite-population correction) after *every* accepted node
//! and stop the moment the half-width reaches the target λ. With the
//! planned CV and the large-sample z quantile the sequential rule stops
//! at exactly `SampleSizePlan::required_nodes` — the two are the same
//! inequality read in opposite directions — while the empirical-CV and
//! Student-t variants adapt to the fleet actually being measured.

use crate::{Result, TelemetryError};
use power_stats::ci::{
    fpc_factor, mean_ci_t_finite, mean_ci_z_finite, sequential_relative_accuracy,
    ConfidenceInterval,
};
use power_stats::normal::z_critical;
use power_stats::student_t::t_critical;
use power_stats::summary::Summary;

/// Which critical value the stopping rule uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CiQuantile {
    /// Eq. 1: Student-t with `n - 1` degrees of freedom. Honest at small
    /// `n`, needs at least two nodes before it can evaluate.
    StudentT,
    /// Eq. 2: large-sample Normal quantile. Matches the paper's Table 5
    /// arithmetic exactly.
    Normal,
}

/// Where the coefficient of variation in the half-width comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CvAssumption {
    /// Use a planned σ/μ (the paper's Table 5 columns). The rule is then
    /// deterministic in `n` and reproduces `required_nodes` exactly.
    Planned(f64),
    /// Use the running empirical σ̂/μ̂ of the fleet measured so far.
    Empirical,
}

/// A sequential stopping rule for a live measurement campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// Two-sided confidence level, e.g. `0.95`.
    pub confidence: f64,
    /// Target relative accuracy λ (half-width / mean), e.g. `0.01`.
    pub lambda: f64,
    /// Total machine size `N` (finite-population correction).
    pub population: u64,
    /// Critical-value family.
    pub quantile: CiQuantile,
    /// CV source.
    pub cv: CvAssumption,
    /// Never stop before this many nodes, regardless of the interval
    /// (guards the empirical CV against lucky early agreement).
    pub min_nodes: u64,
}

impl StoppingRule {
    /// Validates the rule.
    pub fn validate(&self) -> Result<()> {
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(TelemetryError::InvalidConfig {
                field: "confidence",
                reason: "confidence must lie strictly inside (0, 1)",
            });
        }
        if !(self.lambda > 0.0 && self.lambda.is_finite()) {
            return Err(TelemetryError::InvalidConfig {
                field: "lambda",
                reason: "target accuracy must be positive and finite",
            });
        }
        if self.population < 2 {
            return Err(TelemetryError::InvalidConfig {
                field: "population",
                reason: "population must hold at least two nodes",
            });
        }
        if let CvAssumption::Planned(cv) = self.cv {
            if !(cv > 0.0 && cv.is_finite()) {
                return Err(TelemetryError::InvalidConfig {
                    field: "cv",
                    reason: "planned coefficient of variation must be positive and finite",
                });
            }
        }
        Ok(())
    }
}

/// The estimator's verdict after one more node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Nodes accepted so far.
    pub n: u64,
    /// Current relative accuracy (half-width / mean), when computable —
    /// `None` while too few nodes have arrived to evaluate the rule.
    pub relative_accuracy: Option<f64>,
    /// Whether the rule says the campaign may stop.
    pub stop: bool,
}

/// Per-fleet Welford state driving a [`StoppingRule`].
#[derive(Debug, Clone)]
pub struct SequentialEstimator {
    rule: StoppingRule,
    fleet: Summary,
    stopped_at: Option<u64>,
}

impl SequentialEstimator {
    /// Creates an estimator for a validated rule.
    pub fn new(rule: StoppingRule) -> Result<Self> {
        rule.validate()?;
        Ok(SequentialEstimator {
            rule,
            fleet: Summary::new(),
            stopped_at: None,
        })
    }

    /// The rule in force.
    pub fn rule(&self) -> &StoppingRule {
        &self.rule
    }

    /// Nodes accepted so far.
    pub fn count(&self) -> u64 {
        self.fleet.count()
    }

    /// Running fleet mean in watts.
    pub fn mean(&self) -> f64 {
        self.fleet.mean()
    }

    /// The node count at which the rule first said stop, if it has.
    pub fn stopped_at(&self) -> Option<u64> {
        self.stopped_at
    }

    /// The fleet summary accumulated so far.
    pub fn summary(&self) -> &Summary {
        &self.fleet
    }

    /// Accepts one node's window-average power and re-evaluates the rule.
    pub fn push(&mut self, node_average_w: f64) -> Decision {
        self.fleet.push(node_average_w);
        let n = self.fleet.count();
        let rel = self.relative_accuracy().ok();
        // A census is exact by definition; the interval arithmetic above
        // agrees (fpc -> 0) whenever it is evaluable at all.
        let satisfied = rel.map(|r| r <= self.rule.lambda).unwrap_or(false);
        let stop = (satisfied && n >= self.rule.min_nodes) || n >= self.rule.population;
        if stop && self.stopped_at.is_none() {
            self.stopped_at = Some(n);
        }
        Decision {
            n,
            relative_accuracy: rel,
            stop,
        }
    }

    /// Current relative accuracy under the rule's quantile and CV
    /// assumption, when computable.
    pub fn relative_accuracy(&self) -> Result<f64> {
        let n = self.fleet.count();
        if n == 0 {
            return Err(TelemetryError::InvalidConfig {
                field: "n",
                reason: "no nodes accepted yet",
            });
        }
        match self.rule.cv {
            CvAssumption::Planned(cv) => {
                let crit = match self.rule.quantile {
                    CiQuantile::Normal => z_critical(self.rule.confidence)?,
                    CiQuantile::StudentT => {
                        if n < 2 {
                            return Err(TelemetryError::Stats(
                                power_stats::StatsError::InsufficientData { needed: 2, got: 1 },
                            ));
                        }
                        t_critical(self.rule.confidence, n as f64 - 1.0)?
                    }
                };
                let fpc = fpc_factor(self.rule.population, n)?;
                Ok(crit * cv / (n as f64).sqrt() * fpc)
            }
            CvAssumption::Empirical => Ok(sequential_relative_accuracy(
                &self.fleet,
                self.rule.confidence,
                self.rule.population,
                matches!(self.rule.quantile, CiQuantile::StudentT),
            )?),
        }
    }

    /// Confidence interval for the fleet mean under the rule's quantile,
    /// with the finite-population correction. Always uses the *empirical*
    /// spread — this is the accuracy statement the campaign reports,
    /// whatever CV assumption drove the stopping decision.
    pub fn ci(&self) -> Result<ConfidenceInterval> {
        Ok(match self.rule.quantile {
            CiQuantile::StudentT => {
                mean_ci_t_finite(&self.fleet, self.rule.confidence, self.rule.population)?
            }
            CiQuantile::Normal => {
                mean_ci_z_finite(&self.fleet, self.rule.confidence, self.rule.population)?
            }
        })
    }
}

/// Replays journaled `(node, window average)` pairs into a fresh
/// estimator for `rule` — the one validator both campaign runtimes
/// resume through. Refused with [`TelemetryError::Journal`]: more than
/// `budget` nodes, a node at position `i` other than `expected(i)` (the
/// selection order), or any node after the stopping decision. The
/// estimator's `stopped_at` says whether the rule fired in the replay.
pub fn replay_nodes(
    rule: StoppingRule,
    nodes: &[(u64, f64)],
    budget: u64,
    expected: impl Fn(usize) -> u64,
) -> Result<SequentialEstimator> {
    if nodes.len() as u64 > budget {
        return Err(TelemetryError::Journal(format!(
            "journal holds {} nodes but the campaign can meter at most {budget}",
            nodes.len()
        )));
    }
    let mut estimator = SequentialEstimator::new(rule)?;
    for (i, &(node, average)) in nodes.iter().enumerate() {
        if let Some(n) = estimator.stopped_at() {
            return Err(TelemetryError::Journal(format!(
                "journal records nodes past the stopping decision (rule fired at n = {n})"
            )));
        }
        let want = expected(i);
        if node != want {
            return Err(TelemetryError::Journal(format!(
                "journal node {node} at position {i} breaks metering order (expected {want})"
            )));
        }
        estimator.push(average);
    }
    Ok(estimator)
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::{seeded, StandardNormal};
    use power_stats::SampleSizePlan;
    use rand::Rng;

    fn rule(lambda: f64, cv: f64) -> StoppingRule {
        StoppingRule {
            confidence: 0.95,
            lambda,
            population: 10_000,
            quantile: CiQuantile::Normal,
            cv: CvAssumption::Planned(cv),
            min_nodes: 1,
        }
    }

    #[test]
    fn validation_rejects_bad_rules() {
        assert!(StoppingRule {
            confidence: 1.0,
            ..rule(0.01, 0.02)
        }
        .validate()
        .is_err());
        assert!(StoppingRule {
            lambda: 0.0,
            ..rule(0.01, 0.02)
        }
        .validate()
        .is_err());
        assert!(StoppingRule {
            population: 1,
            ..rule(0.01, 0.02)
        }
        .validate()
        .is_err());
        assert!(StoppingRule {
            cv: CvAssumption::Planned(-0.1),
            ..rule(0.01, 0.02)
        }
        .validate()
        .is_err());
        assert!(rule(0.01, 0.02).validate().is_ok());
    }

    #[test]
    fn planned_normal_rule_reproduces_required_nodes_exactly() {
        // The sequential inequality and the closed-form sample size are
        // the same formula; the stop must land on required_nodes for
        // every Table 5 cell.
        for &lambda in &[0.005, 0.01, 0.015, 0.02] {
            for &cv in &[0.02, 0.03, 0.05] {
                let plan = SampleSizePlan::new(0.95, lambda, cv).unwrap();
                let want = plan.required_nodes(10_000).unwrap();
                let mut est = SequentialEstimator::new(rule(lambda, cv)).unwrap();
                let mut stopped = None;
                for _ in 0..10_000u64 {
                    let d = est.push(400.0);
                    if d.stop {
                        stopped = Some(d.n);
                        break;
                    }
                }
                assert_eq!(stopped, Some(want), "lambda={lambda} cv={cv}");
                assert_eq!(est.stopped_at(), Some(want));
            }
        }
    }

    #[test]
    fn empirical_rule_stops_near_plan_when_cv_matches() {
        // Fleet with true cv = 3%: the empirical rule should stop within
        // a modest factor of the planned n (sampling noise moves it).
        let plan = SampleSizePlan::new(0.95, 0.01, 0.03).unwrap();
        let want = plan.required_nodes(10_000).unwrap();
        let mut est = SequentialEstimator::new(StoppingRule {
            cv: CvAssumption::Empirical,
            min_nodes: 8,
            ..rule(0.01, 0.03)
        })
        .unwrap();
        let mut rng = seeded(42);
        let mut gauss = StandardNormal::new();
        let mut stopped = None;
        for _ in 0..10_000u64 {
            let w = 400.0 * (1.0 + 0.03 * gauss.sample(&mut rng));
            let d = est.push(w);
            if d.stop {
                stopped = Some(d.n);
                break;
            }
        }
        let n = stopped.expect("must stop before census");
        assert!(
            n >= want / 3 && n <= want * 3,
            "stopped at {n}, plan said {want}"
        );
        // The reported CI honours the stop: empirical accuracy <= lambda.
        let ci = est.ci().unwrap();
        assert!(ci.relative_accuracy().unwrap() <= 0.0101);
    }

    #[test]
    fn student_t_is_more_conservative_than_normal_at_small_n() {
        let mk = |quantile| {
            SequentialEstimator::new(StoppingRule {
                quantile,
                ..rule(0.01, 0.02)
            })
            .unwrap()
        };
        let mut t = mk(CiQuantile::StudentT);
        let mut z = mk(CiQuantile::Normal);
        for _ in 0..5 {
            t.push(400.0);
            z.push(400.0);
        }
        let rt = t.relative_accuracy().unwrap();
        let rz = z.relative_accuracy().unwrap();
        assert!(rt > rz, "t {rt} must exceed z {rz} at n=5");
        // At one node the t rule cannot evaluate yet and must not stop.
        let mut t1 = mk(CiQuantile::StudentT);
        let d = t1.push(400.0);
        assert_eq!(d.relative_accuracy, None);
        assert!(!d.stop);
    }

    #[test]
    fn census_always_stops() {
        let mut est = SequentialEstimator::new(StoppingRule {
            population: 5,
            cv: CvAssumption::Empirical,
            min_nodes: 1,
            ..rule(1e-9, 0.02)
        })
        .unwrap();
        let mut rng = seeded(7);
        let mut last = Decision {
            n: 0,
            relative_accuracy: None,
            stop: false,
        };
        for _ in 0..5 {
            last = est.push(300.0 + rng.random::<f64>());
        }
        assert!(last.stop, "census of 5/5 must stop: {last:?}");
        assert_eq!(last.n, 5);
    }

    #[test]
    fn min_nodes_floor_is_honoured() {
        let mut est = SequentialEstimator::new(StoppingRule {
            min_nodes: 30,
            ..rule(0.02, 0.02)
        })
        .unwrap();
        // Planned rule would stop at n = 4 (Table 5); floor holds it to 30.
        let mut stopped = None;
        for _ in 0..100 {
            let d = est.push(400.0);
            if d.stop {
                stopped = Some(d.n);
                break;
            }
        }
        assert_eq!(stopped, Some(30));
    }

    #[test]
    fn replay_validates_order_budget_and_stop() {
        // The planned rule stops at n = 4 (Table 5: λ = 2%, σ/μ = 2%).
        let order = [7u64, 3, 5, 1, 2];
        let nodes: Vec<_> = order.iter().map(|&n| (n, 400.0)).collect();
        let replay =
            |n: usize, budget| replay_nodes(rule(0.02, 0.02), &nodes[..n], budget, |i| order[i]);
        assert_eq!(replay(3, 10).unwrap().stopped_at(), None);
        assert_eq!(replay(4, 10).unwrap().stopped_at(), Some(4));
        for refused in [
            replay(5, 10),
            replay(3, 2),
            replay_nodes(rule(0.02, 0.02), &nodes, 10, |i| i as u64),
        ] {
            assert!(
                matches!(refused, Err(TelemetryError::Journal(_))),
                "{refused:?}"
            );
        }
    }
}
