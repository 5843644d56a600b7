//! Machine-fraction rules: how many nodes must be metered.
//!
//! Aspect 2 of the methodology (paper Table 1), plus the paper's revision:
//!
//! * **Level 1** — the greater of 1/64 of the compute subsystem or enough
//!   nodes to aggregate 2 kW;
//! * **Level 2** — the greater of 1/8 or 10 kW;
//! * **Level 3** — every node;
//! * **Revised** — `max(16 nodes, 10% of nodes)`: the paper's concluding
//!   recommendation, derived from the Section 4 statistics so that the
//!   extrapolation reaches ~1% accuracy at 95% confidence even at one
//!   level more variability (sigma/mu up to ~5%) than observed.

use crate::{MethodError, Result};

/// A machine-fraction rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FractionRule {
    /// A minimum fraction of nodes plus a minimum aggregate power floor.
    FractionWithPowerFloor {
        /// Minimum fraction of the compute nodes (e.g. 1/64).
        min_fraction: f64,
        /// Minimum aggregate measured power in watts (e.g. 2000).
        min_power_w: f64,
    },
    /// Every compute node (Level 3).
    All,
    /// The revised rule: at least `min_nodes`, or `min_fraction` of the
    /// machine, whichever is greater.
    NodesOrFraction {
        /// Absolute node floor (16 in the paper's recommendation).
        min_nodes: usize,
        /// Fractional floor (10% in the paper's recommendation).
        min_fraction: f64,
    },
}

impl FractionRule {
    /// The Level 1 rule: max(1/64 of nodes, 2 kW).
    pub fn level1() -> Self {
        FractionRule::FractionWithPowerFloor {
            min_fraction: 1.0 / 64.0,
            min_power_w: 2_000.0,
        }
    }

    /// The Level 2 rule: max(1/8 of nodes, 10 kW).
    pub fn level2() -> Self {
        FractionRule::FractionWithPowerFloor {
            min_fraction: 1.0 / 8.0,
            min_power_w: 10_000.0,
        }
    }

    /// The paper's revised rule: max(16 nodes, 10% of nodes).
    pub fn revised() -> Self {
        FractionRule::NodesOrFraction {
            min_nodes: 16,
            min_fraction: 0.10,
        }
    }

    /// Minimum number of nodes to meter on a machine of `total_nodes`
    /// whose nodes draw about `est_node_power_w` each.
    pub fn required_nodes(&self, total_nodes: usize, est_node_power_w: f64) -> Result<usize> {
        if total_nodes == 0 {
            return Err(MethodError::InvalidConfig {
                field: "total_nodes",
                reason: "machine must have at least one node",
            });
        }
        match *self {
            FractionRule::FractionWithPowerFloor {
                min_fraction,
                min_power_w,
            } => {
                if !(est_node_power_w > 0.0) {
                    return Err(MethodError::InvalidConfig {
                        field: "est_node_power_w",
                        reason: "node power estimate must be positive",
                    });
                }
                let by_fraction = (total_nodes as f64 * min_fraction).ceil() as usize;
                let by_power = (min_power_w / est_node_power_w).ceil() as usize;
                Ok(by_fraction.max(by_power).max(1).min(total_nodes))
            }
            FractionRule::All => Ok(total_nodes),
            FractionRule::NodesOrFraction {
                min_nodes,
                min_fraction,
            } => {
                let by_fraction = (total_nodes as f64 * min_fraction).ceil() as usize;
                Ok(min_nodes.max(by_fraction).max(1).min(total_nodes))
            }
        }
    }

    /// Whether `metered` nodes with `aggregate_power_w` satisfies the rule
    /// on a machine of `total_nodes`.
    pub fn is_satisfied(&self, total_nodes: usize, metered: usize, aggregate_power_w: f64) -> bool {
        match *self {
            FractionRule::FractionWithPowerFloor {
                min_fraction,
                min_power_w,
            } => {
                let frac_ok = metered as f64 >= (total_nodes as f64 * min_fraction).ceil();
                let power_ok = aggregate_power_w >= min_power_w;
                // The rule is "the greater of": both floors must be met,
                // except a full census always satisfies it.
                (frac_ok && power_ok) || metered == total_nodes
            }
            FractionRule::All => metered == total_nodes,
            FractionRule::NodesOrFraction {
                min_nodes,
                min_fraction,
            } => {
                metered == total_nodes
                    || (metered >= min_nodes
                        && metered as f64 >= (total_nodes as f64 * min_fraction).ceil())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level1_paper_worked_examples() {
        // Section 4 intro: 210 nodes -> "at least 4 nodes"; 18688 -> 292.
        // (The paper's illustration considers the 1/64 fraction alone; use
        // 600 W nodes so the 2 kW floor does not dominate at n = 4.)
        let rule = FractionRule::level1();
        assert_eq!(rule.required_nodes(210, 600.0).unwrap(), 4);
        assert_eq!(rule.required_nodes(18_688, 600.0).unwrap(), 292);
    }

    #[test]
    fn level1_power_floor_dominates_for_low_power_nodes() {
        // 90 W nodes: 2 kW floor needs 23 nodes even on a small machine.
        let rule = FractionRule::level1();
        assert_eq!(rule.required_nodes(640, 90.0).unwrap(), 23);
    }

    #[test]
    fn level2_is_eighth_and_10kw() {
        let rule = FractionRule::level2();
        assert_eq!(rule.required_nodes(1024, 400.0).unwrap(), 128);
        // Power floor: 10 kW / 400 W = 25 > 1024/8? No, 128 > 25.
        assert_eq!(rule.required_nodes(64, 400.0).unwrap(), 25);
    }

    #[test]
    fn level3_all_nodes() {
        assert_eq!(FractionRule::All.required_nodes(5000, 1.0).unwrap(), 5000);
        assert!(FractionRule::All.is_satisfied(5000, 5000, 0.0));
        assert!(!FractionRule::All.is_satisfied(5000, 4999, 1e9));
    }

    #[test]
    fn revised_rule_paper_recommendation() {
        // "require that 16 nodes be measured, or 10% of nodes, whichever
        // is larger."
        let rule = FractionRule::revised();
        assert_eq!(rule.required_nodes(100, 400.0).unwrap(), 16);
        assert_eq!(rule.required_nodes(160, 400.0).unwrap(), 16);
        assert_eq!(rule.required_nodes(161, 400.0).unwrap(), 17);
        assert_eq!(rule.required_nodes(10_000, 400.0).unwrap(), 1_000);
        // Tiny machine: census.
        assert_eq!(rule.required_nodes(10, 400.0).unwrap(), 10);
    }

    #[test]
    fn requirement_never_exceeds_machine() {
        for rule in [
            FractionRule::level1(),
            FractionRule::level2(),
            FractionRule::revised(),
            FractionRule::All,
        ] {
            for &n in &[1usize, 3, 64, 1000] {
                let req = rule.required_nodes(n, 50.0).unwrap();
                assert!(req >= 1 && req <= n, "{rule:?} n={n} req={req}");
            }
        }
    }

    #[test]
    fn satisfaction_checks() {
        let l1 = FractionRule::level1();
        // 1024-node machine, 400 W nodes: need 16 nodes AND 2 kW.
        assert!(l1.is_satisfied(1024, 16, 6_400.0));
        assert!(!l1.is_satisfied(1024, 15, 6_000.0)); // below 1/64
        assert!(!l1.is_satisfied(1024, 16, 1_900.0)); // below 2 kW
        assert!(l1.is_satisfied(1024, 1024, 0.0)); // census always ok

        let rev = FractionRule::revised();
        assert!(rev.is_satisfied(100, 16, 0.0));
        assert!(!rev.is_satisfied(100, 15, 1e9));
        assert!(!rev.is_satisfied(1000, 50, 1e9)); // below 10%
        assert!(rev.is_satisfied(1000, 100, 0.0));
    }

    #[test]
    fn invalid_inputs() {
        assert!(FractionRule::level1().required_nodes(0, 400.0).is_err());
        assert!(FractionRule::level1().required_nodes(100, 0.0).is_err());
        assert!(FractionRule::level1().required_nodes(100, -5.0).is_err());
        // Power estimate irrelevant for node-count rules.
        assert!(FractionRule::revised().required_nodes(100, -5.0).is_ok());
    }
}
