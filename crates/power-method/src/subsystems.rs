//! Subsystem coverage (Aspect 3): interconnect, storage and
//! infrastructure power.
//!
//! Level 1 measures *compute nodes only*; Levels 2 and 3 must include
//! "all participating subsystems" — estimated (L2) or measured (L3). The
//! paper (citing Scogland et al., ICPE '14) notes that the lower levels
//! "can significantly overstate a system's energy efficiency" partly for
//! this reason: the network fabric, burst storage and infrastructure nodes
//! that cannot be switched off draw real power that a compute-only number
//! hides. [`SubsystemOverheads`] models those draws and how each level
//! accounts for them.

use power_stats::rng::substream;
use rand::Rng;

use crate::level::SubsystemRule;
use crate::{MethodError, Result};

/// Non-compute power participating in a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubsystemOverheads {
    /// Interconnect power attributable to each compute node (its share of
    /// the switches and links), in watts.
    pub interconnect_w_per_node: f64,
    /// Storage power participating in the run (machine-wide), in watts.
    pub storage_w: f64,
    /// Infrastructure that cannot be switched off for the run (head
    /// nodes, management, I/O forwarders), machine-wide watts.
    pub infrastructure_w: f64,
}

impl SubsystemOverheads {
    /// No overheads (a pure compute measurement).
    pub fn none() -> Self {
        SubsystemOverheads {
            interconnect_w_per_node: 0.0,
            storage_w: 0.0,
            infrastructure_w: 0.0,
        }
    }

    /// Typical shares for a fat-tree InfiniBand cluster: ~8 W of switch
    /// power per node, a modest storage partition and a head-node rack.
    pub fn typical_cluster(total_nodes: usize) -> Self {
        SubsystemOverheads {
            interconnect_w_per_node: 8.0,
            storage_w: 0.004 * total_nodes as f64 * 400.0,
            infrastructure_w: 2_000.0 + 0.5 * total_nodes as f64,
        }
    }

    /// Validates the overhead values.
    pub fn validate(&self) -> Result<()> {
        for (field, v) in [
            ("interconnect_w_per_node", self.interconnect_w_per_node),
            ("storage_w", self.storage_w),
            ("infrastructure_w", self.infrastructure_w),
        ] {
            if !(v >= 0.0 && v.is_finite()) {
                return Err(MethodError::InvalidConfig {
                    field,
                    reason: "overhead watts must be non-negative and finite",
                });
            }
        }
        Ok(())
    }

    /// True total overhead power for a machine of `total_nodes` nodes.
    pub fn total_w(&self, total_nodes: usize) -> f64 {
        self.interconnect_w_per_node * total_nodes as f64 + self.storage_w + self.infrastructure_w
    }

    /// The overhead power a methodology level reports:
    ///
    /// * compute-only rules report 0;
    /// * "measured or estimated" (Level 2) reports the true total with a
    ///   deterministic estimation error drawn within `±estimate_error`;
    /// * "measured" (Level 3) reports the true total.
    pub fn accounted_w(
        &self,
        rule: SubsystemRule,
        total_nodes: usize,
        estimate_error: f64,
        seed: u64,
    ) -> f64 {
        match rule {
            SubsystemRule::ComputeNodesOnly => 0.0,
            SubsystemRule::AllParticipatingMeasuredOrEstimated => {
                let mut rng = substream(seed, 0x0E57);
                let err = estimate_error.clamp(0.0, 0.9) * (rng.random::<f64>() * 2.0 - 1.0);
                self.total_w(total_nodes) * (1.0 + err)
            }
            SubsystemRule::AllParticipatingMeasured => self.total_w(total_nodes),
        }
    }

    /// The relative efficiency overstatement of a compute-only number on
    /// a machine whose compute power is `compute_w`:
    /// `eff_compute / eff_total - 1 = overheads / compute`.
    pub fn efficiency_overstatement(&self, total_nodes: usize, compute_w: f64) -> Result<f64> {
        if !(compute_w > 0.0) {
            return Err(MethodError::InvalidConfig {
                field: "compute_w",
                reason: "compute power must be positive",
            });
        }
        Ok(self.total_w(total_nodes) / compute_w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_scale_with_machine() {
        let o = SubsystemOverheads::typical_cluster(1000);
        assert!(o.total_w(1000) > 0.0);
        let small = SubsystemOverheads::typical_cluster(100);
        assert!(o.total_w(1000) > small.total_w(100));
        assert_eq!(SubsystemOverheads::none().total_w(10_000), 0.0);
    }

    #[test]
    fn accounting_by_rule() {
        let o = SubsystemOverheads {
            interconnect_w_per_node: 10.0,
            storage_w: 1_000.0,
            infrastructure_w: 500.0,
        };
        let truth = o.total_w(100); // 1000 + 1000 + 500 = 2500
        assert_eq!(truth, 2_500.0);
        assert_eq!(
            o.accounted_w(SubsystemRule::ComputeNodesOnly, 100, 0.1, 1),
            0.0
        );
        assert_eq!(
            o.accounted_w(SubsystemRule::AllParticipatingMeasured, 100, 0.1, 1),
            truth
        );
        let est = o.accounted_w(
            SubsystemRule::AllParticipatingMeasuredOrEstimated,
            100,
            0.10,
            1,
        );
        assert!((est - truth).abs() <= truth * 0.10 + 1e-9);
        assert_ne!(est, truth);
        // Deterministic in the seed.
        let est2 = o.accounted_w(
            SubsystemRule::AllParticipatingMeasuredOrEstimated,
            100,
            0.10,
            1,
        );
        assert_eq!(est, est2);
    }

    #[test]
    fn overstatement_formula() {
        let o = SubsystemOverheads {
            interconnect_w_per_node: 8.0,
            storage_w: 0.0,
            infrastructure_w: 0.0,
        };
        // 8 W/node over 400 W/node compute = 2%.
        let over = o.efficiency_overstatement(160, 160.0 * 400.0).unwrap();
        assert!((over - 0.02).abs() < 1e-12);
        assert!(o.efficiency_overstatement(160, 0.0).is_err());
    }

    #[test]
    fn validation() {
        assert!(SubsystemOverheads::none().validate().is_ok());
        let bad = SubsystemOverheads {
            interconnect_w_per_node: -1.0,
            storage_w: 0.0,
            infrastructure_w: 0.0,
        };
        assert!(bad.validate().is_err());
        let bad = SubsystemOverheads {
            interconnect_w_per_node: 0.0,
            storage_w: f64::NAN,
            infrastructure_w: 0.0,
        };
        assert!(bad.validate().is_err());
    }
}
