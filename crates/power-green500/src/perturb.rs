//! Rank stability under measurement variability.
//!
//! Monte-Carlo analysis: redraw every measured entry's power with the
//! relative spread its methodology admits (e.g. ±10% half-spread for a
//! short-window Level 1 measurement of a GPU system, per Section 3), re-rank,
//! and tabulate how often the published ranking survives. This quantifies
//! the paper's Section 1 claim that Level 1's window freedom can reorder
//! the top of the list.

use crate::list::{ListEntry, PowerSource, RankedList};
use crate::{ListError, Result};
use power_stats::rng::substream;
use rand::Rng;

/// Configuration of a rank-stability study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbConfig {
    /// Relative half-spread of measured power numbers (uniform in
    /// `[-s, +s]`). Derived entries are held fixed.
    pub measured_spread: f64,
    /// Monte-Carlo replications.
    pub replications: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Result of a rank-stability study.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStability {
    /// Probability that the published #1 stays #1.
    pub top1_retention: f64,
    /// Probability that the published top-3 set is unchanged (as a set).
    pub top3_set_retention: f64,
    /// Probability that the published top-3 *order* is unchanged.
    pub top3_order_retention: f64,
    /// Mean absolute rank displacement across all entries.
    pub mean_displacement: f64,
    /// Replications performed.
    pub replications: usize,
}

/// Runs the study on a published list.
pub fn rank_stability(list: &RankedList, cfg: &PerturbConfig) -> Result<RankStability> {
    if cfg.replications == 0 {
        return Err(ListError::InvalidParameter("replications must be positive"));
    }
    if !(cfg.measured_spread >= 0.0 && cfg.measured_spread < 1.0) {
        return Err(ListError::InvalidParameter(
            "measured_spread must lie in [0, 1)",
        ));
    }
    let published = list.entries();
    let n = published.len();
    let top3: Vec<&str> = published
        .iter()
        .take(3)
        .map(|e| e.system.as_str())
        .collect();

    let mut top1_hits = 0usize;
    let mut set_hits = 0usize;
    let mut order_hits = 0usize;
    let mut displacement_sum = 0.0f64;

    for rep in 0..cfg.replications {
        let mut rng = substream(cfg.seed, rep as u64);
        let perturbed: Vec<ListEntry> = published
            .iter()
            .map(|e| {
                let mut e = e.clone();
                if matches!(e.source, PowerSource::Measured(_)) {
                    let f = 1.0 + cfg.measured_spread * (rng.random::<f64>() * 2.0 - 1.0);
                    e.power_w *= f;
                }
                e
            })
            .collect();
        let reranked = RankedList::new(perturbed).expect("non-empty");
        if reranked.entries()[0].system == published[0].system {
            top1_hits += 1;
        }
        let new_top3: Vec<&str> = reranked
            .entries()
            .iter()
            .take(3)
            .map(|e| e.system.as_str())
            .collect();
        if new_top3 == top3 {
            order_hits += 1;
        }
        if top3.iter().all(|s| new_top3.contains(s)) {
            set_hits += 1;
        }
        for (old_rank0, e) in published.iter().enumerate() {
            let new_rank0 = reranked
                .rank_of(&e.system)
                .expect("system still on the list")
                - 1;
            displacement_sum += (new_rank0 as f64 - old_rank0 as f64).abs();
        }
    }
    let reps = cfg.replications as f64;
    Ok(RankStability {
        top1_retention: top1_hits as f64 / reps,
        top3_set_retention: set_hits as f64 / reps,
        top3_order_retention: order_hits as f64 / reps,
        mean_displacement: displacement_sum / (reps * n as f64),
        replications: cfg.replications,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::november_2014_top;

    fn list() -> RankedList {
        RankedList::new(november_2014_top()).unwrap()
    }

    #[test]
    fn zero_spread_is_perfectly_stable() {
        let s = rank_stability(
            &list(),
            &PerturbConfig {
                measured_spread: 0.0,
                replications: 100,
                seed: 1,
            },
        )
        .unwrap();
        assert_eq!(s.top1_retention, 1.0);
        assert_eq!(s.top3_order_retention, 1.0);
        assert_eq!(s.mean_displacement, 0.0);
    }

    #[test]
    fn paper_motivation_20pct_spread_reorders_top3() {
        // With the >20% Level 1 spread of Section 3, the Nov 2014 top-3
        // (within 20% of each other) is NOT stable.
        let s = rank_stability(
            &list(),
            &PerturbConfig {
                measured_spread: 0.20,
                replications: 5_000,
                seed: 2,
            },
        )
        .unwrap();
        assert!(
            s.top3_order_retention < 0.8,
            "order retention = {}",
            s.top3_order_retention
        );
        assert!(s.top1_retention < 0.95, "top1 = {}", s.top1_retention);
        assert!(s.mean_displacement > 0.0);
    }

    #[test]
    fn tighter_methodology_more_stable() {
        let loose = rank_stability(
            &list(),
            &PerturbConfig {
                measured_spread: 0.20,
                replications: 3_000,
                seed: 3,
            },
        )
        .unwrap();
        // The revised methodology's ~1-2% assessment-backed accuracy.
        let tight = rank_stability(
            &list(),
            &PerturbConfig {
                measured_spread: 0.02,
                replications: 3_000,
                seed: 3,
            },
        )
        .unwrap();
        assert!(tight.top1_retention > loose.top1_retention);
        assert!(tight.top3_order_retention > loose.top3_order_retention);
        assert!(tight.mean_displacement < loose.mean_displacement);
        // At 2% spread the top-3 gaps (>= ~6%) are safe.
        assert!(tight.top3_order_retention > 0.95);
    }

    #[test]
    fn derived_entries_never_move_alone() {
        // With only derived entries perturbation does nothing.
        let entries: Vec<ListEntry> = november_2014_top()
            .into_iter()
            .filter(|e| matches!(e.source, crate::list::PowerSource::Derived))
            .collect();
        let l = RankedList::new(entries).unwrap();
        let s = rank_stability(
            &l,
            &PerturbConfig {
                measured_spread: 0.3,
                replications: 200,
                seed: 4,
            },
        )
        .unwrap();
        assert_eq!(s.top1_retention, 1.0);
        assert_eq!(s.mean_displacement, 0.0);
    }

    #[test]
    fn config_validation() {
        let l = list();
        assert!(rank_stability(
            &l,
            &PerturbConfig {
                measured_spread: 1.5,
                replications: 10,
                seed: 0
            }
        )
        .is_err());
        assert!(rank_stability(
            &l,
            &PerturbConfig {
                measured_spread: 0.1,
                replications: 0,
                seed: 0
            }
        )
        .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = PerturbConfig {
            measured_spread: 0.15,
            replications: 500,
            seed: 9,
        };
        let a = rank_stability(&list(), &cfg).unwrap();
        let b = rank_stability(&list(), &cfg).unwrap();
        assert_eq!(a, b);
    }
}
