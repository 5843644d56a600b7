//! Synthetic full-list generation.
//!
//! The paper's Section 1 gives the November 2014 Green500's composition:
//! of 267 submitted measurements, **233 were derived** from vendor
//! specifications, **28 were Level 1**, and **only 6 used a higher
//! level**. [`synthesize_nov2014`] generates a full list with exactly that
//! provenance mix and a realistic efficiency distribution (a top tier of
//! accelerator systems within ~20% of each other, decaying toward a long
//! CPU tail), so list-level analyses (rank stability, derived-fraction
//! statistics, level-mix policies) can run at true scale.

use crate::list::{ListEntry, PowerSource, RankedList};
use crate::Result;
use power_method::level::Methodology;
use power_stats::rng::{substream, ziggurat};
use rand::Rng;

/// Composition of a synthesized list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListComposition {
    /// Entries whose power is derived from vendor data.
    pub derived: usize,
    /// Entries measured at Level 1.
    pub level1: usize,
    /// Entries measured at Level 2 or 3.
    pub higher: usize,
}

impl ListComposition {
    /// The November 2014 Green500 composition from the paper.
    pub fn november_2014() -> Self {
        ListComposition {
            derived: 233,
            level1: 28,
            higher: 6,
        }
    }

    /// Total entries.
    pub fn total(&self) -> usize {
        self.derived + self.level1 + self.higher
    }
}

/// Generates a full synthetic list with the given composition.
///
/// Efficiencies follow a decaying profile from ~5.3 GFLOPS/W at rank 1
/// (the L-CSC class) through a heavy mid-field around 1–2 GFLOPS/W, with
/// measured systems biased toward the efficient end (sites measure when
/// they have something to show — and the real top-3 were all Level 1).
pub fn synthesize(composition: ListComposition, seed: u64) -> Result<RankedList> {
    let n = composition.total();
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let mut rng = substream(seed, i as u64);
        // Rank-profile efficiency: ~5.3 at the top decaying to ~0.3 at
        // the tail, with multiplicative scatter.
        let frac = i as f64 / (n - 1).max(1) as f64;
        let base_gflops_w = 5.3 * (-2.8 * frac).exp() + 0.25;
        let scatter = (0.08 * ziggurat(&mut rng)).exp();
        let gflops_w = base_gflops_w * scatter;
        // Rmax spans hundreds of TF to tens of PF, log-uniformly.
        let rmax_tf = 10.0f64.powf(2.0 + 2.3 * rng.random::<f64>());
        // Provenance: measured entries concentrate near the top.
        let source = if i < composition.higher {
            PowerSource::Measured(if i % 3 == 0 {
                Methodology::Level3
            } else {
                Methodology::Level2
            })
        } else if i < composition.higher + composition.level1 {
            PowerSource::Measured(Methodology::Level1)
        } else {
            PowerSource::Derived
        };
        entries.push(ListEntry {
            system: format!("system-{i:03}"),
            rmax_flops: rmax_tf * 1e12,
            power_w: rmax_tf * 1e12 / (gflops_w * 1e9),
            source,
        });
    }
    RankedList::new(entries)
}

/// Convenience: the paper's November 2014 composition.
pub fn synthesize_nov2014(seed: u64) -> Result<RankedList> {
    synthesize(ListComposition::november_2014(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composition_matches_paper() {
        let c = ListComposition::november_2014();
        assert_eq!(c.total(), 267);
        assert_eq!(c.derived, 233);
        assert_eq!(c.level1, 28);
        assert_eq!(c.higher, 6);
    }

    #[test]
    fn synthesized_list_has_paper_provenance_mix() {
        let list = synthesize_nov2014(1).unwrap();
        assert_eq!(list.len(), 267);
        // 233/267 derived, as the paper reports.
        assert!((list.derived_fraction() - 233.0 / 267.0).abs() < 1e-12);
        let l1 = list
            .entries()
            .iter()
            .filter(|e| e.source == PowerSource::Measured(Methodology::Level1))
            .count();
        assert_eq!(l1, 28);
    }

    #[test]
    fn efficiency_profile_is_plausible() {
        let list = synthesize_nov2014(2).unwrap();
        let top = list.entries()[0].gflops_per_watt();
        let mid = list.entries()[133].gflops_per_watt();
        let last = list.entries()[266].gflops_per_watt();
        assert!((4.0..7.0).contains(&top), "top = {top}");
        assert!(mid < top && last < mid);
        assert!(last > 0.1, "last = {last}");
        // The real-list motivation: #1 over #3 less than 20%.
        let adv = list.advantage(1, 3).unwrap();
        assert!(adv < 0.35, "advantage = {adv}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = synthesize_nov2014(7).unwrap();
        let b = synthesize_nov2014(7).unwrap();
        assert_eq!(a, b);
        let c = synthesize_nov2014(8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn full_list_rank_stability_runs() {
        use crate::perturb::{rank_stability, PerturbConfig};
        let list = synthesize_nov2014(3).unwrap();
        let s = rank_stability(
            &list,
            &PerturbConfig {
                measured_spread: 0.20,
                replications: 300,
                seed: 4,
            },
        )
        .unwrap();
        // Only measured entries move; most of the list is derived and
        // fixed, so displacement stays small but non-zero.
        assert!(s.mean_displacement > 0.0);
        assert!(s.mean_displacement < 5.0);
    }
}
