//! Ranked list construction.

use crate::{ListError, Result};
use power_method::level::Methodology;

/// How a list entry's power number was obtained — the paper notes that of
/// 267 submissions on the November 2014 Green500, 233 were *derived* from
/// vendor specifications, 28 were Level 1, and only 6 used a higher level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerSource {
    /// Derived from vendor specifications / extrapolation without
    /// measurement.
    Derived,
    /// Measured under a methodology level.
    Measured(Methodology),
}

/// One system on the list.
#[derive(Debug, Clone, PartialEq)]
pub struct ListEntry {
    /// System name.
    pub system: String,
    /// Sustained performance (flops/s).
    pub rmax_flops: f64,
    /// Reported power (watts).
    pub power_w: f64,
    /// Provenance of the power number.
    pub source: PowerSource,
}

impl ListEntry {
    /// The ranking metric, FLOPS/W.
    pub fn flops_per_watt(&self) -> f64 {
        if self.power_w > 0.0 {
            self.rmax_flops / self.power_w
        } else {
            0.0
        }
    }

    /// GFLOPS/W as printed on the list.
    pub fn gflops_per_watt(&self) -> f64 {
        self.flops_per_watt() / 1e9
    }
}

/// A list ranked by energy efficiency (descending FLOPS/W).
#[derive(Debug, Clone, PartialEq)]
pub struct RankedList {
    entries: Vec<ListEntry>,
}

impl RankedList {
    /// Builds and ranks a list.
    pub fn new(mut entries: Vec<ListEntry>) -> Result<Self> {
        if entries.is_empty() {
            return Err(ListError::Empty);
        }
        entries.sort_by(|a, b| {
            b.flops_per_watt()
                .partial_cmp(&a.flops_per_watt())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        Ok(RankedList { entries })
    }

    /// Entries in rank order (rank 1 first).
    pub fn entries(&self) -> &[ListEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty (never true once built).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rank (1-based) of a system by name.
    pub fn rank_of(&self, system: &str) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.system == system)
            .map(|i| i + 1)
    }

    /// Relative efficiency advantage of rank `a` over rank `b` (1-based):
    /// `eff(a)/eff(b) - 1`. The paper's motivating fact: #1 over #3 was
    /// less than 20% on the Nov 2014 list.
    pub fn advantage(&self, a: usize, b: usize) -> Result<f64> {
        if a == 0 || b == 0 || a > self.entries.len() || b > self.entries.len() {
            return Err(ListError::InvalidParameter("rank out of range"));
        }
        let ea = self.entries[a - 1].flops_per_watt();
        let eb = self.entries[b - 1].flops_per_watt();
        if eb == 0.0 {
            return Err(ListError::InvalidParameter("zero efficiency at rank b"));
        }
        Ok(ea / eb - 1.0)
    }

    /// Fraction of entries whose power is derived rather than measured.
    pub fn derived_fraction(&self) -> f64 {
        let derived = self
            .entries
            .iter()
            .filter(|e| e.source == PowerSource::Derived)
            .count();
        derived as f64 / self.entries.len() as f64
    }
}

/// A synthetic top-of-list modeled on the November 2014 Green500: the top
/// three systems within 20% of each other (L-CSC 5.27, Suiren 4.95,
/// TSUBAME-KFC 4.45 GFLOPS/W), plus a tail of lower-efficiency systems.
pub fn november_2014_top() -> Vec<ListEntry> {
    let mk = |name: &str, gflops_per_w: f64, rmax_tf: f64, source: PowerSource| ListEntry {
        system: name.into(),
        rmax_flops: rmax_tf * 1e12,
        power_w: rmax_tf * 1e12 / (gflops_per_w * 1e9),
        source,
    };
    vec![
        mk(
            "L-CSC",
            5.272,
            0.3165e3,
            PowerSource::Measured(Methodology::Level1),
        ),
        mk(
            "Suiren",
            4.945,
            0.2062e3,
            PowerSource::Measured(Methodology::Level1),
        ),
        mk(
            "TSUBAME-KFC",
            4.447,
            0.1519e3,
            PowerSource::Measured(Methodology::Level1),
        ),
        mk("Storm1", 3.962, 0.0966e3, PowerSource::Derived),
        mk("Wilkes", 3.632, 0.2401e3, PowerSource::Derived),
        mk("iDataPlex", 3.543, 0.1418e3, PowerSource::Derived),
        mk("HA-PACS TCA", 3.518, 0.2772e3, PowerSource::Derived),
        mk(
            "Cartesius Accelerator",
            3.459,
            0.2097e3,
            PowerSource::Derived,
        ),
        mk(
            "Piz Daint",
            3.186,
            6.271e3,
            PowerSource::Measured(Methodology::Level2),
        ),
        mk("Romeo", 3.131, 0.2548e3, PowerSource::Derived),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_orders_by_efficiency() {
        let list = RankedList::new(november_2014_top()).unwrap();
        assert_eq!(list.entries()[0].system, "L-CSC");
        assert_eq!(list.rank_of("TSUBAME-KFC"), Some(3));
        assert_eq!(list.rank_of("nonexistent"), None);
        let effs: Vec<f64> = list.entries().iter().map(|e| e.flops_per_watt()).collect();
        for w in effs.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn paper_motivation_first_over_third_under_20pct() {
        let list = RankedList::new(november_2014_top()).unwrap();
        let adv = list.advantage(1, 3).unwrap();
        assert!(adv > 0.0 && adv < 0.20, "advantage = {adv:.3}");
    }

    #[test]
    fn advantage_errors() {
        let list = RankedList::new(november_2014_top()).unwrap();
        assert!(list.advantage(0, 1).is_err());
        assert!(list.advantage(1, 99).is_err());
    }

    #[test]
    fn derived_fraction() {
        let list = RankedList::new(november_2014_top()).unwrap();
        // 6 of 10 synthetic entries are derived.
        assert!((list.derived_fraction() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn efficiency_metrics() {
        let e = ListEntry {
            system: "x".into(),
            rmax_flops: 1e15,
            power_w: 200_000.0,
            source: PowerSource::Derived,
        };
        assert!((e.gflops_per_watt() - 5.0).abs() < 1e-12);
        let zero = ListEntry { power_w: 0.0, ..e };
        assert_eq!(zero.flops_per_watt(), 0.0);
    }

    #[test]
    fn empty_list_rejected() {
        assert!(RankedList::new(vec![]).is_err());
    }
}
