//! Power provisioning and capping from node samples.
//!
//! The paper's introduction lists the downstream uses of accurate
//! system-level power characterization: "architectural trending, system
//! modeling (design, selection, upgrade, tuning, analysis), procurement,
//! operational improvements and power capping" — the problem domain of
//! Fan, Weber & Barroso's power-provisioning work that Section 2 cites.
//! This module turns a measured node sample into the two numbers a
//! facility engineer needs:
//!
//! * how much breaker/PDU capacity a machine of `N` such nodes requires
//!   at a given exceedance risk ([`provisioned_capacity_w`]);
//! * how many *extra* nodes the same capacity can host once sampled
//!   statistics replace nameplate worst cases ([`stranded_capacity`]) —
//!   Fan et al.'s headline observation that nameplate provisioning
//!   strands large amounts of capacity.

use power_stats::normal::z_critical;
use power_stats::summary::Summary;

use crate::{MethodError, Result};

/// A provisioning analysis derived from a per-node power sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProvisioningReport {
    /// Sampled mean per-node power (watts).
    pub node_mean_w: f64,
    /// Sampled per-node standard deviation (watts).
    pub node_sigma_w: f64,
    /// Machine size the analysis is for.
    pub total_nodes: usize,
    /// Exceedance probability the capacity is sized for.
    pub exceedance: f64,
    /// Required capacity for the whole machine (watts).
    pub capacity_w: f64,
    /// Capacity a nameplate-based plan would demand (watts).
    pub nameplate_capacity_w: f64,
    /// Fraction of the nameplate capacity that sampling shows is stranded.
    pub stranded_fraction: f64,
}

/// Sizes the capacity a machine of `total_nodes` nodes needs so that
/// total power exceeds it with probability at most `exceedance`, given a
/// per-node sample from the target workload.
///
/// Node powers are independent across nodes for a balanced workload, so
/// the machine total is approximately normal with mean `N mu` and
/// standard deviation `sqrt(N) sigma` — the aggregation effect that makes
/// over-subscription safe at scale.
pub fn provisioned_capacity_w(
    node_sample_w: &[f64],
    total_nodes: usize,
    exceedance: f64,
) -> Result<f64> {
    if node_sample_w.len() < 2 {
        return Err(MethodError::InvalidConfig {
            field: "node_sample_w",
            reason: "at least two sampled nodes are required",
        });
    }
    if total_nodes == 0 {
        return Err(MethodError::InvalidConfig {
            field: "total_nodes",
            reason: "machine must have at least one node",
        });
    }
    if !(exceedance > 0.0 && exceedance < 0.5) {
        return Err(MethodError::InvalidConfig {
            field: "exceedance",
            reason: "exceedance must lie in (0, 0.5)",
        });
    }
    let s = Summary::from_slice(node_sample_w);
    let mu = s.mean();
    let sigma = s.sample_std_dev().map_err(MethodError::Stats)?;
    // One-sided quantile: z_{1-exceedance}.
    let z = z_critical(1.0 - 2.0 * exceedance).map_err(MethodError::Stats)?;
    let n = total_nodes as f64;
    Ok(n * mu + z * n.sqrt() * sigma)
}

/// Full provisioning analysis against a nameplate per-node rating.
pub fn provisioning_report(
    node_sample_w: &[f64],
    total_nodes: usize,
    exceedance: f64,
    nameplate_node_w: f64,
) -> Result<ProvisioningReport> {
    if !(nameplate_node_w > 0.0 && nameplate_node_w.is_finite()) {
        return Err(MethodError::InvalidConfig {
            field: "nameplate_node_w",
            reason: "nameplate rating must be positive",
        });
    }
    let capacity = provisioned_capacity_w(node_sample_w, total_nodes, exceedance)?;
    let s = Summary::from_slice(node_sample_w);
    let nameplate = nameplate_node_w * total_nodes as f64;
    Ok(ProvisioningReport {
        node_mean_w: s.mean(),
        node_sigma_w: s.sample_std_dev().map_err(MethodError::Stats)?,
        total_nodes,
        exceedance,
        capacity_w: capacity,
        nameplate_capacity_w: nameplate,
        stranded_fraction: (1.0 - capacity / nameplate).max(0.0),
    })
}

/// How many additional nodes the nameplate-sized capacity can actually
/// host at the measured statistics and exceedance risk (Fan et al.'s
/// "how many machines fit in the stranded capacity" question). Solved by
/// bisection on the capacity formula.
pub fn stranded_capacity(
    node_sample_w: &[f64],
    total_nodes: usize,
    exceedance: f64,
    nameplate_node_w: f64,
) -> Result<usize> {
    let report = provisioning_report(node_sample_w, total_nodes, exceedance, nameplate_node_w)?;
    let budget = report.nameplate_capacity_w;
    let mut lo = total_nodes;
    let mut hi = total_nodes * 4 + 16;
    // Grow hi until it no longer fits (bounded: mean > 0).
    while provisioned_capacity_w(node_sample_w, hi, exceedance)? <= budget {
        lo = hi;
        hi *= 2;
        if hi > total_nodes * 1024 {
            break;
        }
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if provisioned_capacity_w(node_sample_w, mid, exceedance)? <= budget {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo - total_nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::{normal_draw, seeded};

    fn sample(n: usize, mu: f64, sigma: f64, seed: u64) -> Vec<f64> {
        let mut rng = seeded(seed);
        (0..n).map(|_| normal_draw(&mut rng, mu, sigma)).collect()
    }

    #[test]
    fn capacity_between_mean_and_nameplate() {
        let s = sample(64, 400.0, 8.0, 1);
        let cap = provisioned_capacity_w(&s, 10_000, 0.001).unwrap();
        // Above the expected total...
        assert!(cap > 10_000.0 * 395.0);
        // ...but far below a 500 W nameplate plan.
        assert!(cap < 10_000.0 * 450.0);
    }

    #[test]
    fn aggregation_shrinks_relative_headroom() {
        // The sqrt(N) effect: relative headroom over the mean falls as
        // the machine grows.
        let s = sample(64, 400.0, 8.0, 2);
        let rel = |n: usize| {
            let cap = provisioned_capacity_w(&s, n, 0.001).unwrap();
            let mean = Summary::from_slice(&s).mean() * n as f64;
            cap / mean - 1.0
        };
        assert!(
            rel(100) > 3.0 * rel(10_000),
            "{} vs {}",
            rel(100),
            rel(10_000)
        );
    }

    #[test]
    fn report_quantifies_stranding() {
        // 400 W measured vs 520 W nameplate: ~23% of capacity stranded.
        let s = sample(64, 400.0, 8.0, 3);
        let r = provisioning_report(&s, 10_000, 0.001, 520.0).unwrap();
        assert!(
            (0.15..0.30).contains(&r.stranded_fraction),
            "stranded = {}",
            r.stranded_fraction
        );
        assert!(r.capacity_w < r.nameplate_capacity_w);
    }

    #[test]
    fn stranded_capacity_hosts_more_nodes() {
        let s = sample(64, 400.0, 8.0, 4);
        let extra = stranded_capacity(&s, 10_000, 0.001, 520.0).unwrap();
        // 520/400 = 1.3: ~30% more nodes minus headroom.
        assert!((2_000..3_500).contains(&extra), "extra nodes = {extra}");
        // Sanity: adding them keeps the budget.
        let cap = provisioned_capacity_w(&s, 10_000 + extra, 0.001).unwrap();
        assert!(cap <= 520.0 * 10_000.0 + 1.0);
    }

    #[test]
    fn tighter_risk_needs_more_capacity() {
        let s = sample(64, 400.0, 8.0, 5);
        let loose = provisioned_capacity_w(&s, 1_000, 0.05).unwrap();
        let tight = provisioned_capacity_w(&s, 1_000, 0.001).unwrap();
        assert!(tight > loose);
    }

    #[test]
    fn validation() {
        let s = sample(64, 400.0, 8.0, 6);
        assert!(provisioned_capacity_w(&[400.0], 100, 0.01).is_err());
        assert!(provisioned_capacity_w(&s, 0, 0.01).is_err());
        assert!(provisioned_capacity_w(&s, 100, 0.9).is_err());
        assert!(provisioning_report(&s, 100, 0.01, 0.0).is_err());
    }
}
