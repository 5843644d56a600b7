//! Gaming the methodology — the paper's adversarial analyses.
//!
//! Three documented exploits:
//!
//! * **Optimal interval** (Section 3): with Level 1's 20% window, pick the
//!   window where power is lowest. TSUBAME-KFC gained 10.9% this way on
//!   the November 2013 list; Rohr et al. showed L-CSC could have gained
//!   23.9%. [`optimal_interval`] runs the scan.
//! * **DVFS-phase timing** (Section 3): DVFS is explicitly allowed; if the
//!   measurement window can be placed where the governor selects its
//!   lowest voltages, the high-power phases are never seen.
//!   [`dvfs_gaming_schedule`] constructs the colluding governor.
//! * **VID cherry-picking** (Section 5): "by measuring only nodes with low
//!   VID, it is possible to obtain a favorably biased efficiency result."
//!   [`vid_bias`] quantifies the bias.

use crate::window::TimingRule;
use crate::{MethodError, Result};
use power_sim::cluster::Cluster;
use power_sim::dvfs::{Governor, PState};
use power_sim::trace::SystemTrace;
use power_workload::RunPhases;

/// The outcome of an optimal-interval scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalScan {
    /// Average power over the full core phase (the honest number), watts.
    pub honest_w: f64,
    /// The legal window with the lowest average power.
    pub best_window: (f64, f64),
    /// Average power over that window, watts.
    pub best_w: f64,
    /// The legal window with the highest average power.
    pub worst_window: (f64, f64),
    /// Average power over that window, watts.
    pub worst_w: f64,
    /// Number of placements scanned.
    pub placements: usize,
}

impl IntervalScan {
    /// Relative power reduction from choosing the optimal interval:
    /// `1 - best/honest`. This is the paper's "10.9%" / "23.9%" number
    /// (equal to the relative efficiency overstatement).
    pub fn gaming_gain(&self) -> f64 {
        1.0 - self.best_w / self.honest_w
    }

    /// Spread between two honest-but-unlucky submitters:
    /// `(worst - best) / honest`. This is the ">20% between measurements
    /// of the same system" problem.
    pub fn measurement_spread(&self) -> f64 {
        (self.worst_w - self.best_w) / self.honest_w
    }
}

/// Scans every legal placement of `rule`'s window over a system trace and
/// reports the best and worst cases.
///
/// Each placement is an O(1) prefix-sum window query on the trace (the
/// first query builds the cumulative array), so the scan costs
/// O(samples + placements) rather than O(samples × placements) — dense
/// scans over long traces are cheap.
pub fn optimal_interval(
    trace: &SystemTrace,
    phases: &RunPhases,
    rule: &TimingRule,
    placements: usize,
) -> Result<IntervalScan> {
    if placements < 2 {
        return Err(MethodError::InvalidConfig {
            field: "placements",
            reason: "at least two placements are required for a scan",
        });
    }
    let honest = trace
        .window_average(phases.core_start(), phases.core_end())
        .map_err(MethodError::Sim)?;
    let mut best: Option<((f64, f64), f64)> = None;
    let mut worst: Option<((f64, f64), f64)> = None;
    let scan = rule.placements(placements);
    for &p in &scan {
        let windows = rule.windows(phases, p)?;
        // Average over the rule's windows (single window for L1).
        let mut acc = 0.0;
        for &(a, b) in &windows {
            acc += trace.window_average(a, b).map_err(MethodError::Sim)?;
        }
        let avg = acc / windows.len() as f64;
        let w = windows[0];
        if best.is_none_or(|(_, b)| avg < b) {
            best = Some((w, avg));
        }
        if worst.is_none_or(|(_, b)| avg > b) {
            worst = Some((w, avg));
        }
    }
    let (best_window, best_w) = best.expect("at least one placement");
    let (worst_window, worst_w) = worst.expect("at least one placement");
    Ok(IntervalScan {
        honest_w: honest,
        best_window,
        best_w,
        worst_window,
        worst_w,
        placements: scan.len(),
    })
}

/// Scans a window of `frac` of the core phase over the *whole* core phase
/// (no middle-80% restriction) — the search the TSUBAME-KFC / L-CSC
/// numbers refer to.
pub fn unrestricted_interval(
    trace: &SystemTrace,
    phases: &RunPhases,
    frac: f64,
    placements: usize,
) -> Result<IntervalScan> {
    if placements < 2 {
        return Err(MethodError::InvalidConfig {
            field: "placements",
            reason: "at least two placements are required for a scan",
        });
    }
    if !(frac > 0.0 && frac <= 1.0) {
        return Err(MethodError::InvalidConfig {
            field: "frac",
            reason: "window fraction must be in (0, 1]",
        });
    }
    let honest = trace
        .window_average(phases.core_start(), phases.core_end())
        .map_err(MethodError::Sim)?;
    let len = frac * phases.core();
    let latest = phases.core_end() - len;
    let mut best = ((0.0, 0.0), f64::INFINITY);
    let mut worst = ((0.0, 0.0), f64::NEG_INFINITY);
    for k in 0..placements {
        let start = phases.core_start()
            + (latest - phases.core_start()) * k as f64 / (placements - 1) as f64;
        let avg = trace
            .window_average(start, start + len)
            .map_err(MethodError::Sim)?;
        if avg < best.1 {
            best = ((start, start + len), avg);
        }
        if avg > worst.1 {
            worst = ((start, start + len), avg);
        }
    }
    Ok(IntervalScan {
        honest_w: honest,
        best_window: best.0,
        best_w: best.1,
        worst_window: worst.0,
        worst_w: worst.1,
        placements,
    })
}

/// The bias from metering only low-VID nodes instead of a fair sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VidBias {
    /// Mean steady-state power of the `n` lowest-VID nodes, watts.
    pub cherry_picked_w: f64,
    /// Mean steady-state power over the whole machine, watts.
    pub fair_w: f64,
    /// Relative understatement of power: `1 - cherry/fair`.
    pub bias: f64,
    /// Sample size used.
    pub n: usize,
}

/// Quantifies the VID cherry-picking bias on `cluster` at full load.
///
/// The bias only exists when the governor honours VIDs (at fixed voltage
/// the paper found efficiency "unrelated to the VID").
pub fn vid_bias(cluster: &Cluster, n: usize, temp_c: f64) -> Result<VidBias> {
    let total = cluster.len();
    if n == 0 || n > total {
        return Err(MethodError::InvalidConfig {
            field: "n",
            reason: "sample size must be in 1..=total_nodes",
        });
    }
    let order = cluster.nodes_by_vid();
    let mut cherry = 0.0;
    for &node in order.iter().take(n) {
        cherry += cluster.node_power(node, 0.0, 1.0, temp_c)?.wall_w;
    }
    let cherry = cherry / n as f64;
    let mut fair = 0.0;
    for node in 0..total {
        fair += cluster.node_power(node, 0.0, 1.0, temp_c)?.wall_w;
    }
    let fair = fair / total as f64;
    Ok(VidBias {
        cherry_picked_w: cherry,
        fair_w: fair,
        bias: 1.0 - cherry / fair,
        n,
    })
}

/// Builds a governor that colludes with a short measurement window: it
/// runs the `efficient` operating point inside `[window.0, window.1)` and
/// the `fast` point elsewhere, so a Level 1 measurement placed on the
/// window sees only the low-power phase while performance benefits from
/// the fast phase for most of the run.
pub fn dvfs_gaming_schedule(fast: PState, efficient: PState, window: (f64, f64)) -> Governor {
    Governor::Schedule(vec![
        (f64::NEG_INFINITY, fast),
        (window.0, efficient),
        (window.1, fast),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_sim::engine::{MeterScope, SimulationConfig, Simulator};
    use power_sim::systems;
    use power_sim::vid::VoltagePolicy;
    use power_sim::Cluster;

    fn sim_config(dt: f64) -> SimulationConfig {
        SimulationConfig {
            dt,
            noise_sigma: 0.005,
            common_noise_sigma: 0.002,
            seed: 5,
            threads: 4,
        }
    }

    fn lcsc_trace() -> (SystemTrace, RunPhases) {
        let preset = systems::lcsc();
        let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        let wl = preset.workload.workload();
        let sim = Simulator::new(&cluster, wl, preset.balance, sim_config(20.0)).unwrap();
        (sim.system_trace(MeterScope::Wall).unwrap(), wl.phases())
    }

    #[test]
    fn lcsc_interval_gaming_matches_paper_scale() {
        let (trace, phases) = lcsc_trace();
        let scan = optimal_interval(&trace, &phases, &TimingRule::level1(), 101).unwrap();
        // Rohr et al.: 23.9% efficiency improvement by tweaking the time
        // interval (their scan was not limited to the middle 80%; within
        // it we still expect a double-digit gain).
        let gain = scan.gaming_gain();
        assert!(gain > 0.10, "gain = {gain:.3}");
        // The best window sits late in the run, where power tails off.
        assert!(scan.best_window.0 > phases.core_start() + 0.5 * phases.core());
        // And the submitter-luck spread exceeds 20% (Section 1).
        assert!(
            scan.measurement_spread() > 0.15,
            "{}",
            scan.measurement_spread()
        );
    }

    #[test]
    fn colosse_is_essentially_ungameable() {
        let preset = systems::colosse().with_total_nodes(96);
        let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        let wl = preset.workload.workload();
        let sim = Simulator::new(&cluster, wl, preset.balance, sim_config(60.0)).unwrap();
        let trace = sim.system_trace(MeterScope::Wall).unwrap();
        let scan = optimal_interval(&trace, &wl.phases(), &TimingRule::level1(), 101).unwrap();
        assert!(
            scan.gaming_gain() < 0.01,
            "flat CPU run should not be gameable: {}",
            scan.gaming_gain()
        );
    }

    #[test]
    fn full_core_rule_cannot_be_gamed() {
        let (trace, phases) = lcsc_trace();
        let scan = optimal_interval(&trace, &phases, &TimingRule::FullCore, 50).unwrap();
        // One placement only; best == worst == honest.
        assert!((scan.gaming_gain()).abs() < 1e-9);
        assert!(scan.measurement_spread().abs() < 1e-9);
    }

    #[test]
    fn vid_cherry_picking_biases_low() {
        // Build an L-CSC case-study machine where the governor honours
        // VIDs (the regime the exploit needs).
        let cs = systems::LcscCaseStudy::new();
        let mut spec = cs.cluster_spec.clone();
        spec.governor = cs.default_governor.clone();
        let cluster = Cluster::build(spec).unwrap();
        let bias = vid_bias(&cluster, 16, 60.0).unwrap();
        assert!(
            bias.bias > 0.005,
            "low-VID nodes should draw measurably less: {}",
            bias.bias
        );
        assert!(bias.cherry_picked_w < bias.fair_w);
    }

    #[test]
    fn vid_bias_vanishes_at_fixed_voltage() {
        let cs = systems::LcscCaseStudy::new();
        let cluster = Cluster::build(cs.cluster_spec.clone()).unwrap(); // tuned (fixed V)
        let bias = vid_bias(&cluster, 16, 60.0).unwrap();
        // The paper's observation: at fixed voltage, efficiency is
        // unrelated to VID — only residual node spread remains.
        assert!(
            bias.bias.abs() < 0.01,
            "fixed-voltage VID bias should be negligible: {}",
            bias.bias
        );
    }

    #[test]
    fn dvfs_schedule_collusion() {
        let fast = PState {
            f_mhz: 900.0,
            voltage: VoltagePolicy::Fixed(1.15),
        };
        let eff = PState {
            f_mhz: 600.0,
            voltage: VoltagePolicy::Fixed(0.95),
        };
        let g = dvfs_gaming_schedule(fast, eff, (1000.0, 2000.0));
        assert_eq!(g.pstate(500.0, 1.0).f_mhz, 900.0);
        assert_eq!(g.pstate(1500.0, 1.0).f_mhz, 600.0);
        assert_eq!(g.pstate(2500.0, 1.0).f_mhz, 900.0);
        g.validate().unwrap();
    }

    #[test]
    fn unrestricted_scan_beats_restricted() {
        let (trace, phases) = lcsc_trace();
        let restricted = optimal_interval(&trace, &phases, &TimingRule::level1(), 101).unwrap();
        let open = unrestricted_interval(&trace, &phases, 0.2, 101).unwrap();
        // Without the middle-80% restriction the adversary can reach at
        // least as deep into the power tail.
        assert!(open.best_w <= restricted.best_w + 1e-9);
        assert!(open.gaming_gain() >= restricted.gaming_gain() - 1e-9);
        assert!((open.honest_w - restricted.honest_w).abs() < 1e-9);
    }

    #[test]
    fn scan_input_validation() {
        let (trace, phases) = lcsc_trace();
        assert!(optimal_interval(&trace, &phases, &TimingRule::level1(), 1).is_err());
        assert!(unrestricted_interval(&trace, &phases, 0.2, 1).is_err());
        assert!(unrestricted_interval(&trace, &phases, 0.0, 10).is_err());
        assert!(unrestricted_interval(&trace, &phases, 1.5, 10).is_err());
        let cs = systems::LcscCaseStudy::new();
        let cluster = Cluster::build(cs.cluster_spec.clone()).unwrap();
        assert!(vid_bias(&cluster, 0, 60.0).is_err());
        assert!(vid_bias(&cluster, 10_000, 60.0).is_err());
    }
}
