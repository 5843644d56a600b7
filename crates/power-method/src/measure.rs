//! Executing a measurement plan against a simulated machine.
//!
//! [`measure`] is the end-to-end pipeline a submitting site runs: pick the
//! node subset the fraction rule demands, attach instruments, run the
//! workload, average the meters over the timing rule's window(s),
//! extrapolate linearly to the full machine, and compute FLOPS/W from the
//! benchmark's core-phase performance. Every paper experiment about
//! methodology quality is a comparison between [`Measurement`]s produced
//! under different plans.

use crate::extrapolate::{extrapolate, ExtrapolationReport};
use crate::level::{Granularity, Methodology};
use crate::subsystems::SubsystemOverheads;
use crate::{MethodError, Result};
use power_meter::campaign::Campaign;
use power_meter::device::{IntegratingMeter, MeterModel};
use power_meter::reading::Reading;
use power_sim::cluster::Cluster;
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator};
use power_sim::store::TraceStore;
use power_stats::rng::substream;
use power_stats::sampling::sample_without_replacement;
use power_workload::{LoadBalance, Workload};

/// How the metered node subset is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelection {
    /// Uniformly at random without replacement — the honest choice the
    /// paper's statistics assume.
    Random,
    /// The first `n` nodes by index (racks near the meters; common in
    /// practice, fine for homogeneous balanced loads).
    FirstN,
    /// The `n` nodes with the lowest VID silicon — the paper's Section 5
    /// cherry-picking exploit.
    LowestVid,
    /// Proportional draws from `racks` contiguous strata — how a site
    /// with one PDU meter per rack samples, and the honest answer to
    /// position-dependent effects like machine-room ambient gradients.
    StratifiedByRack {
        /// Number of contiguous racks to stratify over.
        racks: usize,
    },
}

/// Where a Level 1 short window is placed inside its legal range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowPlacement {
    /// Earliest legal position.
    Earliest,
    /// Centered.
    Middle,
    /// Latest legal position.
    Latest,
    /// Arbitrary position in `[0, 1]` of the legal range.
    Fraction(f64),
}

impl WindowPlacement {
    /// The placement as a fraction of the legal range.
    pub fn fraction(&self) -> f64 {
        match *self {
            WindowPlacement::Earliest => 0.0,
            WindowPlacement::Middle => 0.5,
            WindowPlacement::Latest => 1.0,
            WindowPlacement::Fraction(f) => f.clamp(0.0, 1.0),
        }
    }
}

/// A complete measurement plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasurementPlan {
    /// Which methodology variant to follow.
    pub methodology: Methodology,
    /// Instrument class to deploy.
    pub meter_model: MeterModel,
    /// Node-subset selection strategy.
    pub selection: NodeSelection,
    /// Short-window placement (ignored by full-coverage rules).
    pub placement: WindowPlacement,
    /// Non-compute subsystem power participating in the run; how much of
    /// it reaches the reported number depends on the methodology's
    /// subsystem rule (Aspect 3).
    pub overheads: SubsystemOverheads,
    /// Relative error bound of a Level 2 subsystem *estimate*.
    pub overhead_estimate_error: f64,
    /// Seed for node selection and instrument instantiation.
    pub seed: u64,
}

impl MeasurementPlan {
    /// An honest plan at the given methodology: random selection, middle
    /// placement, PDU-grade meters.
    pub fn honest(methodology: Methodology, seed: u64) -> Self {
        MeasurementPlan {
            methodology,
            meter_model: MeterModel::pdu_grade(),
            selection: NodeSelection::Random,
            placement: WindowPlacement::Middle,
            overheads: SubsystemOverheads::none(),
            overhead_estimate_error: 0.10,
            seed,
        }
    }

    /// Sets the machine's subsystem overheads.
    pub fn with_overheads(mut self, overheads: SubsystemOverheads) -> Self {
        self.overheads = overheads;
        self
    }
}

/// The outcome of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Methodology followed.
    pub methodology: Methodology,
    /// Machine size.
    pub total_nodes: usize,
    /// Metered node ids.
    pub metered_nodes: Vec<usize>,
    /// Measurement windows used (run-time seconds).
    pub windows: Vec<(f64, f64)>,
    /// Average power of the metered subset over the windows (watts).
    pub subset_power_w: f64,
    /// Subsystem overhead power included in the report (watts): zero for
    /// compute-only rules, the (possibly estimated) interconnect/storage/
    /// infrastructure total otherwise.
    pub overhead_w: f64,
    /// Reported full-system power: linear compute extrapolation plus the
    /// accounted overheads (watts).
    pub reported_power_w: f64,
    /// Per-node average powers over the windows (watts).
    pub per_node_w: Vec<f64>,
    /// Benchmark performance: flops retired per second over the core
    /// phase (0 if the workload reports no flop count).
    pub rmax_flops: f64,
    /// The accuracy assessment the paper recommends submitting.
    pub assessment: Option<ExtrapolationReport>,
}

impl Measurement {
    /// Reported energy efficiency in FLOPS/W (the Green500 metric).
    pub fn flops_per_watt(&self) -> f64 {
        if self.reported_power_w > 0.0 {
            self.rmax_flops / self.reported_power_w
        } else {
            0.0
        }
    }

    /// Fraction of the machine that was metered.
    pub fn machine_fraction(&self) -> f64 {
        self.metered_nodes.len() as f64 / self.total_nodes as f64
    }
}

/// Executes `plan` for `workload` running on `cluster`, caching simulation
/// sweeps in the process-wide [`TraceStore::global`].
///
/// `sim_config.dt` should divide the meter's sampling interval reasonably
/// (the meter resamples the simulated trace at its own rate).
pub fn measure(
    cluster: &Cluster,
    workload: &dyn Workload,
    balance: LoadBalance,
    sim_config: SimulationConfig,
    plan: &MeasurementPlan,
) -> Result<Measurement> {
    measure_with_store(
        TraceStore::global(),
        cluster,
        workload,
        balance,
        sim_config,
        plan,
    )
}

/// [`measure`] against a caller-supplied [`TraceStore`].
///
/// Servers and tests that need isolated cache accounting (hit/miss/
/// coalescing counters, an LRU bound) pass their own store; `measure`
/// delegates here with the global one.
pub fn measure_with_store(
    store: &TraceStore,
    cluster: &Cluster,
    workload: &dyn Workload,
    balance: LoadBalance,
    sim_config: SimulationConfig,
    plan: &MeasurementPlan,
) -> Result<Measurement> {
    let spec = plan.methodology.spec();
    let total = cluster.len();
    let phases = workload.phases();

    // Estimate per-node power for the fraction rule from a steady-state
    // probe of node 0 at mid-core utilization (a site would use nameplate
    // data or a pilot here).
    let mid_t = phases.core_start() + 0.5 * phases.core();
    let probe_u = workload.utilization(0, mid_t);
    let probe = cluster.node_power(0, mid_t, probe_u, 60.0)?;
    let n_required = spec.fraction.required_nodes(total, probe.wall_w)?;

    // Select the subset.
    let mut nodes: Vec<usize> = match plan.selection {
        NodeSelection::Random => {
            let mut rng = substream(plan.seed, 0x5E1);
            sample_without_replacement(&mut rng, total, n_required).map_err(MethodError::Stats)?
        }
        NodeSelection::FirstN => (0..n_required).collect(),
        NodeSelection::LowestVid => cluster
            .nodes_by_vid()
            .into_iter()
            .take(n_required)
            .collect(),
        NodeSelection::StratifiedByRack { racks } => {
            let racks = racks.clamp(1, total);
            let base = total / racks;
            let extra = total % racks;
            let sizes: Vec<usize> = (0..racks).map(|k| base + usize::from(k < extra)).collect();
            let mut rng = substream(plan.seed, 0x57A7);
            power_stats::sampling::stratified_sample(&mut rng, &sizes, n_required)
                .map_err(MethodError::Stats)?
        }
    };
    nodes.sort_unstable();

    // Simulate the metered subset — through the store, so repeated plans
    // over the same (machine, workload, config, subset) reuse one sweep
    // (window-placement scans hit this path hundreds of times).
    let sim = Simulator::new(cluster, workload, balance, sim_config)?;
    let products = store.products(&sim, &ProductRequest::subset_only(&nodes))?;
    let trace = products
        .subset_trace(MeterScope::Wall)
        .expect("subset was requested");

    // Windows from the timing rule.
    let windows = spec.timing.windows(&phases, plan.placement.fraction())?;

    // Meter the subset over each window and average.
    let mut per_window_aggregates = Vec::with_capacity(windows.len());
    let mut per_node_acc = vec![0.0f64; nodes.len()];
    match spec.granularity {
        Granularity::OneSamplePerSecond => {
            let campaign = Campaign::new(&nodes, plan.meter_model, plan.seed ^ 0xCA11)?;
            for &(from, to) in &windows {
                let result = campaign.run(trace, from, to, plan.seed ^ 0x0B5E)?;
                per_window_aggregates.push(result.aggregate.average_w);
                for (acc, r) in per_node_acc.iter_mut().zip(&result.readings) {
                    *acc += r.average_w;
                }
            }
        }
        Granularity::IntegratedEnergy => {
            // Level 3: continuously integrating meters, one per node.
            for &(from, to) in &windows {
                let mut readings = Vec::with_capacity(nodes.len());
                for (k, series) in trace.samples.iter().enumerate() {
                    let mut rng = substream(plan.seed ^ 0x17E6, k as u64);
                    let meter = IntegratingMeter::new(&mut rng, plan.meter_model.accuracy_class)?;
                    readings.push(meter.measure(series, trace.t0, trace.dt, from, to)?);
                }
                let agg = Reading::sum(&readings).expect("non-empty subset");
                per_window_aggregates.push(agg.average_w);
                for (acc, r) in per_node_acc.iter_mut().zip(&readings) {
                    *acc += r.average_w;
                }
            }
        }
    }
    let n_windows = windows.len() as f64;
    let subset_power = per_window_aggregates.iter().sum::<f64>() / n_windows;
    let per_node_w: Vec<f64> = per_node_acc.iter().map(|a| a / n_windows).collect();

    plan.overheads.validate()?;
    let overhead_w = plan.overheads.accounted_w(
        spec.subsystems,
        total,
        plan.overhead_estimate_error,
        plan.seed,
    );
    let reported = subset_power * total as f64 / nodes.len() as f64 + overhead_w;
    let rmax = if workload.total_flops() > 0.0 {
        workload.total_flops() / phases.core()
    } else {
        0.0
    };
    let assessment = if per_node_w.len() >= 2 {
        Some(extrapolate(&per_node_w, total, 0.95)?)
    } else {
        None
    };

    Ok(Measurement {
        methodology: plan.methodology,
        total_nodes: total,
        metered_nodes: nodes,
        windows,
        subset_power_w: subset_power,
        overhead_w,
        reported_power_w: reported,
        per_node_w,
        rmax_flops: rmax,
        assessment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_sim::systems;
    use power_sim::Cluster;

    fn sim_config() -> SimulationConfig {
        SimulationConfig {
            dt: 10.0,
            noise_sigma: 0.01,
            common_noise_sigma: 0.002,
            seed: 77,
            threads: 4,
        }
    }

    fn lcsc_setup() -> (Cluster, systems::SystemPreset) {
        let preset = systems::lcsc();
        let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        (cluster, preset)
    }

    #[test]
    fn level1_measurement_runs_end_to_end() {
        let (cluster, preset) = lcsc_setup();
        let plan = MeasurementPlan::honest(Methodology::Level1, 1);
        let m = measure(
            &cluster,
            preset.workload.workload(),
            preset.balance,
            sim_config(),
            &plan,
        )
        .unwrap();
        assert_eq!(m.total_nodes, 160);
        // L1 on 160 nodes at ~370 W: 1/64 -> 3 nodes, but 2 kW floor -> 6.
        assert!(m.metered_nodes.len() >= 3, "{}", m.metered_nodes.len());
        assert_eq!(m.windows.len(), 1);
        // Reported power in the right ballpark (tens of kW).
        assert!(
            (40_000.0..80_000.0).contains(&m.reported_power_w),
            "reported {}",
            m.reported_power_w
        );
        assert!(m.flops_per_watt() > 0.0);
        assert!(m.assessment.is_some());
    }

    #[test]
    fn window_placement_changes_level1_result_on_gpu_system() {
        let (cluster, preset) = lcsc_setup();
        let wl = preset.workload.workload();
        let early = measure(
            &cluster,
            wl,
            preset.balance,
            sim_config(),
            &MeasurementPlan {
                placement: WindowPlacement::Earliest,
                ..MeasurementPlan::honest(Methodology::Level1, 1)
            },
        )
        .unwrap();
        let late = measure(
            &cluster,
            wl,
            preset.balance,
            sim_config(),
            &MeasurementPlan {
                placement: WindowPlacement::Latest,
                ..MeasurementPlan::honest(Methodology::Level1, 1)
            },
        )
        .unwrap();
        // Section 3: placement is worth double-digit percent on L-CSC.
        let swing = (early.reported_power_w - late.reported_power_w) / early.reported_power_w;
        assert!(swing > 0.10, "swing = {swing:.3}");
        // And the reported *efficiency* moves the other way.
        assert!(late.flops_per_watt() > early.flops_per_watt());
    }

    #[test]
    fn revised_methodology_is_placement_invariant() {
        let (cluster, preset) = lcsc_setup();
        let wl = preset.workload.workload();
        let a = measure(
            &cluster,
            wl,
            preset.balance,
            sim_config(),
            &MeasurementPlan {
                placement: WindowPlacement::Earliest,
                ..MeasurementPlan::honest(Methodology::Revised, 1)
            },
        )
        .unwrap();
        let b = measure(
            &cluster,
            wl,
            preset.balance,
            sim_config(),
            &MeasurementPlan {
                placement: WindowPlacement::Latest,
                ..MeasurementPlan::honest(Methodology::Revised, 1)
            },
        )
        .unwrap();
        assert_eq!(a.reported_power_w, b.reported_power_w);
        // Revised rule on 160 nodes: max(16, 16) = 16 nodes.
        assert_eq!(a.metered_nodes.len(), 16);
    }

    #[test]
    fn level3_meters_everything() {
        let (cluster, preset) = lcsc_setup();
        let m = measure(
            &cluster,
            preset.workload.workload(),
            preset.balance,
            sim_config(),
            &MeasurementPlan::honest(Methodology::Level3, 2),
        )
        .unwrap();
        assert_eq!(m.metered_nodes.len(), 160);
        assert_eq!(m.machine_fraction(), 1.0);
        // Full census: assessment collapses to ~zero width.
        assert!(m.assessment.unwrap().relative_accuracy < 1e-9);
    }

    #[test]
    fn selection_strategies_differ() {
        let (cluster, preset) = lcsc_setup();
        let wl = preset.workload.workload();
        let base = MeasurementPlan::honest(Methodology::Revised, 3);
        let random = measure(&cluster, wl, preset.balance, sim_config(), &base).unwrap();
        let cherry = measure(
            &cluster,
            wl,
            preset.balance,
            sim_config(),
            &MeasurementPlan {
                selection: NodeSelection::LowestVid,
                ..base
            },
        )
        .unwrap();
        assert_ne!(random.metered_nodes, cherry.metered_nodes);
        let first = measure(
            &cluster,
            wl,
            preset.balance,
            sim_config(),
            &MeasurementPlan {
                selection: NodeSelection::FirstN,
                ..base
            },
        )
        .unwrap();
        assert_eq!(first.metered_nodes, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn stratified_selection_covers_all_racks() {
        let (cluster, preset) = lcsc_setup();
        let m = measure(
            &cluster,
            preset.workload.workload(),
            preset.balance,
            sim_config(),
            &MeasurementPlan {
                selection: NodeSelection::StratifiedByRack { racks: 8 },
                ..MeasurementPlan::honest(Methodology::Revised, 13)
            },
        )
        .unwrap();
        // 16 nodes over 8 racks of 20: exactly 2 per rack.
        assert_eq!(m.metered_nodes.len(), 16);
        for rack in 0..8 {
            let in_rack = m
                .metered_nodes
                .iter()
                .filter(|&&n| n >= rack * 20 && n < (rack + 1) * 20)
                .count();
            assert_eq!(in_rack, 2, "rack {rack}");
        }
    }

    #[test]
    fn stratified_selection_unbiased_under_ambient_gradient() {
        // Under a cold-to-hot aisle gradient, stratified rack coverage
        // represents every thermal zone; FirstN reads only the cold end
        // and understates power.
        let mut spec = power_sim::systems::tu_dresden().cluster_spec;
        spec.ambient_gradient_c = 12.0;
        spec.node.thermal.tau_s = 60.0;
        let cluster = Cluster::build(spec).unwrap();
        let preset = power_sim::systems::tu_dresden();
        let wl = preset.workload.workload();
        let run = |selection| {
            measure(
                &cluster,
                wl,
                preset.balance,
                sim_config(),
                &MeasurementPlan {
                    selection,
                    ..MeasurementPlan::honest(Methodology::Revised, 17)
                },
            )
            .unwrap()
        };
        // Level 3 census as ground truth.
        let truth = measure(
            &cluster,
            wl,
            preset.balance,
            sim_config(),
            &MeasurementPlan::honest(Methodology::Level3, 17),
        )
        .unwrap()
        .reported_power_w;
        let strat = run(NodeSelection::StratifiedByRack { racks: 7 });
        let first = run(NodeSelection::FirstN);
        let err = |m: &Measurement| (m.reported_power_w - truth).abs() / truth;
        assert!(
            err(&strat) < err(&first) + 0.005,
            "stratified {:.4} vs FirstN {:.4}",
            err(&strat),
            err(&first)
        );
        // FirstN is biased low (cold end).
        assert!(first.reported_power_w < truth);
    }

    #[test]
    fn overheads_accounted_by_subsystem_rule() {
        use crate::subsystems::SubsystemOverheads;
        // A flat workload (FIRESTARTER) so the timing window reads the
        // same power at every level and Aspect 3 is isolated.
        let preset = power_sim::systems::tu_dresden();
        let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        let wl = preset.workload.workload();
        let overheads = SubsystemOverheads::typical_cluster(210);
        let truth = overheads.total_w(210);

        let run = |methodology| {
            measure(
                &cluster,
                wl,
                preset.balance,
                sim_config(),
                &MeasurementPlan::honest(methodology, 9).with_overheads(overheads),
            )
            .unwrap()
        };
        let l1 = run(Methodology::Level1);
        let l2 = run(Methodology::Level2);
        let l3 = run(Methodology::Level3);
        // L1 hides the overheads entirely.
        assert_eq!(l1.overhead_w, 0.0);
        // L2 estimates them within the configured error bound.
        assert!((l2.overhead_w - truth).abs() <= truth * 0.10 + 1e-9);
        assert!(l2.overhead_w > 0.0);
        // L3 measures them exactly.
        assert!((l3.overhead_w - truth).abs() < 1e-9);
        // Consequence: the compute-only L1 number understates power (and
        // so overstates efficiency) by roughly the overhead share.
        let gap = l3.reported_power_w - l1.reported_power_w;
        assert!(
            gap > 0.7 * truth && gap < 1.3 * truth + 0.05 * l3.reported_power_w,
            "power gap {gap:.0} W vs overheads {truth:.0} W"
        );
    }

    #[test]
    fn placement_fraction_clamps() {
        assert_eq!(WindowPlacement::Fraction(2.0).fraction(), 1.0);
        assert_eq!(WindowPlacement::Fraction(-1.0).fraction(), 0.0);
        assert_eq!(WindowPlacement::Middle.fraction(), 0.5);
    }
}
