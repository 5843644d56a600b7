//! Oracle test for the engine's block kernel.
//!
//! The reference is the plain scalar model written out here, one node at a
//! time: `Cluster::node_power`, then `ThermalState::step`. `run_products`
//! (every product, every scope) must reproduce it bit for bit, whatever
//! the block boundaries, the node count, the subset order or the worker
//! count. Noise draws come from the ziggurat sampler, one stream per node
//! and one for the machine-wide multiplier.
//!
//! The first property draws the paper presets as they are (one `Static`
//! P-state at a fixed voltage, pinned fans). The second swaps in every
//! other governor and fan kind the kernel plans for: `Static` at VID
//! voltages, `OnDemand` with a threshold inside the lanes' utilizations,
//! a `Schedule` that switches inside the run, and automatic fans, on one
//! processor or on two different ones.

use proptest::prelude::*;
use proptest::TestCaseError;

use power_sim::cluster::Cluster;
use power_sim::components::ProcessorSpec;
use power_sim::dvfs::{Governor, PState};
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator, BLOCK_WIDTH};
use power_sim::fan::FanPolicy;
use power_sim::node::NodeSpec;
use power_sim::systems::SystemPreset;
use power_sim::thermal::ThermalState;
use power_sim::vid::{VidTable, VoltagePolicy};
use power_stats::rng::{substream, ziggurat};
use power_workload::{
    Graph500, Hpl, HplVariant, IoPhase, LoadBalance, MPrime, RodiniaCfd, Workload, WorkloadSpec,
};

/// Per-node, per-step `[wall, dc, processors]` watts.
type Series = Vec<Vec<[f64; 3]>>;

/// The clamped utilization of every node at every step, as the scalar
/// model sees it: the workload's value times the balance factor, the
/// machine-wide multiplier and the node's own noise draw.
fn utilizations(
    cluster: &Cluster,
    workload: &dyn Workload,
    balance: LoadBalance,
    cfg: &SimulationConfig,
    nodes: &[usize],
) -> Vec<Vec<f64>> {
    let steps = (workload.phases().total() / cfg.dt).ceil() as usize;
    let mut common = vec![1.0; steps];
    if cfg.common_noise_sigma != 0.0 {
        let mut rng = substream(cfg.seed ^ 0xC0FF_EE00_D00D_F00Du64, u64::MAX);
        for c in &mut common {
            *c = 1.0 + cfg.common_noise_sigma * ziggurat(&mut rng);
        }
    }
    nodes
        .iter()
        .map(|&node| {
            let mut rng = substream(cfg.seed, node as u64);
            let factor = balance.factor(node, cluster.len());
            (0..steps)
                .map(|step| {
                    let t = step as f64 * cfg.dt;
                    let mut u = workload.utilization(node, t) * factor * common[step];
                    if cfg.noise_sigma > 0.0 {
                        u *= 1.0 + cfg.noise_sigma * ziggurat(&mut rng);
                    }
                    u.clamp(0.0, 1.0)
                })
                .collect()
        })
        .collect()
}

/// The scalar model: every node on its own, sample by sample.
fn reference(
    cluster: &Cluster,
    workload: &dyn Workload,
    balance: LoadBalance,
    cfg: &SimulationConfig,
    nodes: &[usize],
) -> Series {
    let utilization = utilizations(cluster, workload, balance, cfg, nodes);
    nodes
        .iter()
        .zip(&utilization)
        .map(|(&node, utilization)| {
            let mut spec = cluster.spec().node.thermal;
            spec.t_ambient_c += cluster.ambient_offset(node);
            let mut thermal = ThermalState::at_ambient(&spec);
            utilization
                .iter()
                .enumerate()
                .map(|(step, &u)| {
                    let t = step as f64 * cfg.dt;
                    let p = cluster.node_power(node, t, u, thermal.temp_c).unwrap();
                    thermal.step(&spec, NodeSpec::heat_w(&p), p.fan_speed, cfg.dt);
                    [p.wall_w, p.dc_w, p.processors_w]
                })
                .collect()
        })
        .collect()
}

/// Whole-machine totals as the engine defines them, for any worker count:
/// each `BLOCK_WIDTH`-node block adds its nodes in node order, then the
/// block partials are added in block order.
fn reference_totals(all: &Series, scope: usize) -> Vec<f64> {
    let steps = all[0].len();
    let mut totals = vec![0.0; steps];
    for block in all.chunks(BLOCK_WIDTH) {
        let mut partial = vec![0.0; steps];
        for node in block {
            for (acc, w) in partial.iter_mut().zip(node) {
                *acc += w[scope];
            }
        }
        for (t, p) in totals.iter_mut().zip(&partial) {
            *t += p;
        }
    }
    totals
}

fn reference_average(node: &[[f64; 3]], dt: f64, (from, to): (f64, f64), scope: usize) -> f64 {
    let (mut weighted, mut weight) = (0.0, 0.0);
    for (step, w) in node.iter().enumerate() {
        let a = step as f64 * dt;
        let overlap = ((a + dt).min(to) - a.max(from)).max(0.0);
        if overlap > 0.0 {
            weight += overlap;
            weighted += w[scope] * overlap;
        }
    }
    weighted / weight
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Node counts around block boundaries, plus non-multiples.
fn node_counts() -> Vec<usize> {
    vec![
        1,
        2,
        BLOCK_WIDTH - 1,
        BLOCK_WIDTH,
        BLOCK_WIDTH + 1,
        2 * BLOCK_WIDTH - 1,
        2 * BLOCK_WIDTH + 1,
        3 * BLOCK_WIDTH + 17,
        45,
    ]
}

/// The preset's own workload, or one of the other workload types over the
/// preset's phases.
fn workload_for(preset: &SystemPreset, pick: usize) -> WorkloadSpec {
    let phases = preset.workload.workload().phases();
    match pick {
        0 => WorkloadSpec::Hpl(Hpl::new(HplVariant::GpuInCore, phases, 1.0e15).unwrap()),
        1 => WorkloadSpec::Hpl(Hpl::new(HplVariant::CpuMainMemory, phases, 1.0e15).unwrap()),
        2 => WorkloadSpec::MPrime(MPrime::new(phases)),
        3 => WorkloadSpec::Rodinia(RodiniaCfd::new(phases)),
        4 => WorkloadSpec::Graph500(Graph500::new(phases)),
        5 => WorkloadSpec::IoPhase(IoPhase::new(phases, 1.0e15).unwrap()),
        _ => preset.workload,
    }
}

fn balance_for(pick: usize) -> LoadBalance {
    match pick {
        0 => LoadBalance::Balanced,
        1 => LoadBalance::Uneven { spread: 0.2 },
        _ => LoadBalance::HotCold {
            hot_fraction: 0.3,
            cold_factor: 0.4,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn run_products_match_scalar_reference(
        preset_pick in 0usize..10,
        workload_pick in 0usize..9,
        count_pick in 0usize..9,
        balance_pick in 0usize..3,
        threads in 1usize..4,
        noisy in prop::bool::ANY,
        gradient in prop::bool::ANY,
        steps_target in 20usize..90,
        seed in 0u64..1_000_000,
        window in (0.0..0.9f64, 0.05..1.2f64),
        subset_raw in prop::collection::vec(0usize..4 * BLOCK_WIDTH, 1..40),
    ) {
        let presets: Vec<SystemPreset> = SystemPreset::trace_presets()
            .into_iter()
            .chain(SystemPreset::variability_presets())
            .collect();
        let n = node_counts()[count_pick];
        let mut preset = presets[preset_pick].clone().with_total_nodes(n);
        if gradient {
            preset.cluster_spec.ambient_gradient_c = 6.0;
        }
        let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        let spec = workload_for(&preset, workload_pick);
        let workload = spec.workload();
        let balance = balance_for(balance_pick);
        let total = workload.phases().total();
        let cfg = SimulationConfig {
            dt: total / steps_target as f64 * 1.0371,
            noise_sigma: if noisy { 0.01 } else { 0.0 },
            common_noise_sigma: if noisy { 0.004 } else { 0.0 },
            seed,
            threads,
        };
        let from = window.0 * total;
        let to = from + window.1 * (total - from);
        check_against_reference(&cluster, workload, balance, &cfg, (from, to), subset_raw)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn run_products_match_scalar_reference_for_every_governor_and_fan(
        preset_pick in 0usize..10,
        workload_pick in 0usize..9,
        count_pick in 0usize..9,
        governor_pick in 0usize..4,
        balance_pick in 0usize..3,
        auto_fans in prop::bool::ANY,
        second_socket in prop::bool::ANY,
        threads in 1usize..4,
        steps_target in 20usize..90,
        seed in 0u64..1_000_000,
        shape in (0.02..0.98f64, 0.05..0.45f64, 0.5..0.9f64),
        subset_raw in prop::collection::vec(0usize..4 * BLOCK_WIDTH, 1..40),
    ) {
        let presets: Vec<SystemPreset> = SystemPreset::trace_presets()
            .into_iter()
            .chain(SystemPreset::variability_presets())
            .collect();
        let n = node_counts()[count_pick];
        let mut preset = presets[preset_pick].clone().with_total_nodes(n);
        preset.cluster_spec.ambient_gradient_c = 4.0;
        let node = &mut preset.cluster_spec.node;
        let first = node.processors[0];
        if second_socket {
            // A different part beside the preset's: its own nominal point,
            // leakage and idle floor, so each processor row of the plan
            // differs.
            node.processors.push(ProcessorSpec {
                dynamic_w: first.dynamic_w * 0.6,
                leakage_w: first.leakage_w * 1.4,
                idle_fraction: 0.2,
                f_nom_mhz: first.f_nom_mhz * 0.75,
                v_nom: first.v_nom * 0.95,
                leakage_temp_coeff: 0.011,
                t_ref_c: 55.0,
            });
        }
        if auto_fans {
            // Presets pin one thermal resistance; spread it so the fan
            // speed moves the die temperature.
            node.thermal.r_th_min = node.thermal.r_th_max * 0.5;
        }
        let t_ambient_c = node.thermal.t_ambient_c;
        let mut cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        if auto_fans {
            cluster = cluster
                .with_fan_policy(FanPolicy::Auto {
                    t_low_c: t_ambient_c + 5.0,
                    t_high_c: t_ambient_c + 45.0,
                })
                .unwrap();
        }
        let spec = workload_for(&preset, workload_pick);
        let workload = spec.workload();
        let balance = balance_for(balance_pick);
        let total = workload.phases().total();
        let cfg = SimulationConfig {
            dt: total / steps_target as f64 * 1.0371,
            noise_sigma: 0.01,
            common_noise_sigma: 0.004,
            seed,
            threads,
        };
        let nominal = pstate(&first, 1.0, false);
        let governor = match governor_pick {
            0 => Governor::Static(pstate(&first, 1.0, true)),
            1 => {
                // A threshold at a quantile of the clamped utilizations
                // the lanes will see, so both P-states are taken.
                let all: Vec<usize> = (0..n).collect();
                let mut u: Vec<f64> = utilizations(&cluster, workload, balance, &cfg, &all)
                    .concat();
                u.sort_by(f64::total_cmp);
                let threshold = u[((u.len() - 1) as f64 * shape.0) as usize];
                Governor::OnDemand {
                    high: nominal,
                    low: pstate(&first, 0.6, true),
                    threshold,
                }
            }
            2 => Governor::Schedule(vec![
                // Before the first switch the first entry applies; three
                // more switches fall inside the run, the last back to the
                // first P-state.
                (shape.0 * 0.05 * total, nominal),
                (shape.1 * total, pstate(&first, 0.7, true)),
                (shape.2 * total, pstate(&first, 0.8, false)),
                ((shape.2 + 0.05) * total, nominal),
            ]),
            _ => cluster.spec().governor.clone(),
        };
        let cluster = cluster.with_governor(governor).unwrap();
        let from = shape.1 * total;
        let to = from + shape.2 * (total - from);
        check_against_reference(&cluster, workload, balance, &cfg, (from, to), subset_raw)?;
    }
}

/// A P-state at `f_scale` of `proc`'s nominal frequency: at a fixed
/// voltage just under nominal, or at each part's VID voltage.
fn pstate(proc: &ProcessorSpec, f_scale: f64, vid: bool) -> PState {
    let voltage = if vid {
        VoltagePolicy::UseVid(VidTable::new(proc.v_nom * 0.97, 0.0125, 6).unwrap())
    } else {
        VoltagePolicy::Fixed(proc.v_nom * 0.98)
    };
    PState {
        f_mhz: proc.f_nom_mhz * f_scale,
        voltage,
    }
}

/// Runs `run_products` (every product) and a subset-only sweep, and checks
/// every scope against the scalar reference bit for bit. `subset_raw` is
/// reduced to distinct node ids in order of first appearance.
fn check_against_reference(
    cluster: &Cluster,
    workload: &dyn Workload,
    balance: LoadBalance,
    cfg: &SimulationConfig,
    (from, to): (f64, f64),
    subset_raw: Vec<usize>,
) -> Result<(), TestCaseError> {
    let n = cluster.len();
    let sim = Simulator::new(cluster, workload, balance, *cfg).unwrap();
    // Distinct ids in arbitrary order.
    let mut subset: Vec<usize> = Vec::new();
    for id in subset_raw.into_iter().map(|id| id % n) {
        if !subset.contains(&id) {
            subset.push(id);
        }
    }

    let all: Vec<usize> = (0..n).collect();
    let want = reference(cluster, workload, balance, cfg, &all);
    let request = ProductRequest::with_averages(from, to).and_subset(&subset);
    let got = sim.run_products(&request).unwrap();
    let subset_only = sim
        .run_products(&ProductRequest::subset_only(&subset))
        .unwrap();
    for scope in MeterScope::ALL {
        let k = scope.index();
        let system = got.system_trace(scope).unwrap();
        prop_assert!(
            same_bits(&system.watts, &reference_totals(&want, k)),
            "system {scope:?} differs"
        );
        let averages = got.node_averages(scope).unwrap();
        for (node, avg) in averages.iter().enumerate() {
            let expect = reference_average(&want[node], cfg.dt, (from, to), k);
            prop_assert_eq!(
                avg.to_bits(),
                expect.to_bits(),
                "average {:?} node {}",
                scope,
                node
            );
        }
        for trace in [
            got.subset_trace(scope).unwrap(),
            subset_only.subset_trace(scope).unwrap(),
        ] {
            prop_assert_eq!(&trace.node_ids, &subset);
            for (row, &node) in trace.samples.iter().zip(&subset) {
                let expect: Vec<f64> = want[node].iter().map(|w| w[k]).collect();
                prop_assert!(
                    same_bits(row, &expect),
                    "subset {scope:?} node {node} differs"
                );
            }
        }
    }
    Ok(())
}

#[test]
fn system_total_is_the_block_ordered_sum_at_any_worker_count() {
    // Written out without the proptest's helper: each step's total is
    // 0.0 plus every block's partial in block order, and each partial is
    // 0.0 plus the block's nodes in node order — at 1, 2 and 8 workers.
    let preset = power_sim::systems::piz_daint().with_total_nodes(3 * BLOCK_WIDTH + 3);
    let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
    let workload = preset.workload.workload();
    let base = SimulationConfig {
        dt: workload.phases().total() / 150.0,
        noise_sigma: 0.01,
        common_noise_sigma: 0.003,
        seed: 11,
        threads: 1,
    };
    let all: Vec<usize> = (0..cluster.len()).collect();
    let want = reference(&cluster, workload, preset.balance, &base, &all);
    let steps = want[0].len();
    for threads in [1, 2, 8] {
        let cfg = SimulationConfig { threads, ..base };
        let sim = Simulator::new(&cluster, workload, preset.balance, cfg).unwrap();
        let got = sim.run_products(&ProductRequest::system_only()).unwrap();
        for scope in MeterScope::ALL {
            let mut totals = vec![0.0; steps];
            for block in want.chunks(BLOCK_WIDTH) {
                let mut partial = vec![0.0; steps];
                for node in block {
                    for (p, w) in partial.iter_mut().zip(node) {
                        *p += w[scope.index()];
                    }
                }
                for (t, p) in totals.iter_mut().zip(&partial) {
                    *t += p;
                }
            }
            assert!(
                same_bits(&got.system_trace(scope).unwrap().watts, &totals),
                "{threads} workers, {scope:?}"
            );
        }
    }
}
