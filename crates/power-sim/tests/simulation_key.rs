//! The structural simulation key: the store and a caller holding only a
//! preset must compute the same key, and every input that can change a
//! sweep must change it.

use std::collections::HashMap;

use power_sim::cluster::{Cluster, ClusterSpec};
use power_sim::dvfs::{Governor, PState};
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator};
use power_sim::fan::FanPolicy;
use power_sim::store::{simulation_key, TraceStore};
use power_sim::systems::{self, SystemPreset};
use power_sim::vid::{VidTable, VoltagePolicy};
use power_workload::{
    Firestarter, Graph500, Hpl, HplShape, HplVariant, IoPhase, LoadBalance, MPrime, RodiniaCfd,
    RunPhases, Workload,
};

fn config() -> SimulationConfig {
    SimulationConfig {
        dt: 30.0,
        noise_sigma: 0.01,
        common_noise_sigma: 0.004,
        seed: 11,
        threads: 1,
    }
}

/// A store filled through a built `Simulator` must answer a window by
/// the key computed from the preset's parts alone — the router resolves
/// warm windows that way, so any disagreement means no warm key ever
/// hits.
#[test]
fn key_from_parts_matches_the_built_simulator_for_every_catalog_preset() {
    let mut presets = SystemPreset::trace_presets();
    presets.extend(SystemPreset::variability_presets());
    assert_eq!(presets.len(), 10);
    for preset in presets {
        let preset = preset.with_total_nodes(3);
        let total = preset.workload.workload().phases().total();
        let cfg = SimulationConfig {
            dt: (total / 64.0).max(1.0),
            ..config()
        };
        let key = simulation_key(
            &preset.cluster_spec,
            preset.workload.workload(),
            preset.balance,
            &cfg,
        );
        let store = TraceStore::new();
        assert!(
            store
                .window_aggregate_keyed(key, MeterScope::Wall, 0.0, total)
                .is_none(),
            "{}: empty store answered",
            preset.name
        );
        let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        let sim =
            Simulator::new(&cluster, preset.workload.workload(), preset.balance, cfg).unwrap();
        let products = store
            .products(&sim, &ProductRequest::system_only())
            .unwrap();
        let (from, to) = (0.25 * total, 0.75 * total);
        let agg = store
            .window_aggregate_keyed(key, MeterScope::Wall, from, to)
            .unwrap_or_else(|| panic!("{}: key from parts missed the store", preset.name))
            .unwrap();
        let trace = products.system_trace(MeterScope::Wall).unwrap();
        assert_eq!(agg.average_w, trace.window_average(from, to).unwrap());
        assert_eq!(
            store.window_aggregate(&sim, MeterScope::Wall, from, to),
            Some(Ok(agg))
        );
    }
}

/// Archive entries are filed under these keys, so a change that moves
/// one orphans everything archived for that preset. The values are
/// pinned literals: re-keying must be deliberate and update this table.
#[test]
fn catalog_simulation_keys_are_pinned() {
    let pinned: [(&str, u64); 11] = [
        ("Colosse", 0x85b5_f151_9a34_c1a6),
        ("Sequoia-25", 0x62de_c881_0bff_05f3),
        ("Piz Daint", 0xb38b_d8fe_c6a2_1151),
        ("L-CSC", 0xfbbc_12e6_9926_004d),
        ("Calcul Québec", 0xc57b_50e9_f45d_1e3f),
        ("CEA (Fat)", 0xaaa3_44c6_c8f0_47db),
        ("CEA (Thin)", 0x0631_ad6e_b3e4_5e5b),
        ("LRZ", 0x8cce_5673_abf2_8c08),
        ("Titan", 0xef6a_f75d_1727_a420),
        ("TU Dresden", 0x339d_5b5a_30e5_2c35),
        ("Summit", 0xde47_6c3a_86ef_3781),
    ];
    let presets = SystemPreset::all_presets();
    assert_eq!(presets.len(), pinned.len());
    for (p, (name, want)) in presets.iter().zip(pinned) {
        assert_eq!(p.name, name);
        let key = simulation_key(
            &p.cluster_spec,
            p.workload.workload(),
            p.balance,
            &SimulationConfig::one_hertz(7),
        );
        assert_eq!(key, want, "{name}: simulation key {key:#018x} moved");
    }
}

/// Records `key` under `label`, failing if another input already mapped
/// to it.
fn record(seen: &mut HashMap<u64, String>, label: &str, key: u64) {
    if let Some(previous) = seen.insert(key, label.to_string()) {
        panic!("`{label}` and `{previous}` share key {key:#x}");
    }
}

/// A labelled perturbation of one input field.
type Edit<T> = (&'static str, fn(&mut T));

fn gpu_shape() -> HplShape {
    HplShape::for_variant(HplVariant::GpuInCore)
}

fn hpl(shape: HplShape) -> Hpl {
    Hpl::with_shape(
        HplVariant::GpuInCore,
        RunPhases::new(60.0, 3600.0, 60.0).unwrap(),
        1.0e15,
        shape,
    )
    .unwrap()
}

#[test]
fn every_fingerprinted_input_changes_the_key_and_threads_do_not() {
    let base_spec = systems::lcsc().with_total_nodes(6).cluster_spec;
    let base_wl = hpl(gpu_shape());
    let key = |spec: &ClusterSpec,
               wl: &dyn Workload,
               balance: LoadBalance,
               cfg: &SimulationConfig| { simulation_key(spec, wl, balance, cfg) };
    let base = key(&base_spec, &base_wl, LoadBalance::Balanced, &config());
    let mut seen = HashMap::new();
    record(&mut seen, "base", base);

    // Every ClusterSpec field, nested ones included.
    let spec_edits: Vec<Edit<ClusterSpec>> = vec![
        ("name", |s| s.name.push('!')),
        ("total_nodes", |s| s.total_nodes += 1),
        ("ambient_gradient_c", |s| s.ambient_gradient_c += 0.5),
        ("seed", |s| s.seed ^= 1),
        ("processors.len", |s| {
            let p = s.node.processors[0];
            s.node.processors.push(p)
        }),
        ("processor.dynamic_w", |s| {
            s.node.processors[0].dynamic_w += 1.0
        }),
        ("processor.leakage_w", |s| {
            s.node.processors[0].leakage_w += 1.0
        }),
        ("processor.idle_fraction", |s| {
            s.node.processors[0].idle_fraction += 0.01
        }),
        ("processor.f_nom_mhz", |s| {
            s.node.processors[0].f_nom_mhz += 1.0
        }),
        ("processor.v_nom", |s| s.node.processors[0].v_nom += 0.01),
        ("processor.leakage_temp_coeff", |s| {
            s.node.processors[0].leakage_temp_coeff += 0.001
        }),
        ("processor.t_ref_c", |s| s.node.processors[0].t_ref_c += 1.0),
        ("memory.idle_w", |s| s.node.memory.idle_w += 1.0),
        ("memory.active_w", |s| s.node.memory.active_w += 1.0),
        ("static_power.watts", |s| s.node.static_power.watts += 1.0),
        ("fan.max_power_w", |s| s.node.fan.max_power_w += 1.0),
        ("fan.min_speed", |s| s.node.fan.min_speed += 0.01),
        ("thermal.t_ambient_c", |s| s.node.thermal.t_ambient_c += 1.0),
        ("thermal.r_th_max", |s| s.node.thermal.r_th_max += 0.01),
        ("thermal.r_th_min", |s| s.node.thermal.r_th_min += 0.01),
        ("thermal.tau_s", |s| s.node.thermal.tau_s += 1.0),
        ("psu_efficiency", |s| s.node.psu_efficiency -= 0.01),
        ("variability.leakage_sigma", |s| {
            s.variability.leakage_sigma += 0.01
        }),
        ("variability.node_sigma", |s| {
            s.variability.node_sigma += 0.01
        }),
        ("variability.vid_bins", |s| s.variability.vid_bins += 1),
        ("variability.vid_leakage_corr", |s| {
            s.variability.vid_leakage_corr += 0.01
        }),
    ];
    for (label, edit) in spec_edits {
        let mut spec = base_spec.clone();
        edit(&mut spec);
        record(
            &mut seen,
            label,
            key(&spec, &base_wl, LoadBalance::Balanced, &config()),
        );
    }

    // Every governor variant and every field inside one.
    let p = |f_mhz: f64, voltage: VoltagePolicy| PState { f_mhz, voltage };
    let vid = VidTable {
        base_v: 0.9,
        step_v: 0.0125,
        bins: 4,
    };
    let (hi, lo) = (
        p(1000.0, VoltagePolicy::Fixed(1.1)),
        p(700.0, VoltagePolicy::Fixed(0.9)),
    );
    let governors = [
        (
            "static fixed",
            Governor::Static(p(780.5, VoltagePolicy::Fixed(1.0185))),
        ),
        (
            "static f_mhz",
            Governor::Static(p(781.5, VoltagePolicy::Fixed(1.0185))),
        ),
        (
            "static fixed volts",
            Governor::Static(p(780.5, VoltagePolicy::Fixed(1.0195))),
        ),
        (
            "static vid",
            Governor::Static(p(780.5, VoltagePolicy::UseVid(vid))),
        ),
        (
            "vid base_v",
            Governor::Static(p(
                780.5,
                VoltagePolicy::UseVid(VidTable {
                    base_v: 0.91,
                    ..vid
                }),
            )),
        ),
        (
            "vid step_v",
            Governor::Static(p(
                780.5,
                VoltagePolicy::UseVid(VidTable {
                    step_v: 0.02,
                    ..vid
                }),
            )),
        ),
        (
            "vid bins",
            Governor::Static(p(780.5, VoltagePolicy::UseVid(VidTable { bins: 5, ..vid }))),
        ),
        (
            "on-demand",
            Governor::OnDemand {
                high: hi,
                low: lo,
                threshold: 0.2,
            },
        ),
        (
            "on-demand high",
            Governor::OnDemand {
                high: p(1001.0, hi.voltage),
                low: lo,
                threshold: 0.2,
            },
        ),
        (
            "on-demand low",
            Governor::OnDemand {
                high: hi,
                low: p(701.0, lo.voltage),
                threshold: 0.2,
            },
        ),
        (
            "on-demand threshold",
            Governor::OnDemand {
                high: hi,
                low: lo,
                threshold: 0.3,
            },
        ),
        ("schedule", Governor::Schedule(vec![(0.0, lo), (100.0, hi)])),
        (
            "schedule switch time",
            Governor::Schedule(vec![(0.0, lo), (101.0, hi)]),
        ),
        (
            "schedule state",
            Governor::Schedule(vec![(0.0, hi), (100.0, hi)]),
        ),
        ("schedule length", Governor::Schedule(vec![(0.0, lo)])),
    ];
    for (label, governor) in governors {
        let spec = ClusterSpec {
            governor,
            ..base_spec.clone()
        };
        record(
            &mut seen,
            label,
            key(&spec, &base_wl, LoadBalance::Balanced, &config()),
        );
    }

    let fans = [
        ("fans pinned", FanPolicy::Pinned { speed: 0.53 }),
        ("fans pinned speed", FanPolicy::Pinned { speed: 0.57 }),
        (
            "fans auto",
            FanPolicy::Auto {
                t_low_c: 30.0,
                t_high_c: 60.0,
            },
        ),
        (
            "fans auto t_low_c",
            FanPolicy::Auto {
                t_low_c: 31.0,
                t_high_c: 60.0,
            },
        ),
        (
            "fans auto t_high_c",
            FanPolicy::Auto {
                t_low_c: 30.0,
                t_high_c: 61.0,
            },
        ),
    ];
    for (label, fan_policy) in fans {
        let spec = ClusterSpec {
            fan_policy,
            ..base_spec.clone()
        };
        record(
            &mut seen,
            label,
            key(&spec, &base_wl, LoadBalance::Balanced, &config()),
        );
    }

    // Every workload parameter: HPL's variant, shape, flops and phases,
    // and the other workload families.
    let phases = RunPhases::new(60.0, 3600.0, 60.0).unwrap();
    let shape_edits: Vec<Edit<HplShape>> = vec![
        ("hpl peak", |s| s.peak -= 0.01),
        ("hpl plateau_frac", |s| s.plateau_frac -= 0.05),
        ("hpl end_frac", |s| s.end_frac += 0.01),
        ("hpl kappa", |s| s.kappa += 0.1),
        ("hpl warmup_frac", |s| s.warmup_frac += 0.01),
        ("hpl idle", |s| s.idle += 0.01),
        ("hpl ripple", |s| s.ripple += 0.005),
        ("hpl panel_steps", |s| s.panel_steps += 1.0),
    ];
    let mut workloads: Vec<(&str, Box<dyn Workload>)> = Vec::new();
    for (label, edit) in shape_edits {
        let mut shape = gpu_shape();
        edit(&mut shape);
        workloads.push((label, Box::new(hpl(shape))));
    }
    workloads.extend([
        (
            "hpl variant",
            Box::new(
                Hpl::with_shape(HplVariant::CpuMainMemory, phases, 1.0e15, gpu_shape()).unwrap(),
            ) as Box<dyn Workload>,
        ),
        (
            "hpl total_flops",
            Box::new(Hpl::with_shape(HplVariant::GpuInCore, phases, 2.0e15, gpu_shape()).unwrap()),
        ),
        (
            "hpl setup",
            Box::new(
                Hpl::with_shape(
                    HplVariant::GpuInCore,
                    RunPhases::new(61.0, 3600.0, 60.0).unwrap(),
                    1.0e15,
                    gpu_shape(),
                )
                .unwrap(),
            ),
        ),
        (
            "hpl core",
            Box::new(
                Hpl::with_shape(
                    HplVariant::GpuInCore,
                    RunPhases::new(60.0, 3601.0, 60.0).unwrap(),
                    1.0e15,
                    gpu_shape(),
                )
                .unwrap(),
            ),
        ),
        (
            "hpl teardown",
            Box::new(
                Hpl::with_shape(
                    HplVariant::GpuInCore,
                    RunPhases::new(60.0, 3600.0, 61.0).unwrap(),
                    1.0e15,
                    gpu_shape(),
                )
                .unwrap(),
            ),
        ),
        ("firestarter", Box::new(Firestarter::new(phases))),
        (
            "firestarter level",
            Box::new(Firestarter::new(phases).with_level(0.9)),
        ),
        ("mprime", Box::new(MPrime::new(phases))),
        (
            "mprime level",
            Box::new(MPrime::new(phases).with_level(0.9)),
        ),
        ("rodinia", Box::new(RodiniaCfd::new(phases))),
        ("graph500", Box::new(Graph500::new(phases))),
        (
            "graph500 iterations",
            Box::new(Graph500::new(phases).with_iterations(32)),
        ),
        ("io-phase", Box::new(IoPhase::new(phases, 1.0e15).unwrap())),
        (
            "io-phase cycle_s",
            Box::new(IoPhase::new(phases, 1.0e15).unwrap().with_cycle_s(120.0)),
        ),
        (
            "io-phase total_flops",
            Box::new(IoPhase::new(phases, 2.0e15).unwrap()),
        ),
    ]);
    for (label, wl) in &workloads {
        record(
            &mut seen,
            label,
            key(&base_spec, wl.as_ref(), LoadBalance::Balanced, &config()),
        );
    }

    let balances = [
        ("uneven", LoadBalance::Uneven { spread: 0.1 }),
        ("uneven spread", LoadBalance::Uneven { spread: 0.2 }),
        (
            "hot-cold",
            LoadBalance::HotCold {
                hot_fraction: 0.5,
                cold_factor: 0.3,
            },
        ),
        (
            "hot-cold hot_fraction",
            LoadBalance::HotCold {
                hot_fraction: 0.6,
                cold_factor: 0.3,
            },
        ),
        (
            "hot-cold cold_factor",
            LoadBalance::HotCold {
                hot_fraction: 0.5,
                cold_factor: 0.4,
            },
        ),
    ];
    for (label, balance) in balances {
        record(
            &mut seen,
            label,
            key(&base_spec, &base_wl, balance, &config()),
        );
    }

    let config_edits: Vec<Edit<SimulationConfig>> = vec![
        ("dt", |c| c.dt += 1.0),
        ("noise_sigma", |c| c.noise_sigma += 0.001),
        ("common_noise_sigma", |c| c.common_noise_sigma += 0.001),
        ("config seed", |c| c.seed += 1),
    ];
    for (label, edit) in config_edits {
        let mut cfg = config();
        edit(&mut cfg);
        record(
            &mut seen,
            label,
            key(&base_spec, &base_wl, LoadBalance::Balanced, &cfg),
        );
    }

    let threads = SimulationConfig {
        threads: 8,
        ..config()
    };
    assert_eq!(
        key(&base_spec, &base_wl, LoadBalance::Balanced, &threads),
        base,
        "threads must not change the key"
    );
}

/// Two HPL runs that differ only in the warm-up ramp agree at every
/// point of a coarse utilization grid — the kind of sampling the key
/// once relied on — yet must key apart.
#[test]
fn hpl_runs_differing_only_in_one_shape_parameter_key_apart() {
    let a = hpl(gpu_shape());
    let b = hpl(HplShape {
        warmup_frac: gpu_shape().warmup_frac + 0.01,
        ..gpu_shape()
    });
    let total = a.phases().total();
    let nodes = 6;
    for node in [0, nodes / 3, nodes / 2, (2 * nodes) / 3, nodes - 1] {
        for k in 0..=8 {
            let t = total * k as f64 / 8.0;
            assert_eq!(a.utilization(node, t), b.utilization(node, t));
        }
    }
    let spec = systems::lcsc().with_total_nodes(nodes).cluster_spec;
    assert_ne!(
        simulation_key(&spec, &a, LoadBalance::Balanced, &config()),
        simulation_key(&spec, &b, LoadBalance::Balanced, &config())
    );
}
