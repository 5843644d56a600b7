//! Pins the bits of the two sweeps the paper's tables are built from:
//! per-node window averages with no system trace (Table 4, Figure 2) and
//! whole-machine traces alone (Table 2, Figure 1).
//!
//! Each case runs a catalog preset at 70 nodes (two kernel blocks, the
//! second one partial) on one and on two worker threads, folds every
//! `to_bits()` of every scope into one FNV-1a digest and compares it with
//! a literal. The presets cover every workload the catalog runs: HPL on
//! CPUs and on GPUs (both with panel ripple), MPrime, Rodinia and
//! FIRESTARTER. A change to the kernel, the workloads' utilizations, the
//! noise sampler or the averaging window's step range that moves any bit
//! fails here.

use power_sim::cluster::Cluster;
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator};
use power_sim::systems::SystemPreset;
use power_stats::hash::Fnv1a;

/// Nodes per machine: one full 64-lane block and a partial one.
const NODES: usize = 70;

/// `(preset, averages digest, system digest)`.
const PINNED: [(&str, u64, u64); 5] = [
    ("Calcul Québec", 0x709fd6cd4694619d, 0xb4dd4be79a1c03b2),
    ("Piz Daint", 0x3c5719328ee4b394, 0x936ef6ab1395117d),
    ("LRZ", 0x7bbef0d16d80807e, 0x38e9fa2b2a1f62f4),
    ("Titan", 0x875f5c0c77b71009, 0xd2f9f3c434c04bc3),
    ("TU Dresden", 0x4a63a0377220b105, 0xe5ee2843e99874f3),
];

fn config(dt: f64, threads: usize) -> SimulationConfig {
    SimulationConfig {
        dt,
        noise_sigma: 0.01,
        common_noise_sigma: 0.003,
        seed: 0x5EED_0031,
        threads,
    }
}

/// Folds the averages-only sweep over two windows: the Table 4 window
/// (the core phase minus its first 10%) and one that ends mid-run.
fn averages_digest(preset: &SystemPreset, cluster: &Cluster, threads: usize) -> u64 {
    let workload = preset.workload.workload();
    let phases = workload.phases();
    // Off the workloads' periods, as the Table 4 sweep samples.
    let dt = phases.core() / 200.0 * 1.0371;
    let sim = Simulator::new(cluster, workload, preset.balance, config(dt, threads)).unwrap();
    let mut h = Fnv1a::default();
    for (from, to) in [
        (phases.core_start() + 0.1 * phases.core(), phases.core_end()),
        (
            phases.core_start(),
            phases.core_start() + 0.45 * phases.core(),
        ),
    ] {
        let request = ProductRequest {
            averages_window: Some((from, to)),
            ..ProductRequest::default()
        };
        let products = sim.run_products(&request).unwrap();
        assert_eq!(products.steps(), sim.run_steps());
        for scope in MeterScope::ALL {
            for &a in products.node_averages(scope).unwrap() {
                h.write_u64(a.to_bits());
            }
        }
    }
    h.finish()
}

fn system_digest(preset: &SystemPreset, cluster: &Cluster, threads: usize) -> u64 {
    let workload = preset.workload.workload();
    let dt = workload.phases().core() / 200.0;
    let sim = Simulator::new(cluster, workload, preset.balance, config(dt, threads)).unwrap();
    let products = sim.run_products(&ProductRequest::system_only()).unwrap();
    let mut h = Fnv1a::default();
    for scope in MeterScope::ALL {
        for &w in &products.system_trace(scope).unwrap().watts {
            h.write_u64(w.to_bits());
        }
    }
    h.finish()
}

#[test]
fn sweep_bits_are_pinned() {
    let mut wrong = Vec::new();
    for (name, averages, system) in PINNED {
        let preset = SystemPreset::by_name(name)
            .unwrap_or_else(|| panic!("{name} is in the catalog"))
            .with_total_nodes(NODES);
        let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
        for threads in [1, 2] {
            let got = (
                averages_digest(&preset, &cluster, threads),
                system_digest(&preset, &cluster, threads),
            );
            if got != (averages, system) {
                wrong.push(format!(
                    "(\"{name}\", {:#018x}, {:#018x}) on {threads} thread(s)",
                    got.0, got.1
                ));
            }
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
