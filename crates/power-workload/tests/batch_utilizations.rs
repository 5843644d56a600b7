//! `Workload::utilizations`, reading each node's `Workload::lane_term`,
//! must equal per-node `Workload::utilization` bit for bit, for every
//! workload, at every point of a run: before the run, in setup, inside the
//! core phase, in teardown and after the run.

use power_workload::{
    Firestarter, Graph500, Hpl, HplShape, HplVariant, IoPhase, MPrime, RodiniaCfd, RunPhases,
    Workload,
};

fn phases() -> RunPhases {
    RunPhases::new(120.0, 3600.0, 90.0).unwrap()
}

/// Every node's lane term, as the simulator computes them once per block.
fn terms(wl: &dyn Workload, nodes: &[usize]) -> Vec<[f64; 2]> {
    nodes.iter().map(|&node| wl.lane_term(node)).collect()
}

fn workloads() -> Vec<Box<dyn Workload>> {
    let p = phases();
    let mut flat = HplShape::for_variant(HplVariant::GpuInCore);
    flat.ripple = 0.0;
    vec![
        Box::new(Hpl::new(HplVariant::CpuMainMemory, p, 1.0e15).unwrap()),
        Box::new(Hpl::new(HplVariant::GpuInCore, p, 1.0e15).unwrap()),
        Box::new(Hpl::with_shape(HplVariant::GpuInCore, p, 1.0e15, flat).unwrap()),
        Box::new(Firestarter::new(p)),
        Box::new(MPrime::new(p)),
        Box::new(RodiniaCfd::new(p)),
        Box::new(Graph500::new(p)),
        Box::new(IoPhase::new(p, 1.0e15).unwrap()),
    ]
}

/// Times before the run, in setup, across the core phase (its first
/// instant, the warm-up ramp, the plateau and the decline), in teardown,
/// at the run's end and after it.
fn times() -> Vec<f64> {
    let p = phases();
    let mut ts = vec![-5.0, 0.0, 60.0, p.core_start(), p.core_start() + 1.0];
    ts.extend((0..=200).map(|i| p.core_start() + p.core() * i as f64 / 200.0));
    ts.extend([p.core_end() - 1e-9, p.core_end(), p.core_end() + 30.0]);
    ts.extend([p.total() - 1e-9, p.total(), p.total() + 100.0, 1e9]);
    ts
}

#[test]
fn batch_matches_per_node_bit_for_bit() {
    // Contiguous, shuffled, repeated and far-away node ids, including
    // nodes past HPL's dephasing tables (256 · 1024 nodes), whose high
    // part is computed rather than looked up.
    let nodes: Vec<usize> = (0..70)
        .chain([999, 3, 3, 123_456, 0, 65_535])
        .chain([262_143, 262_144, 262_145, 1_000_003, usize::MAX >> 12])
        .chain((0..40).map(|i| (i * 7919) % 997))
        .collect();
    let mut out = vec![f64::NAN; nodes.len()];
    for wl in workloads() {
        let terms = terms(wl.as_ref(), &nodes);
        for t in times() {
            wl.utilizations(t, &nodes, &terms, &mut out);
            for (&node, &batch) in nodes.iter().zip(&out) {
                let scalar = wl.utilization(node, t);
                assert_eq!(
                    batch.to_bits(),
                    scalar.to_bits(),
                    "{} node {node} t={t}: batch {batch} vs scalar {scalar}",
                    wl.name()
                );
            }
        }
    }
}

#[test]
fn batch_handles_empty_and_single_node_blocks() {
    for wl in workloads() {
        wl.utilizations(phases().core_start() + 10.0, &[], &[], &mut []);
        let mut one = [f64::NAN];
        let term = [wl.lane_term(41)];
        for t in times() {
            wl.utilizations(t, &[41], &term, &mut one);
            assert_eq!(one[0].to_bits(), wl.utilization(41, t).to_bits());
        }
    }
}

#[test]
fn hpl_values_are_pinned() {
    // Bits of the HPL utilization under model revision 3 (the ripple's
    // per-node dephasing by angle addition over tables): setup, warm-up,
    // plateau, decline, teardown. Both paths must give them. Entries
    // without ripple (setup, teardown, the clamped plateau) kept the bits
    // they had before; the others moved in the last few bits.
    let golden: [(HplVariant, usize, f64, u64); 12] = [
        (HplVariant::CpuMainMemory, 0, 60.0, 0x3fb47ae147ae147b),
        (HplVariant::CpuMainMemory, 7, 125.0, 0x3feb094f9caeecf8),
        (HplVariant::CpuMainMemory, 3, 1500.5, 0x3feeff7e63ad55d5),
        (HplVariant::CpuMainMemory, 999, 2900.25, 0x3fedb39eda1d74ec),
        (HplVariant::CpuMainMemory, 41, 3700.0, 0x3fec67e9b1b3e944),
        (HplVariant::CpuMainMemory, 5, 3750.0, 0x3fb47ae147ae147b),
        (HplVariant::GpuInCore, 0, 60.0, 0x3fb999999999999a),
        (HplVariant::GpuInCore, 7, 125.0, 0x3fea956cfb5fd900),
        (HplVariant::GpuInCore, 3, 1500.5, 0x3ff0000000000000),
        (HplVariant::GpuInCore, 999, 2900.25, 0x3fe2b511f7fb431c),
        (HplVariant::GpuInCore, 41, 3700.0, 0x3fc0761551361041),
        (HplVariant::GpuInCore, 5, 3750.0, 0x3fb999999999999a),
    ];
    for (variant, node, t, bits) in golden {
        let hpl = Hpl::new(variant, phases(), 1.0e15).unwrap();
        assert_eq!(
            hpl.utilization(node, t).to_bits(),
            bits,
            "{variant:?} {node} {t}"
        );
        let mut out = [0.0];
        hpl.utilizations(t, &[node], &[hpl.lane_term(node)], &mut out);
        assert_eq!(out[0].to_bits(), bits, "{variant:?} {node} {t}");
    }
}
