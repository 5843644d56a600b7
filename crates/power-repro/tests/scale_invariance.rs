//! Scale-invariance checks: the quick scale must preserve every
//! qualitative conclusion of the full-scale reproduction, because that is
//! the contract that lets CI run in seconds while EXPERIMENTS.md reports
//! full fidelity.

use power_campaign::{artifacts, Scale};
use power_repro::{experiments, paper, SEED};

fn scale(max_nodes: usize, dt_scale: f64) -> Scale {
    Scale {
        max_nodes,
        dt_scale,
        placements: 21,
        bootstrap_reps: 300,
        bootstrap_population: 256,
    }
}

fn table2(scale: &Scale) -> Vec<artifacts::Table2Row> {
    paper::table2(&paper::traces(scale, SEED).unwrap()).unwrap()
}

/// Table 2 segment *ratios* are invariant to simulated machine size.
#[test]
fn table2_ratios_scale_invariant() {
    let small = table2(&scale(32, 24.0));
    let large = table2(&scale(96, 24.0));
    for (a, b) in small.iter().zip(&large) {
        assert_eq!(a.name, b.name);
        let ra = a.first20_kw / a.core_kw;
        let rb = b.first20_kw / b.core_kw;
        assert!(
            (ra - rb).abs() < 0.01,
            "{}: first-20% ratio {ra:.4} vs {rb:.4}",
            a.name
        );
        let la = a.last20_kw / a.core_kw;
        let lb = b.last20_kw / b.core_kw;
        assert!((la - lb).abs() < 0.01, "{}: last-20% ratio", a.name);
    }
}

/// Table 4 per-node means are invariant to both machine size and time
/// step (the preset's calibration is per-node physics, not tuned totals).
#[test]
fn table4_means_scale_invariant() {
    let coarse = paper::table4(&scale(64, 32.0), SEED).unwrap();
    let fine = paper::table4(&scale(64, 8.0), SEED).unwrap();
    for (a, b) in coarse.iter().zip(&fine) {
        assert_eq!(a.name, b.name);
        assert!(
            (a.mean_w - b.mean_w).abs() / b.mean_w < 0.01,
            "{}: {} vs {} W across dt",
            a.name,
            a.mean_w,
            b.mean_w
        );
    }
}

/// The gaming conclusion (GPU systems gameable, Colosse not) holds at any
/// scale.
#[test]
fn gaming_ordering_scale_invariant() {
    for s in [scale(24, 48.0), scale(64, 16.0)] {
        let traces = paper::traces(&s, SEED).unwrap();
        let rows = paper::gaming(&s, &traces).unwrap();
        let gain = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .unwrap()
                .unrestricted
                .gaming_gain()
        };
        assert!(gain("L-CSC") > gain("Piz Daint"));
        assert!(gain("Piz Daint") > gain("Sequoia-25"));
        assert!(gain("Sequoia-25") > gain("Colosse"));
        assert!(gain("Colosse") < 0.02);
        assert!(gain("L-CSC") > 0.15);
    }
}

/// Pure-math experiments are literally identical at every scale.
#[test]
fn analytic_experiments_scale_free() {
    let a = artifacts::table5().unwrap();
    let b = artifacts::table5().unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.nodes, y.nodes);
    }
    let g1 = artifacts::accuracy_gap().unwrap();
    let g2 = artifacts::accuracy_gap().unwrap();
    assert_eq!(g1.small_n, g2.small_n);
    assert_eq!(g1.large_lambda, g2.large_lambda);
    let e = experiments::exascale_sweep();
    assert_eq!(e.len(), 9);
}
