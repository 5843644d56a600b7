//! Table 4 / Figure 2: per-node time-averaged power statistics and
//! histogram construction across the six node-variability systems, plus
//! the simulator's node-step throughput, with two enforced budgets:
//!
//! * **node-step throughput** — a fixed single-thread
//!   `Simulator::run_products` sweep (system traces and per-node
//!   averages) over the ten paper presets must sustain
//!   ≥ [`NODE_STEPS_PER_S_FLOOR`] node-steps/s. Every Table 2/4, Figure
//!   1–3 and gaming probe spends its time in this loop.
//! * **Table 4 request throughput** — the request the Table 4 probe makes
//!   (per-node averages alone over the core phase minus its first 10%, at
//!   `dt·1.0371`), single-thread over the six variability presets, must
//!   sustain ≥ [`AVG_NODE_STEPS_PER_S_FLOOR`] of the run's node-steps per
//!   second. It counts every step of the run, as the first budget does,
//!   so the steps such a sweep skips past the window's end count as
//!   answered.
//! * **LRZ's relative cost** — in the `table4_node_averages` group, each
//!   variability preset's Criterion median per run node-step is recorded
//!   as `table4_ns_per_run_node_step/<preset>`, and LRZ's (MPrime) must be
//!   at most [`LRZ_COST_RATIO_CEILING`] times the median of the other
//!   five. Both sides are timed in one process, so this budget holds on
//!   any host.
//!
//! Every measured figure lands in `BENCH_table4.json` via
//! [`power_bench::report`].

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::report::{self, Direction};
use power_bench::{bench_sim_config, fixture, Fixture};
use power_sim::engine::{ProductRequest, SimulationConfig, Simulator};
use power_sim::systems::SystemPreset;
use power_stats::histogram::{Binning, Histogram};
use power_stats::summary::Summary;
use power_workload::RunPhases;
use std::hint::black_box;
use std::time::Instant;

/// Nodes per preset in the throughput sweeps.
const SWEEP_NODES: usize = 256;
/// Timed passes over the presets; the median pass is reported.
const SWEEP_PASSES: usize = 7;
/// Budget: single-thread node-steps/s through `run_products`. On a 2-vCPU
/// Xeon host, five alternating runs each measured 37.8–38.6 M/s for the
/// block kernel that called the scalar node model per lane (which fails
/// this floor) and 62.4–63.0 M/s for the node-plan kernel, which clears
/// it by 28%.
const NODE_STEPS_PER_S_FLOOR: f64 = 45.0e6;
/// Budget: single-thread node-steps/s of the run answered by the Table 4
/// request. On a 2-vCPU Xeon host, seven alternating runs each measured
/// 30.2–36.8 M/s (median 33.4 M) for the kernel that ran every step and
/// looked up HPL's ripple dephasing per node-step, which fails this
/// floor, and 39.1–63.9 M/s (median 41.1 M) for the kernel with per-lane
/// workload terms, the inlined ziggurat accept path and the sweep that
/// stops at the window end. That host ran the first budget's sweep at
/// 29–53 M/s, mostly below its floor, which was set on a faster host.
const AVG_NODE_STEPS_PER_S_FLOOR: f64 = 38.0e6;
/// Budget: LRZ's cost per run node-step over the median of the other five
/// variability presets'. On a 2-vCPU Xeon host, MPrime with one `sin` per
/// node-step measured 1.56× (25.8 ns against 17.8 ns; fails); with its
/// modulation by angle addition, one `sin_cos` per step and one per node,
/// 0.76× (13.9 ns against 18.3 ns).
const LRZ_COST_RATIO_CEILING: f64 = 1.2;

/// The Table 4 window: the core phase minus its first 10%.
fn table4_window(phases: &RunPhases) -> (f64, f64) {
    (phases.core_start() + 0.1 * phases.core(), phases.core_end())
}

/// One single-thread sweep of every fixture at `dt_factor` times its
/// step, answering `request(window)`; returns (node-steps of the runs,
/// seconds).
fn sweep_pass(
    fixtures: &[Fixture],
    dt_factor: f64,
    request: fn(f64, f64) -> ProductRequest,
) -> (usize, f64) {
    let mut node_steps = 0;
    let mut secs = 0.0;
    for f in fixtures {
        let workload = f.preset.workload.workload();
        let config = SimulationConfig {
            threads: 1,
            ..bench_sim_config(f.dt * dt_factor)
        };
        let sim = Simulator::new(&f.cluster, workload, f.preset.balance, config).unwrap();
        let (from, to) = table4_window(&workload.phases());
        let request = request(from, to);
        let start = Instant::now();
        let products = black_box(sim.run_products(&request).unwrap());
        secs += start.elapsed().as_secs_f64();
        node_steps += products.steps() * f.cluster.len();
    }
    (node_steps, secs)
}

/// Times [`SWEEP_PASSES`] sweeps after a warm-up and reports the
/// node-step count, the best rate and the median rate against `floor`
/// under `name`.
fn throughput_budget(
    name: &str,
    presets: Vec<SystemPreset>,
    dt_factor: f64,
    request: fn(f64, f64) -> ProductRequest,
    floor: f64,
) {
    let fixtures: Vec<Fixture> = presets
        .into_iter()
        .map(|preset| fixture(preset, SWEEP_NODES))
        .collect();
    sweep_pass(&fixtures, dt_factor, request); // warm-up
    let mut rates: Vec<f64> = Vec::with_capacity(SWEEP_PASSES);
    let mut node_steps = 0;
    for _ in 0..SWEEP_PASSES {
        let (steps, secs) = sweep_pass(&fixtures, dt_factor, request);
        node_steps = steps;
        rates.push(steps as f64 / secs);
    }
    rates.sort_by(f64::total_cmp);
    let median = rates[SWEEP_PASSES / 2];
    let stem = name.trim_end_matches("_per_s");
    report::metric(stem, node_steps as f64);
    report::metric(&format!("{name}_best"), rates[SWEEP_PASSES - 1]);
    report::budget(name, median, Direction::AtLeast, floor);
    println!(
        "{stem}: {:.2}M node-steps/s single-thread (median of {SWEEP_PASSES} \
         passes of {node_steps} node-steps; floor {:.1}M)",
        median / 1e6,
        floor / 1e6
    );
}

fn bench_node_steps(_c: &mut Criterion) {
    let presets = SystemPreset::trace_presets()
        .into_iter()
        .chain(SystemPreset::variability_presets())
        .collect();
    throughput_budget(
        "sim_node_steps_per_s",
        presets,
        1.0,
        ProductRequest::with_averages,
        NODE_STEPS_PER_S_FLOOR,
    );
}

fn bench_avg_node_steps(_c: &mut Criterion) {
    throughput_budget(
        "sim_avg_node_steps_per_s",
        SystemPreset::variability_presets(),
        1.0371,
        ProductRequest::averages_only,
        AVG_NODE_STEPS_PER_S_FLOOR,
    );
}

fn bench_node_averages(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_node_averages");
    group.sample_size(10);
    // (preset, run node-steps of one iteration)
    let mut run_node_steps = Vec::new();
    for preset in SystemPreset::variability_presets() {
        let name = preset.name;
        let scope = preset.scope;
        let f = fixture(preset, 96);
        let build = || {
            Simulator::new(
                &f.cluster,
                f.preset.workload.workload(),
                f.preset.balance,
                bench_sim_config(f.dt * 1.0371),
            )
            .unwrap()
        };
        run_node_steps.push((name, build().run_steps() * f.cluster.len()));
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let sim = build();
                let phases = f.preset.workload.workload().phases();
                let avgs = sim
                    .node_averages(
                        phases.core_start() + 0.1 * phases.core(),
                        phases.core_end(),
                        scope,
                    )
                    .unwrap();
                let s = Summary::from_slice(&avgs);
                black_box((s.mean(), s.coefficient_of_variation().unwrap()))
            });
        });
    }
    group.finish();
    let mut lrz = None;
    let mut others = Vec::new();
    for (name, steps) in run_node_steps {
        let median_s = criterion::measurement(&format!("table4_node_averages/{name}"))
            .expect("every variability preset was measured")
            .median_s;
        let ns = median_s * 1e9 / steps as f64;
        report::metric(&format!("table4_ns_per_run_node_step/{name}"), ns);
        if name == "LRZ" {
            lrz = Some(ns);
        } else {
            others.push(ns);
        }
    }
    others.sort_by(f64::total_cmp);
    let ratio = lrz.expect("LRZ is a variability preset") / others[others.len() / 2];
    report::budget(
        "lrz_over_median_other_ns_per_run_node_step",
        ratio,
        Direction::AtMost,
        LRZ_COST_RATIO_CEILING,
    );
    println!(
        "LRZ: {ratio:.2}x the median of the other {} presets' ns per run node-step \
         (ceiling {LRZ_COST_RATIO_CEILING}x)",
        others.len()
    );
}

fn bench_figure2_histograms(c: &mut Criterion) {
    // Statistics layer only: histogram binning over a realistic dataset.
    let f = fixture(power_sim::systems::tu_dresden(), 128);
    let workload = f.preset.workload.workload();
    let sim = Simulator::new(
        &f.cluster,
        workload,
        f.preset.balance,
        bench_sim_config(f.dt),
    )
    .unwrap();
    let phases = workload.phases();
    let avgs = sim
        .node_averages(phases.core_start(), phases.core_end(), f.preset.scope)
        .unwrap();
    let mut group = c.benchmark_group("figure2_histograms");
    for binning in [
        Binning::Fixed(16),
        Binning::Sturges,
        Binning::FreedmanDiaconis,
    ] {
        group.bench_function(format!("{binning:?}"), |b| {
            b.iter(|| black_box(Histogram::new(&avgs, binning).unwrap()));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_node_steps,
    bench_avg_node_steps,
    bench_node_averages,
    bench_figure2_histograms
);
power_bench::bench_main!("table4", benches);
