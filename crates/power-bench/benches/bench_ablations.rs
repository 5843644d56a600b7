//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * engine thread scaling (crossbeam node-parallel loop);
//! * simulation time-step cost/fidelity trade-off;
//! * the bootstrap's O(n)-memory streaming population vs naively
//!   materializing every simulated machine;
//! * Level 1 window coverage sweep (what longer windows buy);
//! * prefix-sum vs naive-scan window queries (the O(1) query math behind
//!   interval-gaming scans and Table 2 segments).

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::{bench_sim_config, fixture};
use power_sim::engine::{MeterScope, SimulationConfig, Simulator};
use power_stats::ci::mean_ci_t;
use power_stats::empirical::Empirical;
use power_stats::rng::{normal_draw, seeded, substream};
use power_stats::sampling::sample_without_replacement;
use power_stats::summary::Summary;
use std::hint::black_box;

fn bench_thread_scaling(c: &mut Criterion) {
    let f = fixture(power_sim::systems::lcsc(), 64);
    let workload = f.preset.workload.workload();
    let mut group = c.benchmark_group("ablation_thread_scaling");
    group.sample_size(10);
    for &threads in &[1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            let cfg = SimulationConfig {
                threads,
                ..bench_sim_config(f.dt)
            };
            b.iter(|| {
                let sim = Simulator::new(&f.cluster, workload, f.preset.balance, cfg).unwrap();
                black_box(sim.system_trace(MeterScope::Wall).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_dt_tradeoff(c: &mut Criterion) {
    let f = fixture(power_sim::systems::lcsc(), 32);
    let workload = f.preset.workload.workload();
    let mut group = c.benchmark_group("ablation_time_step");
    group.sample_size(10);
    for &dt in &[5.0f64, 20.0, 60.0] {
        group.bench_function(BenchmarkId::new("dt_seconds", dt as u64), |b| {
            b.iter(|| {
                let sim =
                    Simulator::new(&f.cluster, workload, f.preset.balance, bench_sim_config(dt))
                        .unwrap();
                black_box(sim.system_trace(MeterScope::Wall).unwrap())
            });
        });
    }
    group.finish();
}

/// One coverage replication, streaming (the shipped implementation's
/// strategy): draw the n-sample, accumulate the rest of the machine's sum
/// without storing it.
fn replication_streaming(pilot: &Empirical, seed: u64, n: usize, pop: usize) -> bool {
    let mut rng = substream(seed, 1);
    let mut draws = pilot.draws(&mut rng);
    let sample: Vec<f64> = draws.by_ref().take(n).collect();
    let mut total: f64 = sample.iter().sum();
    for v in draws.take(pop - n) {
        total += v;
    }
    let ci = mean_ci_t(&Summary::from_slice(&sample), 0.95).unwrap();
    ci.contains(total / pop as f64)
}

/// The same replication materializing the full machine then subsampling —
/// the naive reading of the paper's procedure.
fn replication_materialized(pilot: &Empirical, seed: u64, n: usize, pop: usize) -> bool {
    let mut rng = substream(seed, 1);
    let machine = pilot.resample(&mut rng, pop);
    let true_mean = machine.iter().sum::<f64>() / pop as f64;
    let idx = sample_without_replacement(&mut rng, pop, n).unwrap();
    let sample: Vec<f64> = idx.iter().map(|&i| machine[i]).collect();
    let ci = mean_ci_t(&Summary::from_slice(&sample), 0.95).unwrap();
    ci.contains(true_mean)
}

fn bench_bootstrap_memory_strategy(c: &mut Criterion) {
    let mut rng = seeded(41);
    let vals: Vec<f64> = (0..516)
        .map(|_| normal_draw(&mut rng, 209.88, 5.31))
        .collect();
    let pilot = Empirical::new(&vals).unwrap();
    let mut group = c.benchmark_group("ablation_bootstrap_memory");
    for &pop in &[1_024usize, 9_216] {
        group.bench_function(BenchmarkId::new("streaming", pop), |b| {
            let mut s = 0u64;
            b.iter(|| {
                s = s.wrapping_add(1);
                black_box(replication_streaming(&pilot, s, 10, pop))
            });
        });
        group.bench_function(BenchmarkId::new("materialized", pop), |b| {
            let mut s = 0u64;
            b.iter(|| {
                s = s.wrapping_add(1);
                black_box(replication_materialized(&pilot, s, 10, pop))
            });
        });
    }
    group.finish();
}

fn bench_window_coverage_sweep(c: &mut Criterion) {
    // What does measuring more of the run cost (and buy)? Sweep window
    // coverage of the core phase and time the averaging; the accuracy side
    // of this ablation is reported by the `gaming` repro binary.
    let f = fixture(power_sim::systems::lcsc(), 48);
    let (trace, phases) = f.system_trace();
    let mut group = c.benchmark_group("ablation_window_coverage");
    for &coverage in &[0.2f64, 0.5, 1.0] {
        group.bench_function(
            BenchmarkId::new("coverage_pct", (coverage * 100.0) as u64),
            |b| {
                let (a, b_end) = phases.core_segment(0.5 - coverage / 2.0, 0.5 + coverage / 2.0);
                b.iter(|| black_box(trace.window_average(a, b_end).unwrap()));
            },
        );
    }
    group.finish();
}

fn bench_window_query_math(c: &mut Criterion) {
    // The prefix-sum ablation: a dense interval-gaming scan issues
    // thousands of window queries against one trace, so O(1) index
    // arithmetic vs an O(samples) scan per query is the difference
    // between O(samples + queries) and O(samples × queries).
    let f = fixture(power_sim::systems::lcsc(), 48);
    let (trace, phases) = f.system_trace();
    let (from, to) = phases.core_segment(0.3, 0.5);
    let mut group = c.benchmark_group("ablation_window_query");
    group.bench_function(BenchmarkId::new("naive_scan", trace.len()), |b| {
        b.iter(|| black_box(trace.window_average_naive(from, to).unwrap()));
    });
    group.bench_function(BenchmarkId::new("prefix_sum", trace.len()), |b| {
        trace.window_average(from, to).unwrap(); // build the cumulative array
        b.iter(|| black_box(trace.window_average(from, to).unwrap()));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_thread_scaling,
    bench_dt_tradeoff,
    bench_bootstrap_memory_strategy,
    bench_window_coverage_sweep,
    bench_window_query_math
);
power_bench::bench_main!("ablations", benches);
