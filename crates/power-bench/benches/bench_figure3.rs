//! Figure 3: the bootstrap coverage simulation — the most compute-heavy
//! statistical piece of the reproduction. The study runs on the repro's
//! fixed bootstrap worker count, so its points and its time do not depend
//! on the host's core count.

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::report::{self, Direction};
use power_campaign::artifacts::COVERAGE_THREADS;
use power_stats::bootstrap::{bootstrap_means, coverage_study, CoverageConfig};
use power_stats::empirical::Empirical;
use power_stats::rng::{normal_draw, seeded};
use std::hint::black_box;

fn lrz_pilot(n: usize) -> Empirical {
    let mut rng = seeded(41);
    let vals: Vec<f64> = (0..n)
        .map(|_| normal_draw(&mut rng, 209.88, 5.31))
        .collect();
    Empirical::new(&vals).unwrap()
}

/// Budget: the median of 2 000 replications of a 1 024-node machine,
/// scored at two sample sizes and three confidences. One machine per
/// replication and critical values computed once keep the study near the
/// cost of its 2 M pilot draws.
fn bench_coverage_study(c: &mut Criterion) {
    let pilot = lrz_pilot(516);
    let mut group = c.benchmark_group("figure3_coverage");
    group.sample_size(10);
    for &reps in &[500usize, 2_000] {
        group.bench_function(BenchmarkId::new("replications", reps), |b| {
            let cfg = CoverageConfig {
                population_size: 1_024,
                sample_sizes: vec![5, 20],
                confidences: vec![0.80, 0.95, 0.99],
                replications: reps,
                threads: COVERAGE_THREADS,
                seed: 7,
            };
            b.iter(|| black_box(coverage_study(&pilot, &cfg).unwrap()));
        });
    }
    group.finish();
    let median_ms = criterion::measurement("figure3_coverage/replications/2000")
        .expect("the 2000-replication study was measured")
        .median_s
        * 1e3;
    report::budget("coverage_2000_reps_ms", median_ms, Direction::AtMost, 40.0);
}

fn bench_bootstrap_primitives(c: &mut Criterion) {
    let pilot = lrz_pilot(516);
    let mut group = c.benchmark_group("figure3_primitives");
    group.bench_function("resample_516", |b| {
        let mut rng = seeded(9);
        b.iter(|| black_box(pilot.resample(&mut rng, 516)));
    });
    group.bench_function("bootstrap_means_200", |b| {
        let mut rng = seeded(10);
        b.iter(|| black_box(bootstrap_means(&mut rng, &pilot, 200)));
    });
    group.finish();
}

criterion_group!(benches, bench_coverage_study, bench_bootstrap_primitives);
power_bench::bench_main!("figure3", benches);
