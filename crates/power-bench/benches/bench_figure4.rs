//! Figure 4: the L-CSC case-study sweep (per-node efficiency under
//! tuned / default / fan-corrected configurations).

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_campaign::artifacts::{figure4, LcscConfigurations};
use std::hint::black_box;

fn bench_figure4_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure4_case_study");
    for &nodes in &[16usize, 56, 160] {
        group.bench_function(BenchmarkId::new("nodes", nodes), |b| {
            b.iter(|| {
                let lcsc = LcscConfigurations::build().expect("case study valid");
                black_box(figure4(&lcsc, nodes).expect("case study valid"))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figure4_sweep);
power_bench::bench_main!("figure4", benches);
