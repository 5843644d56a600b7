//! Telemetry-path benchmarks: streaming ingestion throughput (in-order
//! and jittered), the O(1) ring window query, and the sequential
//! stopping rule's per-sample cost.
//!
//! The throughput group also enforces the subsystem's hard budget: a
//! single ingest thread must sustain at least one million samples per
//! second into a bounded ring with every sample accounted for
//! (accepted + dropped + gap-filled), so a live campaign can keep up
//! with sub-millisecond meters without unbounded buffering.

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::report::{self, Direction};
use power_telemetry::ingest::{Collector, IngestConfig, Sample};
use power_telemetry::online::{CiQuantile, CvAssumption, SequentialEstimator, StoppingRule};
use power_telemetry::ring::RingBuffer;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

const NODES: usize = 16;
const PER_NODE: usize = 4_096;

fn cfg(lateness: u64) -> IngestConfig {
    IngestConfig {
        lateness,
        ring_capacity: 1_024,
    }
}

/// A node-major in-order sample stream over a synthetic fleet.
fn in_order_stream() -> Vec<Sample> {
    let mut samples = Vec::with_capacity(NODES * PER_NODE);
    for seq in 0..PER_NODE as u64 {
        for node in 0..NODES {
            let watts = 400.0 + node as f64 + (seq % 17) as f64 * 0.25;
            samples.push(Sample { node, seq, watts });
        }
    }
    samples
}

/// The same stream with per-node arrival jitter bounded by `lateness`.
fn jittered_stream(lateness: u64) -> Vec<Sample> {
    let mut samples = in_order_stream();
    let block = (lateness.max(1) as usize) * NODES;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7E1E);
    for chunk in samples.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            let j = rng.random_range(0..=i);
            chunk.swap(i, j);
        }
    }
    samples
}

fn ingest_all(samples: &[Sample], config: &IngestConfig) -> Collector {
    let mut c = Collector::new(NODES, 0.0, 1.0, config).unwrap();
    for &s in samples {
        c.ingest(s).unwrap();
    }
    c.flush();
    c
}

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_ingest");
    group.sample_size(10);
    let in_order = in_order_stream();
    group.bench_function(BenchmarkId::new("order", "sequential"), |b| {
        b.iter(|| black_box(ingest_all(&in_order, &cfg(0)).stats()));
    });
    let jittered = jittered_stream(8);
    group.bench_function(BenchmarkId::new("order", "jittered_l8"), |b| {
        b.iter(|| black_box(ingest_all(&jittered, &cfg(8)).stats()));
    });
    group.finish();
}

/// Hard budget: >= 1M samples/s through one thread, memory bounded by
/// the ring capacity, every sample accounted for.
fn bench_throughput_budget(c: &mut Criterion) {
    let samples = in_order_stream();
    let config = cfg(0);
    // Warm up once, then time enough passes to smooth scheduler noise.
    ingest_all(&samples, &config);
    let passes = 5;
    let start = Instant::now();
    let mut last = None;
    for _ in 0..passes {
        last = Some(ingest_all(&samples, &config));
    }
    let elapsed = start.elapsed().as_secs_f64();
    let collector = last.unwrap();
    let total = (passes * samples.len()) as f64;
    let rate = total / elapsed;
    let stats = collector.stats();
    report::budget("ingest_samples_per_s", rate, Direction::AtLeast, 1.0e6);
    for node in 0..NODES {
        let ring = collector.ring(node).unwrap();
        assert!(
            ring.len() <= ring.capacity(),
            "ring overflowed its capacity"
        );
        assert_eq!(
            ring.next_seq(),
            PER_NODE as u64,
            "ring lost track of the stream head"
        );
    }
    assert_eq!(
        stats.accepted + stats.dropped(),
        (NODES * PER_NODE) as u64,
        "samples must be accounted as accepted or dropped"
    );
    assert_eq!(stats.gaps, 0);
    println!(
        "telemetry_throughput_budget: {:.2}M samples/s single-thread (floor 1M)",
        rate / 1e6
    );

    let mut group = c.benchmark_group("telemetry_throughput");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("single_thread", "pass"), |b| {
        b.iter(|| black_box(ingest_all(&samples, &config).stats()));
    });
    group.finish();
}

fn bench_ring_query(c: &mut Criterion) {
    let mut ring = RingBuffer::new(0.0, 1.0, 65_536).unwrap();
    for k in 0..65_536u64 {
        ring.push(400.0 + (k % 31) as f64);
    }
    let mut group = c.benchmark_group("telemetry_ring_query");
    for &span in &[16u64, 1_024, 65_000] {
        group.bench_function(BenchmarkId::new("window_len", span), |b| {
            b.iter(|| {
                let from = 100.5;
                black_box(ring.window_average(from, from + span as f64).unwrap())
            });
        });
    }
    group.finish();
}

fn bench_stopping_rule(c: &mut Criterion) {
    let rule = StoppingRule {
        confidence: 0.95,
        lambda: 0.01,
        population: 10_000,
        quantile: CiQuantile::Normal,
        cv: CvAssumption::Empirical,
        min_nodes: 2,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let draws: Vec<f64> = (0..4_096)
        .map(|_| 400.0 * (1.0 + 0.03 * (rng.random::<f64>() - 0.5)))
        .collect();
    let mut group = c.benchmark_group("telemetry_stopping_rule");
    group.bench_function(BenchmarkId::new("push", "empirical_cv"), |b| {
        b.iter(|| {
            let mut est = SequentialEstimator::new(rule).unwrap();
            let mut stopped = 0u32;
            for &w in &draws {
                if est.push(w).stop {
                    stopped += 1;
                }
            }
            black_box(stopped)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest,
    bench_throughput_budget,
    bench_ring_query,
    bench_stopping_rule
);
power_bench::bench_main!("telemetry", benches);
