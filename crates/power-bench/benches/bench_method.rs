//! Measurement-methodology execution: full `measure()` pipelines under
//! every level, submission validation throughput, and the sampling
//! meter's 1 Hz walk over a full core phase (with an enforced budget).

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::report::{self, Direction};
use power_bench::{bench_sim_config, fixture};
use power_meter::device::MeterModel;
use power_method::level::Methodology;
use power_method::measure::{measure, MeasurementPlan};
use power_method::report::Submission;
use power_method::validate::validate;
use power_stats::rng::seeded;
use std::hint::black_box;

fn bench_measure_levels(c: &mut Criterion) {
    let f = fixture(power_sim::systems::lcsc(), 64);
    let workload = f.preset.workload.workload();
    let mut group = c.benchmark_group("measure_pipeline");
    group.sample_size(10);
    for methodology in Methodology::all() {
        group.bench_function(BenchmarkId::from_parameter(methodology), |b| {
            let plan = MeasurementPlan::honest(methodology, 3);
            b.iter(|| {
                black_box(
                    measure(
                        &f.cluster,
                        workload,
                        f.preset.balance,
                        bench_sim_config(f.dt),
                        &plan,
                    )
                    .unwrap(),
                )
            });
        });
    }
    group.finish();
}

fn bench_validate(c: &mut Criterion) {
    let f = fixture(power_sim::systems::lcsc(), 64);
    let workload = f.preset.workload.workload();
    let phases = workload.phases();
    let m = measure(
        &f.cluster,
        workload,
        f.preset.balance,
        bench_sim_config(f.dt),
        &MeasurementPlan::honest(Methodology::Level1, 3),
    )
    .unwrap();
    let submission = Submission::from_measurement("bench", &m);
    c.bench_function("validate_submission", |b| {
        b.iter(|| {
            for methodology in Methodology::all() {
                black_box(validate(&submission, &methodology.spec(), &phases));
            }
        });
    });
}

/// Budget: a PDU-grade meter (1 Hz, closed form) over a 25,200 s window
/// of a trace with Colosse's 50.4 s step, the shape of the Level 2 and
/// revised rules' full-core-phase windows. The walk works per run: about
/// 500 runs of 50 instants, each a few divisions and one `k·w` sum.
fn bench_meter_walk(c: &mut Criterion) {
    const DT: f64 = 50.4;
    const CORE_S: f64 = 25_200.0;
    let series: Vec<f64> = (0..560)
        .map(|i| 300.0 + 20.0 * (i as f64 * 0.07).sin())
        .collect();
    let (from, to) = (1_000.0, 1_000.0 + CORE_S);
    let meter = MeterModel::pdu_grade().instantiate(&mut seeded(5)).unwrap();
    let instants = meter
        .measure(&mut seeded(6), &series, 0.0, DT, from, to)
        .unwrap()
        .samples;
    assert_eq!(instants, CORE_S as usize);
    let mut group = c.benchmark_group("meter_walk");
    group.bench_function("pdu_1hz_25200s", |b| {
        let mut rng = seeded(7);
        b.iter(|| black_box(meter.measure(&mut rng, &series, 0.0, DT, from, to).unwrap()));
    });
    group.finish();
    let median_ns = criterion::measurement("meter_walk/pdu_1hz_25200s")
        .expect("the meter walk was measured")
        .median_s
        * 1e9;
    report::budget(
        "meter_walk_ns_per_instant",
        median_ns / instants as f64,
        Direction::AtMost,
        2.5,
    );
}

criterion_group!(
    benches,
    bench_measure_levels,
    bench_validate,
    bench_meter_walk
);
power_bench::bench_main!("method", benches);
