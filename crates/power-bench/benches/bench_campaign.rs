//! Campaign-engine benchmarks with enforced budgets:
//!
//! * **pool speedup** — a 4-cell × 8-seed simulation scenario on the
//!   work-stealing pool must reach ≥ 3× the `--threads 1` wall clock
//!   when the host offers ≥ 4 cores (the budget is recorded but not
//!   enforced on smaller hosts — CI containers here expose one vCPU);
//! * **determinism under parallelism** — the parallel run's
//!   `summary.json` must be byte-identical to the sequential run's,
//!   always enforced: a scheduler leak into the output is a correctness
//!   bug, not a perf miss;
//! * **preset lookup** — `SystemPreset::by_name`, which every simulating
//!   campaign task calls, must take ≤ 20 µs on its Criterion median.
//!
//! Every measured figure lands in `BENCH_campaign.json` via
//! [`power_bench::report`].

use criterion::{criterion_group, Criterion};
use power_bench::report::{self, Direction};
use power_campaign::{run_campaign_with_store, Scenario};
use power_sim::store::TraceStore;
use power_sim::systems::SystemPreset;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// 4 cells × 8 seeds of real simulation work (every (cell, seed) task
/// of the `trace` probe is a fresh sweep — nothing is served from the
/// memo, so the pool has genuine work to steal).
fn pool_scenario() -> Scenario {
    Scenario::parse(
        r#"{
          "name": "bench_pool",
          "seeds": {"base": 1, "count": 8},
          "scale": {"max_nodes": 128, "dt_scale": 8.0},
          "grids": [
            {"name": "sweep",
             "systems": ["colosse", "l-csc", "titan", "lrz"],
             "methodologies": ["trace"]}
          ]
        }"#,
    )
    .unwrap()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-campaign-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Budgets: parallel speedup (enforced on ≥ 4-core hosts) and byte
/// identity of `summary.json` across thread counts (always enforced).
fn bench_campaign_pool(c: &mut Criterion) {
    let scenario = pool_scenario();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads = cores.max(4);

    // Fresh stores per run: a warm memo would hand the second run its
    // sweeps for free and fake the speedup.
    let out1 = out_dir("t1");
    let start = Instant::now();
    run_campaign_with_store(&scenario, 1, &out1, &TraceStore::new()).expect("sequential run");
    let t1 = start.elapsed().as_secs_f64();

    let outn = out_dir("tn");
    let start = Instant::now();
    run_campaign_with_store(&scenario, threads, &outn, &TraceStore::new()).expect("parallel run");
    let tn = start.elapsed().as_secs_f64();

    let speedup = t1 / tn;
    report::metric("seq_s", t1);
    report::metric("par_s", tn);
    report::metric("threads", threads as f64);
    report::metric("host_cores", cores as f64);
    if cores >= 4 {
        report::budget("pool_speedup", speedup, Direction::AtLeast, 3.0);
    } else {
        report::metric("pool_speedup_unenforced", speedup);
    }

    let a = std::fs::read(out1.join("bench_pool/summary.json")).expect("sequential summary");
    let b = std::fs::read(outn.join("bench_pool/summary.json")).expect("parallel summary");
    report::budget(
        "summary_bytes_identical",
        f64::from(u8::from(a == b)),
        Direction::AtLeast,
        1.0,
    );
    assert_eq!(a, b, "summary.json must not depend on --threads");
    println!(
        "campaign_pool: {} tasks, seq {t1:.2}s, {threads} threads {tn:.2}s ({speedup:.2}x, {cores} cores)",
        4 * 8
    );
    let _ = std::fs::remove_dir_all(&out1);
    let _ = std::fs::remove_dir_all(&outn);

    // Timed unit: one pure-statistics campaign through the whole
    // expand → pool → fold → gate pipeline (no simulation cost).
    let stats = Scenario::parse(
        r#"{"name":"bench_stats","seeds":[1,2,3],
            "grids":[{"name":"g","methodologies":["samplesize","t_vs_z"]}],
            "expect":[{"metric":"n_l1_cv2","methodology":"samplesize","value":16}]}"#,
    )
    .unwrap();
    let mut group = c.benchmark_group("campaign");
    group.sample_size(20);
    group.bench_function("stats_pipeline", |b| {
        let out = out_dir("stats");
        b.iter(|| {
            let report =
                run_campaign_with_store(&stats, 2, &out, &TraceStore::new()).expect("stats run");
            assert!(report.passed());
            black_box(report.cells.len())
        });
        let _ = std::fs::remove_dir_all(&out);
    });
    group.finish();
}

/// Budget: a preset lookup, as every simulating campaign task makes one,
/// reads the process-wide catalog and clones one preset instead of
/// building (and calibrating) all of them.
fn bench_preset_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.bench_function("preset_by_name", |b| {
        b.iter(|| black_box(SystemPreset::by_name(black_box("colosse")).unwrap()));
    });
    group.finish();
    let median_us = criterion::measurement("campaign/preset_by_name")
        .expect("the preset lookup was measured")
        .median_s
        * 1e6;
    report::budget("preset_by_name_us", median_us, Direction::AtMost, 20.0);
}

criterion_group!(benches, bench_campaign_pool, bench_preset_lookup);
power_bench::bench_main!("campaign", benches);
