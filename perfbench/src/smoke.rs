//! Tiny-size runs of every workload and of the traced run, with every
//! correctness check on, plus a consistency check of `BENCHMARK.json`
//! against the metric lists in the code.

use std::path::PathBuf;
use std::sync::Mutex;

use mini_json::Json;

use crate::layers::{self, LAYER_METRICS};
use crate::report::{Outcome, END_TO_END};
use crate::{fleet, paper, provenance, serve, Ctx};

/// The workloads share process-wide state (span recording, ports, the
/// work directory); run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in a subdirectory of the repository")
        .to_path_buf()
}

fn ctx(name: &str) -> Ctx {
    let root = root();
    let scenario_text = std::fs::read_to_string(root.join("scenarios/paper_smoke.json"))
        .expect("scenarios/paper_smoke.json");
    let work = root.join(".perfbench").join(format!("test-{name}"));
    std::fs::create_dir_all(&work).expect("work dir");
    Ctx {
        root,
        work,
        seed: 3,
        threads: provenance::nproc(),
        scenario_text,
    }
}

fn tiny_serve() -> serve::Sizes {
    serve::Sizes {
        archive_keys: 2,
        archive_nodes: 4,
        archive_samples: 20_000.0,
        mem_keys: 2,
        distinct_windows: 8,
        rounds: 1,
        min_requests: 300,
    }
}

fn tiny_fleet() -> fleet::Sizes {
    fleet::Sizes {
        campaigns: 40,
        batch: 20,
        min_reps: 1,
    }
}

fn assert_clean(out: &Outcome, names: &[&str]) {
    assert!(out.checks.attempted > 0);
    assert_eq!(out.checks.failed, 0, "failures: {:?}", out.checks.failures);
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    assert_eq!(got, names);
    for m in &out.metrics {
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
    let json = Json::parse(&out.json_line()).expect("final line is JSON");
    assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
}

fn e2e_names() -> Vec<&'static str> {
    END_TO_END.iter().map(|(n, _)| *n).collect()
}

#[test]
fn paper_campaign_smoke() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = ctx("paper");
    let out = paper::run(&c, 0.01, 1);
    assert_clean(&out, &e2e_names());
    let _ = std::fs::remove_dir_all(&c.work);
}

#[test]
fn serve_mixed_smoke() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = ctx("serve");
    let out = serve::run(&c, 0.01, &tiny_serve());
    assert_clean(&out, &e2e_names());
    let _ = std::fs::remove_dir_all(&c.work);
}

#[test]
fn fleet_campaigns_smoke() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = ctx("fleet");
    let out = fleet::run(&c, 0.01, &tiny_fleet());
    assert_clean(&out, &e2e_names());
    let _ = std::fs::remove_dir_all(&c.work);
}

#[test]
fn traced_run_smoke() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let c = ctx("layers");
    let sizes = layers::Sizes {
        serve: tiny_serve(),
        serve_requests: 300,
        fleet: tiny_fleet(),
        bootstrap_reps: 100,
        bootstrap_population: 256,
    };
    let out = layers::run(&c, "paper_campaign", &sizes);
    let names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.name).collect();
    assert_clean(&out, &names);
    let _ = std::fs::remove_dir_all(&c.work);
}

#[test]
fn benchmark_json_matches_the_code() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(list("end_to_end"), e2e);
    let per_layer: Vec<(String, String)> = LAYER_METRICS
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(list("per_layer"), per_layer);
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, crate::WORKLOADS);
}
