//! The determinism contract, end to end: one scenario, several runs,
//! bitwise-identical output trees.
//!
//! The scenario mixes pure-statistics probes with simulation probes
//! (trace, gaming, measurement levels) so the test covers every RNG
//! stream a campaign can open: simulation noise, meter noise, node
//! selection. Byte identity must hold across repeated runs *and* across
//! thread counts — the work-stealing schedule must leak into nothing.

use std::path::PathBuf;

use power_campaign::{run_campaign, Scenario};

mod common;
use common::tree;

fn scenario() -> Scenario {
    Scenario::parse(
        r#"{
          "name": "det",
          "seeds": {"base": 99, "count": 4},
          "grids": [
            {"name": "sim",
             "systems": ["l-csc", "titan"],
             "methodologies": ["trace", "gaming", "level1", "revised"]},
            {"name": "pure",
             "methodologies": ["samplesize", "t_vs_z"]}
          ],
          "expect": [
            {"grid": "pure", "methodology": "samplesize", "metric": "n_l1_cv2",
             "value": 16, "tol": 0, "max_seed_delta": 0}
          ]
        }"#,
    )
    .unwrap()
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("power-campaign-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn output_tree_is_identical_across_threads_and_reruns() {
    let s = scenario();
    let runs = [("t1", 1usize), ("t4", 4), ("t4-again", 4), ("t7", 7)];
    let mut trees = Vec::new();
    for (tag, threads) in runs {
        let out = out_dir(tag);
        let report = run_campaign(&s, threads, &out).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations());
        trees.push((tag, out.clone(), tree(&out.join("det"))));
    }
    let (_, _, reference) = &trees[0];
    assert!(
        reference.contains_key("summary.json"),
        "files: {:?}",
        reference.keys().collect::<Vec<_>>()
    );
    // 2 systems × 4 probes + 2 pure probes = 10 CSVs, plus the summary.
    assert_eq!(
        reference.len(),
        11,
        "{:?}",
        reference.keys().collect::<Vec<_>>()
    );
    for (tag, _, t) in &trees[1..] {
        assert_eq!(
            t.keys().collect::<Vec<_>>(),
            reference.keys().collect::<Vec<_>>(),
            "file set differs for run {tag}"
        );
        for (path, bytes) in reference {
            assert_eq!(
                t.get(path).unwrap(),
                bytes,
                "bytes differ for {path} in run {tag}"
            );
        }
    }
    for (_, out, _) in trees {
        let _ = std::fs::remove_dir_all(out);
    }
}

/// Per-seed CSV rows are keyed by the seed value, not the seed's list
/// position: appending a seed leaves earlier rows byte-identical.
#[test]
fn adding_a_seed_extends_without_rewriting_rows() {
    let mut s = scenario();
    let out3 = out_dir("seeds3");
    let out4 = out_dir("seeds4");
    s.seeds = vec![99, 100, 101];
    run_campaign(&s, 2, &out3).unwrap();
    s.seeds = vec![99, 100, 101, 102];
    run_campaign(&s, 2, &out4).unwrap();
    let a = std::fs::read_to_string(out3.join("det/sim/l-csc__preset__pdu__trace__middle.csv"))
        .unwrap();
    let b = std::fs::read_to_string(out4.join("det/sim/l-csc__preset__pdu__trace__middle.csv"))
        .unwrap();
    let a_lines: Vec<&str> = a.lines().collect();
    let b_lines: Vec<&str> = b.lines().collect();
    assert_eq!(a_lines.len() + 1, b_lines.len());
    assert_eq!(&b_lines[..a_lines.len()], &a_lines[..]);
    let _ = std::fs::remove_dir_all(out3);
    let _ = std::fs::remove_dir_all(out4);
}
