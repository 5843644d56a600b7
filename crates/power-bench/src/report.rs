//! Machine-readable bench results: every bench binary writes a
//! `BENCH_<name>.json` next to its human-readable Criterion output.
//!
//! Criterion's own artifacts are per-function timing distributions
//! buried under `target/criterion`; CI wants one small file per bench
//! target answering two questions — *what did the headline metrics
//! measure* and *did every enforced budget pass*. Bench functions
//! record into a process-global sink as they run ([`metric`],
//! [`budget`]); the bench's `main` adds every Criterion measurement
//! ([`timing`]) and drains the sink to disk with [`write`]. A budget
//! violation still panics exactly where it is measured, so `cargo
//! bench` fails loudly and the JSON (written on the success path only)
//! never claims a failed run passed.
//!
//! Output directory: `$BENCH_RESULTS_DIR` when set, else
//! `results/bench` at the workspace root. The JSON is hand-serialized
//! (the workspace takes no serde dependency) and deliberately flat:
//!
//! ```json
//! {
//!   "bench": "fleet",
//!   "metrics": {"ingest_samples_per_s": 2.1e7},
//!   "budgets": [
//!     {"metric": "ingest_samples_per_s", "kind": "at_least",
//!      "limit": 1.3e7, "measured": 2.1e7, "pass": true}
//!   ],
//!   "passed": true
//! }
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;

/// Which side of the limit a budget enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Measured value must be `>= limit` (throughput floors).
    AtLeast,
    /// Measured value must be `<= limit` (latency ceilings).
    AtMost,
}

impl Direction {
    fn label(self) -> &'static str {
        match self {
            Direction::AtLeast => "at_least",
            Direction::AtMost => "at_most",
        }
    }

    fn holds(self, measured: f64, limit: f64) -> bool {
        match self {
            Direction::AtLeast => measured >= limit,
            Direction::AtMost => measured <= limit,
        }
    }
}

#[derive(Debug, Clone)]
struct BudgetLine {
    metric: String,
    direction: Direction,
    limit: f64,
    measured: f64,
    pass: bool,
}

#[derive(Debug, Default)]
struct Sink {
    metrics: BTreeMap<String, f64>,
    budgets: Vec<BudgetLine>,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

fn with_sink<T>(f: impl FnOnce(&mut Sink) -> T) -> T {
    let mut guard = SINK.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Sink::default))
}

/// Records one headline metric (later metrics with the same name win —
/// benches typically record their best pass).
pub fn metric(name: &str, value: f64) {
    with_sink(|s| {
        s.metrics.insert(name.to_string(), value);
    });
}

/// Records one benchmark's per-iteration times (given in seconds) as
/// `<id>.min_ns`, `<id>.median_ns` and `<id>.mean_ns`.
pub fn timing(id: &str, min_s: f64, median_s: f64, mean_s: f64) {
    for (stat, seconds) in [("min", min_s), ("median", median_s), ("mean", mean_s)] {
        metric(&format!("{id}.{stat}_ns"), seconds * 1e9);
    }
}

/// Records a metric *and* enforces a budget on it: the measurement is
/// always written to the sink, then the bench panics if the budget
/// does not hold, so the violation fails `cargo bench` at the site
/// that measured it.
pub fn budget(name: &str, measured: f64, direction: Direction, limit: f64) {
    let pass = direction.holds(measured, limit);
    with_sink(|s| {
        s.metrics.insert(name.to_string(), measured);
        s.budgets.push(BudgetLine {
            metric: name.to_string(),
            direction,
            limit,
            measured,
            pass,
        });
    });
    assert!(
        pass,
        "budget violated: {name} = {measured} must be {} {limit}",
        direction.label()
    );
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Shortest round-trippable form keeps the files diff-friendly.
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BENCH_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    // CARGO_MANIFEST_DIR is crates/power-bench; the workspace root is
    // two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results/bench")
}

/// Drains the sink to `BENCH_<name>.json`. Call once, at the end of the
/// bench binary's `main`; a bench with no recorded metrics still writes
/// a file, so CI can assert every target produced evidence of a run.
pub fn write(name: &str) {
    let sink = SINK
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
        .unwrap_or_default();
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{name}\",\n"));
    out.push_str("  \"metrics\": {");
    let mut first = true;
    for (key, value) in &sink.metrics {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{key}\": {}", json_num(*value)));
    }
    out.push_str(if sink.metrics.is_empty() {
        "},\n"
    } else {
        "\n  },\n"
    });
    out.push_str("  \"budgets\": [");
    let mut first = true;
    for b in &sink.budgets {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"metric\": \"{}\", \"kind\": \"{}\", \"limit\": {}, \"measured\": {}, \"pass\": {}}}",
            b.metric,
            b.direction.label(),
            json_num(b.limit),
            json_num(b.measured),
            b.pass
        ));
    }
    out.push_str(if sink.budgets.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    let passed = sink.budgets.iter().all(|b| b.pass);
    out.push_str(&format!("  \"passed\": {passed}\n}}\n"));

    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create bench results dir");
    let dir = dir.canonicalize().unwrap_or(dir);
    let path = dir.join(format!("BENCH_{name}.json"));
    std::fs::write(&path, out).expect("write bench report");
    println!("bench report: {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sequential test: the sink is process-global, so the record /
    /// enforce / write phases must not interleave with each other.
    #[test]
    fn sink_records_enforces_and_writes() {
        // Record and enforce.
        metric("alpha", 2.5);
        budget("beta", 10.0, Direction::AtLeast, 5.0);
        budget("gamma", 0.5, Direction::AtMost, 1.0);
        with_sink(|s| {
            assert_eq!(s.metrics["alpha"], 2.5);
            assert_eq!(s.metrics["beta"], 10.0);
            assert_eq!(s.budgets.len(), 2);
            assert!(s.budgets.iter().all(|b| b.pass));
        });

        // A violated budget panics *after* recording the measurement.
        let err = std::panic::catch_unwind(|| {
            budget("slow", 1.0, Direction::AtLeast, 100.0);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("budget violated"), "{msg}");
        with_sink(|s| {
            let line = s.budgets.last().unwrap();
            assert_eq!(line.metric, "slow");
            assert!(!line.pass);
        });
        // Reset: the failed line above would fail the whole report.
        SINK.lock().unwrap_or_else(|e| e.into_inner()).take();

        // Write drains the sink to well-formed JSON.
        let dir = std::env::temp_dir().join(format!("bench-report-{}", std::process::id()));
        std::env::set_var("BENCH_RESULTS_DIR", &dir);
        metric("rate", 123.0);
        budget("rate_floor", 123.0, Direction::AtLeast, 100.0);
        timing("group/id", 0.25, 0.5, 1.0);
        write("selftest");
        std::env::remove_var("BENCH_RESULTS_DIR");
        let body = std::fs::read_to_string(dir.join("BENCH_selftest.json")).unwrap();
        assert!(body.contains("\"bench\": \"selftest\""));
        assert!(body.contains("\"rate\": 123"));
        assert!(body.contains("\"passed\": true"));
        assert!(body.contains("\"group/id.median_ns\": 500000000"), "{body}");
        assert!(body.contains("\"group/id.min_ns\": 250000000"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
