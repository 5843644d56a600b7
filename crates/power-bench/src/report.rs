//! Machine-readable bench results: every bench binary writes a
//! `BENCH_<name>.json` next to its human-readable Criterion output.
//!
//! Criterion's own artifacts are per-function timing distributions
//! buried under `target/criterion`; CI wants one small file per bench
//! target answering two questions — *what did the headline metrics
//! measure* and *did every enforced budget pass*. Bench functions
//! record into a process-global sink as they run ([`metric`],
//! [`budget`]); the bench's `main` adds every Criterion measurement
//! ([`timing`]) and drains the sink to disk with [`write()`]. A violated
//! budget is only recorded where it is measured, so the bench runs to
//! the end and a slow host still leaves its numbers behind: [`write()`]
//! writes the file with `"passed": false` and then panics, naming every
//! failed budget, so `cargo bench` fails loudly.
//!
//! Output directory: `$BENCH_RESULTS_DIR` when set, else
//! `results/bench` at the workspace root. The JSON is hand-serialized
//! and deliberately flat:
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

/// Records a metric *and* a budget on it. A violation does not stop the
/// bench; [`write()`] fails it after the report is on disk.
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

/// Drains the sink to `BENCH_<name>.json`, then panics if any budget
/// failed, naming each. Call once, at the end of the bench binary's
/// `main`; a bench with no recorded metrics still writes a file, so CI
/// can assert every target produced evidence of a run.
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
    let failed: Vec<String> = sink
        .budgets
        .iter()
        .filter(|b| !b.pass)
        .map(|b| {
            format!(
                "{} = {} must be {} {}",
                b.metric,
                b.measured,
                b.direction.label(),
                b.limit
            )
        })
        .collect();
    assert!(failed.is_empty(), "budget violated: {}", failed.join("; "));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sink and `BENCH_RESULTS_DIR` are process-global, so the tests
    /// that record and write take turns.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_results_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bench-report-{tag}-{}", std::process::id()));
        std::env::set_var("BENCH_RESULTS_DIR", &dir);
        dir
    }

    #[test]
    fn sink_records_enforces_and_writes() {
        let _turn = serial();
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

        // Write drains the sink to well-formed JSON.
        let dir = temp_results_dir("pass");
        metric("rate", 123.0);
        budget("rate_floor", 123.0, Direction::AtLeast, 100.0);
        timing("group/id", 0.25, 0.5, 1.0);
        write("selftest");
        std::env::remove_var("BENCH_RESULTS_DIR");
        let body = std::fs::read_to_string(dir.join("BENCH_selftest.json")).unwrap();
        assert!(body.contains("\"bench\": \"selftest\""));
        assert!(body.contains("\"alpha\": 2.5"));
        assert!(body.contains("\"rate\": 123"));
        assert!(body.contains("\"passed\": true"));
        assert!(body.contains("\"group/id.median_ns\": 500000000"), "{body}");
        assert!(body.contains("\"group/id.min_ns\": 250000000"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A violated budget only records; `write` puts the report on disk
    /// with `"passed": false` and then panics, naming every failed budget.
    #[test]
    fn failing_budgets_are_written_before_the_panic() {
        let _turn = serial();
        let dir = temp_results_dir("fail");
        budget("slow", 1.0, Direction::AtLeast, 100.0);
        budget("fine", 1.0, Direction::AtMost, 2.0);
        budget("late", 9.0, Direction::AtMost, 3.0);
        let err = std::panic::catch_unwind(|| write("failing")).unwrap_err();
        std::env::remove_var("BENCH_RESULTS_DIR");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("budget violated"), "{msg}");
        assert!(msg.contains("slow = 1 must be at_least 100"), "{msg}");
        assert!(msg.contains("late = 9 must be at_most 3"), "{msg}");
        assert!(!msg.contains("fine"), "{msg}");
        let body = std::fs::read_to_string(dir.join("BENCH_failing.json")).unwrap();
        assert!(body.contains("\"passed\": false"), "{body}");
        assert!(body.contains("\"metric\": \"slow\", \"kind\": \"at_least\", \"limit\": 100, \"measured\": 1, \"pass\": false"), "{body}");
        assert!(body.contains("\"fine\": 1"), "{body}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
