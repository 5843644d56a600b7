//! `perfbench`: the hpcpower end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_campaign|serve_mixed|fleet_campaigns> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run builds its inputs from the
//! seed, measures for `--seconds`, checks every answer, prints report
//! lines (provenance, per-metric details) and, as the last line of
//! standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! With `--trace 0` the metrics are the end-to-end metrics, measured
//! with span recording off. With `--trace 1` the run instead records
//! spans around every layer call, writes them to
//! `.perfbench/spans-<workload>-<seed>.jsonl`, and prints the per-layer
//! metrics plus the tracing overhead. See `perfbench/README.md` for every
//! metric's definition and the layer → end-to-end mapping.

mod fleet;
mod layers;
mod paper;
mod provenance;
mod report;
mod serve;
#[cfg(test)]
mod smoke;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["paper_campaign", "serve_mixed", "fleet_campaigns"];

/// Shared inputs of one run.
pub struct Ctx {
    /// Repository root (the working directory).
    pub root: PathBuf,
    /// Scratch directory for archives and campaign output.
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Threads the load side may use (`nproc`).
    pub threads: usize,
    /// `scenarios/paper.json`.
    pub scenario_text: String,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let scenario_text = match std::fs::read_to_string(root.join("scenarios/paper.json")) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: run from the repository root (scenarios/paper.json: {e})");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        work: root.join(".perfbench"),
        root,
        seed: args.seed,
        threads: provenance::nproc(),
        scenario_text,
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work.display());
        return ExitCode::from(2);
    }
    let prov = provenance::Provenance::collect(&ctx.root, ctx.seed, &ctx.scenario_text);
    println!("{}", prov.line());
    println!(
        "run: workload={} seconds={} trace={}",
        args.workload,
        args.seconds,
        u8::from(args.trace)
    );

    let outcome: Outcome = if args.trace {
        layers::run(&ctx, &args.workload, &layers::Sizes::full())
    } else {
        match args.workload.as_str() {
            "paper_campaign" => paper::run(&ctx, args.seconds, 3),
            "serve_mixed" => serve::run(&ctx, args.seconds, &serve::Sizes::full()),
            _ => fleet::run(&ctx, args.seconds, &fleet::Sizes::full()),
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    // Not gated: the high-water mark moves by a fifth between runs with
    // allocator arena timing.
    println!("peak_rss_mb = {:.2} MiB", provenance::peak_rss_mb());
    println!(
        "error_ratio = {} ({} failed of {} attempted)",
        outcome.checks.error_ratio(),
        outcome.checks.failed,
        outcome.checks.attempted
    );
    for f in &outcome.checks.failures {
        println!("FAILED: {f}");
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve_mixed");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "serve_mixed", "--bogus", "1"]).is_err());
        assert!(args(&["--workload", "serve_mixed", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "serve_mixed", "--seconds", "0"]).is_err());
    }
}
