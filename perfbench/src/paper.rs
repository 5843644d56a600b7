//! `paper_campaign`: the batch path, `scenarios/paper.json` through
//! `power_campaign::run_campaign_with_store`.
//!
//! One operation is one whole campaign: a fresh `TraceStore` and output
//! directory, timed from `Scenario::parse` until `summary.json` is
//! written. The workload seed picks [`LISTS`] scenario seed lists, and a
//! run cycles through them in whole rounds: a campaign's work depends on
//! its seed list (one list costs up to an eighth more than another), so
//! one list per run would make the figures follow the seed rather than
//! the code. Every repetition on a list must produce a byte-identical
//! `summary.json` and pass every gate.

use std::path::Path;
use std::time::{Duration, Instant};

use power_campaign::{run_campaign_with_store, CampaignReport, Scenario};
use power_sim::store::TraceStore;

use crate::provenance::{cpu_seconds, fnv1a};
use crate::report::{Checks, Outcome};
use crate::stats::{median, Latency};
use crate::Ctx;

/// Seeds per campaign, as in `scenarios/paper.json`.
const SEEDS_PER_CAMPAIGN: u64 = 5;

/// The scenario seed list for workload seed `seed`: five consecutive
/// seeds from a base the workload seed selects.
pub fn campaign_seeds(seed: u64) -> Vec<u64> {
    let base = 20_150_715 + (seed % 100_000) * SEEDS_PER_CAMPAIGN;
    (base..base + SEEDS_PER_CAMPAIGN).collect()
}

/// Seed lists one untraced run cycles through.
pub const LISTS: usize = 4;

/// The [`LISTS`] seed lists of workload seed `seed`; the first is
/// [`campaign_seeds`]`(seed)`, and no two share a seed.
pub fn run_seed_lists(seed: u64) -> Vec<Vec<u64>> {
    (0..LISTS as u64)
        .map(|k| campaign_seeds(seed.wrapping_add(k * 25_013)))
        .collect()
}

/// One finished campaign.
pub struct Repetition {
    /// Parse → `summary.json` written.
    pub wall: Duration,
    /// The engine's report.
    pub report: CampaignReport,
    /// `summary.json` as written.
    pub summary: Vec<u8>,
}

/// Runs the scenario once into `out_root` with a fresh store.
pub fn repetition(
    text: &str,
    seeds: &[u64],
    threads: usize,
    out_root: &Path,
) -> Result<Repetition, String> {
    let _ = std::fs::remove_dir_all(out_root);
    let started = Instant::now();
    let mut scenario = Scenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
    scenario.seeds = seeds.to_vec();
    let store = TraceStore::new();
    let report = run_campaign_with_store(&scenario, threads, out_root, &store)
        .map_err(|e| format!("campaign: {e}"))?;
    let wall = started.elapsed();
    let summary = std::fs::read(report.out_dir.join("summary.json"))
        .map_err(|e| format!("reading summary.json: {e}"))?;
    Ok(Repetition {
        wall,
        report,
        summary,
    })
}

/// Counts every gate and the byte identity of `summary.json` against
/// `reference`.
pub fn check_repetition(rep: &Repetition, reference: &[u8], checks: &mut Checks) {
    for gate in &rep.report.gates {
        checks.check(gate.outcome.passed(), || {
            format!(
                "gate {} {} {}: {:?}",
                gate.cell, gate.metric, gate.constraint, gate.outcome
            )
        });
    }
    checks.check(rep.summary == reference, || {
        format!(
            "summary.json hash {:016x} differs from the first repetition's {:016x}",
            fnv1a(&rep.summary),
            fnv1a(reference)
        )
    });
}

/// The untraced workload: set up, then repeat campaigns for `seconds`,
/// in whole rounds of one campaign per seed list.
pub fn run(ctx: &Ctx, seconds: f64, min_reps: usize) -> Outcome {
    let mut out = Outcome::default();
    let lists = run_seed_lists(ctx.seed);
    let dir = ctx.work.join("paper");
    let threads = ctx.threads;

    // Set-up, once per seed list: a warm-up campaign (caches, allocator,
    // page cache) whose summary.json is the reference every later
    // campaign on that list must reproduce byte for byte.
    let mut setups = Vec::new();
    let mut warm: Vec<Repetition> = Vec::new();
    for seeds in &lists {
        let setup_started = Instant::now();
        match repetition(&ctx.scenario_text, seeds, threads, &dir.join("warmup")) {
            Ok(r) => {
                setups.push(setup_started.elapsed().as_secs_f64());
                check_repetition(&r, &r.summary, &mut out.checks);
                warm.push(r);
            }
            Err(e) => {
                out.checks.check(false, || e);
                return out;
            }
        }
    }

    let mut walls = Vec::new();
    let started = Instant::now();
    let cpu_started = cpu_seconds();
    while walls.len() < min_reps
        || started.elapsed().as_secs_f64() < seconds
        || walls.len() % LISTS != 0
    {
        let k = walls.len() % LISTS;
        let rep_dir = dir.join(format!("rep-{}", walls.len() % 2));
        match repetition(&ctx.scenario_text, &lists[k], threads, &rep_dir) {
            Ok(rep) => {
                check_repetition(&rep, &warm[k].summary, &mut out.checks);
                walls.push(rep.wall.as_secs_f64());
            }
            Err(e) => {
                out.checks.check(false, || e);
                break;
            }
        }
    }
    let cpu_per_campaign = (cpu_seconds() - cpu_started) / walls.len() as f64;
    let _ = std::fs::remove_dir_all(&dir);

    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let lat = Latency::of(&ms);
    let tail = ms.iter().copied().fold(f64::NAN, f64::max);
    out.line(format!(
        "paper_campaign: {} campaigns on {threads} threads over {LISTS} seed lists starting at {:?}, {} gates each",
        walls.len(),
        lists.iter().map(|l| l[0]).collect::<Vec<_>>(),
        warm[0].report.gates.len()
    ));
    for (seeds, w) in lists.iter().zip(&warm) {
        out.line(format!(
            "paper_campaign: seeds {seeds:?}: summary.json fnv1a {:016x} ({} bytes)",
            fnv1a(&w.summary),
            w.summary.len()
        ));
    }
    out.line(format!(
        "paper_campaign: every summary.json identical to its list's warm-up: {}",
        out.checks.failed == 0
    ));
    // Each list's median campaign, averaged over the lists, so every list
    // weighs the same whichever of them the median of all would fall on.
    let list_p50_ms: Vec<f64> = (0..LISTS)
        .map(|k| median(&ms.iter().skip(k).step_by(LISTS).copied().collect::<Vec<_>>()))
        .collect();
    let p50_ms = list_p50_ms.iter().sum::<f64>() / LISTS as f64;
    out.line(format!(
        "campaign_wall_s = {:.4} s (mean of the per-list medians {list_p50_ms:.1?} ms; all campaigns: {}; op_tail_ms, the slowest campaign, not gated: {:.1} ms)",
        p50_ms / 1e3,
        lat.describe("ms"),
        tail
    ));
    out.end_to_end([median(&setups), p50_ms, cpu_per_campaign]);
    out
}
