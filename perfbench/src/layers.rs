//! The traced run: per-layer metrics, each tagged with the end-to-end
//! metric and workload it should move.
//!
//! Spans are recorded around calls into each layer's public functions
//! from this file (and the workload files), never inside the crates. The
//! run covers every layer whatever `--workload` names; the workload only
//! selects which end-to-end unit is timed twice, traced and untraced, to
//! report the tracing overhead.
//!
//! Counts that must repeat exactly (`sim.node_steps`, `store.*`,
//! `fleet.rounds`, `fleet.nodes_metered`, `fleet.samples_offered`) are
//! produced twice from the same seed in one run; any mismatch fails it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use power_archive::codec::{decode_block, decode_watts_span, encode_block, DEFAULT_QUANTUM};
use power_campaign::gate::evaluate;
use power_campaign::grid::expand;
use power_campaign::pool::run_tasks;
use power_campaign::probe::{run_probe, Metrics};
use power_campaign::summary::fold;
use power_campaign::{CampaignReport, CellResult, Scenario};
use power_fleet::{CampaignState, Fleet, FleetCampaignSpec, FleetConfig};
use power_meter::campaign::Campaign;
use power_meter::device::MeterModel;
use power_method::level::Methodology;
use power_method::measure::{measure_with_store, MeasurementPlan};
use power_serve::loadgen::post_request_keep_alive;
use power_serve::{route, route_fast, RequestBuffer, ServeState};
use power_sim::cluster::Cluster;
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig};
use power_sim::store::{CacheStats, TraceStore};
use power_sim::systems::SystemPreset;
use power_sim::Simulator;
use power_stats::bootstrap::{coverage_study, CoverageConfig};
use power_stats::empirical::Empirical;
use power_stats::sample_size::SampleSizePlan;
use power_stats::student_t::t_critical;
use power_telemetry::{
    IngestConfig, IngestPlane, PlaneConfig, RingBuffer, Sample, SequentialEstimator,
};

use crate::report::{Checks, Outcome};
use crate::serve::{self, Plan, Rng};
use crate::stats::median;
use crate::{fleet, paper, trace, Ctx};

/// One per-layer metric: what it is and what it should move.
pub struct LayerMetric {
    /// Name as listed under `per_layer` in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The crate (layer) it measures.
    pub layer: &'static str,
    /// End-to-end metric(s) and workload it should move.
    pub target: &'static str,
}

const CAMPAIGN: &str = "op_ms, job_cpu_s on paper_campaign (campaign_wall_s)";
const SIM: &str = "op_ms, job_cpu_s on paper_campaign (campaign_wall_s); job_cpu_s on serve_mixed (measure_p50_ms); no change on fleet_campaigns";
const STORE: &str = "job_cpu_s on serve_mixed (measure_p50_ms, window_archive_p50_us)";
const METHOD: &str = "job_cpu_s on serve_mixed (measure_p50_ms); op_ms, job_cpu_s on paper_campaign (levels grid)";
const STATS: &str = "op_ms, job_cpu_s on paper_campaign (figure3)";
const ARCHIVE: &str = "op_ms on serve_mixed (window_archive_p50_us) only";
const SERVE: &str = "op_ms, job_cpu_s on serve_mixed (window_mem_*, serve_rps); op_ms on fleet_campaigns (leaderboard_p50_us)";
const FLEET: &str = "op_ms, job_cpu_s on fleet_campaigns (fleet_wall_s, leaderboard_*)";

/// Every per-layer metric, in print order.
pub const LAYER_METRICS: &[LayerMetric] = &[
    m("campaign.parse_us", "us", "power-campaign", CAMPAIGN),
    m("campaign.expand_us", "us", "power-campaign", CAMPAIGN),
    m(
        "campaign.fold_gate_write_ms",
        "ms",
        "power-campaign",
        CAMPAIGN,
    ),
    m("pool.busy_frac", "ratio", "power-campaign", CAMPAIGN),
    m("pool.steals", "count", "power-campaign", CAMPAIGN),
    m("probe.trace_ms", "ms", "power-campaign", CAMPAIGN),
    m("probe.nodes_ms", "ms", "power-campaign", CAMPAIGN),
    m("probe.level_ms", "ms", "power-campaign", CAMPAIGN),
    m("probe.coverage_ms", "ms", "power-campaign", CAMPAIGN),
    m("probe.gaming_ms", "ms", "power-campaign", CAMPAIGN),
    m("probe.stats_ms", "ms", "power-campaign", CAMPAIGN),
    m("sim.node_steps", "count", "power-sim", SIM),
    m("sim.node_steps_per_s", "1/s", "power-sim", SIM),
    m("store.hits", "count", "power-sim TraceStore", STORE),
    m("store.misses", "count", "power-sim TraceStore", STORE),
    m("store.derived", "count", "power-sim TraceStore", STORE),
    m("store.coalesced", "count", "power-sim TraceStore", STORE),
    m("store.evictions", "count", "power-sim TraceStore", STORE),
    m(
        "store.archive_writes",
        "count",
        "power-sim TraceStore",
        STORE,
    ),
    m(
        "store.archive_pruned_queries",
        "count",
        "power-sim TraceStore",
        STORE,
    ),
    m(
        "store.blocks_skipped",
        "count",
        "power-sim TraceStore",
        STORE,
    ),
    m("store.hit_ratio", "ratio", "power-sim TraceStore", STORE),
    m("meter.campaign_run_us", "us", "power-meter", METHOD),
    m("method.measure_warm_ms", "ms", "power-method", METHOD),
    m("method.measure_cold_ms", "ms", "power-method", METHOD),
    m("stats.coverage_study_ms", "ms", "power-stats", STATS),
    m("stats.t_critical_ns", "ns", "power-stats", STATS),
    m("stats.required_nodes_ns", "ns", "power-stats", STATS),
    m("codec.encode_mb_per_s", "MB/s", "power-archive", ARCHIVE),
    m("codec.decode_mb_per_s", "MB/s", "power-archive", ARCHIVE),
    m("codec.span_decode_us", "us", "power-archive", ARCHIVE),
    m("archive.pruned_query_us", "us", "power-archive", ARCHIVE),
    m("http.parse_ns", "ns", "power-serve", SERVE),
    m("http.encode_ns", "ns", "power-serve", SERVE),
    m("router.fast_window_us", "us", "power-serve", SERVE),
    m("router.fast_archive_us", "us", "power-serve", SERVE),
    m("router.measure_ms", "ms", "power-serve", SERVE),
    m("serve.wire_us", "us", "power-serve", SERVE),
    m("serve.dispatch_rejections", "count", "power-serve", SERVE),
    m("serve.worker_panics", "count", "power-serve", SERVE),
    m("serve.admission_conserved", "bool", "power-serve", SERVE),
    m("plane.offer_samples_per_s", "1/s", "power-telemetry", FLEET),
    m("ring.window_query_ns", "ns", "power-telemetry", FLEET),
    m("online.push_ns", "ns", "power-telemetry", FLEET),
    m("fleet.create_us", "us", "power-fleet", FLEET),
    m("fleet.round_us", "us", "power-fleet", FLEET),
    m("fleet.idle_round_us", "us", "power-fleet", FLEET),
    m("fleet.leaderboard_us", "us", "power-fleet", FLEET),
    m("fleet.rounds", "count", "power-fleet", FLEET),
    m("fleet.nodes_metered", "count", "power-fleet", FLEET),
    m("fleet.samples_offered", "count", "power-fleet", FLEET),
    m(
        "trace.overhead_pct",
        "%",
        "benchmark",
        "traced minus untraced wall of the named workload's unit",
    ),
];

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    target: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        layer,
        target,
    }
}

/// Sizes of the traced run. [`Sizes::full`] is the benchmark.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Serve count-pass shape.
    pub serve: serve::Sizes,
    /// Requests per serve count pass.
    pub serve_requests: usize,
    /// Fleet shape (HTTP repetitions and the in-process roster).
    pub fleet: fleet::Sizes,
    /// Bootstrap replications for the coverage-study probe.
    pub bootstrap_reps: usize,
    /// Bootstrap population.
    pub bootstrap_population: usize,
}

impl Sizes {
    /// The benchmark's shape.
    pub fn full() -> Sizes {
        Sizes {
            serve: serve::Sizes {
                distinct_windows: 64,
                rounds: 1,
                ..serve::Sizes::full()
            },
            serve_requests: 2_000,
            fleet: fleet::Sizes::full(),
            bootstrap_reps: 2_000,
            bootstrap_population: 2_048,
        }
    }
}

/// Collected per-layer values.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, v: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|m| m.name == name),
            "{name} is not a listed per-layer metric"
        );
        self.0.insert(name, v);
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Median of `f`'s wall time over `n` calls, in µs.
fn median_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            f(i);
            us(t)
        })
        .collect();
    median(&samples)
}

/// Mean wall time per call of `f` over `n` calls, in ns.
fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

// ---- power-campaign ------------------------------------------------------

fn family(methodology: &str) -> &'static str {
    if Methodology::by_name(methodology).is_some() {
        return "probe.level";
    }
    match methodology {
        "trace" => "probe.trace",
        "nodes" => "probe.nodes",
        "coverage" => "probe.coverage",
        "gaming" => "probe.gaming",
        "samplesize" | "accuracy_gap" | "t_vs_z" | "vid" => "probe.stats",
        _ => "probe.other",
    }
}

/// `power_campaign::engine`'s per-cell CSV, byte for byte.
fn cell_csv(seeds: &[u64], result: &CellResult) -> String {
    let columns: Vec<&String> = result.bands.keys().collect();
    let mut out = String::from("seed");
    for c in &columns {
        out.push(',');
        out.push_str(c);
    }
    out.push('\n');
    for (si, seed) in seeds.iter().enumerate() {
        out.push_str(&seed.to_string());
        for c in &columns {
            out.push(',');
            if let Some(v) = result.per_seed[si].get(c.as_str()) {
                out.push_str(&v.to_string());
            }
        }
        out.push('\n');
    }
    out
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `run_campaign_with_store` step by step from its public parts, with a
/// span around each step and each probe. Returns the wall time, pool
/// steals and `summary.json`.
fn traced_campaign(
    text: &str,
    seeds: &[u64],
    threads: usize,
    out_root: &Path,
) -> Result<(f64, usize, Vec<u8>), String> {
    let _ = std::fs::remove_dir_all(out_root);
    let started = Instant::now();
    let root = trace::enter("campaign", None);
    let mut scenario = trace::with("campaign.parse", root.id(), || Scenario::parse(text))
        .map_err(|e| format!("scenario: {e}"))?;
    scenario.seeds = seeds.to_vec();
    let cells = trace::with("campaign.expand", root.id(), || expand(&scenario));
    let store = TraceStore::new();
    let tasks: Vec<(usize, usize)> = (0..cells.len())
        .flat_map(|ci| (0..seeds.len()).map(move |si| (ci, si)))
        .collect();
    let scale = scenario.scale;
    let pool_span = trace::enter("campaign.pool", root.id());
    let pool_id = pool_span.id();
    let (outcomes, pool) = run_tasks(threads, &tasks, |_, &(ci, si)| {
        let _probe = trace::enter(family(&cells[ci].methodology), pool_id);
        run_probe(&cells[ci], seeds[si], &scale, &store)
    });
    drop(pool_span);

    let fgw = trace::enter("campaign.fold_gate_write", root.id());
    let mut per_cell: Vec<Vec<Metrics>> = vec![Vec::with_capacity(seeds.len()); cells.len()];
    for (t, outcome) in tasks.iter().zip(outcomes) {
        per_cell[t.0].push(outcome.map_err(|e| e.to_string())?);
    }
    let results: Vec<CellResult> = cells
        .into_iter()
        .zip(per_cell)
        .map(|(cell, per_seed)| {
            let mut names: Vec<String> = per_seed.iter().flat_map(|m| m.keys().cloned()).collect();
            names.sort_unstable();
            names.dedup();
            let bands = names
                .into_iter()
                .filter_map(|name| {
                    let values: Vec<f64> = per_seed
                        .iter()
                        .filter_map(|m| m.get(&name).copied())
                        .collect();
                    fold(&values).map(|b| (name, b))
                })
                .collect();
            CellResult {
                cell,
                per_seed,
                bands,
            }
        })
        .collect();
    let gates = evaluate(&scenario.expect, &results);
    let steals = pool.steals;
    let report = CampaignReport {
        name: scenario.name.clone(),
        seeds: seeds.to_vec(),
        cells: results,
        gates,
        out_dir: out_root.join(&scenario.name),
        pool,
    };
    for cell in &report.cells {
        let path = report
            .out_dir
            .join(&cell.cell.grid)
            .join(format!("{}.csv", cell.cell.file_stem()));
        write(&path, &cell_csv(seeds, cell))?;
    }
    let mut summary = report.summary_json().render();
    summary.push('\n');
    write(&report.out_dir.join("summary.json"), &summary)?;
    drop(fgw);
    drop(root);
    Ok((
        started.elapsed().as_secs_f64(),
        steals,
        summary.into_bytes(),
    ))
}

/// The campaign layer: a warm-up engine run, the traced replica, then an
/// untraced engine run; all three must write the same `summary.json`.
/// Returns (traced, untraced) wall seconds.
fn campaign_layer(
    ctx: &Ctx,
    v: &mut Values,
    out: &mut Outcome,
    all_spans: &mut Vec<trace::Span>,
) -> Option<(f64, f64)> {
    let seeds = paper::campaign_seeds(ctx.seed);
    let dir = ctx.work.join("layers-campaign");
    let engine_run = |checks: &mut Checks| {
        trace::set_enabled(false);
        let r = paper::repetition(&ctx.scenario_text, &seeds, ctx.threads, &dir.join("engine"));
        trace::set_enabled(true);
        r.map_err(|e| checks.check(false, || e)).ok()
    };
    let warm = engine_run(&mut out.checks)?;
    paper::check_repetition(&warm, &warm.summary, &mut out.checks);
    let traced = traced_campaign(&ctx.scenario_text, &seeds, ctx.threads, &dir.join("traced"));
    let spans = trace::take();
    let engine = engine_run(&mut out.checks)?;
    paper::check_repetition(&engine, &warm.summary, &mut out.checks);
    let _ = std::fs::remove_dir_all(&dir);
    let (wall, steals, summary) = match traced {
        Ok(t) => t,
        Err(e) => {
            out.checks.check(false, || e);
            return None;
        }
    };
    out.checks.check(summary == engine.summary, || {
        "traced campaign replica wrote a different summary.json than the engine".into()
    });
    let ms = |name: &str| trace::total_ns(&spans, name) as f64 / 1e6;
    v.set("campaign.parse_us", ms("campaign.parse") * 1e3);
    v.set("campaign.expand_us", ms("campaign.expand") * 1e3);
    v.set(
        "campaign.fold_gate_write_ms",
        ms("campaign.fold_gate_write"),
    );
    for (metric, span) in [
        ("probe.trace_ms", "probe.trace"),
        ("probe.nodes_ms", "probe.nodes"),
        ("probe.level_ms", "probe.level"),
        ("probe.coverage_ms", "probe.coverage"),
        ("probe.gaming_ms", "probe.gaming"),
        ("probe.stats_ms", "probe.stats"),
    ] {
        v.set(metric, ms(span));
    }
    let probes_ms: f64 = spans
        .iter()
        .filter(|s| s.name.starts_with("probe."))
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum();
    let pool_ms = ms("campaign.pool");
    v.set("pool.busy_frac", probes_ms / (pool_ms * ctx.threads as f64));
    v.set("pool.steals", steals as f64);
    if let Some(root) = spans.iter().find(|s| s.name == "campaign") {
        out.line(format!(
            "campaign: traced replica {:.1} ms vs engine {:.1} ms; root self time {:.3} ms; pool idle (no probe running) {:.1} ms",
            wall * 1e3,
            engine.wall.as_secs_f64() * 1e3,
            trace::self_time_ns(&spans, root.id) as f64 / 1e6,
            spans
                .iter()
                .find(|s| s.name == "campaign.pool")
                .map_or(0.0, |p| trace::self_time_ns(&spans, p.id) as f64 / 1e6)
        ));
    }
    all_spans.extend(spans);
    Some((wall, engine.wall.as_secs_f64()))
}

// ---- power-sim -----------------------------------------------------------

/// `Simulator::run_products` on every paper preset at the scenario's
/// scale. Returns (node-steps, seconds).
fn sim_pass(ctx: &Ctx) -> Result<(u64, f64), String> {
    let scale = Scenario::parse(&ctx.scenario_text)
        .map_err(|e| e.to_string())?
        .scale;
    let mut node_steps = 0u64;
    let mut secs = 0.0;
    let presets = SystemPreset::trace_presets()
        .into_iter()
        .chain(SystemPreset::variability_presets());
    for (i, preset) in presets.enumerate() {
        let nodes = scale.clamp_nodes(preset.cluster_spec.total_nodes);
        let preset = preset.with_total_nodes(nodes);
        let cluster = Cluster::build(preset.cluster_spec.clone()).map_err(|e| e.to_string())?;
        let workload = preset.workload.workload();
        let cfg = SimulationConfig {
            dt: scale.dt_for_core(workload.phases().core()),
            noise_sigma: 0.01,
            common_noise_sigma: 0.003,
            seed: ctx.seed.wrapping_add(i as u64),
            threads: 1,
        };
        let sim =
            Simulator::new(&cluster, workload, preset.balance, cfg).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let products = trace::with("sim.run_products", None, || {
            sim.run_products(&ProductRequest::system_only())
        })
        .map_err(|e| e.to_string())?;
        secs += started.elapsed().as_secs_f64();
        node_steps += (products.steps() * cluster.len()) as u64;
        black_box(products);
    }
    Ok((node_steps, secs))
}

fn sim_layer(ctx: &Ctx, v: &mut Values, out: &mut Outcome) {
    let runs: Vec<(u64, f64)> = match (0..2).map(|_| sim_pass(ctx)).collect() {
        Ok(r) => r,
        Err(e) => {
            out.checks.check(false, || format!("sim layer: {e}"));
            return;
        }
    };
    out.checks.check(runs[0].0 == runs[1].0, || {
        format!(
            "sim.node_steps differs between two runs: {} vs {}",
            runs[0].0, runs[1].0
        )
    });
    v.set("sim.node_steps", runs[1].0 as f64);
    v.set("sim.node_steps_per_s", runs[1].0 as f64 / runs[1].1);
}

// ---- TraceStore, power-archive, power-serve ------------------------------

/// One count pass: a fresh fixture and a fixed number of requests.
/// Returns the store counters right after the loop, the loop's memory
/// window p50 (µs), its wall time and the fixture's state.
fn serve_pass(
    plan: &Plan,
    dir: &Path,
    requests: usize,
    checks: &mut Checks,
) -> Option<(CacheStats, f64, f64, Arc<ServeState>)> {
    let mut fx = match serve::setup(plan, dir) {
        Ok(f) => f,
        Err(e) => {
            checks.check(false, || e);
            return None;
        }
    };
    let state = Arc::clone(&fx.state);
    let before = state.store.stats();
    let mut stream = plan.stream(0);
    let st = serve::closed_loop(&mut fx, &mut stream, 0.0, requests, checks);
    let counts = state.store.stats();
    serve::finish(fx, &st, before, checks);
    Some((counts, median(&st.mem_us), st.elapsed_s, state))
}

fn counts_key(s: &CacheStats) -> [u64; 8] {
    [
        s.hits,
        s.misses,
        s.derived,
        s.coalesced,
        s.evictions,
        s.archive_writes,
        s.archive_pruned_queries,
        s.blocks_skipped,
    ]
}

/// Store, archive and serve layers. Returns (traced, untraced) loop wall
/// seconds of the two count passes.
fn serve_layer(
    ctx: &Ctx,
    sizes: &Sizes,
    v: &mut Values,
    out: &mut Outcome,
    all_spans: &mut Vec<trace::Span>,
) -> Option<(f64, f64)> {
    let plan = match Plan::new(&sizes.serve, ctx.seed) {
        Ok(p) => p,
        Err(e) => {
            out.checks.check(false, || e);
            return None;
        }
    };
    let (counts, mem_p50_us, traced_s, state) = serve_pass(
        &plan,
        &ctx.work.join("layers-serve-a"),
        sizes.serve_requests,
        &mut out.checks,
    )?;
    let spans = trace::take();
    trace::set_enabled(false);
    let second = serve_pass(
        &plan,
        &ctx.work.join("layers-serve-b"),
        sizes.serve_requests,
        &mut out.checks,
    );
    trace::set_enabled(true);
    let (counts_b, _, untraced_s, _) = second?;
    out.checks
        .check(counts_key(&counts) == counts_key(&counts_b), || {
            format!("store counters differ between two runs: {counts} vs {counts_b}")
        });
    v.set("store.hits", counts.hits as f64);
    v.set("store.misses", counts.misses as f64);
    v.set("store.derived", counts.derived as f64);
    v.set("store.coalesced", counts.coalesced as f64);
    v.set("store.evictions", counts.evictions as f64);
    v.set("store.archive_writes", counts.archive_writes as f64);
    v.set(
        "store.archive_pruned_queries",
        counts.archive_pruned_queries as f64,
    );
    v.set("store.blocks_skipped", counts.blocks_skipped as f64);
    v.set("store.hit_ratio", counts.hit_rate());
    if let Some(lp) = spans.iter().find(|s| s.name == "serve.loop") {
        out.line(format!(
            "serve: count pass of {} requests; client time outside requests (loop self time) {:.1} ms of {:.1} ms",
            sizes.serve_requests,
            trace::self_time_ns(&spans, lp.id) as f64 / 1e6,
            lp.dur_ns() as f64 / 1e6
        ));
    }
    all_spans.extend(spans);

    let m = &state.metrics;
    v.set("serve.dispatch_rejections", m.dispatch_rejections() as f64);
    v.set("serve.worker_panics", m.worker_panics() as f64);
    v.set(
        "serve.admission_conserved",
        f64::from(u8::from(m.admission().conserved())),
    );

    // In-process layer timings against the pass's state (server stopped,
    // store and archive still open).
    let wrong = Wrong::default();
    let parse_window = |w: &serve::Window| serve::parse_raw(&w.raw);
    let mem_reqs: Vec<_> = plan.mem_windows.iter().map(parse_window).collect();
    let arch_reqs: Vec<_> = plan.archive_windows.iter().map(parse_window).collect();
    let fast = |reqs: &[power_serve::Request], name: &'static str| {
        median_us(reqs.len() * 4, |i| {
            let r = trace::with(name, None, || route_fast(&state, &reqs[i % reqs.len()]));
            wrong.note(r.is_some_and(|(_, resp)| resp.status == 200));
        })
    };
    let fast_window = fast(&mem_reqs, "router.route_fast");
    let fast_archive = fast(&arch_reqs, "router.route_fast");
    v.set("router.fast_window_us", fast_window);
    v.set("router.fast_archive_us", fast_archive);

    let mut rng = Rng::new(ctx.seed, 0x0EA5);
    let measures: Vec<_> = (0..10u64)
        .map(|i| {
            let body = plan.measure_body(&mut rng, (ctx.seed << 32) ^ 0x7E57_0000 ^ i);
            serve::parse_raw(&post_request_keep_alive("/v1/measure", &body))
        })
        .collect();
    let measure_ms = median_us(measures.len(), |i| {
        let (_, resp) = trace::with("router.route", None, || route(&state, &measures[i]));
        wrong.note(resp.status == 200);
    }) / 1e3;
    v.set("router.measure_ms", measure_ms);

    let mut stream = plan.stream(7);
    let raws: Vec<Vec<u8>> = (0..2_000).map(|_| stream.next_request().1).collect();
    let limits = power_serve::HttpLimits::default();
    let parse_ns = mean_ns(raws.len(), |i| {
        let mut buf = RequestBuffer::new();
        buf.push_bytes(&raws[i]);
        black_box(buf.try_next_request(&limits).ok().flatten());
    });
    v.set("http.parse_ns", parse_ns);
    let resp = route_fast(&state, &mem_reqs[0]).map(|(_, r)| r);
    let mut sink = Vec::with_capacity(4096);
    let encode_ns = match &resp {
        Some(resp) => mean_ns(2_000, |_| {
            sink.clear();
            let _ = resp.write_to_conn(&mut sink, true);
            black_box(&sink);
        }),
        None => f64::NAN,
    };
    v.set("http.encode_ns", encode_ns);
    v.set(
        "serve.wire_us",
        mem_p50_us - fast_window - (parse_ns + encode_ns) / 1e3,
    );

    // The archive's pruned read, straight on the store.
    let (preset, config, from, to) = plan.archive_key_simulation(0);
    let pruned = Cluster::build(preset.cluster_spec.clone())
        .map_err(|e| e.to_string())
        .and_then(|cluster| {
            let sim = Simulator::new(&cluster, preset.workload.workload(), preset.balance, config)
                .map_err(|e| e.to_string())?;
            let mut blocks = 0;
            let t = median_us(200, |_| {
                let agg = trace::with("store.window_aggregate", None, || {
                    state
                        .store
                        .window_aggregate(&sim, MeterScope::Wall, from, to)
                });
                blocks = agg.and_then(Result::ok).map_or(0, |a| a.blocks_total);
            });
            if blocks == 0 {
                return Err("archive key was not answered by the pruned path".to_string());
            }
            Ok(t)
        });
    match pruned {
        Ok(t) => v.set("archive.pruned_query_us", t),
        Err(e) => out.checks.check(false, || e),
    }
    wrong.check("serve layer", &mut out.checks);
    codec_layer(&plan, v, out);
    for dir in ["layers-serve-a", "layers-serve-b"] {
        let _ = std::fs::remove_dir_all(ctx.work.join(dir));
    }
    Some((traced_s, untraced_s))
}

/// Wrong answers from in-process layer calls made inside timed closures.
#[derive(Default)]
struct Wrong(std::cell::Cell<u64>);

impl Wrong {
    fn note(&self, ok: bool) {
        self.0.set(self.0.get() + u64::from(!ok));
    }

    fn check(&self, what: &str, checks: &mut Checks) {
        let n = self.0.get();
        checks.check(n == 0, || format!("{what}: {n} in-process calls failed"));
    }
}

/// Codec throughput on a simulated long trace, in raw sample bytes
/// (8-byte timestamp + 8-byte watts) per second.
fn codec_layer(plan: &Plan, v: &mut Values, out: &mut Outcome) {
    let (preset, config, _, _) = plan.archive_key_simulation(0);
    let trace = Cluster::build(preset.cluster_spec.clone())
        .map_err(|e| e.to_string())
        .and_then(|cluster| {
            let sim = Simulator::new(&cluster, preset.workload.workload(), preset.balance, config)
                .map_err(|e| e.to_string())?;
            let products = sim
                .run_products(&ProductRequest::system_only())
                .map_err(|e| e.to_string())?;
            Ok(products
                .system_trace(MeterScope::Wall)
                .expect("system trace was requested")
                .clone())
        });
    let trace = match trace {
        Ok(t) => t,
        Err(e) => {
            out.checks.check(false, || format!("codec layer: {e}"));
            return;
        }
    };
    let block = 8_192.min(trace.watts.len());
    let ts: Vec<i64> = (0..block)
        .map(|i| ((trace.t0 + i as f64 * trace.dt) * 1e6) as i64)
        .collect();
    let watts = &trace.watts[..block];
    let mb = (block * 16) as f64 / 1e6;
    let encoded = encode_block(&ts, watts, DEFAULT_QUANTUM);
    let Ok(bytes) = encoded else {
        out.checks.check(false, || "codec: encode failed".into());
        return;
    };
    let enc_us = median_us(50, |_| {
        black_box(trace::with("codec.encode_block", None, || {
            encode_block(&ts, watts, DEFAULT_QUANTUM)
        }))
        .ok();
    });
    let dec_us = median_us(50, |_| {
        black_box(trace::with("codec.decode_block", None, || {
            decode_block(&bytes)
        }))
        .ok();
    });
    let decoded = decode_block(&bytes);
    out.checks.check(
        decoded.as_ref().is_ok_and(|d| d.timestamps_us == ts),
        || "codec: decode does not round-trip timestamps".into(),
    );
    let (a, b) = (block as u32 / 4, 3 * block as u32 / 4);
    let span_us = median_us(200, |_| {
        black_box(trace::with("codec.decode_watts_span", None, || {
            decode_watts_span(&bytes, a, b)
        }))
        .ok();
    });
    v.set("codec.encode_mb_per_s", mb / (enc_us / 1e6));
    v.set("codec.decode_mb_per_s", mb / (dec_us / 1e6));
    v.set("codec.span_decode_us", span_us);
}

// ---- power-meter, power-method, power-stats --------------------------------

fn method_layers(ctx: &Ctx, sizes: &Sizes, v: &mut Values, out: &mut Outcome) {
    let wrong = Wrong::default();
    let result = (|| -> Result<(), String> {
        let scale = Scenario::parse(&ctx.scenario_text)
            .map_err(|e| e.to_string())?
            .scale;
        let base = SystemPreset::by_name("colosse").ok_or("colosse preset")?;
        let preset = base
            .clone()
            .with_total_nodes(scale.clamp_nodes(base.cluster_spec.total_nodes));
        let cluster = Cluster::build(preset.cluster_spec.clone()).map_err(|e| e.to_string())?;
        let workload = preset.workload.workload();
        let phases = workload.phases();
        let cfg = SimulationConfig {
            dt: scale.dt_for_core(phases.core()),
            noise_sigma: 0.01,
            common_noise_sigma: 0.003,
            seed: ctx.seed,
            threads: 1,
        };

        // power-meter: one instrument per node over a 16-node subset.
        let sim =
            Simulator::new(&cluster, workload, preset.balance, cfg).map_err(|e| e.to_string())?;
        let nodes: Vec<usize> = (0..16).collect();
        let subset = sim
            .subset_trace(&nodes, MeterScope::Wall)
            .map_err(|e| e.to_string())?;
        let campaign =
            Campaign::new(&nodes, MeterModel::pdu_grade(), ctx.seed).map_err(|e| e.to_string())?;
        let (from, to) = (phases.core_start(), phases.core_end());
        let run_us = median_us(100, |i| {
            let r = trace::with("meter.campaign_run", None, || {
                campaign.run(&subset, from, to, ctx.seed + i as u64)
            });
            wrong.note(r.is_ok());
        });
        v.set("meter.campaign_run_us", run_us);

        // power-method: the revised plan, sweep not cached vs cached.
        let measure = |store: &TraceStore, seed: u64| {
            let plan = MeasurementPlan::honest(Methodology::Revised, seed);
            trace::with("method.measure_with_store", None, || {
                measure_with_store(store, &cluster, workload, preset.balance, cfg, &plan)
            })
            .map(|_| ())
            .map_err(|e| e.to_string())
        };
        let cold_ms = median_us(3, |i| {
            wrong.note(measure(&TraceStore::new(), ctx.seed + i as u64).is_ok());
        }) / 1e3;
        let warm = TraceStore::new();
        measure(&warm, ctx.seed)?;
        let warm_ms = median_us(5, |i| {
            wrong.note(measure(&warm, ctx.seed + 1 + i as u64).is_ok());
        }) / 1e3;
        v.set("method.measure_cold_ms", cold_ms);
        v.set("method.measure_warm_ms", warm_ms);

        // power-stats.
        let mut rng = Rng::new(ctx.seed, 0x57A7);
        let pilot: Vec<f64> = (0..200)
            .map(|_| {
                // Sum of uniforms: a bell-shaped pilot around 90 W.
                90.0 + (0..12).map(|_| rng.unit()).sum::<f64>() - 6.0
            })
            .collect();
        let pilot = Empirical::new(&pilot).map_err(|e| e.to_string())?;
        let cov = CoverageConfig {
            population_size: sizes.bootstrap_population,
            sample_sizes: vec![5, 10, 20],
            confidences: vec![0.95],
            replications: sizes.bootstrap_reps,
            threads: 2,
            seed: ctx.seed,
        };
        let cov_ms = median_us(3, |_| {
            let r = trace::with("stats.coverage_study", None, || {
                coverage_study(&pilot, &cov)
            });
            wrong.note(r.is_ok());
        }) / 1e3;
        v.set("stats.coverage_study_ms", cov_ms);
        v.set(
            "stats.t_critical_ns",
            mean_ns(2_000, |i| {
                black_box(t_critical(0.95, (i % 1_000 + 1) as f64).ok());
            }),
        );
        let plan = SampleSizePlan::new(0.95, 0.01, 0.02).map_err(|e| e.to_string())?;
        v.set(
            "stats.required_nodes_ns",
            mean_ns(20_000, |i| {
                black_box(plan.required_nodes(i as u64 + 1).ok());
            }),
        );
        Ok(())
    })();
    if let Err(e) = result {
        out.checks
            .check(false, || format!("meter/method/stats layers: {e}"));
    }
    wrong.check("meter/method/stats layers", &mut out.checks);
}

// ---- power-telemetry, power-fleet ------------------------------------------

/// One in-process fleet pass at the workload's roster: the campaigns
/// `loadgen::run_campaigns` would create, advanced round by round.
struct FleetPass {
    create_us: Vec<f64>,
    round_us: Vec<f64>,
    idle_round_us: f64,
    leaderboard_us: f64,
    rounds: u64,
    nodes: u64,
    samples: u64,
}

fn fleet_pass(sizes: &fleet::Sizes, seed: u64, checks: &mut Checks) -> Option<FleetPass> {
    let fleet = match Fleet::new(FleetConfig::default()) {
        Ok(f) => f,
        Err(e) => {
            checks.check(false, || format!("fleet: {e}"));
            return None;
        }
    };
    let plan = fleet::load_plan(sizes, seed, 0);
    let mut create_us = Vec::with_capacity(plan.campaigns as usize);
    for i in 0..plan.campaigns {
        let spec = FleetCampaignSpec {
            name: format!("loadgen-{}-{}", i / plan.batch, i % plan.batch),
            population: plan.population,
            samples_per_node: plan.samples_per_node,
            seed: plan.seed.wrapping_add(i),
            ..FleetCampaignSpec::default()
        };
        let t = Instant::now();
        let r = trace::with("fleet.create", None, || fleet.create(spec));
        create_us.push(us(t));
        if let Err(e) = r {
            checks.check(false, || format!("fleet create: {e}"));
            return None;
        }
    }
    let shards = fleet.shards();
    let pass = || -> u64 {
        trace::with("fleet.round", None, || {
            (0..shards).map(|s| fleet.advance_shard(s)).sum()
        })
    };
    let (mut round_us, mut rounds, mut nodes) = (Vec::new(), 0, 0);
    loop {
        let t = Instant::now();
        let advanced = pass();
        if advanced == 0 {
            break;
        }
        round_us.push(us(t));
        rounds += 1;
        nodes += advanced;
    }
    let idle_round_us = median_us(20, |_| {
        black_box(pass());
    });
    let leaderboard_us = median_us(50, |_| {
        black_box(trace::with("fleet.leaderboard", None, || {
            fleet.leaderboard(10)
        }));
    });
    let finished = fleet
        .state_counts()
        .iter()
        .filter(|(s, _)| matches!(s, CampaignState::Stopped | CampaignState::Exhausted))
        .map(|(_, c)| c)
        .sum::<u64>();
    checks.check(
        finished == plan.campaigns && fleet.live_count() == 0,
        || {
            format!(
                "in-process fleet finished {finished} of {} campaigns",
                plan.campaigns
            )
        },
    );
    let plane = fleet.plane_stats();
    checks.check(plane.conserved(), || format!("plane ledger: {plane:?}"));
    Some(FleetPass {
        create_us,
        round_us,
        idle_round_us,
        leaderboard_us,
        rounds,
        nodes,
        samples: plane.offered,
    })
}

fn telemetry_layers(ctx: &Ctx, sizes: &Sizes, v: &mut Values, out: &mut Outcome) {
    let a = fleet_pass(&sizes.fleet, ctx.seed, &mut out.checks);
    let b = fleet_pass(&sizes.fleet, ctx.seed, &mut out.checks);
    if let (Some(a), Some(b)) = (a, b) {
        out.checks.check(
            (a.rounds, a.nodes, a.samples) == (b.rounds, b.nodes, b.samples),
            || {
                format!(
                    "fleet counts differ between two runs: {:?} vs {:?}",
                    (a.rounds, a.nodes, a.samples),
                    (b.rounds, b.nodes, b.samples)
                )
            },
        );
        v.set("fleet.create_us", median(&b.create_us));
        v.set("fleet.round_us", median(&b.round_us));
        v.set("fleet.idle_round_us", b.idle_round_us);
        v.set("fleet.leaderboard_us", b.leaderboard_us);
        v.set("fleet.rounds", b.rounds as f64);
        v.set("fleet.nodes_metered", b.nodes as f64);
        v.set("fleet.samples_offered", b.samples as f64);
    }

    let result = (|| -> Result<(), String> {
        // Ingest plane: 64 campaigns, in-order batches of 256 samples.
        let plane = IngestPlane::new(PlaneConfig { shards: 16 }).map_err(|e| e.to_string())?;
        let per_lane = 4_096u64;
        let cfg = IngestConfig {
            ring_capacity: per_lane as usize,
            ..IngestConfig::default()
        };
        for c in 0..64 {
            plane
                .register(c, 1, 0.0, 1.0, &cfg)
                .map_err(|e| e.to_string())?;
        }
        let batches: Vec<Vec<Sample>> = (0..per_lane / 256)
            .map(|b| {
                (0..256)
                    .map(|k| Sample {
                        node: 0,
                        seq: b * 256 + k,
                        watts: 400.0 + (k % 7) as f64,
                    })
                    .collect()
            })
            .collect();
        let t = Instant::now();
        trace::with("plane.offer", None, || {
            for batch in &batches {
                for c in 0..64 {
                    plane.offer(c, batch).map_err(|e| e.to_string())?;
                }
            }
            Ok::<(), String>(())
        })?;
        let secs = t.elapsed().as_secs_f64();
        let stats = plane.stats();
        out.checks
            .check(stats.offered == 64 * per_lane && stats.conserved(), || {
                format!("plane offer ledger: {stats:?}")
            });
        v.set("plane.offer_samples_per_s", (64 * per_lane) as f64 / secs);

        // Ring window queries.
        let mut ring = RingBuffer::new(0.0, 1.0, 4_096).map_err(|e| e.to_string())?;
        for i in 0..4_096 {
            ring.push(400.0 + (i % 13) as f64);
        }
        let mut rng = Rng::new(ctx.seed, 0x1216);
        let windows: Vec<(f64, f64)> = (0..1_024)
            .map(|_| {
                let a = rng.unit() * 3_000.0;
                (a, a + 1.0 + rng.unit() * 1_000.0)
            })
            .collect();
        v.set(
            "ring.window_query_ns",
            mean_ns(20_000, |i| {
                let (a, b) = windows[i % windows.len()];
                black_box(ring.window_average(a, b).ok());
            }),
        );

        // Sequential estimator pushes.
        let mut est = SequentialEstimator::new(FleetCampaignSpec::default().rule())
            .map_err(|e| e.to_string())?;
        v.set(
            "online.push_ns",
            mean_ns(100_000, |i| {
                black_box(est.push(400.0 + (i % 17) as f64));
            }),
        );
        Ok(())
    })();
    if let Err(e) = result {
        out.checks.check(false, || format!("telemetry layers: {e}"));
    }
}

/// The traced run.
pub fn run(ctx: &Ctx, workload: &str, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let mut v = Values::default();
    trace::set_enabled(true);
    let mut all_spans = Vec::new();

    let campaign = campaign_layer(ctx, &mut v, &mut out, &mut all_spans);
    sim_layer(ctx, &mut v, &mut out);
    method_layers(ctx, sizes, &mut v, &mut out);
    all_spans.extend(trace::take());
    let serve = serve_layer(ctx, sizes, &mut v, &mut out, &mut all_spans);
    all_spans.extend(trace::take());
    telemetry_layers(ctx, sizes, &mut v, &mut out);
    all_spans.extend(trace::take());

    // Tracing overhead on the named workload's end-to-end unit.
    let overhead = match workload {
        "paper_campaign" => campaign,
        "serve_mixed" => serve,
        _ => {
            let traced = fleet::repetition(&sizes.fleet, ctx.seed, 0, &mut out.checks);
            all_spans.extend(trace::take());
            trace::set_enabled(false);
            let untraced = fleet::repetition(&sizes.fleet, ctx.seed, 0, &mut out.checks);
            trace::set_enabled(true);
            traced.zip(untraced).map(|(t, u)| (t.wall_s, u.wall_s))
        }
    };
    trace::set_enabled(false);
    if let Some((traced, untraced)) = overhead {
        v.set("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
        out.line(format!(
            "trace overhead on {workload}: traced {traced:.4} s - untraced {untraced:.4} s"
        ));
    }

    let path = ctx
        .work
        .join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    match trace::write_jsonl(&path, &all_spans) {
        Ok(()) => out.line(format!(
            "{} spans written to {}",
            all_spans.len(),
            path.display()
        )),
        Err(e) => out.checks.check(false, || format!("writing spans: {e}")),
    }
    for lm in LAYER_METRICS {
        let value = v.0.get(lm.name).copied().unwrap_or(f64::NAN);
        out.line(format!(
            "layer {:<32} {:>16.4} {:<6} [{}] -> {}",
            lm.name, value, lm.unit, lm.layer, lm.target
        ));
        out.metric(lm.name, value, lm.unit);
    }
    out
}
