//! Endpoint dispatch: parsed request in, response out.
//!
//! The router is a pure function of ([`ServeState`], [`Request`]) so every
//! endpoint is unit-testable without a socket. Endpoints:
//!
//! | method | path               | what it serves                                   |
//! |--------|--------------------|--------------------------------------------------|
//! | POST   | `/v1/measure`      | full EE HPC WG measurement ([`measure_with_store`]) |
//! | POST   | `/v1/sample-size`  | Eq. 5 finite-population plan (Table 5 as a service) |
//! | GET    | `/v1/trace/window` | O(1) prefix-sum window average over a cached sweep |
//! | POST   | `/v1/campaigns`    | register fleet campaigns (optionally a batch)    |
//! | GET    | `/v1/campaigns`    | the fleet roster, filterable by state            |
//! | GET    | `/v1/campaigns/:id`| one campaign's live status                       |
//! | DELETE | `/v1/campaigns/:id`| unregister a campaign                            |
//! | GET    | `/v1/leaderboard`  | live efficiency ranking with confidence intervals |
//! | GET    | `/v1/systems`      | the queryable system catalog                     |
//! | GET    | `/healthz`         | liveness + uptime                                |
//! | GET    | `/metrics`         | Prometheus-style counters and histograms         |
//!
//! Domain errors map to `400` (invalid parameters), `404` (unknown system
//! or path), `405` (wrong method on a known path), `422` (well-formed but
//! unsatisfiable request). Every simulation-backed endpoint goes through
//! the state's shared [`power_sim::store::TraceStore`], so repeated and
//! concurrent queries coalesce into single sweeps.
//!
//! The router is connection-agnostic: it never reads or writes
//! `connection:` headers. Keep-alive negotiation, the idle timeout, and
//! the per-connection request cap live in the server's connection loop
//! (`server::handle_connection`), which serializes each response with
//! the connection verdict it has already decided.

use crate::http::{Request, Response};
use crate::json::Json;
use crate::metrics::{Endpoint, FleetGauges};
use crate::state::ServeState;
use power_fleet::{CampaignStatus, FleetCampaignSpec, FleetError, LeaderboardRow};
use power_method::level::Methodology;
use power_method::measure::{measure_with_store, MeasurementPlan, NodeSelection, WindowPlacement};
use power_sim::cluster::Cluster;
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig};
use power_sim::store::simulation_key;
use power_sim::systems::SystemPreset;
use power_sim::Simulator;
use power_stats::sample_size::SampleSizePlan;
use power_telemetry::online::CiQuantile;

/// Dispatches one request.
pub fn route(state: &ServeState, req: &Request) -> (Endpoint, Response) {
    if let Some(rest) = req.path.strip_prefix("/v1/campaigns/") {
        return (Endpoint::Campaigns, campaign_item(state, req, rest));
    }
    if state.config.debug_routes {
        if let Some(resp) = debug_route(req) {
            return (Endpoint::Other, resp);
        }
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => (Endpoint::Healthz, healthz(state)),
        ("GET", "/metrics") => (Endpoint::Metrics, metrics(state)),
        ("GET", "/v1/systems") => (Endpoint::Systems, systems(state)),
        ("POST", "/v1/sample-size") => (Endpoint::SampleSize, sample_size(req)),
        ("POST", "/v1/measure") => (Endpoint::Measure, measure(state, req)),
        ("GET", "/v1/trace/window") => (Endpoint::TraceWindow, trace_window(state, req)),
        ("POST", "/v1/campaigns") => (Endpoint::Campaigns, campaigns_create(state, req)),
        ("GET", "/v1/campaigns") => (Endpoint::Campaigns, campaigns_list(state, req)),
        ("GET", "/v1/leaderboard") => (Endpoint::Leaderboard, leaderboard(state, req)),
        (_, "/healthz") => (Endpoint::Healthz, method_not_allowed("GET")),
        (_, "/metrics") => (Endpoint::Metrics, method_not_allowed("GET")),
        (_, "/v1/systems") => (Endpoint::Systems, method_not_allowed("GET")),
        (_, "/v1/sample-size") => (Endpoint::SampleSize, method_not_allowed("POST")),
        (_, "/v1/measure") => (Endpoint::Measure, method_not_allowed("POST")),
        (_, "/v1/trace/window") => (Endpoint::TraceWindow, method_not_allowed("GET")),
        (_, "/v1/campaigns") => (Endpoint::Campaigns, method_not_allowed("GET, POST")),
        (_, "/v1/leaderboard") => (Endpoint::Leaderboard, method_not_allowed("GET")),
        _ => (Endpoint::Other, not_found()),
    }
}

/// The reactor-inline half of the router. Answers requests whose
/// handlers are cheap and never block — liveness, metrics, the catalog,
/// wrong-method `405`s, unknown-path `404`s, `/v1/trace/window` queries
/// a store summary tier can aggregate, and `/v1/leaderboard` polls the
/// last worker already answered for an unchanged fleet — and returns
/// `None` for anything that may simulate, rank the fleet, or sleep,
/// which the caller must hand to the worker pool. Everything it answers
/// except the window query and the replayed leaderboard goes through
/// [`route`], so the two agree byte for byte.
pub fn route_fast(state: &ServeState, req: &Request) -> Option<(Endpoint, Response)> {
    if req.path.starts_with("/v1/campaigns")
        || (state.config.debug_routes && req.path.starts_with("/debug/"))
    {
        return None;
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/trace/window") => {
            trace_window_fast(state, req).map(|r| (Endpoint::TraceWindow, r))
        }
        ("GET", "/v1/leaderboard") => {
            leaderboard_fast(state, req).map(|r| (Endpoint::Leaderboard, r))
        }
        // Handlers that may simulate.
        ("POST", "/v1/sample-size") | ("POST", "/v1/measure") => None,
        _ => Some(route(state, req)),
    }
}

/// Fault-injection routes, compiled in but gated behind
/// [`crate::state::ServeConfig::debug_routes`]. `/debug/panic` panics
/// inside the handler — exercising the worker pool's panic containment —
/// and `/debug/sleep?ms=N` parks the worker thread, so tests can pin
/// pool capacity deterministically. Returns `None` for unrecognized
/// `/debug/*` paths, which then fall through to the normal `404`.
fn debug_route(req: &Request) -> Option<Response> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/debug/panic") => panic!("injected handler panic via /debug/panic"),
        ("GET", "/debug/sleep") => {
            let ms = match parse_query_u64(req, "ms") {
                Ok(v) => v.unwrap_or(100).min(60_000),
                Err(r) => return Some(r),
            };
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Some(Response::json(
                200,
                &Json::object([("slept_ms", Json::num(ms as f64))]),
            ))
        }
        _ => None,
    }
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::error(405, "method not allowed").with_header("allow", allow)
}

fn not_found() -> Response {
    Response::error(404, "no such endpoint; see /v1/systems, /v1/measure, /v1/sample-size, /v1/trace/window, /v1/campaigns, /v1/leaderboard, /healthz, /metrics")
}

fn healthz(state: &ServeState) -> Response {
    Response::json(
        200,
        &Json::object([
            ("status", Json::str("ok")),
            ("uptime_s", Json::num(state.started.elapsed().as_secs_f64())),
            ("systems", Json::num(state.catalog.len() as f64)),
        ]),
    )
}

fn metrics(state: &ServeState) -> Response {
    let archive = state.archive.as_ref().map(|products| {
        let stats = products.stats();
        crate::metrics::ArchiveGauges {
            entries: stats.entries,
            segments: stats.segments,
            live_bytes: stats.live_bytes,
            dead_bytes: stats.dead_bytes,
            warmed: state.warmed as u64,
        }
    });
    let plane = state.fleet.plane_stats();
    let fleet = FleetGauges {
        states: state.fleet.state_counts().map(|(s, c)| (s.label(), c)),
        shards: state.fleet.shards() as u64,
        offered: plane.offered,
        accepted: plane.ingest.accepted,
        late_dropped: plane.ingest.late_dropped,
        duplicates: plane.ingest.duplicates,
        pending: plane.pending,
    };
    Response::text(
        200,
        state
            .metrics
            .render_prometheus(state.store.stats(), archive, Some(fleet)),
    )
}

fn systems(state: &ServeState) -> Response {
    let items: Vec<Json> = state
        .catalog
        .iter()
        .map(|p| {
            let phases = p.workload.workload().phases();
            Json::object([
                ("name", Json::str(p.name)),
                ("total_nodes", Json::num(p.cluster_spec.total_nodes as f64)),
                ("workload", Json::str(p.workload.workload().name())),
                ("core_seconds", Json::num(phases.core())),
                ("run_seconds", Json::num(phases.total())),
                ("scope", Json::str(scope_label(p.scope))),
                ("paper_population", Json::num(p.targets.population as f64)),
            ])
        })
        .collect();
    Response::json(200, &Json::object([("systems", Json::Array(items))]))
}

/// `POST /v1/sample-size` — Eq. 4/5: how many nodes must a site meter.
fn sample_size(req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let confidence = match opt_f64(&body, "confidence") {
        Ok(v) => v.unwrap_or(0.95),
        Err(r) => return r,
    };
    let lambda = match req_f64(&body, "lambda") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let cv = match req_f64(&body, "cv") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let population = match req_u64(&body, "population") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let plan = match SampleSizePlan::new(confidence, lambda, cv) {
        Ok(p) => p,
        Err(e) => return Response::error(400, &e.to_string()),
    };
    let (n0, n_inf, n) = match plan.n0().and_then(|n0| {
        Ok((
            n0,
            plan.required_nodes_infinite()?,
            plan.required_nodes(population)?,
        ))
    }) {
        Ok(v) => v,
        Err(e) => return Response::error(422, &e.to_string()),
    };
    let achieved = plan.achieved_lambda(n, population).ok();
    Response::json(
        200,
        &Json::object([
            ("confidence", Json::num(plan.confidence())),
            ("lambda", Json::num(plan.lambda())),
            ("cv", Json::num(plan.cv())),
            ("population", Json::num(population as f64)),
            ("n0", Json::num(n0)),
            ("required_nodes_infinite", Json::num(n_inf as f64)),
            ("required_nodes", Json::num(n as f64)),
            ("achieved_lambda", achieved.map_or(Json::Null, Json::num)),
        ]),
    )
}

/// The simulation identity a request selects: a (scaled) preset plus the
/// engine configuration, and the store key they resolve to. Shared by
/// `/v1/measure` and `/v1/trace/window`.
struct SimSelection {
    preset: SystemPreset,
    config: SimulationConfig,
    /// [`simulation_key`] of the preset and configuration.
    key: u64,
}

fn select_sim(
    state: &ServeState,
    system: &str,
    nodes: Option<u64>,
    dt: Option<f64>,
    seed: u64,
) -> Result<SimSelection, Response> {
    let preset = state.preset(system).ok_or_else(|| {
        Response::error(
            404,
            &format!("unknown system `{system}`; GET /v1/systems lists the catalog"),
        )
    })?;
    let full = preset.cluster_spec.total_nodes;
    let nodes = match nodes {
        Some(0) => return Err(Response::error(400, "nodes must be positive")),
        Some(n) if n as usize > state.config.max_nodes => {
            return Err(Response::error(
                400,
                &format!(
                    "nodes = {n} exceeds the service limit of {}",
                    state.config.max_nodes
                ),
            ))
        }
        Some(n) => (n as usize).min(full),
        None => full.min(state.config.max_nodes),
    };
    let preset = preset.clone().with_total_nodes(nodes);
    let total_s = preset.workload.workload().phases().total();
    let dt = match dt {
        Some(v) if !(v.is_finite() && v > 0.0) => {
            return Err(Response::error(
                400,
                "dt must be a positive number of seconds",
            ))
        }
        Some(v) => v,
        // Default: ~512 samples across the run, never finer than 1 Hz.
        None => (total_s / 512.0).max(1.0),
    };
    let steps = (total_s / dt).ceil().max(1.0);
    let cells = steps * nodes as f64;
    if cells > state.config.max_cells as f64 {
        return Err(Response::error(
            422,
            &format!(
                "request would sweep {cells:.0} node-samples (limit {}); raise dt or lower nodes",
                state.config.max_cells
            ),
        ));
    }
    let config = SimulationConfig {
        dt,
        noise_sigma: state.config.noise_sigma,
        common_noise_sigma: state.config.common_noise_sigma,
        seed,
        threads: state.config.sim_threads.max(1),
    };
    // The only checks `Cluster::build` and `Simulator::new` would run, in
    // their order, so a window answered without building either rejects
    // exactly what they reject.
    preset
        .cluster_spec
        .validate()
        .and_then(|()| config.validate())
        .map_err(|e| Response::error(422, &e.to_string()))?;
    let key = simulation_key(
        &preset.cluster_spec,
        preset.workload.workload(),
        preset.balance,
        &config,
    );
    Ok(SimSelection {
        preset,
        config,
        key,
    })
}

/// `POST /v1/measure` — the full methodology pipeline as a service.
fn measure(state: &ServeState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let system = match req_str(&body, "system") {
        Ok(s) => s,
        Err(r) => return r,
    };
    let methodology = match body.get("methodology").map(|m| m.as_str()) {
        None => Methodology::Revised,
        Some(Some(name)) => match parse_methodology(name) {
            Some(m) => m,
            None => {
                return Response::error(
                    400,
                    "methodology must be one of level1, level2, level3, revised",
                )
            }
        },
        Some(None) => return Response::error(400, "methodology must be a string"),
    };
    let selection = match body.get("selection").map(|s| s.as_str()) {
        None => NodeSelection::Random,
        Some(Some("random")) => NodeSelection::Random,
        Some(Some("first_n")) => NodeSelection::FirstN,
        Some(Some("lowest_vid")) => NodeSelection::LowestVid,
        _ => return Response::error(400, "selection must be one of random, first_n, lowest_vid"),
    };
    let placement = match body.get("placement") {
        None => WindowPlacement::Middle,
        Some(p) => match (p.as_str(), p.as_f64()) {
            (Some("earliest"), _) => WindowPlacement::Earliest,
            (Some("middle"), _) => WindowPlacement::Middle,
            (Some("latest"), _) => WindowPlacement::Latest,
            (None, Some(f)) if (0.0..=1.0).contains(&f) => WindowPlacement::Fraction(f),
            _ => {
                return Response::error(
                    400,
                    "placement must be earliest, middle, latest, or a fraction in [0, 1]",
                )
            }
        },
    };
    let seed = match opt_u64(&body, "seed") {
        Ok(v) => v.unwrap_or(1),
        Err(r) => return r,
    };
    let nodes = match opt_u64(&body, "nodes") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let dt = match opt_f64(&body, "dt") {
        Ok(v) => v,
        Err(r) => return r,
    };
    let selection_sim = match select_sim(state, system, nodes, dt, seed) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let cluster = match Cluster::build(selection_sim.preset.cluster_spec.clone()) {
        Ok(c) => c,
        Err(e) => return Response::error(422, &e.to_string()),
    };
    let plan = MeasurementPlan {
        selection,
        placement,
        ..MeasurementPlan::honest(methodology, seed)
    };
    let measurement = match measure_with_store(
        &state.store,
        &cluster,
        selection_sim.preset.workload.workload(),
        selection_sim.preset.balance,
        selection_sim.config,
        &plan,
    ) {
        Ok(m) => m,
        Err(e) => return Response::error(422, &e.to_string()),
    };

    let windows: Vec<Json> = measurement
        .windows
        .iter()
        .map(|&(from, to)| Json::Array(vec![Json::num(from), Json::num(to)]))
        .collect();
    let mut members = vec![
        ("system", Json::str(selection_sim.preset.name)),
        ("methodology", Json::str(methodology_label(methodology))),
        ("total_nodes", Json::num(measurement.total_nodes as f64)),
        (
            "metered_nodes",
            Json::num(measurement.metered_nodes.len() as f64),
        ),
        (
            "machine_fraction",
            Json::num(measurement.machine_fraction()),
        ),
        ("windows", Json::Array(windows)),
        ("subset_power_w", Json::num(measurement.subset_power_w)),
        ("overhead_w", Json::num(measurement.overhead_w)),
        ("reported_power_w", Json::num(measurement.reported_power_w)),
        ("rmax_flops", Json::num(measurement.rmax_flops)),
        ("flops_per_watt", Json::num(measurement.flops_per_watt())),
        ("dt", Json::num(selection_sim.config.dt)),
        ("seed", Json::num(seed as f64)),
    ];
    if measurement.metered_nodes.len() <= 128 {
        members.push((
            "metered_node_ids",
            Json::Array(
                measurement
                    .metered_nodes
                    .iter()
                    .map(|&id| Json::num(id as f64))
                    .collect(),
            ),
        ));
    }
    if let Some(a) = &measurement.assessment {
        members.push((
            "assessment",
            Json::object([
                ("estimate_w", Json::num(a.estimate_w)),
                ("ci_lower_w", Json::num(a.ci_lower_w)),
                ("ci_upper_w", Json::num(a.ci_upper_w)),
                ("confidence", Json::num(a.confidence)),
                ("relative_accuracy", Json::num(a.relative_accuracy)),
                ("cv", Json::num(a.cv)),
            ]),
        ));
    }
    Response::json(200, &Json::object(members))
}

/// A fully validated `/v1/trace/window` query.
struct WindowQuery {
    selection: SimSelection,
    scope: MeterScope,
    from: f64,
    to: f64,
}

/// Parses and validates the `/v1/trace/window` query parameters. Shared
/// by the worker handler and the reactor's summary-answerable fast path
/// so both reject exactly the same inputs with exactly the same bodies.
fn trace_window_query(state: &ServeState, req: &Request) -> Result<WindowQuery, Response> {
    let system = match req.query_param("system") {
        Some(s) => s,
        None => {
            return Err(Response::error(
                400,
                "missing required query parameter `system`",
            ))
        }
    };
    let from = match parse_query_f64(req, "from")? {
        Some(v) => v,
        None => {
            return Err(Response::error(
                400,
                "missing required query parameter `from`",
            ))
        }
    };
    let to = match parse_query_f64(req, "to")? {
        Some(v) => v,
        None => {
            return Err(Response::error(
                400,
                "missing required query parameter `to`",
            ))
        }
    };
    let scope = match req.query_param("scope") {
        None => MeterScope::Wall,
        Some(s) => match parse_scope(s) {
            Some(s) => s,
            None => {
                return Err(Response::error(
                    400,
                    "scope must be one of wall, dc, processors",
                ))
            }
        },
    };
    let nodes = parse_query_u64(req, "nodes")?;
    let dt = parse_query_f64(req, "dt")?;
    let seed = parse_query_u64(req, "seed")?.unwrap_or(1);
    let selection = select_sim(state, system, nodes, dt, seed)?;
    Ok(WindowQuery {
        selection,
        scope,
        from,
        to,
    })
}

/// Renders the `/v1/trace/window` success body.
#[allow(clippy::too_many_arguments)]
fn window_response(
    query: &WindowQuery,
    average_w: f64,
    energy_j: f64,
    dt: f64,
    samples: f64,
    run_seconds: f64,
) -> Response {
    Response::json(
        200,
        &Json::object([
            ("system", Json::str(query.selection.preset.name)),
            (
                "nodes",
                Json::num(query.selection.preset.cluster_spec.total_nodes as f64),
            ),
            ("scope", Json::str(scope_label(query.scope))),
            ("from", Json::num(query.from)),
            ("to", Json::num(query.to)),
            ("average_w", Json::num(average_w)),
            ("energy_j", Json::num(energy_j)),
            ("dt", Json::num(dt)),
            ("samples", Json::num(samples)),
            ("run_seconds", Json::num(run_seconds)),
        ]),
    )
}

/// `GET /v1/trace/window` — O(1) window averages over the cached sweep.
fn trace_window(state: &ServeState, req: &Request) -> Response {
    let query = match trace_window_query(state, req) {
        Ok(q) => q,
        Err(r) => return r,
    };
    // Fast path: a memory-cached trace or the archive tier's pruned
    // scan answers the window under the request's key, without building
    // the machine or materializing full products — cold queries touch
    // block headers plus at most two boundary blocks on disk. Both paths
    // share the window-semantics contract (`power_sim::trace::window_span`),
    // so answers and error strings are interchangeable with the decoded
    // path below.
    if let Some(resp) = keyed_window(state, &query) {
        return resp;
    }
    // Decoded path: simulate (or fetch + decode) the full products, then
    // answer off in-memory prefix sums. `select_sim` already ran every
    // check building the machine and the simulator can fail.
    let cluster = match Cluster::build(query.selection.preset.cluster_spec.clone()) {
        Ok(c) => c,
        Err(e) => return Response::error(422, &e.to_string()),
    };
    let sim = match Simulator::new(
        &cluster,
        query.selection.preset.workload.workload(),
        query.selection.preset.balance,
        query.selection.config,
    ) {
        Ok(s) => s,
        Err(e) => return Response::error(422, &e.to_string()),
    };
    let products = match state.store.products(&sim, &ProductRequest::system_only()) {
        Ok(p) => p,
        Err(e) => return Response::error(422, &e.to_string()),
    };
    let trace = products
        .system_trace(query.scope)
        .expect("system trace was requested");
    match trace
        .window_average(query.from, query.to)
        .and_then(|avg| Ok((avg, trace.window_energy(query.from, query.to)?)))
    {
        Ok((avg, energy)) => window_response(
            &query,
            avg,
            energy,
            products.dt(),
            products.steps() as f64,
            trace.t_end(),
        ),
        Err(e) => Response::error(400, &e.to_string()),
    }
}

/// Answers a validated window query from a store summary tier (memory
/// prefix sums or the archive's pruned block scan) by its key alone;
/// `None` means the key is cold.
fn keyed_window(state: &ServeState, query: &WindowQuery) -> Option<Response> {
    match state.store.window_aggregate_keyed(
        query.selection.key,
        query.scope,
        query.from,
        query.to,
    )? {
        Ok(agg) => Some(window_response(
            query,
            agg.average_w,
            agg.energy_j,
            agg.dt,
            agg.steps as f64,
            agg.t_end(),
        )),
        Err(e) => Some(Response::error(400, &e.to_string())),
    }
}

/// The reactor-inline half of `/v1/trace/window`: answers only when a
/// store tier can aggregate the window without simulating. `None` means
/// the query is cold — the caller must dispatch it to a worker, where
/// [`trace_window`] may run a multi-second sweep.
fn trace_window_fast(state: &ServeState, req: &Request) -> Option<Response> {
    match trace_window_query(state, req) {
        Ok(query) => keyed_window(state, &query),
        // Validation failures are answered inline: rejecting a bad
        // request never simulates, so it never needs a worker.
        Err(r) => Some(r),
    }
}

// ---- campaign fleet endpoints -------------------------------------------

/// Maps a fleet error onto the service's status-code conventions.
fn fleet_error_response(err: FleetError) -> Response {
    match err {
        FleetError::InvalidSpec { .. } => Response::error(400, &err.to_string()),
        FleetError::Capacity { .. } => Response::error(429, &err.to_string()),
        FleetError::UnknownCampaign { id } => {
            Response::error(404, &format!("campaign {id} is not registered"))
        }
        other => Response::error(500, &other.to_string()),
    }
}

/// Parses a campaign spec from a request body, starting from defaults.
fn parse_campaign_spec(body: &Json) -> Result<FleetCampaignSpec, Response> {
    let mut spec = FleetCampaignSpec::default();
    if let Some(name) = body.get("name") {
        spec.name = name
            .as_str()
            .ok_or_else(|| Response::error(400, "field `name` must be a string"))?
            .to_string();
    }
    if let Some(v) = opt_u64(body, "population")? {
        spec.population = v;
    }
    if let Some(v) = opt_f64(body, "mean_node_w")? {
        spec.mean_node_w = v;
    }
    if let Some(v) = opt_f64(body, "cv")? {
        spec.cv = v;
    }
    if let Some(v) = opt_f64(body, "noise_sigma")? {
        spec.noise_sigma = v;
    }
    if let Some(v) = opt_f64(body, "confidence")? {
        spec.confidence = v;
    }
    if let Some(v) = opt_f64(body, "lambda")? {
        spec.lambda = v;
    }
    match body.get("quantile").map(|q| q.as_str()) {
        None => {}
        Some(Some("normal" | "z")) => spec.quantile = CiQuantile::Normal,
        Some(Some("t" | "student_t")) => spec.quantile = CiQuantile::StudentT,
        _ => return Err(Response::error(400, "quantile must be `normal` or `t`")),
    }
    match body.get("empirical_cv") {
        None => {}
        Some(v) => {
            spec.empirical_cv = v
                .as_bool()
                .ok_or_else(|| Response::error(400, "field `empirical_cv` must be a boolean"))?;
        }
    }
    match body.get("power_capped") {
        None => {}
        Some(v) => {
            spec.power_capped = v
                .as_bool()
                .ok_or_else(|| Response::error(400, "field `power_capped` must be a boolean"))?;
        }
    }
    match body.get("methodology").map(|m| m.as_str()) {
        None => {}
        Some(Some(name)) => match parse_methodology(name) {
            Some(m) => spec.level = m,
            None => {
                return Err(Response::error(
                    400,
                    "methodology must be one of level1, level2, level3, revised",
                ))
            }
        },
        Some(None) => return Err(Response::error(400, "methodology must be a string")),
    }
    if let Some(v) = opt_u64(body, "samples_per_node")? {
        spec.samples_per_node = u32::try_from(v)
            .map_err(|_| Response::error(400, "samples_per_node is out of range"))?;
    }
    if let Some(v) = opt_f64(body, "gflops_per_node")? {
        spec.gflops_per_node = v;
    }
    if let Some(v) = opt_u64(body, "lateness")? {
        spec.lateness = v;
    }
    if let Some(v) = opt_u64(body, "max_nodes")? {
        spec.max_nodes = v;
    }
    if let Some(v) = opt_u64(body, "seed")? {
        spec.seed = v;
    }
    Ok(spec)
}

/// `POST /v1/campaigns` — register one campaign (or, with `count`, a
/// batch sharing the spec with per-campaign seeds) and start metering.
fn campaigns_create(state: &ServeState, req: &Request) -> Response {
    let body = match parse_body(req) {
        Ok(b) => b,
        Err(r) => return r,
    };
    let spec = match parse_campaign_spec(&body) {
        Ok(s) => s,
        Err(r) => return r,
    };
    let count = match opt_u64(&body, "count") {
        Ok(v) => v.unwrap_or(1),
        Err(r) => return r,
    };
    if count == 0 || count > 100_000 {
        return Response::error(400, "count must be between 1 and 100000");
    }
    if count == 1 {
        return match state.fleet.create(spec) {
            Ok(id) => {
                let status = state.fleet.status(id).expect("campaign just created");
                Response::json(201, &campaign_json(&status))
            }
            Err(e) => fleet_error_response(e),
        };
    }
    // Batch mode: same spec, distinct seeds and name suffixes so every
    // submission measures a different machine from the same family.
    let base_name = spec.name.clone();
    let mut ids = Vec::with_capacity(count as usize);
    for i in 0..count {
        let mut one = spec.clone();
        one.seed = spec.seed.wrapping_add(i);
        if !base_name.is_empty() {
            one.name = format!("{base_name}-{i}");
        }
        match state.fleet.create(one) {
            Ok(id) => ids.push(id),
            Err(e) => {
                // Partial creation is still reported: the caller gets
                // what was registered plus why the batch stopped.
                let mut members = vec![
                    ("created", Json::num(ids.len() as f64)),
                    ("requested", Json::num(count as f64)),
                    (
                        "ids",
                        Json::Array(ids.iter().map(|&id| Json::num(id as f64)).collect()),
                    ),
                    ("error", Json::str(e.to_string())),
                ];
                let status = match e {
                    FleetError::Capacity { .. } => 429,
                    FleetError::InvalidSpec { .. } => 400,
                    _ => 500,
                };
                members.retain(|(k, _)| *k != "ids" || ids.len() <= 10_000);
                return Response::json(status, &Json::object(members));
            }
        }
    }
    Response::json(
        201,
        &Json::object([
            ("created", Json::num(ids.len() as f64)),
            (
                "ids",
                Json::Array(ids.iter().map(|&id| Json::num(id as f64)).collect()),
            ),
        ]),
    )
}

/// `GET /v1/campaigns` — the fleet roster, optionally filtered by state.
fn campaigns_list(state: &ServeState, req: &Request) -> Response {
    let state_filter = match req.query_param("state") {
        None => None,
        Some(label) => {
            match power_fleet::CampaignState::ALL
                .iter()
                .find(|s| s.label() == label)
            {
                Some(s) => Some(*s),
                None => {
                    return Response::error(
                        400,
                        "state must be one of live, stopped, exhausted, failed",
                    )
                }
            }
        }
    };
    let limit = match parse_query_u64(req, "limit") {
        Ok(v) => v.unwrap_or(1000) as usize,
        Err(r) => return r,
    };
    let all = state.fleet.list();
    let total = all.len();
    let items: Vec<Json> = all
        .iter()
        .filter(|c| state_filter.is_none_or(|f| c.state == f))
        .take(limit)
        .map(campaign_summary_json)
        .collect();
    Response::json(
        200,
        &Json::object([
            ("total", Json::num(total as f64)),
            ("returned", Json::num(items.len() as f64)),
            ("campaigns", Json::Array(items)),
        ]),
    )
}

/// `GET|DELETE /v1/campaigns/:id`.
fn campaign_item(state: &ServeState, req: &Request, rest: &str) -> Response {
    let id: u64 = match rest.parse() {
        Ok(id) => id,
        Err(_) => return Response::error(404, "campaign ids are non-negative integers"),
    };
    match req.method.as_str() {
        "GET" => match state.fleet.status(id) {
            Some(status) => Response::json(200, &campaign_json(&status)),
            None => Response::error(404, &format!("campaign {id} is not registered")),
        },
        "DELETE" => match state.fleet.delete(id) {
            Ok(true) => Response::json(200, &Json::object([("deleted", Json::num(id as f64))])),
            Ok(false) => Response::error(404, &format!("campaign {id} is not registered")),
            Err(e) => fleet_error_response(e),
        },
        _ => method_not_allowed("GET, DELETE"),
    }
}

/// The `limit` a leaderboard query asks for (absent means 100).
fn leaderboard_limit(req: &Request) -> Result<usize, Response> {
    Ok(parse_query_u64(req, "limit")?.unwrap_or(100) as usize)
}

/// `GET /v1/leaderboard` — live Green500-style ranking with CIs. Every
/// answer is stored in the state's leaderboard slot, stamped with the
/// fleet version read *before* ranking: a change that lands during the
/// ranking bumps the version past the stamp, so a stored body is never
/// older than its stamp.
fn leaderboard(state: &ServeState, req: &Request) -> Response {
    let limit = match leaderboard_limit(req) {
        Ok(limit) => limit,
        Err(r) => return r,
    };
    let version = state.fleet.version();
    let rows: Vec<Json> = state
        .fleet
        .leaderboard(limit)
        .iter()
        .map(leaderboard_row_json)
        .collect();
    let response = Response::json(
        200,
        &Json::object([
            ("campaigns", Json::num(state.fleet.campaign_count() as f64)),
            ("live", Json::num(state.fleet.live_count() as f64)),
            ("rows", Json::Array(rows)),
        ]),
    );
    state.leaderboard.store(version, limit, &response);
    response
}

/// The reactor-inline half of `/v1/leaderboard`: the slot's response
/// when it was ranked for this `limit` at the fleet's current version,
/// read with one atomic load and the slot's own mutex — no fleet table
/// lock. `None` (a changed fleet, another limit, an invalid limit, a
/// poisoned slot) sends the poll to a worker, where [`leaderboard`]
/// ranks it and refills the slot.
fn leaderboard_fast(state: &ServeState, req: &Request) -> Option<Response> {
    let limit = leaderboard_limit(req).ok()?;
    state.leaderboard.get(state.fleet.version(), limit)
}

fn opt_num(v: Option<f64>) -> Json {
    v.map_or(Json::Null, Json::num)
}

fn campaign_summary_json(status: &CampaignStatus) -> Json {
    Json::object([
        ("id", Json::num(status.id as f64)),
        ("name", Json::str(status.spec.name.clone())),
        ("state", Json::str(status.state.label())),
        ("metered_nodes", Json::num(status.metered_nodes as f64)),
        ("budget", Json::num(status.budget as f64)),
        ("gflops_per_w", opt_num(status.gflops_per_w())),
    ])
}

fn campaign_json(status: &CampaignStatus) -> Json {
    let spec = &status.spec;
    let mut members = vec![
        ("id", Json::num(status.id as f64)),
        ("name", Json::str(spec.name.clone())),
        ("state", Json::str(status.state.label())),
        ("methodology", Json::str(methodology_label(spec.level))),
        ("power_capped", Json::Bool(spec.power_capped)),
        ("population", Json::num(spec.population as f64)),
        ("budget", Json::num(status.budget as f64)),
        ("metered_nodes", Json::num(status.metered_nodes as f64)),
        ("resumed_nodes", Json::num(status.resumed_nodes as f64)),
        ("samples_per_node", Json::num(spec.samples_per_node as f64)),
        ("confidence", Json::num(spec.confidence)),
        ("lambda", Json::num(spec.lambda)),
        ("rmax_gflops", Json::num(spec.rmax_gflops())),
        ("mean_node_w", opt_num(status.mean_node_w)),
        ("power_w", opt_num(status.power_w())),
        ("gflops_per_w", opt_num(status.gflops_per_w())),
        ("relative_accuracy", opt_num(status.relative_accuracy)),
        (
            "ci_node_w",
            status.ci_node_w.as_ref().map_or(Json::Null, |ci| {
                Json::Array(vec![Json::num(ci.lower()), Json::num(ci.upper())])
            }),
        ),
    ];
    if let Some((ingest, offered)) = &status.ingest {
        members.push((
            "ingest",
            Json::object([
                ("offered", Json::num(*offered as f64)),
                ("accepted", Json::num(ingest.accepted as f64)),
                ("late_dropped", Json::num(ingest.late_dropped as f64)),
                ("duplicates", Json::num(ingest.duplicates as f64)),
            ]),
        ));
    }
    if let Some(err) = &status.error {
        members.push(("error", Json::str(err.clone())));
    }
    Json::object(members)
}

fn leaderboard_row_json(row: &LeaderboardRow) -> Json {
    Json::object([
        ("rank", Json::num(row.rank as f64)),
        ("id", Json::num(row.id as f64)),
        ("name", Json::str(row.name.clone())),
        ("methodology", Json::str(methodology_label(row.level))),
        ("power_capped", Json::Bool(row.power_capped)),
        ("state", Json::str(row.state.label())),
        ("population", Json::num(row.population as f64)),
        ("metered_nodes", Json::num(row.metered_nodes as f64)),
        ("rmax_gflops", Json::num(row.rmax_gflops)),
        ("power_w", Json::num(row.power_w)),
        ("gflops_per_w", Json::num(row.gflops_per_w)),
        (
            "ci_gflops_per_w",
            row.ci_gflops_per_w.map_or(Json::Null, |(lo, hi)| {
                Json::Array(vec![Json::num(lo), Json::num(hi)])
            }),
        ),
        ("relative_accuracy", opt_num(row.relative_accuracy)),
    ])
}

// ---- small parsing helpers ----------------------------------------------

fn parse_body(req: &Request) -> Result<Json, Response> {
    let text = req
        .body_utf8()
        .map_err(|e| Response::error(400, e.detail()))?;
    if text.trim().is_empty() {
        return Err(Response::error(400, "request body must be a JSON object"));
    }
    let body = Json::parse(text).map_err(|e| Response::error(400, &e.to_string()))?;
    match body {
        Json::Object(_) => Ok(body),
        _ => Err(Response::error(400, "request body must be a JSON object")),
    }
}

fn req_f64(body: &Json, key: &str) -> Result<f64, Response> {
    opt_f64(body, key)?
        .ok_or_else(|| Response::error(400, &format!("missing required field `{key}`")))
}

fn opt_f64(body: &Json, key: &str) -> Result<Option<f64>, Response> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| Response::error(400, &format!("field `{key}` must be a finite number"))),
    }
}

fn req_u64(body: &Json, key: &str) -> Result<u64, Response> {
    opt_u64(body, key)?
        .ok_or_else(|| Response::error(400, &format!("missing required field `{key}`")))
}

fn opt_u64(body: &Json, key: &str) -> Result<Option<u64>, Response> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            Response::error(
                400,
                &format!("field `{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn req_str<'a>(body: &'a Json, key: &str) -> Result<&'a str, Response> {
    match body.get(key) {
        Some(v) => v
            .as_str()
            .ok_or_else(|| Response::error(400, &format!("field `{key}` must be a string"))),
        None => Err(Response::error(
            400,
            &format!("missing required field `{key}`"),
        )),
    }
}

fn parse_query_f64(req: &Request, key: &str) -> Result<Option<f64>, Response> {
    match req.query_param(key) {
        None => Ok(None),
        Some(raw) => raw
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Some)
            .ok_or_else(|| {
                Response::error(
                    400,
                    &format!("query parameter `{key}` must be a finite number"),
                )
            }),
    }
}

fn parse_query_u64(req: &Request, key: &str) -> Result<Option<u64>, Response> {
    match req.query_param(key) {
        None => Ok(None),
        Some(raw) => raw.parse::<u64>().map(Some).map_err(|_| {
            Response::error(
                400,
                &format!("query parameter `{key}` must be a non-negative integer"),
            )
        }),
    }
}

fn parse_methodology(name: &str) -> Option<Methodology> {
    match name.to_ascii_lowercase().as_str() {
        "level1" | "l1" => Some(Methodology::Level1),
        "level2" | "l2" => Some(Methodology::Level2),
        "level3" | "l3" => Some(Methodology::Level3),
        "revised" => Some(Methodology::Revised),
        _ => None,
    }
}

fn methodology_label(m: Methodology) -> &'static str {
    match m {
        Methodology::Level1 => "level1",
        Methodology::Level2 => "level2",
        Methodology::Level3 => "level3",
        Methodology::Revised => "revised",
    }
}

fn parse_scope(name: &str) -> Option<MeterScope> {
    match name.to_ascii_lowercase().as_str() {
        "wall" => Some(MeterScope::Wall),
        "dc" => Some(MeterScope::Dc),
        "processors" | "processors_only" => Some(MeterScope::ProcessorsOnly),
        _ => None,
    }
}

fn scope_label(scope: MeterScope) -> &'static str {
    match scope {
        MeterScope::Wall => "wall",
        MeterScope::Dc => "dc",
        MeterScope::ProcessorsOnly => "processors",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{ServeConfig, ServeState};

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        crate::http::read_request(
            &mut std::io::Cursor::new(raw.into_bytes()),
            &crate::http::HttpLimits::default(),
        )
        .unwrap()
        .unwrap()
    }

    fn post(path: &str, body: &str) -> Request {
        let raw = format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        crate::http::read_request(
            &mut std::io::Cursor::new(raw.into_bytes()),
            &crate::http::HttpLimits::default(),
        )
        .unwrap()
        .unwrap()
    }

    fn state() -> ServeState {
        ServeState::new(ServeConfig {
            max_nodes: 64,
            ..ServeConfig::default()
        })
    }

    fn body_json(resp: &Response) -> Json {
        Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn healthz_and_systems() {
        let state = state();
        let (ep, resp) = route(&state, &get("/healthz"));
        assert_eq!(ep, Endpoint::Healthz);
        assert_eq!(resp.status, 200);
        assert_eq!(body_json(&resp).get("status").unwrap().as_str(), Some("ok"));

        let (_, resp) = route(&state, &get("/v1/systems"));
        let systems = body_json(&resp);
        assert_eq!(
            systems.get("systems").unwrap().as_array().unwrap().len(),
            10
        );
    }

    #[test]
    fn sample_size_matches_table5_cell() {
        let state = state();
        let (_, resp) = route(
            &state,
            &post(
                "/v1/sample-size",
                r#"{"lambda": 0.005, "cv": 0.05, "population": 10000}"#,
            ),
        );
        assert_eq!(resp.status, 200, "{:?}", resp.body);
        let body = body_json(&resp);
        // The paper's Table 5: lambda 0.5%, cv 5%, N = 10 000 -> 370.
        assert_eq!(body.get("required_nodes").unwrap().as_u64(), Some(370));
        assert_eq!(body.get("confidence").unwrap().as_f64(), Some(0.95));
    }

    #[test]
    fn sample_size_rejects_bad_parameters() {
        let state = state();
        for body in [
            r#"{"cv": 0.05, "population": 100}"#,
            r#"{"lambda": 0.01, "population": 100}"#,
            r#"{"lambda": 0.01, "cv": 0.05}"#,
            r#"{"lambda": -1, "cv": 0.05, "population": 100}"#,
            r#"{"lambda": 0.01, "cv": 0.05, "population": 0.5}"#,
            r#"not json"#,
            r#"[1,2]"#,
        ] {
            let (_, resp) = route(&state, &post("/v1/sample-size", body));
            assert_eq!(resp.status, 400, "{body}");
        }
        // population = 0 is well-formed but unsatisfiable.
        let (_, resp) = route(
            &state,
            &post(
                "/v1/sample-size",
                r#"{"lambda": 0.01, "cv": 0.05, "population": 0}"#,
            ),
        );
        assert_eq!(resp.status, 422);
    }

    #[test]
    fn measure_runs_end_to_end_and_caches() {
        let state = state();
        let body =
            r#"{"system": "L-CSC", "methodology": "revised", "nodes": 24, "dt": 60, "seed": 7}"#;
        let (ep, resp) = route(&state, &post("/v1/measure", body));
        assert_eq!(ep, Endpoint::Measure);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let m = body_json(&resp);
        assert_eq!(m.get("total_nodes").unwrap().as_u64(), Some(24));
        // Revised rule on 24 nodes: max(16, 10%) = 16.
        assert_eq!(m.get("metered_nodes").unwrap().as_u64(), Some(16));
        assert!(m.get("reported_power_w").unwrap().as_f64().unwrap() > 0.0);
        assert!(m.get("assessment").is_some());
        assert_eq!(state.store.misses(), 1);

        // The identical request is served from cache: no second sweep.
        let (_, resp2) = route(&state, &post("/v1/measure", body));
        assert_eq!(resp2.status, 200);
        assert_eq!(state.store.misses(), 1);
        assert!(state.store.hits() >= 1);
    }

    #[test]
    fn measure_validates_inputs() {
        let state = state();
        for (body, status) in [
            (r#"{"methodology": "revised"}"#, 400),
            (r#"{"system": "No Such Machine"}"#, 404),
            (r#"{"system": "L-CSC", "methodology": "level9"}"#, 400),
            (r#"{"system": "L-CSC", "nodes": 0}"#, 400),
            (r#"{"system": "L-CSC", "nodes": 100000}"#, 400),
            (r#"{"system": "L-CSC", "dt": -3}"#, 400),
            (r#"{"system": "L-CSC", "nodes": 24, "dt": 0.001}"#, 422),
            (r#"{"system": "L-CSC", "selection": "best_nodes"}"#, 400),
            (r#"{"system": "L-CSC", "placement": 7}"#, 400),
        ] {
            let (_, resp) = route(&state, &post("/v1/measure", body));
            assert_eq!(
                resp.status,
                status,
                "{body}: {}",
                String::from_utf8_lossy(&resp.body)
            );
        }
        // Nothing invalid was simulated or cached.
        assert_eq!(state.store.misses(), 0);
    }

    #[test]
    fn trace_window_is_cached_and_o1_on_repeat() {
        let state = state();
        let path = "/v1/trace/window?system=Colosse&nodes=16&dt=120&from=1200&to=4800";
        let (ep, resp) = route(&state, &get(path));
        assert_eq!(ep, Endpoint::TraceWindow);
        assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
        let body = body_json(&resp);
        let avg = body.get("average_w").unwrap().as_f64().unwrap();
        assert!(avg > 0.0);
        // Energy over the window is consistent with the average.
        let energy = body.get("energy_j").unwrap().as_f64().unwrap();
        assert!((energy - avg * 3600.0).abs() <= 1e-6 * energy.abs());
        assert_eq!(state.store.misses(), 1);

        // A different window over the same sweep: pure cache hit.
        let (_, resp2) = route(
            &state,
            &get("/v1/trace/window?system=Colosse&nodes=16&dt=120&from=0&to=600"),
        );
        assert_eq!(resp2.status, 200);
        assert_eq!(state.store.misses(), 1, "window change must not re-sweep");

        // Scope selection works against the same cached products.
        let (_, resp3) = route(
            &state,
            &get("/v1/trace/window?system=Colosse&nodes=16&dt=120&from=1200&to=4800&scope=dc"),
        );
        let dc = body_json(&resp3)
            .get("average_w")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(dc < avg, "DC power sits below wall power");
        assert_eq!(state.store.misses(), 1);
    }

    #[test]
    fn trace_window_validates_inputs() {
        let state = state();
        for path in [
            "/v1/trace/window",
            "/v1/trace/window?system=Colosse",
            "/v1/trace/window?system=Colosse&from=10",
            "/v1/trace/window?system=Colosse&from=ten&to=20",
            "/v1/trace/window?system=Colosse&from=10&to=20&scope=psu",
            "/v1/trace/window?system=Colosse&nodes=16&dt=120&from=500&to=100",
        ] {
            let (_, resp) = route(&state, &get(path));
            assert_eq!(resp.status, 400, "{path}");
        }
        let (_, resp) = route(&state, &get("/v1/trace/window?system=Nope&from=0&to=10"));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn unknown_paths_and_wrong_methods() {
        let state = state();
        let (ep, resp) = route(&state, &get("/v2/everything"));
        assert_eq!(ep, Endpoint::Other);
        assert_eq!(resp.status, 404);
        let (ep, resp) = route(&state, &post("/healthz", "{}"));
        assert_eq!(ep, Endpoint::Healthz);
        assert_eq!(resp.status, 405);
        let (_, resp) = route(&state, &get("/v1/measure"));
        assert_eq!(resp.status, 405);
    }

    fn delete(path: &str) -> Request {
        let raw = format!("DELETE {path} HTTP/1.1\r\n\r\n");
        crate::http::read_request(
            &mut std::io::Cursor::new(raw.into_bytes()),
            &crate::http::HttpLimits::default(),
        )
        .unwrap()
        .unwrap()
    }

    #[test]
    fn campaign_crud_over_http() {
        let state = state();
        let (ep, resp) = route(
            &state,
            &post(
                "/v1/campaigns",
                r#"{"name": "crud", "population": 64, "samples_per_node": 8, "seed": 7}"#,
            ),
        );
        assert_eq!(ep, Endpoint::Campaigns);
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        let created = body_json(&resp);
        let id = created.get("id").unwrap().as_u64().unwrap();
        assert_eq!(created.get("state").unwrap().as_str(), Some("live"));
        assert_eq!(created.get("population").unwrap().as_u64(), Some(64));
        assert_eq!(created.get("power_capped"), Some(&Json::Bool(false)));

        // Router-test states carry no driver; advance the fleet by hand.
        state.fleet.drive_until_idle();

        let (ep, resp) = route(&state, &get(&format!("/v1/campaigns/{id}")));
        assert_eq!(ep, Endpoint::Campaigns);
        assert_eq!(resp.status, 200);
        let status = body_json(&resp);
        assert_eq!(status.get("state").unwrap().as_str(), Some("stopped"));
        assert!(status.get("gflops_per_w").unwrap().as_f64().unwrap() > 0.0);
        let ci = status.get("ci_node_w").unwrap().as_array().unwrap();
        let mean = status.get("mean_node_w").unwrap().as_f64().unwrap();
        assert!(ci[0].as_f64().unwrap() <= mean && mean <= ci[1].as_f64().unwrap());

        let (_, resp) = route(&state, &get("/v1/campaigns?state=stopped"));
        let list = body_json(&resp);
        assert_eq!(list.get("total").unwrap().as_u64(), Some(1));
        assert_eq!(list.get("returned").unwrap().as_u64(), Some(1));

        let (_, resp) = route(&state, &delete(&format!("/v1/campaigns/{id}")));
        assert_eq!(resp.status, 200);
        assert_eq!(body_json(&resp).get("deleted").unwrap().as_u64(), Some(id));
        let (_, resp) = route(&state, &get(&format!("/v1/campaigns/{id}")));
        assert_eq!(resp.status, 404);
        let (_, resp) = route(&state, &delete(&format!("/v1/campaigns/{id}")));
        assert_eq!(resp.status, 404);
    }

    #[test]
    fn campaign_validation_batching_and_methods() {
        let state = state();
        for body in [
            r#"{"population": 0}"#,
            r#"{"cv": -0.5}"#,
            r#"{"lambda": 0}"#,
            r#"{"quantile": "cauchy"}"#,
            r#"{"methodology": "L9"}"#,
            r#"{"power_capped": "yes"}"#,
            r#"{"count": 0}"#,
            r#"not json"#,
        ] {
            let (_, resp) = route(&state, &post("/v1/campaigns", body));
            assert_eq!(resp.status, 400, "{body}");
        }

        let (_, resp) = route(
            &state,
            &post(
                "/v1/campaigns",
                r#"{"name": "batch", "population": 32, "samples_per_node": 4, "count": 5}"#,
            ),
        );
        assert_eq!(resp.status, 201, "{}", String::from_utf8_lossy(&resp.body));
        let batch = body_json(&resp);
        assert_eq!(batch.get("created").unwrap().as_u64(), Some(5));
        assert_eq!(batch.get("ids").unwrap().as_array().unwrap().len(), 5);

        let (_, resp) = route(&state, &get("/v1/campaigns/not-a-number"));
        assert_eq!(resp.status, 404);
        let (_, resp) = route(&state, &delete("/v1/campaigns"));
        assert_eq!(resp.status, 405);
        let (_, resp) = route(&state, &post("/v1/leaderboard", "{}"));
        assert_eq!(resp.status, 405);
        let (_, resp) = route(&state, &get("/v1/campaigns?state=nope"));
        assert_eq!(resp.status, 400);
    }

    #[test]
    fn leaderboard_ranks_by_efficiency_and_metrics_stay_bounded() {
        let state = state();
        // Three machines at different node powers: efficiency orders
        // them inversely (same Rmax per node).
        for (name, watts, capped) in [
            ("hot", 500.0, false),
            ("warm", 400.0, false),
            ("cool", 300.0, true),
        ] {
            let body = format!(
                r#"{{"name": "{name}", "population": 48, "mean_node_w": {watts},
                     "samples_per_node": 8, "seed": 3, "power_capped": {capped}}}"#
            );
            let (_, resp) = route(&state, &post("/v1/campaigns", &body));
            assert_eq!(resp.status, 201);
        }
        state.fleet.drive_until_idle();

        let (ep, resp) = route(&state, &get("/v1/leaderboard"));
        assert_eq!(ep, Endpoint::Leaderboard);
        assert_eq!(resp.status, 200);
        let board = body_json(&resp);
        assert_eq!(board.get("live").unwrap().as_u64(), Some(0));
        let rows = board.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 3);
        let names: Vec<&str> = rows
            .iter()
            .map(|r| r.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, ["cool", "warm", "hot"]);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.get("rank").unwrap().as_u64(), Some(i as u64 + 1));
            let ci = row.get("ci_gflops_per_w").unwrap().as_array().unwrap();
            let eff = row.get("gflops_per_w").unwrap().as_f64().unwrap();
            assert!(ci[0].as_f64().unwrap() <= eff && eff <= ci[1].as_f64().unwrap());
            // The cap tag survives spec → journal → leaderboard intact.
            let capped = row.get("power_capped").unwrap();
            assert_eq!(capped, &Json::Bool(names[i] == "cool"));
        }
        let (_, resp) = route(&state, &get("/v1/leaderboard?limit=1"));
        let top = body_json(&resp);
        assert_eq!(top.get("rows").unwrap().as_array().unwrap().len(), 1);

        // The gauge family stays bounded: one series per state, never
        // one per campaign, and the sample counters obey conservation.
        let (_, resp) = route(&state, &get("/metrics"));
        let page = String::from_utf8(resp.body).unwrap();
        assert!(page.contains("power_serve_campaigns{state=\"stopped\"} 3"));
        assert!(page.contains("power_serve_campaigns{state=\"live\"} 0"));
        assert_eq!(page.matches("power_serve_campaigns{").count(), 4);
        let counter = |outcome: &str| -> u64 {
            let prefix = format!("power_serve_fleet_samples_total{{outcome=\"{outcome}\"}} ");
            page.lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .and_then(|rest| rest.trim().parse().ok())
                .unwrap()
        };
        assert!(counter("offered") > 0);
        assert_eq!(
            counter("offered"),
            counter("accepted")
                + counter("late_dropped")
                + counter("duplicates")
                + counter("pending")
        );
    }

    #[test]
    fn metrics_renders_store_and_request_counters() {
        let state = state();
        let (_, _) = route(&state, &get("/healthz"));
        state
            .metrics
            .record(Endpoint::Healthz, 200, std::time::Duration::from_micros(10));
        let (_, resp) = route(&state, &get("/metrics"));
        assert_eq!(resp.status, 200);
        let page = String::from_utf8(resp.body).unwrap();
        assert!(page.contains("power_serve_requests_total{endpoint=\"healthz\"} 1"));
        assert!(page.contains("power_serve_store_total{outcome=\"misses\"} 0"));
    }

    #[test]
    fn route_fast_answers_cheap_requests_identically_and_defers_work() {
        let state = state();
        // Inline-answerable requests agree with `route` byte for byte.
        for req in [
            get("/healthz"),
            get("/v1/systems"),
            get("/nope"),
            post("/v1/systems", "{}"),
            post("/v1/trace/window", "{}"),
            get("/v1/trace/window?from=1&to=2"), // missing `system` -> 400
        ] {
            let fast = route_fast(&state, &req).expect("inline-answerable");
            let full = route(&state, &req);
            assert_eq!(fast.0, full.0, "{} {}", req.method, req.path);
            assert_eq!(fast.1.status, full.1.status);
            if req.path != "/healthz" {
                // healthz embeds uptime, which moves between the calls.
                assert_eq!(fast.1.body, full.1.body);
            }
        }
        // Handlers that may simulate or contend are deferred to workers.
        let path = "/v1/trace/window?system=Colosse&nodes=16&dt=120&from=1200&to=4800";
        for req in [
            post("/v1/measure", "{}"),
            post("/v1/sample-size", "{}"),
            get("/v1/campaigns"),
            get("/v1/campaigns/abc"),
            get("/v1/leaderboard"),
            get(path), // cold window query: nothing cached yet
        ] {
            assert!(
                route_fast(&state, &req).is_none(),
                "{} {} must dispatch",
                req.method,
                req.path
            );
        }
        // Once the sweep is cached, the same window query answers inline
        // off the summary tier — and matches the worker path's body.
        let (_, warm) = route(&state, &get(path));
        assert_eq!(warm.status, 200);
        let fast = route_fast(&state, &get(path)).expect("warm window answers inline");
        assert_eq!(fast.1.status, 200);
        assert_eq!(fast.1.body, warm.body);

        // A leaderboard poll defers until a worker has ranked it; then
        // the same limit answers inline, identical to `route`, until the
        // fleet changes.
        let board = "/v1/leaderboard?limit=10";
        let batch = r#"{"population": 32, "samples_per_node": 4, "count": 3}"#;
        assert_eq!(route(&state, &post("/v1/campaigns", batch)).1.status, 201);
        state.fleet.drive_until_idle();
        assert!(
            route_fast(&state, &get(board)).is_none(),
            "nothing ranked yet"
        );
        let ranked = route(&state, &get(board));
        assert_eq!(ranked.1.status, 200);
        assert_eq!(route_fast(&state, &get(board)), Some(ranked));
        assert!(route_fast(&state, &get("/v1/leaderboard?limit=1")).is_none());
        assert!(route_fast(&state, &get("/v1/leaderboard?limit=ten")).is_none());
        // An absent limit is 100.
        assert!(route_fast(&state, &get("/v1/leaderboard")).is_none());
        let default = route(&state, &get("/v1/leaderboard"));
        assert_eq!(
            route_fast(&state, &get("/v1/leaderboard?limit=100")),
            Some(default)
        );

        // Any change defers the next poll.
        let defers = |what: &str, change: &dyn Fn()| {
            route(&state, &get(board));
            assert!(route_fast(&state, &get(board)).is_some(), "before {what}");
            change();
            assert!(route_fast(&state, &get(board)).is_none(), "after {what}");
        };
        let one = r#"{"population": 32, "samples_per_node": 4}"#;
        let created = route(&state, &post("/v1/campaigns", one)).1;
        let id = body_json(&created).get("id").unwrap().as_u64().unwrap();
        defers("create", &|| {
            assert_eq!(route(&state, &post("/v1/campaigns", one)).1.status, 201)
        });
        defers("a driven round", &|| {
            let metered: u64 = (0..state.fleet.shards())
                .map(|shard| state.fleet.advance_shard(shard))
                .sum();
            assert!(metered > 0);
        });
        defers("delete", &|| {
            let path = format!("/v1/campaigns/{id}");
            assert_eq!(route(&state, &delete(&path)).1.status, 200);
        });
    }

    /// Random creates, scheduler passes, deletes and polls at limits 1,
    /// 10 and 0: every poll the reactor answers inline equals what a
    /// worker would rank at that point.
    #[test]
    fn inline_leaderboard_answers_equal_a_fresh_ranking() {
        let state = state();
        let mut seed = 0x1EAD_B0A2_u64;
        let mut next = move || {
            // SplitMix64.
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut ids: Vec<u64> = Vec::new();
        let (mut hits, mut misses) = (0, 0);
        for step in 0..1_500u64 {
            match next() % 20 {
                0 | 1 => {
                    let body =
                        format!(r#"{{"population": 32, "samples_per_node": 4, "seed": {step}}}"#);
                    let created = route(&state, &post("/v1/campaigns", &body)).1;
                    assert_eq!(created.status, 201);
                    ids.push(body_json(&created).get("id").unwrap().as_u64().unwrap());
                }
                2 if !ids.is_empty() => {
                    let id = ids.swap_remove(next() as usize % ids.len());
                    let path = format!("/v1/campaigns/{id}");
                    assert_eq!(route(&state, &delete(&path)).1.status, 200);
                }
                3..=7 => {
                    state
                        .fleet
                        .advance_shard(next() as usize % state.fleet.shards());
                }
                _ => {
                    let limit = [1, 10, 0][next() as usize % 3];
                    let req = get(&format!("/v1/leaderboard?limit={limit}"));
                    match route_fast(&state, &req) {
                        Some(fast) => {
                            hits += 1;
                            assert_eq!(fast, route(&state, &req), "step {step}, limit {limit}");
                        }
                        None => {
                            misses += 1;
                            route(&state, &req);
                        }
                    }
                }
            }
        }
        assert!(hits >= 100 && misses >= 100, "{hits} hits, {misses} misses");
    }

    #[test]
    fn debug_routes_are_gated_and_panic_on_demand() {
        // Off by default: /debug/* is just an unknown path.
        let state = state();
        let (ep, resp) = route(&state, &get("/debug/panic"));
        assert_eq!(ep, Endpoint::Other);
        assert_eq!(resp.status, 404);

        let debug = ServeState::new(ServeConfig {
            max_nodes: 64,
            debug_routes: true,
            ..ServeConfig::default()
        });
        // Enabled: sleep returns 200 and reports the clamped duration...
        let (ep, resp) = route(&debug, &get("/debug/sleep?ms=1"));
        assert_eq!(ep, Endpoint::Other);
        assert_eq!(resp.status, 200);
        assert_eq!(body_json(&resp).get("slept_ms").unwrap().as_u64(), Some(1));
        // ...unknown debug paths still 404, bad params still 400...
        assert_eq!(route(&debug, &get("/debug/nope")).1.status, 404);
        assert_eq!(route(&debug, &get("/debug/sleep?ms=abc")).1.status, 400);
        // ...the fast path defers every enabled debug route to a worker...
        assert!(route_fast(&debug, &get("/debug/panic")).is_none());
        assert!(route_fast(&debug, &get("/debug/sleep?ms=1")).is_none());
        // ...and /debug/panic panics inside the handler, as designed.
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(&debug, &get("/debug/panic"))
        }));
        assert!(caught.is_err(), "injected panic must unwind");
    }
}
