//! The measurement query service: `power-serve` over the full preset
//! catalog.
//!
//! Normal mode binds the requested address and serves until killed:
//!
//! ```text
//! cargo run --release --bin serve -- --addr 127.0.0.1:8980
//! ```
//!
//! `--store-dir DIR` attaches the crash-safe on-disk sweep archive: the
//! trace store gains a disk tier under `DIR`, sweeps survive restarts,
//! and startup warms the memory tier from whatever the archive holds.
//!
//! `--smoke` runs the CI exercise instead: bind an ephemeral loopback
//! port, hit every endpoint once, serve a multi-request keep-alive
//! session on a single connection (at least 8 sequential requests),
//! force a connection-admission `503` on a capped server, check both
//! sides of the admission ledger under cold and keep-alive load, park
//! 1,000 idle keep-alive connections and prove service stays up and
//! every parked connection survives, and shut down cleanly. Exit status
//! is nonzero on any failure. With `--store-dir`, the smoke also checks
//! the persistence tier: a cold directory must absorb archive writes,
//! and a second smoke over the same directory must start warm and serve
//! every sweep without recomputing. A directory written under another
//! simulation-key epoch is retired when it is opened, so it starts cold.
//!
//! `--fleet-smoke` runs the fleet crash-restart exercise: spawn a real
//! child server journalling its fleet to a store directory, create 120
//! campaigns over `POST /v1/campaigns`, SIGKILL the child once every
//! campaign has journalled progress, reopen the directory, and assert
//! every campaign resumed at its watermark, ran to its stopping rule,
//! and the ingest plane's conservation law held. (`--fleet-child` is
//! the internal killable server half of this mode.)

use power_serve::loadgen::{self, LoadPlan, PooledClient};
use power_serve::server::{Server, ServerConfig};
use power_serve::state::{ServeConfig, ServeState};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    workers: usize,
    queue_depth: usize,
    store_capacity: usize,
    idle_timeout_ms: u64,
    max_per_conn: u64,
    max_connections: usize,
    store_dir: Option<PathBuf>,
    smoke: bool,
    fleet_smoke: bool,
    fleet_child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:8980".to_string(),
        workers: 4,
        queue_depth: 16,
        store_capacity: 256,
        idle_timeout_ms: 2000,
        max_per_conn: 1024,
        max_connections: 16_384,
        store_dir: None,
        smoke: false,
        fleet_smoke: false,
        fleet_child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be an integer".to_string())?
            }
            "--queue" => {
                args.queue_depth = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue must be an integer".to_string())?
            }
            "--capacity" => {
                args.store_capacity = value("--capacity")?
                    .parse()
                    .map_err(|_| "--capacity must be an integer".to_string())?
            }
            "--idle-ms" => {
                args.idle_timeout_ms = value("--idle-ms")?
                    .parse()
                    .map_err(|_| "--idle-ms must be an integer".to_string())?
            }
            "--max-per-conn" => {
                args.max_per_conn = value("--max-per-conn")?
                    .parse()
                    .map_err(|_| "--max-per-conn must be an integer".to_string())?
            }
            "--max-conns" => {
                args.max_connections = value("--max-conns")?
                    .parse()
                    .map_err(|_| "--max-conns must be an integer".to_string())?
            }
            "--store-dir" => args.store_dir = Some(PathBuf::from(value("--store-dir")?)),
            "--smoke" => args.smoke = true,
            "--fleet-smoke" => args.fleet_smoke = true,
            // Internal: the killable server process the fleet smoke spawns.
            "--fleet-child" => args.fleet_child = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("serve: {msg}");
            eprintln!(
                "usage: serve [--addr HOST:PORT] [--workers N] [--queue N] [--capacity N] [--idle-ms N] [--max-per-conn N] [--max-conns N] [--store-dir DIR] [--smoke] [--fleet-smoke]"
            );
            return ExitCode::FAILURE;
        }
    };
    if args.smoke {
        return smoke(args.store_dir);
    }
    if args.fleet_smoke {
        return fleet_smoke(args.store_dir);
    }
    if args.fleet_child {
        return fleet_child(args.store_dir);
    }

    let state = match ServeState::try_new(ServeConfig {
        store_capacity: Some(args.store_capacity),
        store_dir: args.store_dir.clone(),
        ..ServeConfig::default()
    }) {
        Ok(state) => Arc::new(state),
        Err(err) => {
            eprintln!("serve: cannot open sweep archive: {err}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(dir) = &args.store_dir {
        println!(
            "sweep archive at {} ({} sweeps warmed into memory)",
            dir.display(),
            state.warmed
        );
    }
    let server = match Server::start(
        ServerConfig {
            addr: args.addr.clone(),
            workers: args.workers,
            queue_depth: args.queue_depth,
            idle_timeout: Duration::from_millis(args.idle_timeout_ms.max(1)),
            max_requests_per_connection: args.max_per_conn,
            max_connections: args.max_connections,
            ..ServerConfig::default()
        },
        state,
    ) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("serve: cannot bind {}: {err}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!("power-serve listening on http://{}", server.local_addr());
    println!("  GET  /healthz");
    println!("  GET  /metrics");
    println!("  GET  /v1/systems");
    println!("  GET  /v1/trace/window?system=...&from=...&to=...");
    println!("  POST /v1/measure");
    println!("  POST /v1/sample-size");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// The CI smoke: every endpoint answers, saturation rejects with `503`
/// and `Retry-After`, both admission ledgers agree, shutdown drains.
/// With a store directory, also asserts the persistence tier: cold
/// directories absorb archive writes; ones that open with entries start
/// warm and serve without recomputing.
fn smoke(store_dir: Option<PathBuf>) -> ExitCode {
    let timeout = Duration::from_secs(10);
    let state = match ServeState::try_new(ServeConfig {
        max_nodes: 64,
        store_dir: store_dir.clone(),
        warm_on_start: true,
        ..ServeConfig::default()
    }) {
        Ok(state) => Arc::new(state),
        Err(err) => {
            eprintln!("smoke: cannot open sweep archive: {err}");
            return ExitCode::FAILURE;
        }
    };
    // An archive that opens with entries was written by a previous smoke
    // under the current key epoch: this run must start warm. A store of
    // another epoch is retired at open and starts cold.
    let opened = state.archive.as_ref().map(|a| a.stats());
    if let Some(stats) = opened.filter(|s| s.retired_keys > 0) {
        println!(
            "smoke: retired {} keys of another key epoch at open",
            stats.retired_keys
        );
    }
    let expect_warm = opened.is_some_and(|s| s.entries > 0);
    // One worker and a one-slot queue make saturation deterministic.
    let server = match Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 1,
            read_timeout: Duration::from_secs(20),
            ..ServerConfig::default()
        },
        Arc::clone(&state),
    ) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("smoke: cannot bind loopback: {err}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    println!("smoke: serving on {addr}");

    let checks: Vec<(&str, Vec<u8>)> = vec![
        ("GET /healthz", loadgen::get_request("/healthz")),
        ("GET /v1/systems", loadgen::get_request("/v1/systems")),
        (
            "POST /v1/sample-size",
            loadgen::post_request(
                "/v1/sample-size",
                r#"{"lambda": 0.01, "cv": 0.05, "population": 10000}"#,
            ),
        ),
        (
            "POST /v1/measure",
            loadgen::post_request(
                "/v1/measure",
                r#"{"system": "L-CSC", "nodes": 16, "dt": 120, "seed": 5}"#,
            ),
        ),
        (
            "GET /v1/trace/window",
            loadgen::get_request("/v1/trace/window?system=L-CSC&nodes=16&dt=120&from=600&to=3000"),
        ),
        ("GET /metrics", loadgen::get_request("/metrics")),
    ];
    for (label, raw) in &checks {
        match loadgen::http_request(addr, raw, timeout) {
            Ok((200, body)) => {
                let head: String = body.chars().take(72).collect();
                println!("smoke: {label} -> 200 {head}");
            }
            Ok((status, body)) => {
                eprintln!("smoke: {label} -> {status}: {body}");
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("smoke: {label} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Keep-alive: a single connection must serve at least 8 sequential
    // requests, with each response advertising `connection: keep-alive`.
    let keep_alive_requests = 10u64;
    let mut session = PooledClient::new(addr, timeout);
    for i in 0..keep_alive_requests {
        let raw = loadgen::get_request_keep_alive("/healthz");
        match session.request(&raw) {
            Ok(response) if response.status == 200 => {
                if !response.kept_alive {
                    eprintln!("smoke: server closed the keep-alive session at request {i}");
                    return ExitCode::FAILURE;
                }
            }
            Ok(response) => {
                eprintln!(
                    "smoke: keep-alive request {i} -> {}: {}",
                    response.status, response.body
                );
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("smoke: keep-alive request {i} failed: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if session.connections() != 1 || keep_alive_requests < 8 {
        eprintln!(
            "smoke: {keep_alive_requests} requests used {} connections, want 1",
            session.connections()
        );
        return ExitCode::FAILURE;
    }
    session.disconnect();
    println!("smoke: one connection served {keep_alive_requests} sequential requests (>= 8)");

    // Saturate admission: a dedicated server capped at two concurrent
    // connections (own state, so the main ledger stays clean). Two idle
    // pins fill the cap; the third connection must be bounced at the
    // door with `503` + `Retry-After` and then closed.
    {
        let sat_server = match Server::start(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                queue_depth: 1,
                max_connections: 2,
                read_timeout: Duration::from_secs(20),
                ..ServerConfig::default()
            },
            Arc::new(ServeState::new(ServeConfig {
                max_nodes: 64,
                ..ServeConfig::default()
            })),
        ) {
            Ok(server) => server,
            Err(err) => {
                eprintln!("smoke: cannot bind saturation server: {err}");
                return ExitCode::FAILURE;
            }
        };
        let sat_addr = sat_server.local_addr();
        let pin_a = TcpStream::connect(sat_addr).expect("pin connection");
        let pin_b = TcpStream::connect(sat_addr).expect("pin connection");
        std::thread::sleep(Duration::from_millis(100));
        let mut overflow = TcpStream::connect(sat_addr).expect("overflow connection");
        overflow.set_read_timeout(Some(timeout)).unwrap();
        overflow
            .write_all(&loadgen::get_request("/healthz"))
            .expect("overflow write");
        let mut raw = Vec::new();
        overflow.read_to_end(&mut raw).expect("overflow read");
        let text = String::from_utf8_lossy(&raw);
        if !text.starts_with("HTTP/1.1 503 ") || !text.contains("retry-after:") {
            eprintln!("smoke: saturation did not produce 503 + Retry-After:\n{text}");
            return ExitCode::FAILURE;
        }
        drop(pin_a);
        drop(pin_b);
        std::thread::sleep(Duration::from_millis(100));
        let sat = sat_server.state().metrics.admission();
        sat_server.shutdown();
        if !sat.conserved() || sat.offered != 3 || sat.rejected != 1 {
            eprintln!("smoke: saturation ledger off (want 3 = 2 + 1): {sat:?}");
            return ExitCode::FAILURE;
        }
        println!("smoke: saturation -> 503 with retry-after; ledger 3 = 2 + 1");
    }

    // A cold load burst, then a keep-alive one; reconcile the two
    // ledgers after each. The server counts connections, so the client's
    // `connections` (not its request count) is what must line up.
    let report = loadgen::run(
        addr,
        &LoadPlan {
            threads: 4,
            requests_per_thread: 16,
            targets: vec![loadgen::get_request("/healthz")],
            timeout,
            ..LoadPlan::default()
        },
    );
    println!("smoke: cold loadgen {report}");
    if !report.conserved() || report.failed != 0 {
        eprintln!("smoke: cold load report does not balance");
        return ExitCode::FAILURE;
    }
    let keep_alive_report = loadgen::run(
        addr,
        &LoadPlan {
            threads: 2,
            requests_per_thread: 16,
            targets: vec![loadgen::get_request_keep_alive("/healthz")],
            timeout,
            keep_alive: true,
            retry_rejected: 4,
            pipeline_depth: 1,
        },
    );
    println!("smoke: keep-alive loadgen {keep_alive_report}");
    if !keep_alive_report.conserved() || keep_alive_report.failed != 0 {
        eprintln!("smoke: keep-alive load report does not balance");
        return ExitCode::FAILURE;
    }

    // Parked connections: 1,000 idle keep-alive connections held open
    // cost the reactor a slab entry each, not a thread each — the
    // server must stay serviceable and every parked connection must
    // still be alive afterwards.
    let parked = 1000usize;
    let mut idle = match loadgen::open_idle_connections(addr, parked, timeout) {
        Ok(idle) => idle,
        Err(err) => {
            eprintln!("smoke: could not park {parked} idle connections: {err}");
            return ExitCode::FAILURE;
        }
    };
    match loadgen::http_request(addr, &loadgen::get_request("/healthz"), timeout) {
        Ok((200, _)) => {}
        other => {
            eprintln!("smoke: probe under {parked} parked connections failed: {other:?}");
            return ExitCode::FAILURE;
        }
    }
    match idle.ping_all() {
        Ok(alive) if alive == parked => {}
        other => {
            eprintln!("smoke: only {other:?} of {parked} parked connections survived");
            return ExitCode::FAILURE;
        }
    }
    drop(idle);
    println!("smoke: {parked} parked idle connections served and survived a probe");
    std::thread::sleep(Duration::from_millis(300));

    let admission = server.state().metrics.admission();
    if !admission.conserved() {
        eprintln!("smoke: server admission ledger does not balance: {admission:?}");
        return ExitCode::FAILURE;
    }
    // 6 endpoint checks + 1 keep-alive session + both load bursts'
    // connections + the parked set and its probe.
    let expected_offered = checks.len() as u64
        + 1
        + report.connections
        + keep_alive_report.connections
        + parked as u64
        + 1;
    if admission.offered != expected_offered {
        eprintln!(
            "smoke: offered {} != expected {expected_offered}",
            admission.offered
        );
        return ExitCode::FAILURE;
    }
    println!(
        "smoke: admission offered {} = accepted {} + rejected {}",
        admission.offered, admission.accepted, admission.rejected
    );
    let served = server.state().metrics.connection_requests_sum();
    let closed = server.state().metrics.connections_closed();
    println!("smoke: {served} requests served over {closed} closed connections");

    if let Some(dir) = &store_dir {
        let stats = state.store.stats();
        if expect_warm {
            if state.warmed == 0 || stats.misses != 0 {
                eprintln!(
                    "smoke: expected a warm start from {} (warmed {}, misses {})",
                    dir.display(),
                    state.warmed,
                    stats.misses
                );
                return ExitCode::FAILURE;
            }
            println!(
                "smoke: warm cache — {} sweeps preloaded from {}, 0 recomputes",
                state.warmed,
                dir.display()
            );
        } else {
            if stats.archive_writes == 0 || stats.misses == 0 {
                eprintln!(
                    "smoke: cold archive at {} absorbed no writes ({stats})",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
            println!(
                "smoke: cold store — {} sweeps archived to {}",
                stats.archive_writes,
                dir.display()
            );
        }
    }

    server.shutdown();
    if loadgen::http_request(
        addr,
        &loadgen::get_request("/healthz"),
        Duration::from_secs(2),
    )
    .is_ok()
    {
        eprintln!("smoke: server still answering after shutdown");
        return ExitCode::FAILURE;
    }

    // Query-from-compressed: reopen the same archive with no warm start,
    // so nothing is materialized in memory, then ask for a window
    // aggregate over a sweep this run already archived. The answer must
    // come off the block summaries — the pruned counters in `/metrics`
    // have to tick, proving the query never decoded the whole trace.
    if let Some(dir) = &store_dir {
        match pruned_query_phase(dir, timeout) {
            Ok(()) => {}
            Err(msg) => {
                eprintln!("smoke: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("smoke: shutdown drained cleanly; all checks passed");
    ExitCode::SUCCESS
}

/// Boot a fresh server over an existing archive with `warm_on_start`
/// off and issue a cold `/v1/trace/window`: the pruned archive path
/// must answer it (counter visible in `/metrics`), not a decoded trace.
fn pruned_query_phase(dir: &std::path::Path, timeout: Duration) -> Result<(), String> {
    let state = ServeState::try_new(ServeConfig {
        max_nodes: 64,
        store_dir: Some(dir.to_path_buf()),
        warm_on_start: false,
        ..ServeConfig::default()
    })
    .map(Arc::new)
    .map_err(|err| format!("cannot reopen sweep archive cold: {err}"))?;
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            ..ServerConfig::default()
        },
        Arc::clone(&state),
    )
    .map_err(|err| format!("cannot bind loopback for pruned phase: {err}"))?;
    let addr = server.local_addr();

    let window = "/v1/trace/window?system=L-CSC&nodes=16&dt=120&from=600&to=3000";
    match loadgen::http_request(addr, &loadgen::get_request(window), timeout) {
        Ok((200, _)) => {}
        Ok((status, body)) => {
            server.shutdown();
            return Err(format!("cold window query -> {status}: {body}"));
        }
        Err(err) => {
            server.shutdown();
            return Err(format!("cold window query failed: {err}"));
        }
    }

    let metrics = match loadgen::http_request(addr, &loadgen::get_request("/metrics"), timeout) {
        Ok((200, body)) => body,
        Ok((status, body)) => {
            server.shutdown();
            return Err(format!("metrics after pruned query -> {status}: {body}"));
        }
        Err(err) => {
            server.shutdown();
            return Err(format!("metrics after pruned query failed: {err}"));
        }
    };
    server.shutdown();

    let counter = |name: &str| -> u64 {
        metrics
            .lines()
            .find_map(|line| line.strip_prefix(name))
            .and_then(|rest| rest.trim().parse().ok())
            .unwrap_or(0)
    };
    let pruned = counter("power_serve_archive_pruned_queries_total");
    let skipped = counter("power_serve_archive_blocks_skipped_total");
    if pruned == 0 {
        return Err(format!(
            "cold window query did not take the pruned archive path \
             (power_serve_archive_pruned_queries_total = 0):\n{metrics}"
        ));
    }
    println!(
        "smoke: pruned archive query — archive_pruned_queries {pruned}, blocks_skipped {skipped}"
    );
    Ok(())
}

/// The killable half of the fleet smoke: serve on an ephemeral port
/// with the journal under `--store-dir` and a positive driver pace so
/// campaigns stay observably in flight until the parent SIGKILLs us.
fn fleet_child(store_dir: Option<PathBuf>) -> ExitCode {
    let Some(dir) = store_dir else {
        eprintln!("fleet-child: --store-dir is required");
        return ExitCode::FAILURE;
    };
    let state = match ServeState::try_new(ServeConfig {
        max_nodes: 64,
        store_dir: Some(dir),
        warm_on_start: false,
        ..ServeConfig::default()
    }) {
        Ok(state) => Arc::new(state),
        Err(err) => {
            eprintln!("fleet-child: cannot open store: {err}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            fleet_pace: Duration::from_millis(2),
            ..ServerConfig::default()
        },
        state,
    ) {
        Ok(server) => server,
        Err(err) => {
            eprintln!("fleet-child: cannot bind loopback: {err}");
            return ExitCode::FAILURE;
        }
    };
    // The parent parses this exact line for the port.
    println!("fleet-child listening on {}", server.local_addr());
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// The CI fleet smoke: spawn a child server journalling to a store
/// directory, create a fleet of slow campaigns over HTTP, SIGKILL the
/// child mid-measurement, reopen the same directory in-process, and
/// assert every campaign resumed at its journalled watermark, ran to
/// its stopping rule, and the plane's conservation law held throughout.
fn fleet_smoke(store_dir: Option<PathBuf>) -> ExitCode {
    use std::io::BufRead;
    let timeout = Duration::from_secs(10);
    let campaigns: u64 = 120;
    let dir = store_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("power-fleet-smoke-{}", std::process::id()))
    });
    if let Err(err) = std::fs::create_dir_all(&dir) {
        eprintln!("fleet-smoke: cannot create {}: {err}", dir.display());
        return ExitCode::FAILURE;
    }
    println!("fleet-smoke: store at {}", dir.display());

    // Phase 1: a real child process we can kill without warning.
    let exe = std::env::current_exe().expect("own path");
    let mut child = match std::process::Command::new(&exe)
        .args(["--fleet-child", "--store-dir"])
        .arg(&dir)
        .stdout(std::process::Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(err) => {
            eprintln!("fleet-smoke: cannot spawn child: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = std::io::BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let addr: std::net::SocketAddr = match lines.next() {
        Some(Ok(line)) if line.starts_with("fleet-child listening on ") => line
            ["fleet-child listening on ".len()..]
            .trim()
            .parse()
            .expect("child printed a socket address"),
        other => {
            eprintln!("fleet-smoke: child did not announce itself: {other:?}");
            let _ = child.kill();
            return ExitCode::FAILURE;
        }
    };
    println!("fleet-smoke: child serving on {addr}");

    // Large populations + a tiny lambda + the child's paced driver keep
    // every campaign live long enough to die mid-measurement.
    let mut client = PooledClient::new(addr, timeout);
    let body = format!(
        "{{\"name\": \"smoke\", \"population\": 4000, \"samples_per_node\": 4, \
          \"lambda\": 1e-6, \"seed\": 11, \"count\": {campaigns}}}"
    );
    let created = match client.request(&loadgen::post_request_keep_alive("/v1/campaigns", &body)) {
        Ok(resp) if resp.status == 201 => resp,
        Ok(resp) => {
            eprintln!("fleet-smoke: create -> {}: {}", resp.status, resp.body);
            let _ = child.kill();
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("fleet-smoke: create failed: {err}");
            let _ = child.kill();
            return ExitCode::FAILURE;
        }
    };
    if !created.body.contains(&format!("\"created\":{campaigns}")) {
        eprintln!("fleet-smoke: batch create reported: {}", created.body);
        let _ = child.kill();
        return ExitCode::FAILURE;
    }
    println!("fleet-smoke: created {campaigns} campaigns over HTTP");

    // Wait until every campaign has at least one journalled node (it
    // shows on the leaderboard), so "resumed at the watermark" is a
    // non-trivial claim for all of them — then kill without warning.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let resp = match client.request(&loadgen::get_request_keep_alive(&format!(
            "/v1/leaderboard?limit={campaigns}"
        ))) {
            Ok(resp) if resp.status == 200 => resp,
            other => {
                eprintln!("fleet-smoke: leaderboard poll failed: {other:?}");
                let _ = child.kill();
                return ExitCode::FAILURE;
            }
        };
        let rows = resp.body.matches("\"rank\":").count() as u64;
        if rows >= campaigns {
            break;
        }
        if std::time::Instant::now() > deadline {
            eprintln!("fleet-smoke: only {rows}/{campaigns} campaigns progressed in time");
            let _ = child.kill();
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    child.kill().expect("SIGKILL child");
    let _ = child.wait();
    println!("fleet-smoke: child killed mid-measurement");

    // Phase 2: reopen the same directory in-process. Every campaign
    // must be back, live, with its metered nodes equal to what the
    // journal replayed — the watermark — before any new metering.
    let state = match ServeState::try_new(ServeConfig {
        max_nodes: 64,
        store_dir: Some(dir.clone()),
        warm_on_start: false,
        ..ServeConfig::default()
    }) {
        Ok(state) => state,
        Err(err) => {
            eprintln!("fleet-smoke: reopen failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let statuses = state.fleet.list();
    if statuses.len() as u64 != campaigns {
        eprintln!(
            "fleet-smoke: {} of {campaigns} campaigns survived the crash",
            statuses.len()
        );
        return ExitCode::FAILURE;
    }
    let mut resumed_total = 0u64;
    for status in &statuses {
        if status.resumed_nodes == 0 || status.metered_nodes != status.resumed_nodes {
            eprintln!(
                "fleet-smoke: campaign {} resumed {} nodes but shows {} metered",
                status.id, status.resumed_nodes, status.metered_nodes
            );
            return ExitCode::FAILURE;
        }
        resumed_total += status.resumed_nodes;
    }
    println!(
        "fleet-smoke: all {campaigns} campaigns resumed at their watermarks \
         ({resumed_total} nodes journalled before the kill)"
    );

    // Drive the resumed fleet to its stopping rules and check both the
    // conservation law and the final leaderboard.
    state.fleet.drive_until_idle();
    let plane = state.fleet.plane_stats();
    if !plane.conserved() {
        eprintln!("fleet-smoke: plane conservation violated after resume: {plane:?}");
        return ExitCode::FAILURE;
    }
    let board = state.fleet.leaderboard(0);
    if board.len() as u64 != campaigns || board.iter().any(|row| row.ci_gflops_per_w.is_none()) {
        eprintln!(
            "fleet-smoke: final leaderboard has {} rows (want {campaigns}, all with CIs)",
            board.len()
        );
        return ExitCode::FAILURE;
    }
    let terminal = state
        .fleet
        .state_counts()
        .iter()
        .filter(|(s, _)| s.label() == "stopped" || s.label() == "exhausted")
        .map(|(_, n)| n)
        .sum::<u64>();
    if terminal != campaigns {
        eprintln!("fleet-smoke: only {terminal}/{campaigns} campaigns reached a stop");
        return ExitCode::FAILURE;
    }
    println!(
        "fleet-smoke: resumed fleet ran to {terminal} stopping decisions; \
         plane conserved ({} samples); all checks passed",
        plane.offered
    );
    std::fs::remove_dir_all(&dir).ok();
    ExitCode::SUCCESS
}
