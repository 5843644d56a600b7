//! Fleet-layer benchmarks with enforced budgets, sized for one vCPU:
//!
//! * **concurrency** — at least 1 000 campaigns created on one fleet
//!   and driven concurrently to their sequential stopping rules, with
//!   the plane-wide conservation law holding at the end;
//! * **aggregate ingest** — the partitioned plane must sustain at
//!   least 13 M samples/s from a single producer multiplexing many
//!   campaigns (half the single-campaign collector baseline: the
//!   shard hand-off may cost at most one more indirection, not a new
//!   bottleneck), judged on the median of several timed batches so one
//!   host stall cannot fail it;
//! * **leaderboard latency** — ranking 1 000 finished campaigns must
//!   take at most 1 ms per query at the median, so the live endpoint
//!   stays interactive while the fleet churns;
//! * **top-10 poll latency** — the `limit=10` query the live endpoint
//!   is polled with must take at most 150 µs at the median over 2 000
//!   finished campaigns;
//! * **settled poll** — once a worker has answered that poll, the
//!   reactor's inline answer (`route_fast`, replaying the response
//!   stamped with the unchanged fleet version) must cost at most a
//!   quarter of the worker's `route` at the median, measured in the same
//!   process so the budget holds on any host.
//!
//! Every measured figure lands in `BENCH_fleet.json` via
//! [`power_bench::report`].

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_bench::report::{self, Direction};
use power_fleet::{Fleet, FleetCampaignSpec, FleetConfig};
use power_serve::http::{read_request, HttpLimits};
use power_serve::{route, route_fast, ServeConfig, ServeState};
use power_telemetry::ingest::{IngestConfig, Sample};
use power_telemetry::plane::{IngestPlane, PlaneConfig};
use std::hint::black_box;
use std::time::Instant;

const CAMPAIGNS: u64 = 1_000;

fn small_spec(i: u64) -> FleetCampaignSpec {
    FleetCampaignSpec {
        name: format!("fleet-{i}"),
        population: 64 + (i % 5) * 16,
        mean_node_w: 300.0 + (i % 7) as f64 * 25.0,
        cv: 0.03 + (i % 3) as f64 * 0.01,
        samples_per_node: 4,
        seed: 0xF1EE7 ^ i,
        ..FleetCampaignSpec::default()
    }
}

/// Builds a fleet of `CAMPAIGNS` campaigns and drives every one to its
/// stopping rule; used by both the concurrency and leaderboard budgets.
fn full_fleet() -> Fleet {
    let fleet = Fleet::new(FleetConfig {
        shards: 16,
        max_campaigns: CAMPAIGNS + 16,
    })
    .expect("fleet config");
    for i in 0..CAMPAIGNS {
        fleet.create(small_spec(i)).expect("create campaign");
    }
    fleet.drive_until_idle();
    fleet
}

/// Budget 1: 1 000 concurrent campaigns to completion, conservation
/// plane-wide and per shard.
fn bench_fleet_concurrency(c: &mut Criterion) {
    let start = Instant::now();
    let fleet = full_fleet();
    let elapsed = start.elapsed().as_secs_f64();

    assert_eq!(fleet.live_count(), 0, "every campaign must reach a stop");
    let terminal: u64 = fleet
        .state_counts()
        .iter()
        .filter(|(s, _)| s.label() != "live" && s.label() != "failed")
        .map(|(_, n)| n)
        .sum();
    report::budget(
        "campaigns_completed",
        terminal as f64,
        Direction::AtLeast,
        CAMPAIGNS as f64,
    );
    let plane = fleet.plane_stats();
    assert!(plane.conserved(), "plane conservation violated: {plane:?}");
    let mut shard_sum = 0u64;
    for shard in 0..fleet.shards() {
        let s = fleet.shard_stats(shard);
        assert!(s.conserved(), "shard {shard} conservation violated");
        shard_sum += s.offered;
    }
    assert_eq!(shard_sum, plane.offered, "shards must sum to the plane");
    report::metric("campaigns_per_s", CAMPAIGNS as f64 / elapsed);
    report::metric("campaign_run_samples", plane.offered as f64);
    println!(
        "fleet_concurrency: {CAMPAIGNS} campaigns to their stopping rules in {elapsed:.2}s \
         ({:.0} campaigns/s, {} samples conserved)",
        CAMPAIGNS as f64 / elapsed,
        plane.offered
    );

    let mut group = c.benchmark_group("fleet_concurrency");
    group.sample_size(10);
    // Timed unit: one full scheduler pass over a live fleet.
    group.bench_function(BenchmarkId::new("advance", "all_shards"), |b| {
        let fleet = Fleet::new(FleetConfig {
            shards: 16,
            max_campaigns: 512,
        })
        .unwrap();
        for i in 0..128 {
            // Tiny lambda keeps the roster live across iterations.
            fleet
                .create(FleetCampaignSpec {
                    lambda: 1e-9,
                    ..small_spec(i)
                })
                .unwrap();
        }
        b.iter(|| {
            let mut metered = 0u64;
            for shard in 0..fleet.shards() {
                metered += fleet.advance_shard(shard);
            }
            black_box(metered)
        })
    });
    group.finish();
}

/// Budget 2: aggregate ingest across a multiplexed plane, one producer.
fn bench_plane_ingest(c: &mut Criterion) {
    const PLANE_CAMPAIGNS: u64 = 64;
    const NODES: usize = 16;
    const PER_NODE: u64 = 512;
    let plane = IngestPlane::new(PlaneConfig { shards: 8 }).expect("plane config");
    let cfg = IngestConfig {
        lateness: 0,
        ring_capacity: 1_024,
    };
    for id in 0..PLANE_CAMPAIGNS {
        plane.register(id, NODES, 0.0, 1.0, &cfg).expect("register");
    }
    // One in-order node-major batch per campaign; each pass shifts every
    // sequence number forward so samples stay fresh (accepted, never
    // duplicate) without reallocating the batches.
    let mut batches: Vec<Vec<Sample>> = (0..PLANE_CAMPAIGNS)
        .map(|id| {
            let mut batch = Vec::with_capacity(NODES * PER_NODE as usize);
            for seq in 0..PER_NODE {
                for node in 0..NODES {
                    let watts = 350.0 + id as f64 + (seq % 13) as f64 * 0.5;
                    batch.push(Sample { node, seq, watts });
                }
            }
            batch
        })
        .collect();
    let offer_pass = |batches: &mut Vec<Vec<Sample>>| {
        for (id, batch) in batches.iter_mut().enumerate() {
            for s in batch.iter_mut() {
                s.seq += PER_NODE;
            }
            plane.offer(id as u64, batch).expect("offer");
        }
    };

    // Warm up, then time batches of passes; the budget reads the median
    // batch, so one stalled batch moves it no more than any other.
    offer_pass(&mut batches);
    const BATCHES: usize = 5;
    let passes = 10u64;
    let per_pass = PLANE_CAMPAIGNS * NODES as u64 * PER_NODE;
    let mut rates: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..passes {
                offer_pass(&mut batches);
            }
            (passes * per_pass) as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    for (i, rate) in rates.iter().enumerate() {
        report::metric(&format!("ingest_batch_{i}_samples_per_s"), *rate);
    }
    rates.sort_by(f64::total_cmp);
    let rate = rates[BATCHES / 2];

    let stats = plane.stats();
    assert!(stats.conserved(), "plane conservation violated: {stats:?}");
    assert_eq!(stats.offered, (BATCHES as u64 * passes + 1) * per_pass);
    assert_eq!(stats.ingest.duplicates, 0, "shifted batches must be fresh");
    report::budget("ingest_samples_per_s", rate, Direction::AtLeast, 13.0e6);
    println!(
        "plane_ingest: median {:.1}M samples/s aggregate over {BATCHES} batches, \
         {PLANE_CAMPAIGNS} campaigns on 8 shards (batches {:.1}M..{:.1}M, floor 13M)",
        rate / 1e6,
        rates[0] / 1e6,
        rates[BATCHES - 1] / 1e6
    );

    let mut group = c.benchmark_group("fleet_plane_ingest");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("multiplexed", "pass"), |b| {
        b.iter(|| {
            offer_pass(&mut batches);
            black_box(plane.stats().offered)
        })
    });
    group.finish();
}

/// Times `queries` calls of `query`; returns the sorted per-call
/// latencies in µs.
fn times_us<T>(queries: usize, mut query: impl FnMut() -> T) -> Vec<f64> {
    let mut times_us: Vec<f64> = (0..queries)
        .map(|_| {
            let start = Instant::now();
            black_box(query());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times_us.sort_by(f64::total_cmp);
    times_us
}

/// Budget 3: leaderboard latency at 1 000 campaigns.
fn bench_leaderboard(c: &mut Criterion) {
    let fleet = full_fleet();
    let warm = fleet.leaderboard(100);
    assert_eq!(warm.len(), 100);
    assert!(warm[0].gflops_per_w >= warm[99].gflops_per_w);

    let queries = 201;
    let times_us = times_us(queries, || fleet.leaderboard(100));
    let median = times_us[queries / 2];
    report::budget("leaderboard_median_us", median, Direction::AtMost, 1_000.0);
    report::metric("leaderboard_p99_us", times_us[queries * 99 / 100]);
    println!(
        "fleet_leaderboard: median {median:.0}us, p99 {:.0}us at {CAMPAIGNS} campaigns \
         (ceiling 1ms median)",
        times_us[queries * 99 / 100]
    );

    let mut group = c.benchmark_group("fleet_leaderboard");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("query", "top100_of_1000"), |b| {
        b.iter(|| black_box(fleet.leaderboard(100).len()))
    });
    group.finish();
}

/// Campaigns behind the poll budgets (4 and 5), the load generator's
/// roster size.
const POLL_CAMPAIGNS: u64 = 2_000;

/// Fills `fleet` with [`POLL_CAMPAIGNS`] campaigns of the load
/// generator's shape and drives every one to its stopping rule.
fn finish_poll_roster(fleet: &Fleet) {
    for i in 0..POLL_CAMPAIGNS {
        let spec = FleetCampaignSpec {
            name: format!("loadgen-{}-{}", i / 50, i % 50),
            population: 128,
            samples_per_node: 16,
            seed: 1 + i,
            ..FleetCampaignSpec::default()
        };
        fleet.create(spec).expect("create campaign");
    }
    fleet.drive_until_idle();
}

/// Budget 4: the `GET /v1/leaderboard?limit=10` poll over 2 000
/// finished campaigns of the load generator's shape. The top-k
/// selection builds rows only for candidates; building, cloning and
/// sorting every row costs about three times the ceiling.
fn bench_leaderboard_top10(c: &mut Criterion) {
    let fleet = Fleet::new(FleetConfig::default()).expect("fleet config");
    finish_poll_roster(&fleet);
    let full = fleet.leaderboard(0);
    assert_eq!(full.len(), POLL_CAMPAIGNS as usize);
    assert_eq!(
        fleet.leaderboard(10),
        full[..10],
        "top 10 must head the board"
    );

    let queries = 401;
    let times_us = times_us(queries, || fleet.leaderboard(10));
    let median = times_us[queries / 2];
    report::budget(
        "leaderboard_top10_of_2000_median_us",
        median,
        Direction::AtMost,
        150.0,
    );
    report::metric(
        "leaderboard_top10_of_2000_p99_us",
        times_us[queries * 99 / 100],
    );
    println!(
        "fleet_leaderboard: top 10 of {POLL_CAMPAIGNS} median {median:.1}us, p99 {:.1}us \
         (ceiling 150us median)",
        times_us[queries * 99 / 100]
    );

    let mut group = c.benchmark_group("fleet_leaderboard");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("query", "top10_of_2000"), |b| {
        b.iter(|| black_box(fleet.leaderboard(10).len()))
    });
    group.finish();
}

/// Budget 5: the same poll once the fleet has settled. A worker's
/// `route` ranks the roster and stamps its response with the fleet
/// version; the reactor's `route_fast` replays it while the version
/// holds. The hit must cost at most a quarter of the worker path it
/// replaces, both timed here, so the limit moves with the host.
fn bench_leaderboard_poll_settled(c: &mut Criterion) {
    let state = ServeState::new(ServeConfig::default());
    finish_poll_roster(&state.fleet);
    let raw = b"GET /v1/leaderboard?limit=10 HTTP/1.1\r\n\r\n";
    let poll = read_request(&mut &raw[..], &HttpLimits::default())
        .expect("poll parses")
        .expect("one request");
    let ranked = route(&state, &poll);
    assert_eq!(ranked.1.status, 200);
    assert_eq!(
        route_fast(&state, &poll).as_ref(),
        Some(&ranked),
        "a settled poll must answer inline, identical to the worker's"
    );

    let queries = 401;
    let route_us = times_us(queries, || route(&state, &poll))[queries / 2];
    let settled_us =
        times_us(queries, || route_fast(&state, &poll).expect("settled hit"))[queries / 2];
    let ratio = settled_us / route_us;
    report::metric("leaderboard_poll_route_us", route_us);
    report::metric("leaderboard_poll_settled_ratio", ratio);
    report::budget(
        "leaderboard_poll_settled_us",
        settled_us,
        Direction::AtMost,
        route_us / 4.0,
    );
    println!(
        "fleet_leaderboard: settled top-10 poll of {POLL_CAMPAIGNS} inline median \
         {settled_us:.2}us vs worker route {route_us:.1}us ({ratio:.3}x, ceiling 0.25x)"
    );

    let mut group = c.benchmark_group("fleet_leaderboard");
    group.sample_size(20);
    group.bench_function(BenchmarkId::new("poll", "route_top10_of_2000"), |b| {
        b.iter(|| black_box(route(&state, &poll).1.body.len()))
    });
    group.bench_function(BenchmarkId::new("poll", "settled_top10_of_2000"), |b| {
        b.iter(|| black_box(route_fast(&state, &poll).map(|r| r.1.body.len())))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fleet_concurrency,
    bench_plane_ingest,
    bench_leaderboard,
    bench_leaderboard_top10,
    bench_leaderboard_poll_settled
);
power_bench::bench_main!("fleet", benches);
