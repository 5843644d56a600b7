//! `fleet_campaigns`: `POST /v1/campaigns` → leaderboard row.
//!
//! Each repetition starts a fresh in-process server and drives
//! `loadgen::run_campaigns` (batched creates, live-gauge polls, one
//! status read per campaign, the final leaderboard, the `/metrics`
//! ledger) on one connection, while a second connection polls
//! `GET /v1/leaderboard?limit=10` every 5 ms and times each poll, until a
//! poll finds the whole roster finished; once the driver has returned,
//! [`SETTLED_POLLS`] more polls go back to back on that connection. Polls
//! that find campaigns still live are reads racing the driver's writes;
//! they last only the first few hundred milliseconds of a repetition, too
//! few for a stable tail, so the reported latency covers every poll of
//! the repetition (mostly the settled polls on the full 2,000-campaign
//! roster) and the live-only figures are printed beside it.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mini_json::Json;
use power_serve::loadgen::{get_request_keep_alive, run_campaigns, CampaignLoadPlan, PooledClient};
use power_serve::{ServeConfig, ServeState, Server, ServerConfig};

use crate::provenance::{cpu_seconds, thread_cpu_seconds};
use crate::report::{Checks, Outcome};
use crate::serve::json_seed;
use crate::stats::{median, Latency};
use crate::trace;
use crate::Ctx;

/// Workload shape. [`Sizes::full`] is the benchmark; tests use smaller.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Campaigns per repetition.
    pub campaigns: u64,
    /// Campaigns per `POST /v1/campaigns`.
    pub batch: u64,
    /// Repetitions per run at least, whatever `--seconds` says.
    pub min_reps: usize,
}

impl Sizes {
    /// The benchmark's shape.
    pub fn full() -> Sizes {
        Sizes {
            campaigns: 2_000,
            batch: 500,
            min_reps: 3,
        }
    }
}

/// Delay between leaderboard polls (both the driver's and the poller's).
pub const POLL: Duration = Duration::from_millis(5);

/// The leaderboard query the poller times.
pub const LEADERBOARD_PATH: &str = "/v1/leaderboard?limit=10";

/// The campaign plan for repetition `rep` of workload seed `seed`.
pub fn load_plan(sizes: &Sizes, seed: u64, rep: usize) -> CampaignLoadPlan {
    CampaignLoadPlan {
        campaigns: sizes.campaigns,
        batch: sizes.batch,
        seed: json_seed(seed.wrapping_mul(1_000_003)) + rep as u64 * sizes.campaigns,
        poll: POLL,
        max_wait: Duration::from_secs(120),
        ..CampaignLoadPlan::default()
    }
}

/// A fresh server with the fleet on default shards.
pub fn start_server() -> Result<Server, String> {
    let state = ServeState::try_new(ServeConfig::default()).map_err(|e| format!("state: {e}"))?;
    Server::start(
        ServerConfig {
            workers: 2,
            max_requests_per_connection: u64::MAX,
            ..ServerConfig::default()
        },
        Arc::new(state),
    )
    .map_err(|e| format!("starting server: {e}"))
}

/// Leaderboard poll latencies, µs, plus every failed or malformed poll.
#[derive(Debug, Default)]
pub struct Polls {
    /// Every answered poll.
    pub all_us: Vec<f64>,
    /// Polls whose answer showed `live > 0`.
    pub live_us: Vec<f64>,
    /// Polls sent.
    pub sent: u64,
    /// Polls that failed or answered something other than a leaderboard.
    pub bad: Vec<String>,
    /// CPU time of the polling thread, s.
    pub cpu_s: f64,
}

/// Back-to-back polls on the finished roster once the driver has
/// returned. The racing polls stop at the first poll that finds the
/// roster finished: the driver's last step, parsing the full leaderboard
/// client-side, takes seconds of varying length, and polls made meanwhile
/// would make both the poll latency and the server's CPU per repetition
/// follow the client's speed.
pub const SETTLED_POLLS: usize = 500;

/// One timed poll, recorded in `polls`. Returns `(live, campaigns)` from
/// the answer.
fn poll_once(
    client: &mut PooledClient,
    raw: &[u8],
    parent: Option<u64>,
    polls: &mut Polls,
) -> Option<(u64, u64)> {
    polls.sent += 1;
    let span = trace::enter("fleet.leaderboard_poll", parent);
    let sent = Instant::now();
    let result = client.request(raw);
    let us = sent.elapsed().as_secs_f64() * 1e6;
    drop(span);
    match result {
        Ok(r) if r.status == 200 => {
            let board = Json::parse(&r.body).ok();
            let field = |name: &str| board.as_ref().and_then(|j| j.get(name)?.as_u64());
            match (field("live"), field("campaigns")) {
                (Some(live), Some(created)) => {
                    polls.all_us.push(us);
                    if live > 0 {
                        polls.live_us.push(us);
                    }
                    return Some((live, created));
                }
                _ => polls
                    .bad
                    .push("leaderboard answer lacks `live` or `campaigns`".into()),
            }
        }
        Ok(r) => polls.bad.push(format!("leaderboard poll -> {}", r.status)),
        Err(e) => polls.bad.push(format!("leaderboard poll: {e}")),
    }
    None
}

/// The racing polls: every [`POLL`] until `stop` is set or a poll finds
/// all `campaigns` created and none live. Returns the client for the
/// settled polls.
fn poll_loop(
    addr: SocketAddr,
    campaigns: u64,
    stop: &AtomicBool,
    parent: Option<u64>,
) -> (PooledClient, Polls) {
    let mut client = PooledClient::new(addr, Duration::from_secs(30));
    let raw = get_request_keep_alive(LEADERBOARD_PATH);
    let mut polls = Polls::default();
    let cpu_started = thread_cpu_seconds();
    while !stop.load(Ordering::SeqCst) {
        if poll_once(&mut client, &raw, parent, &mut polls) == Some((0, campaigns)) {
            break;
        }
        std::thread::sleep(POLL);
    }
    polls.cpu_s = thread_cpu_seconds() - cpu_started;
    (client, polls)
}

/// One repetition's results.
pub struct Repetition {
    /// First POST → final leaderboard and ledger read.
    pub wall_s: f64,
    /// Fresh server start.
    pub setup_s: f64,
    /// CPU time of the server's threads (reactor, workers, fleet driver)
    /// during the load, s.
    pub server_cpu_s: f64,
    /// The poller's view.
    pub polls: Polls,
}

/// Runs one repetition on a fresh server and checks the campaign and
/// ingest-plane ledgers plus every poll.
pub fn repetition(sizes: &Sizes, seed: u64, rep: usize, checks: &mut Checks) -> Option<Repetition> {
    let setup_started = Instant::now();
    let server = match start_server() {
        Ok(s) => s,
        Err(e) => {
            checks.check(false, || e);
            return None;
        }
    };
    let setup_s = setup_started.elapsed().as_secs_f64();
    let addr = server.local_addr();
    let plan = load_plan(sizes, seed, rep);
    let stop = AtomicBool::new(false);
    let (cpu_started, client_cpu_started) = (cpu_seconds(), thread_cpu_seconds());
    let root = trace::enter("fleet.repetition", None);
    let root_id = root.id();
    let (report, (mut client, mut polls)) = std::thread::scope(|s| {
        let poller = s.spawn(|| poll_loop(addr, sizes.campaigns, &stop, root_id));
        let report = trace::with("fleet.run_campaigns", root_id, || {
            run_campaigns(addr, &plan)
        });
        stop.store(true, Ordering::SeqCst);
        (report, poller.join().expect("poller thread panicked"))
    });
    let raw = get_request_keep_alive(LEADERBOARD_PATH);
    for _ in 0..SETTLED_POLLS {
        let answer = poll_once(&mut client, &raw, root_id, &mut polls);
        if answer.is_some_and(|a| a != (0, sizes.campaigns)) {
            polls
                .bad
                .push(format!("settled poll found (live, campaigns) = {answer:?}"));
        }
    }
    drop(client);
    drop(root);
    // The server's share: everything but the two client threads.
    let server_cpu_s =
        (cpu_seconds() - cpu_started) - (thread_cpu_seconds() - client_cpu_started) - polls.cpu_s;
    server.shutdown();

    checks.check(polls.bad.is_empty(), || polls.bad.join("; "));
    checks.attempted += polls.sent;
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            checks.check(false, || format!("run_campaigns: {e}"));
            return None;
        }
    };
    checks.attempted += report.created;
    checks.check(report.created == sizes.campaigns, || {
        format!(
            "created {} of {} campaigns",
            report.created, sizes.campaigns
        )
    });
    checks.check(report.conserved(), || {
        format!("ingest-plane ledger does not balance: {report}")
    });
    checks.check(report.complete(), || {
        format!("campaign ledger incomplete: {report}")
    });
    Some(Repetition {
        wall_s: report.elapsed.as_secs_f64(),
        setup_s,
        server_cpu_s,
        polls,
    })
}

/// The untraced workload.
pub fn run(ctx: &Ctx, seconds: f64, sizes: &Sizes) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < sizes.min_reps || started.elapsed().as_secs_f64() < seconds {
        match repetition(sizes, ctx.seed, reps.len(), &mut out.checks) {
            Some(r) => reps.push(r),
            None => break,
        }
    }
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let gather = |f: fn(&Polls) -> &Vec<f64>| -> Vec<f64> {
        reps.iter()
            .flat_map(|r| f(&r.polls).iter().copied())
            .collect()
    };
    let (all_us, live_us) = (gather(|p| &p.all_us), gather(|p| &p.live_us));
    let lat = Latency::of(&all_us);
    let (p10_us, p95_us) = (Latency::at(&all_us, 10.0), Latency::at(&all_us, 95.0));
    out.line(format!(
        "fleet_campaigns: {} repetitions of {} campaigns (batches of {}), 2 connections",
        reps.len(),
        sizes.campaigns,
        sizes.batch
    ));
    out.line(format!(
        "fleet_wall_s = {:.4} s (median of {:?})",
        median(&walls),
        walls
    ));
    out.line(format!(
        "leaderboard_p10_us = {p10_us:.2} us, leaderboard_p50_us = {:.2} us, leaderboard_p95_us = {p95_us:.2} us over every poll ({})",
        lat.p50,
        lat.describe("us")
    ));
    out.line(format!(
        "op_tail_ms (p95 of every poll, not gated) = {:.3} ms",
        p95_us / 1e3
    ));
    out.line(format!(
        "leaderboard while campaigns are live: {}",
        Latency::of(&live_us).describe("us")
    ));
    let client_cpu_s = reps.iter().map(|r| r.polls.cpu_s).sum::<f64>() / reps.len() as f64;
    out.line(format!(
        "racing poller thread CPU per repetition {client_cpu_s:.3} s (not in job_cpu_s)"
    ));
    let server_cpu_s = reps.iter().map(|r| r.server_cpu_s).sum::<f64>() / reps.len() as f64;
    out.end_to_end([median(&setups), p10_us / 1e3, server_cpu_s]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_seeds_fit_a_json_number() {
        // `run_campaigns` posts `seed + batch offset`; the server answers
        // 400 to any seed above 2^53.
        let sizes = Sizes::full();
        for seed in [0u64, 84_118_752, u64::MAX] {
            let last = load_plan(&sizes, seed, 1_000).seed + sizes.campaigns;
            assert!(last < 1 << 53, "seed {seed}: {last}");
        }
    }
}
