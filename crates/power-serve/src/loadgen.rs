//! A small loopback load generator for smoke tests and benchmarks.
//!
//! Two connection disciplines:
//!
//! * **cold** (`keep_alive: false`) — one fresh TCP connection per
//!   request, `Connection: close` on the wire; measures connection
//!   setup as much as the query path;
//! * **keep-alive** (`keep_alive: true`) — each thread drives one
//!   persistent connection through a [`PooledClient`], reading framed
//!   responses by `content-length` and reconnecting only when the
//!   server closes (idle timeout, per-connection cap, or drain).
//!
//! The client-side ledger counts **logical requests** (`offered ==
//! succeeded + rejected + error_status + failed`) and, separately, the
//! TCP `connections` it opened — the number the server's admission
//! ledger counts. A `503` can optionally be retried (`retry_rejected`)
//! honoring the advertised `Retry-After` plus jitter; a retried request
//! is still one `offered`, with extra attempts counted in `retries`, so
//! the conservation law stays exact.
//!
//! **Campaign mode** ([`run_campaigns`]) drives the fleet API instead
//! of the query API: create a fleet of campaigns (batched `POST
//! /v1/campaigns`), poll the live gauge to zero, read the final
//! leaderboard, and reconcile the server's ingest-plane conservation
//! law from `/metrics` — the load generator checks the same ledger the
//! fleet keeps internally, from the outside.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds a raw `GET` request for `path` (`Connection: close`).
pub fn get_request(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: loadgen\r\nconnection: close\r\n\r\n").into_bytes()
}

/// Builds a raw `POST` request for `path` carrying a JSON `body`
/// (`Connection: close`).
pub fn post_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: loadgen\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Builds a raw `GET` request for `path` that keeps the connection open
/// (HTTP/1.1 default keep-alive — no `Connection` header).
pub fn get_request_keep_alive(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nhost: loadgen\r\n\r\n").into_bytes()
}

/// Builds a keep-alive `POST` request for `path` carrying a JSON `body`.
pub fn post_request_keep_alive(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: loadgen\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Sends one raw request on a fresh connection and returns
/// `(status, body)`. Reads to EOF — suitable only for `Connection:
/// close` requests, where the server closes after one response.
pub fn http_request(
    addr: SocketAddr,
    raw: &[u8],
    timeout: Duration,
) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(raw)?;
    let mut raw_response = Vec::new();
    stream.read_to_end(&mut raw_response)?;
    let parsed = parse_response_head(&raw_response)?;
    let body = String::from_utf8_lossy(&raw_response[parsed.body_start..]).into_owned();
    Ok((parsed.status, body))
}

/// Cold-mode request returning the status and any `Retry-After` hint.
fn http_request_classified(
    addr: SocketAddr,
    raw: &[u8],
    timeout: Duration,
) -> std::io::Result<(u16, Option<u64>)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(raw)?;
    let mut raw_response = Vec::new();
    stream.read_to_end(&mut raw_response)?;
    let parsed = parse_response_head(&raw_response)?;
    Ok((parsed.status, parsed.retry_after_s))
}

/// One parsed response from a persistent connection.
#[derive(Debug, Clone)]
pub struct PooledResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Advertised `Retry-After` seconds, when present (503s carry it).
    pub retry_after_s: Option<u64>,
    /// Whether the server kept the connection open after this response.
    pub kept_alive: bool,
}

/// The response head, parsed enough to frame and classify it.
struct ResponseHead {
    status: u16,
    content_length: usize,
    keep_alive: bool,
    retry_after_s: Option<u64>,
    body_start: usize,
}

fn invalid(msg: &'static str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// Parses a response head out of `raw` (which must contain the full
/// `\r\n\r\n`-terminated head).
fn parse_response_head(raw: &[u8]) -> std::io::Result<ResponseHead> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| invalid("response head is not terminated"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| invalid("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid("malformed status line"))?;
    let mut content_length = 0usize;
    let mut keep_alive = false;
    let mut retry_after_s = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
        } else if name.eq_ignore_ascii_case("connection") {
            // RFC 9112: `Connection` is a comma-separated token list
            // (`Keep-Alive, TE` is legal), matched case-insensitively.
            // `close` wins if a server ever sent both.
            keep_alive = crate::http::connection_has_token(value, "keep-alive")
                && !crate::http::connection_has_token(value, "close");
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after_s = value.parse().ok();
        }
    }
    Ok(ResponseHead {
        status,
        content_length,
        keep_alive,
        retry_after_s,
        body_start: head_end + 4,
    })
}

/// A client-side persistent connection: framed reads by
/// `content-length`, transparent reconnect when the server closes.
pub struct PooledClient {
    addr: SocketAddr,
    timeout: Duration,
    stream: Option<TcpStream>,
    carry: Vec<u8>,
    connections: u64,
}

impl PooledClient {
    /// A client for `addr` with `timeout` applied to connect/read/write.
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        PooledClient {
            addr,
            timeout,
            stream: None,
            carry: Vec::new(),
            connections: 0,
        }
    }

    /// TCP connections this client has opened so far — the number the
    /// server's admission ledger sees from this client.
    pub fn connections(&self) -> u64 {
        self.connections
    }

    /// Drops the current connection (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.stream = None;
        self.carry.clear();
    }

    /// Sends `raw` and reads one framed response. If a **reused**
    /// connection turns out to be dead (the server closed it between
    /// requests), retries exactly once on a fresh connection; the
    /// request still counts once for the caller's ledger.
    pub fn request(&mut self, raw: &[u8]) -> std::io::Result<PooledResponse> {
        let reused = self.stream.is_some();
        match self.try_request(raw) {
            Ok(response) => Ok(response),
            Err(_) if reused => {
                self.disconnect();
                self.try_request(raw)
            }
            Err(e) => Err(e),
        }
    }

    /// Sends a batch of keep-alive requests back-to-back on one
    /// connection, then reads the framed responses in order. If the
    /// server closes the connection partway — idle expiry between
    /// batches, the per-connection request cap, or a drain — the
    /// unanswered remainder is resent on a fresh connection, so every
    /// request in the batch is classified exactly once.
    pub fn request_pipelined(&mut self, raws: &[Vec<u8>]) -> std::io::Result<Vec<PooledResponse>> {
        let mut responses = Vec::with_capacity(raws.len());
        while responses.len() < raws.len() {
            let reused = self.stream.is_some();
            match self.pipeline_once(&raws[responses.len()..], &mut responses) {
                Ok(()) => {}
                Err(e) => {
                    self.disconnect();
                    // A reused connection may have died between batches;
                    // retry the remainder fresh. A fresh connection
                    // failing is a real transport error.
                    if !reused {
                        return Err(e);
                    }
                }
            }
        }
        Ok(responses)
    }

    /// One pipelined attempt: write every pending request, then read
    /// responses until the batch completes or the server signals close.
    fn pipeline_once(
        &mut self,
        pending: &[Vec<u8>],
        out: &mut Vec<PooledResponse>,
    ) -> std::io::Result<()> {
        self.ensure_connected()?;
        let stream = self.stream.as_mut().expect("connected");
        for raw in pending {
            stream.write_all(raw)?;
        }
        for _ in 0..pending.len() {
            let response = self.read_one()?;
            let kept = response.kept_alive;
            out.push(response);
            if !kept {
                // The server closed after this response (drain, cap, or
                // an error route); the caller resends the remainder.
                self.disconnect();
                break;
            }
        }
        Ok(())
    }

    fn ensure_connected(&mut self) -> std::io::Result<()> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            // Requests are small; waiting for ACKs between them wastes
            // a delayed-ACK round trip per exchange.
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
            self.carry.clear();
            self.connections += 1;
        }
        Ok(())
    }

    fn try_request(&mut self, raw: &[u8]) -> std::io::Result<PooledResponse> {
        self.ensure_connected()?;
        let result = self.exchange(raw);
        match &result {
            Ok(response) if response.kept_alive => {}
            // Server closed (connection: close) or the exchange failed:
            // either way this stream is done.
            _ => self.disconnect(),
        }
        result
    }

    fn exchange(&mut self, raw: &[u8]) -> std::io::Result<PooledResponse> {
        let stream = self.stream.as_mut().expect("connected");
        stream.write_all(raw)?;
        self.read_one()
    }

    /// Reads one framed response off the current connection, honoring
    /// any carried-over bytes from a previous (pipelined) read.
    fn read_one(&mut self) -> std::io::Result<PooledResponse> {
        let stream = self.stream.as_mut().expect("connected");
        // Read until the head is complete.
        let head = loop {
            if let Ok(head) = parse_response_head(&self.carry) {
                break head;
            }
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Err(invalid("connection closed before a full response head")),
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        };
        // Read until the declared body is complete.
        let total = head.body_start + head.content_length;
        while self.carry.len() < total {
            let mut chunk = [0u8; 4096];
            match stream.read(&mut chunk) {
                Ok(0) => return Err(invalid("connection closed mid-body")),
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) => return Err(e),
            }
        }
        let body = String::from_utf8_lossy(&self.carry[head.body_start..total]).into_owned();
        // Anything past the body would be the next response; the server
        // never sends unsolicited bytes, but keeping them is harmless.
        self.carry.drain(..total);
        Ok(PooledResponse {
            status: head.status,
            body,
            retry_after_s: head.retry_after_s,
            kept_alive: head.keep_alive,
        })
    }
}

/// A held set of idle keep-alive connections — the soak/bench fixture.
///
/// Each connection is warmed with one `/healthz` exchange (so the
/// server has admitted it, served it, and parked it under the idle
/// budget) and then held open without traffic. The holder exists to
/// prove the reactor's claim that parked connections cost a slab entry
/// and an epoll registration, not a thread.
pub struct IdleConnections {
    clients: Vec<PooledClient>,
}

/// Opens `count` keep-alive connections to `addr`, each warmed with one
/// `/healthz` request that must answer `200` and keep the connection
/// open. Fails fast on the first connection the server refuses.
pub fn open_idle_connections(
    addr: SocketAddr,
    count: usize,
    timeout: Duration,
) -> std::io::Result<IdleConnections> {
    let warm = get_request_keep_alive("/healthz");
    let mut clients = Vec::with_capacity(count);
    for _ in 0..count {
        let mut client = PooledClient::new(addr, timeout);
        let response = client.request(&warm)?;
        if response.status != 200 || !response.kept_alive {
            return Err(invalid("idle connection was not admitted keep-alive"));
        }
        clients.push(client);
    }
    Ok(IdleConnections { clients })
}

impl IdleConnections {
    /// Connections currently held.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the holder is empty.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Sends one `/healthz` on every held connection and returns how
    /// many answered `200` **without reconnecting**. A connection the
    /// server silently dropped would transparently reconnect inside
    /// [`PooledClient::request`] — and inflate the server's admission
    /// ledger — so a reconnect does not count; callers compare the
    /// result against [`IdleConnections::len`] to prove every parked
    /// connection survived.
    pub fn ping_all(&mut self) -> std::io::Result<usize> {
        let raw = get_request_keep_alive("/healthz");
        let mut alive = 0usize;
        for client in &mut self.clients {
            let before = client.connections();
            let response = client.request(&raw)?;
            if response.status == 200 && client.connections() == before {
                alive += 1;
            }
        }
        Ok(alive)
    }

    /// Total TCP connections opened across the held set — equals
    /// [`IdleConnections::len`] unless a held connection died and was
    /// reopened by [`IdleConnections::ping_all`].
    pub fn total_connections(&self) -> u64 {
        self.clients.iter().map(|c| c.connections()).sum()
    }
}

/// What to offer: raw requests issued round-robin by every thread.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Concurrent client threads.
    pub threads: usize,
    /// Requests each thread sends.
    pub requests_per_thread: usize,
    /// Raw request bytes, cycled per thread in round-robin order. With
    /// `keep_alive: true` the targets should be keep-alive requests
    /// (no `Connection: close`), or every response closes the pool.
    pub targets: Vec<Vec<u8>>,
    /// Per-connection timeout.
    pub timeout: Duration,
    /// Reuse one persistent connection per thread instead of a fresh
    /// connection per request.
    pub keep_alive: bool,
    /// Extra attempts allowed per request after a `503`, each waiting
    /// the advertised `Retry-After` plus jitter. `0` disables retries.
    pub retry_rejected: u32,
    /// Requests written back-to-back before reading responses
    /// (HTTP/1.1 pipelining). `1` (the default) is strict
    /// request/response lockstep. Depths above 1 require
    /// `keep_alive: true` and disable `retry_rejected` — each response
    /// is classified once as it arrives.
    pub pipeline_depth: usize,
}

impl Default for LoadPlan {
    fn default() -> Self {
        LoadPlan {
            threads: 4,
            requests_per_thread: 64,
            targets: vec![get_request("/healthz")],
            timeout: Duration::from_secs(5),
            keep_alive: false,
            retry_rejected: 0,
            pipeline_depth: 1,
        }
    }
}

/// Aggregate outcome of a load run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadReport {
    /// Logical requests offered. Retries of a rejected request do NOT
    /// increment this — each request is offered (and classified) once.
    pub offered: u64,
    /// `2xx` responses.
    pub succeeded: u64,
    /// Requests whose final outcome was a `503` (retries exhausted).
    pub rejected: u64,
    /// Non-503 error statuses (`4xx`/`5xx`).
    pub error_status: u64,
    /// Transport-level failures (connect, read, or write errors).
    pub failed: u64,
    /// TCP connections opened client-side — the count the server's
    /// admission ledger sees.
    pub connections: u64,
    /// Extra attempts sent after `503` responses.
    pub retries: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// The client-side conservation law: every offered request is
    /// classified exactly once, retried or not.
    pub fn conserved(&self) -> bool {
        self.offered == self.succeeded + self.rejected + self.error_status + self.failed
    }

    /// Completed requests (any HTTP response, counting a retried
    /// request once) per second.
    pub fn throughput_rps(&self) -> f64 {
        let answered = (self.succeeded + self.rejected + self.error_status) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            answered / secs
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "offered {} = ok {} + 503 {} + err {} + failed {} over {} conns (+{} retries) in {:.2}s ({:.0} req/s)",
            self.offered,
            self.succeeded,
            self.rejected,
            self.error_status,
            self.failed,
            self.connections,
            self.retries,
            self.elapsed.as_secs_f64(),
            self.throughput_rps()
        )
    }
}

/// A tiny splitmix-style generator for retry jitter — the workspace has
/// no real `rand`, and loadgen only needs decorrelated backoff, not
/// statistical quality.
struct Jitter(u64);

impl Jitter {
    fn new(seed: u64) -> Self {
        Jitter(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1))
    }

    /// Uniform-ish in `0..bound` milliseconds.
    fn next_ms(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound.max(1)
    }
}

/// Runs `plan` against `addr` and aggregates the outcome.
pub fn run(addr: SocketAddr, plan: &LoadPlan) -> LoadReport {
    let succeeded = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let error_status = Arc::new(AtomicU64::new(0));
    let failed = Arc::new(AtomicU64::new(0));
    let connections = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));
    let threads = plan.threads.max(1);
    let per_thread = plan.requests_per_thread;
    let targets = Arc::new(plan.targets.clone());
    let timeout = plan.timeout;
    let keep_alive = plan.keep_alive;
    let retry_budget = plan.retry_rejected;
    let pipeline_depth = plan.pipeline_depth.max(1);

    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let succeeded = Arc::clone(&succeeded);
            let rejected = Arc::clone(&rejected);
            let error_status = Arc::clone(&error_status);
            let failed = Arc::clone(&failed);
            let connections = Arc::clone(&connections);
            let retries = Arc::clone(&retries);
            let targets = Arc::clone(&targets);
            std::thread::spawn(move || {
                if keep_alive && pipeline_depth > 1 {
                    let mut client = PooledClient::new(addr, timeout);
                    let mut sent = 0usize;
                    while sent < per_thread {
                        let batch_len = pipeline_depth.min(per_thread - sent);
                        let batch: Vec<Vec<u8>> = (0..batch_len)
                            .map(|j| targets[(t + sent + j) % targets.len()].clone())
                            .collect();
                        match client.request_pipelined(&batch) {
                            Ok(responses) => {
                                for response in responses {
                                    match response.status {
                                        s if (200..300).contains(&s) => {
                                            succeeded.fetch_add(1, Ordering::Relaxed);
                                        }
                                        503 => {
                                            rejected.fetch_add(1, Ordering::Relaxed);
                                        }
                                        _ => {
                                            error_status.fetch_add(1, Ordering::Relaxed);
                                        }
                                    }
                                }
                            }
                            Err(_) => {
                                failed.fetch_add(batch_len as u64, Ordering::Relaxed);
                            }
                        }
                        sent += batch_len;
                    }
                    connections.fetch_add(client.connections(), Ordering::Relaxed);
                    return;
                }
                let mut client = keep_alive.then(|| PooledClient::new(addr, timeout));
                let mut jitter = Jitter::new(t as u64 + 1);
                for i in 0..per_thread {
                    let raw = &targets[(t + i) % targets.len()];
                    // One logical request: the first attempt plus up to
                    // `retry_budget` retries after 503s. Exactly one
                    // final outcome is recorded.
                    let mut attempt = 0u32;
                    let outcome = loop {
                        let response = match client.as_mut() {
                            Some(client) => client
                                .request(raw)
                                .map(|r| (r.status, r.retry_after_s))
                                .map_err(|_| ()),
                            None => {
                                connections.fetch_add(1, Ordering::Relaxed);
                                http_request_classified(addr, raw, timeout).map_err(|_| ())
                            }
                        };
                        match response {
                            Ok((503, retry_after)) if attempt < retry_budget => {
                                attempt += 1;
                                retries.fetch_add(1, Ordering::Relaxed);
                                let base_ms = retry_after.unwrap_or(1).saturating_mul(1000);
                                std::thread::sleep(Duration::from_millis(
                                    base_ms + jitter.next_ms(50),
                                ));
                            }
                            other => break other,
                        }
                    };
                    match outcome {
                        Ok((status, _)) if (200..300).contains(&status) => {
                            succeeded.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok((503, _)) => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            error_status.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(()) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                if let Some(client) = client {
                    connections.fetch_add(client.connections(), Ordering::Relaxed);
                }
            })
        })
        .collect();
    for handle in handles {
        let _ = handle.join();
    }

    LoadReport {
        offered: (threads * per_thread) as u64,
        succeeded: succeeded.load(Ordering::Relaxed),
        rejected: rejected.load(Ordering::Relaxed),
        error_status: error_status.load(Ordering::Relaxed),
        failed: failed.load(Ordering::Relaxed),
        connections: connections.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        elapsed: started.elapsed(),
    }
}

/// Parameters for campaign-mode load: create a fleet of campaigns over
/// HTTP, poll them to completion, and reconcile every ledger.
#[derive(Debug, Clone)]
pub struct CampaignLoadPlan {
    /// Campaigns to create.
    pub campaigns: u64,
    /// Machine size per campaign.
    pub population: u64,
    /// Samples per metered node.
    pub samples_per_node: u32,
    /// Campaigns per `POST /v1/campaigns` (the `count` field).
    pub batch: u64,
    /// Base RNG seed; campaign `i` gets `seed + i`.
    pub seed: u64,
    /// Per-request timeout.
    pub timeout: Duration,
    /// Sleep between completion polls.
    pub poll: Duration,
    /// Give up if the fleet has not finished within this budget.
    pub max_wait: Duration,
}

impl Default for CampaignLoadPlan {
    fn default() -> Self {
        CampaignLoadPlan {
            campaigns: 100,
            population: 128,
            samples_per_node: 16,
            batch: 50,
            seed: 1,
            timeout: Duration::from_secs(10),
            poll: Duration::from_millis(50),
            max_wait: Duration::from_secs(60),
        }
    }
}

/// Outcome of a campaign-mode run, with both sides of every ledger.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignReport {
    /// Campaigns the server acknowledged creating.
    pub created: u64,
    /// Campaigns that reached `stopped` or `exhausted`.
    pub finished: u64,
    /// Campaigns that reached `failed`.
    pub failed: u64,
    /// Rows the final leaderboard returned for this fleet.
    pub leaderboard_rows: u64,
    /// Leaderboard rows carrying a confidence interval.
    pub rows_with_ci: u64,
    /// Plane counter: samples offered (from `/metrics`).
    pub offered: u64,
    /// Plane counter: samples accepted.
    pub accepted: u64,
    /// Plane counter: late drops.
    pub dropped: u64,
    /// Plane counter: duplicates discarded.
    pub duplicates: u64,
    /// Plane counter: samples still pending behind watermarks.
    pub pending: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl CampaignReport {
    /// The plane-wide conservation law, read back over HTTP: every
    /// sample the fleet offered was accepted, dropped, a duplicate, or
    /// is still pending — exactly one of them.
    pub fn conserved(&self) -> bool {
        self.offered == self.accepted + self.dropped + self.duplicates + self.pending
    }

    /// Campaign ledger: everything created reached a terminal state and
    /// appeared on the leaderboard.
    pub fn complete(&self) -> bool {
        self.created == self.finished + self.failed
            && self.failed == 0
            && self.leaderboard_rows >= self.created
            && self.rows_with_ci >= self.created
    }
}

impl std::fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "created {} -> finished {} + failed {}; leaderboard {} rows ({} with CI); \
             plane offered {} = accepted {} + dropped {} + dup {} + pending {} in {:.2}s",
            self.created,
            self.finished,
            self.failed,
            self.leaderboard_rows,
            self.rows_with_ci,
            self.offered,
            self.accepted,
            self.dropped,
            self.duplicates,
            self.pending,
            self.elapsed.as_secs_f64()
        )
    }
}

/// Parses one `power_serve_fleet_samples_total{outcome="..."}` counter
/// off a `/metrics` page.
fn fleet_counter(page: &str, outcome: &str) -> u64 {
    let prefix = format!("power_serve_fleet_samples_total{{outcome=\"{outcome}\"}} ");
    page.lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .and_then(|rest| rest.trim().parse().ok())
        .unwrap_or(0)
}

/// Campaign mode: create -> poll -> leaderboard over one keep-alive
/// connection, then reconcile the campaign ledger and the ingest
/// plane's conservation law as read back from `/metrics`.
pub fn run_campaigns(addr: SocketAddr, plan: &CampaignLoadPlan) -> std::io::Result<CampaignReport> {
    use crate::json::Json;
    let started = Instant::now();
    let mut client = PooledClient::new(addr, plan.timeout);
    let mut report = CampaignReport::default();
    let mut ids: Vec<u64> = Vec::with_capacity(plan.campaigns as usize);

    // Create: batches of `batch` campaigns per POST.
    let mut remaining = plan.campaigns;
    let mut batch_index = 0u64;
    while remaining > 0 {
        let count = remaining.min(plan.batch.max(1));
        let body = format!(
            "{{\"name\": \"loadgen-{batch_index}\", \"population\": {}, \
              \"samples_per_node\": {}, \"seed\": {}, \"count\": {count}}}",
            plan.population,
            plan.samples_per_node,
            plan.seed.wrapping_add(batch_index * plan.batch),
        );
        let raw = post_request_keep_alive("/v1/campaigns", &body);
        let response = client.request(&raw)?;
        if response.status != 201 {
            return Err(invalid_owned(format!(
                "campaign create -> {}: {}",
                response.status, response.body
            )));
        }
        let parsed = Json::parse(&response.body)
            .map_err(|e| invalid_owned(format!("create response is not JSON: {e}")))?;
        if count == 1 {
            let id = parsed
                .get("id")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| invalid("create response lacks an id"))?;
            ids.push(id);
        } else {
            let batch_ids = parsed
                .get("ids")
                .and_then(|v| v.as_array().map(|a| a.to_vec()))
                .ok_or_else(|| invalid("batch create response lacks ids"))?;
            for v in &batch_ids {
                ids.push(v.as_u64().ok_or_else(|| invalid("non-integer id"))?);
            }
        }
        report.created += count;
        remaining -= count;
        batch_index += 1;
    }

    // Poll: the leaderboard's `live` gauge falling to zero means every
    // campaign reached a terminal state.
    let deadline = Instant::now() + plan.max_wait;
    loop {
        let response = client.request(&get_request_keep_alive("/v1/leaderboard?limit=1"))?;
        if response.status != 200 {
            return Err(invalid_owned(format!(
                "leaderboard poll -> {}",
                response.status
            )));
        }
        let live = Json::parse(&response.body)
            .ok()
            .and_then(|j| j.get("live").and_then(|v| v.as_u64()))
            .ok_or_else(|| invalid("leaderboard response lacks `live`"))?;
        if live == 0 {
            break;
        }
        if Instant::now() > deadline {
            return Err(invalid_owned(format!(
                "fleet still has {live} live campaigns after {:?}",
                plan.max_wait
            )));
        }
        std::thread::sleep(plan.poll);
    }

    // Terminal states, campaign by campaign.
    for &id in &ids {
        let response = client.request(&get_request_keep_alive(&format!("/v1/campaigns/{id}")))?;
        if response.status != 200 {
            return Err(invalid_owned(format!(
                "campaign {id} -> {}",
                response.status
            )));
        }
        let status = Json::parse(&response.body)
            .ok()
            .and_then(|j| j.get("state").and_then(|v| v.as_str().map(str::to_string)))
            .ok_or_else(|| invalid("campaign response lacks `state`"))?;
        match status.as_str() {
            "stopped" | "exhausted" => report.finished += 1,
            "failed" => report.failed += 1,
            other => {
                return Err(invalid_owned(format!(
                    "campaign {id} still `{other}` after the live gauge hit zero"
                )))
            }
        }
    }

    // The final leaderboard over the whole fleet.
    let response = client.request(&get_request_keep_alive(&format!(
        "/v1/leaderboard?limit={}",
        plan.campaigns.max(1)
    )))?;
    let rows = Json::parse(&response.body)
        .ok()
        .and_then(|j| j.get("rows").and_then(|v| v.as_array().map(|a| a.to_vec())))
        .ok_or_else(|| invalid("leaderboard response lacks rows"))?;
    report.leaderboard_rows = rows.len() as u64;
    report.rows_with_ci = rows
        .iter()
        .filter(|r| {
            r.get("ci_gflops_per_w")
                .is_some_and(|ci| !matches!(ci, Json::Null))
        })
        .count() as u64;

    // Reconcile the plane's conservation law from `/metrics`.
    let response = client.request(&get_request_keep_alive("/metrics"))?;
    if response.status != 200 {
        return Err(invalid_owned(format!("/metrics -> {}", response.status)));
    }
    report.offered = fleet_counter(&response.body, "offered");
    report.accepted = fleet_counter(&response.body, "accepted");
    report.dropped = fleet_counter(&response.body, "late_dropped");
    report.duplicates = fleet_counter(&response.body, "duplicates");
    report.pending = fleet_counter(&response.body, "pending");
    report.elapsed = started.elapsed();
    Ok(report)
}

fn invalid_owned(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_conservation_and_throughput() {
        let report = LoadReport {
            offered: 10,
            succeeded: 7,
            rejected: 2,
            error_status: 1,
            failed: 0,
            connections: 10,
            retries: 3,
            elapsed: Duration::from_secs(2),
        };
        assert!(report.conserved());
        assert!((report.throughput_rps() - 5.0).abs() < 1e-9);
        let broken = LoadReport {
            offered: 10,
            succeeded: 1,
            ..LoadReport::default()
        };
        assert!(!broken.conserved());
    }

    #[test]
    fn parses_a_framed_response_head() {
        let head = parse_response_head(
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\nhi",
        )
        .unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 2);
        assert!(head.keep_alive);
        assert_eq!(head.retry_after_s, None);

        let rejected = parse_response_head(
            b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nconnection: close\r\nretry-after: 2\r\n\r\n",
        )
        .unwrap();
        assert_eq!(rejected.status, 503);
        assert!(!rejected.keep_alive);
        assert_eq!(rejected.retry_after_s, Some(2));

        assert!(parse_response_head(b"garbage").is_err());
    }

    #[test]
    fn connection_header_matching_is_list_aware_and_case_insensitive() {
        // RFC 9112 token lists: `Keep-Alive, TE` still means keep-alive.
        let listed = parse_response_head(
            b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nConnection: Keep-Alive, TE\r\n\r\n",
        )
        .unwrap();
        assert!(listed.keep_alive, "keep-alive inside a token list counts");

        let shouty = parse_response_head(
            b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: KEEP-ALIVE\r\n\r\n",
        )
        .unwrap();
        assert!(shouty.keep_alive, "token match ignores case");

        // `close` wins even when both tokens appear.
        let both = parse_response_head(
            b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: keep-alive, close\r\n\r\n",
        )
        .unwrap();
        assert!(!both.keep_alive, "close beats keep-alive");

        // A token that merely contains the word is not a match.
        let substring = parse_response_head(
            b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: not-keep-alive\r\n\r\n",
        )
        .unwrap();
        assert!(!substring.keep_alive, "substring is not a token match");
    }

    #[test]
    fn keep_alive_builders_omit_the_close_header() {
        let ka = String::from_utf8(get_request_keep_alive("/healthz")).unwrap();
        assert!(!ka.contains("connection:"));
        let cold = String::from_utf8(get_request("/healthz")).unwrap();
        assert!(cold.contains("connection: close"));
        let post = String::from_utf8(post_request_keep_alive("/x", "{}")).unwrap();
        assert!(!post.contains("connection:"));
        assert!(post.contains("content-length: 2"));
    }

    #[test]
    fn jitter_is_bounded() {
        let mut j = Jitter::new(7);
        for _ in 0..1000 {
            assert!(j.next_ms(50) < 50);
        }
    }
}
