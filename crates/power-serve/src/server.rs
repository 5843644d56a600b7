//! The TCP front end: a readiness-polled reactor plus a fixed worker
//! pool for CPU-bound measurement math.
//!
//! Concurrency shape:
//!
//! * One **reactor thread** owns the listener and every connection. It
//!   blocks in [`crate::poller::Poller::wait`] (epoll on Linux, poll(2)
//!   elsewhere) and drives each connection's state machine on readiness
//!   events: non-blocking accept, non-blocking reads into the
//!   connection's [`RequestBuffer`], incremental parsing via
//!   [`RequestBuffer::try_next_request`], non-blocking response writes
//!   from a per-connection output buffer. Ten thousand idle keep-alive
//!   connections cost ten thousand fds and small buffers — not ten
//!   thousand threads.
//! * Cheap routes (`/healthz`, `/metrics`, the catalog, wrong-method
//!   `405`s, summary-answerable `/v1/trace/window` queries, and
//!   `/v1/leaderboard` polls a worker already answered for the unchanged
//!   fleet) are answered **inline** on the reactor thread via
//!   [`crate::router::route_fast`].
//!   Routes that may simulate or contend are handed to a fixed pool of
//!   **worker threads** through a bounded dispatch queue; the worker
//!   routes the request and posts the response back as a completion, and
//!   the reactor serializes it on write-readiness. A full dispatch queue
//!   answers that *request* `503` + `Retry-After` without closing the
//!   connection (`power_serve_dispatch_rejected_total` counts these).
//! * Per-connection state machine: `Idle` (between requests) → `Reading`
//!   (bytes of a request have arrived) → `Dispatched` (a worker owns the
//!   request; reads pause for backpressure) → `Writing` (response bytes
//!   pending) → back to `Idle` or closed. `Closing` is the lingering
//!   close used for connection-level `503`s. Deadlines per state: idle
//!   expiry closes silently, a mid-request stall is answered `408`, a
//!   write stall or lingering close is cut off hard.
//! * **Admission** is connection-granular: every accepted socket is
//!   counted `offered`, then either admitted (`accepted`) or — when
//!   [`ServerConfig::max_connections`] sockets are already open —
//!   answered `503` + `Retry-After` with a lingering close (`rejected`).
//!   The reactor's shutdown wake-up is a self-pipe inside the poller,
//!   not a loopback connection, so draining never perturbs the ledger.
//! * **Graceful shutdown** flips a flag and notifies the poller. The
//!   reactor stops accepting, gives idle connections a short grace (so
//!   a request already in flight still lands), lets every in-progress
//!   request finish (responses carry `connection: close`), and exits
//!   when the last connection closes; only then are the workers joined.
//!   A worker that **panics** mid-request answers that request `500`,
//!   bumps `power_serve_worker_panics_total`, and keeps its thread — the
//!   pool never shrinks and drain never deadlocks on a lost completion.
//!
//! The conservation law `offered == accepted + rejected` counts
//! **connections**, not requests — one admitted keep-alive connection
//! may serve many requests, which is exactly the point. The load
//! generator checks the same connection-level law from the outside (see
//! [`crate::loadgen`]); requests-per-connection is observable via the
//! `power_serve_connection_requests` histogram on `/metrics`.

use crate::http::{HttpError, HttpLimits, Request, RequestBuffer, Response};
use crate::metrics::Endpoint;
use crate::poller::{self, Event, Interest, Poller};
use crate::router::{route, route_fast};
use crate::state::ServeState;
use power_fleet::FleetDriver;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables for the TCP front end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads handling CPU-bound requests.
    pub workers: usize,
    /// Dispatch queue depth: parsed requests waiting for a worker beyond
    /// those in flight. A request that cannot be queued is answered
    /// `503` + `Retry-After` — the *connection* stays open.
    pub queue_depth: usize,
    /// Concurrently open admitted connections. A connection accepted
    /// beyond this is answered `503` + `Retry-After` and closed
    /// (counted `rejected`, never `accepted`).
    pub max_connections: usize,
    /// Parser limits (head and body byte caps).
    pub limits: HttpLimits,
    /// Budget for a request to finish arriving once its first byte is
    /// in, and for a response write to progress; a connection that
    /// stalls mid-request longer than this is answered `408` and
    /// closed, so a silent client cannot pin server state.
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle **between**
    /// requests before the server closes it (silently — an expired idle
    /// connection is a clean close, not a protocol error).
    pub idle_timeout: Duration,
    /// Maximum sequential requests served on one connection before the
    /// server closes it (`connection: close` on the last response), so
    /// drain and rebalancing always terminate. Clamped to at least 1.
    pub max_requests_per_connection: u64,
    /// `Retry-After` seconds advertised on `503` rejections.
    pub retry_after_s: u32,
    /// Sleep inserted after each full fleet scheduling round. Zero (the
    /// default) drives campaigns at full speed; a positive pace keeps
    /// them observably in flight for demos and crash tests.
    pub fleet_pace: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 16,
            max_connections: 16_384,
            limits: HttpLimits::default(),
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(2),
            max_requests_per_connection: 1024,
            retry_after_s: 1,
            fleet_pace: Duration::ZERO,
        }
    }
}

/// A request a worker owns, tagged with the connection it came from.
struct Job {
    token: usize,
    gen: u64,
    request: Request,
    started: Instant,
}

/// A worker's finished response, headed back to the reactor.
struct Completion {
    token: usize,
    gen: u64,
    endpoint: Endpoint,
    response: Response,
    started: Instant,
}

struct Shared {
    state: Arc<ServeState>,
    poller: Poller,
    shutdown: AtomicBool,
    /// Set only after the reactor has been joined; workers must outlive
    /// the reactor so every dispatched request still gets its
    /// completion during drain.
    workers_done: AtomicBool,
    dispatch: Mutex<VecDeque<Job>>,
    dispatch_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    limits: HttpLimits,
    read_timeout: Duration,
    idle_timeout: Duration,
    max_requests_per_connection: u64,
    queue_depth: usize,
    max_connections: usize,
    retry_after_s: u32,
}

/// A running server. Dropping it without calling [`Server::shutdown`]
/// detaches the threads; call `shutdown` for a clean drain.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
    fleet_driver: Option<FleetDriver>,
}

impl Server {
    /// Binds the listener and spawns the reactor thread and worker pool.
    pub fn start(config: ServerConfig, state: Arc<ServeState>) -> io::Result<Server> {
        poller::raise_nofile_limit();
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            state,
            poller: Poller::new()?,
            shutdown: AtomicBool::new(false),
            workers_done: AtomicBool::new(false),
            dispatch: Mutex::new(VecDeque::with_capacity(config.queue_depth)),
            dispatch_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            limits: config.limits,
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
            max_requests_per_connection: config.max_requests_per_connection.max(1),
            queue_depth: config.queue_depth.max(1),
            max_connections: config.max_connections.max(1),
            retry_after_s: config.retry_after_s,
        });

        let workers = config.workers.max(1);
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("power-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let reactor_shared = Arc::clone(&shared);
        let reactor_handle = std::thread::Builder::new()
            .name("power-serve-reactor".to_string())
            .spawn(move || Reactor::new(reactor_shared, listener).run())?;

        let fleet_driver = FleetDriver::spawn(Arc::clone(&shared.state.fleet), config.fleet_pace);
        Ok(Server {
            local_addr,
            shared,
            reactor_handle: Some(reactor_handle),
            worker_handles,
            fleet_driver: Some(fleet_driver),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared state, for inspecting metrics and the store.
    pub fn state(&self) -> &Arc<ServeState> {
        &self.shared.state
    }

    /// Graceful shutdown: stop accepting, drain every connection and
    /// in-flight request, stop the fleet driver, join every thread.
    pub fn shutdown(mut self) {
        if let Some(driver) = self.fleet_driver.take() {
            driver.stop();
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the reactor out of its poll wait. The waker is a
        // self-pipe inside the poller — not a loopback connection — so
        // shutdown never appears in the admission ledger.
        self.shared.poller.notify();
        // The reactor drains: workers must stay alive until it exits so
        // every dispatched request still completes.
        if let Some(handle) = self.reactor_handle.take() {
            let _ = handle.join();
        }
        self.shared.workers_done.store(true, Ordering::SeqCst);
        self.shared.dispatch_cv.notify_all();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pops dispatched requests, routes them, posts completions. A handler
/// panic is caught and answered `500` — the thread (and so the pool)
/// survives, and the completion is still posted, so a drain waiting on
/// that connection cannot deadlock.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.dispatch.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.workers_done.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .dispatch_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { break };
        let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route(&shared.state, &job.request)
        }));
        let (endpoint, response) = match routed {
            Ok(routed) => routed,
            Err(_) => {
                shared.state.metrics.worker_panic();
                (
                    Endpoint::Other,
                    Response::error(500, "internal error while handling the request"),
                )
            }
        };
        shared
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion {
                token: job.token,
                gen: job.gen,
                endpoint,
                response,
                started: job.started,
            });
        shared.poller.notify();
    }
}

/// Where a connection is in its request/response cycle. The state picks
/// the deadline semantics and the readiness interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// No request bytes outstanding. Expiry is a silent close.
    Idle,
    /// A request is partially arrived. Expiry is answered `408`.
    Reading,
    /// A worker owns the current request. Reads pause (backpressure on
    /// pipelining); no deadline — the worker always completes.
    Dispatched,
    /// Response bytes are pending in `out`. Expiry is a hard close.
    Writing,
    /// Lingering close after a connection-level `503`: flush, half-close,
    /// drain briefly so the rejection isn't destroyed by a RST.
    Closing,
}

/// One connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    buffer: RequestBuffer,
    out: Vec<u8>,
    out_pos: usize,
    state: ConnState,
    deadline: Option<Instant>,
    interest: Interest,
    served: u64,
    gen: u64,
    /// Whether this connection was admitted (counted `accepted`).
    /// Rejected connections linger in `Closing` without a close record.
    counted: bool,
    /// Close once `out` is fully flushed.
    close_after_write: bool,
    /// The peer finished sending (EOF or reset seen on read).
    eof: bool,
    /// The current request's keep-alive verdict, minus the drain check
    /// (which is applied when the response is finalized).
    req_keep: bool,
}

const LISTENER_TOKEN: usize = 0;
/// Connection tokens start above the listener's.
const FIRST_CONN: usize = 1;
/// Per-event-loop-turn cap on bytes read from one connection, so one
/// firehose peer cannot starve the rest of the event batch.
const READ_FAIRNESS_BYTES: usize = 256 * 1024;
/// How long a `Closing` (rejected) connection may linger.
const LINGER: Duration = Duration::from_millis(250);

struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Open *admitted* connections, measured against `max_connections`.
    open_accepted: usize,
    next_gen: u64,
    draining: bool,
    listener_registered: bool,
}

impl Reactor {
    fn new(shared: Arc<Shared>, listener: TcpListener) -> Reactor {
        Reactor {
            shared,
            listener,
            conns: Vec::new(),
            free: Vec::new(),
            open_accepted: 0,
            next_gen: 0,
            draining: false,
            listener_registered: false,
        }
    }

    fn run(mut self) {
        if self
            .shared
            .poller
            .register(self.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)
            .is_err()
        {
            return;
        }
        self.listener_registered = true;
        // Deadlines are swept coarsely: often enough that a timeout
        // lands within a fraction of its budget, rarely enough that ten
        // thousand idle connections cost no per-connection wakeups.
        let sweep_every = (self.shared.idle_timeout.min(self.shared.read_timeout) / 8)
            .clamp(Duration::from_millis(5), Duration::from_millis(250));
        let mut events: Vec<Event> = Vec::new();
        let mut next_sweep = Instant::now() + sweep_every;
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining && self.open_conns() == 0 {
                break;
            }
            let timeout = next_sweep.saturating_duration_since(Instant::now());
            if self.shared.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            for &event in &events {
                if event.token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_ready(event);
                }
            }
            self.apply_completions();
            let now = Instant::now();
            if now >= next_sweep {
                self.sweep(now);
                next_sweep = now + sweep_every;
            }
        }
    }

    fn open_conns(&self) -> usize {
        self.conns.len() - self.free.len()
    }

    /// Stops admitting. Existing connections keep their deadlines: an
    /// idle keep-alive session still has its full idle budget to send
    /// one more request (answered with `connection: close`), exactly as
    /// the thread-per-connection server drained — so a request already
    /// in flight when shutdown begins is never dropped on the floor.
    fn begin_drain(&mut self) {
        self.draining = true;
        if self.listener_registered {
            let _ = self.shared.poller.deregister(self.listener.as_raw_fd());
            self.listener_registered = false;
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if self.draining {
                return;
            }
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            self.shared.state.metrics.connection_offered();
            if stream.set_nonblocking(true).is_err() {
                // Can't serve a blocking socket on the reactor; count
                // the admission pair so the ledger stays conserved.
                self.shared.state.metrics.connection_accepted();
                self.shared.state.metrics.connection_closed(0);
                continue;
            }
            // Persistent connections interleave small writes with
            // reads; Nagle plus delayed ACK would serialize that at
            // ~40 ms per turn.
            let _ = stream.set_nodelay(true);
            if self.open_accepted >= self.shared.max_connections {
                self.reject_saturated(stream);
                continue;
            }
            self.shared.state.metrics.connection_accepted();
            self.open_accepted += 1;
            let deadline = Instant::now() + self.shared.read_timeout;
            if let Some(token) = self.install(stream, true, ConnState::Idle, deadline) {
                self.drive(token);
            }
        }
    }

    /// Answers a connection admission could not take: `503` +
    /// `Retry-After`, then a lingering close (half-close after the
    /// flush, short drain of whatever the client already sent) so the
    /// rejection isn't destroyed by a RST racing the response.
    fn reject_saturated(&mut self, stream: TcpStream) {
        self.shared.state.metrics.connection_rejected();
        self.shared
            .state
            .metrics
            .record(Endpoint::Other, 503, Duration::ZERO);
        let response = Response::error(503, "server saturated; retry shortly")
            .with_header("retry-after", self.shared.retry_after_s.to_string());
        let deadline = Instant::now() + LINGER;
        if let Some(token) = self.install(stream, false, ConnState::Closing, deadline) {
            let conn = self.conn_mut(token).expect("just installed");
            let _ = response.write_to(&mut conn.out);
            conn.close_after_write = true;
            self.drive(token);
        }
    }

    /// Slots a connection into the slab and registers it with the
    /// poller. Returns `None` (closing the socket and reconciling the
    /// ledger) if registration fails.
    fn install(
        &mut self,
        stream: TcpStream,
        counted: bool,
        state: ConnState,
        deadline: Instant,
    ) -> Option<usize> {
        self.next_gen += 1;
        let conn = Conn {
            stream,
            buffer: RequestBuffer::new(),
            out: Vec::new(),
            out_pos: 0,
            state,
            deadline: Some(deadline),
            interest: Interest::READ,
            served: 0,
            gen: self.next_gen,
            counted,
            close_after_write: false,
            eof: false,
            req_keep: false,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let token = idx + FIRST_CONN;
        let fd = self.conns[idx]
            .as_ref()
            .expect("just installed")
            .stream
            .as_raw_fd();
        if self
            .shared
            .poller
            .register(fd, token, Interest::READ)
            .is_err()
        {
            let conn = self.conns[idx].take().expect("just installed");
            self.free.push(idx);
            if conn.counted {
                self.open_accepted -= 1;
                self.shared.state.metrics.connection_closed(0);
            }
            return None;
        }
        Some(token)
    }

    fn conn_mut(&mut self, token: usize) -> Option<&mut Conn> {
        self.conns.get_mut(token - FIRST_CONN)?.as_mut()
    }

    /// Removes and closes a connection, recording the close for
    /// admitted connections.
    fn close(&mut self, token: usize) {
        let idx = token - FIRST_CONN;
        if let Some(conn) = self.conns.get_mut(idx).and_then(Option::take) {
            let _ = self.shared.poller.deregister(conn.stream.as_raw_fd());
            if conn.counted {
                self.open_accepted -= 1;
                self.shared.state.metrics.connection_closed(conn.served);
            }
            self.free.push(idx);
        }
    }

    /// Handles a readiness event on a connection: pull bytes in, then
    /// run the state machine.
    fn conn_ready(&mut self, event: Event) {
        let read_timeout = self.shared.read_timeout;
        let Some(conn) = self.conn_mut(event.token) else {
            return; // stale event for a closed token
        };
        if event.readable {
            let mut total = 0;
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        if conn.state != ConnState::Closing {
                            conn.buffer.push_bytes(&chunk[..n]);
                        }
                        total += n;
                        // A short read means the kernel buffer is dry; a
                        // fairness cap bounds one peer's share of this
                        // turn (level-triggered polling re-fires for the
                        // rest).
                        if n < chunk.len() || total >= READ_FAIRNESS_BYTES {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.eof = true;
                        break;
                    }
                }
            }
            // First bytes of the next request move Idle under the read
            // budget: a request that stalls half-written gets `408`, a
            // request merely straddling the (shorter) idle deadline
            // completes.
            if conn.state == ConnState::Idle && conn.buffer.buffered() > 0 {
                conn.state = ConnState::Reading;
                conn.deadline = Some(Instant::now() + read_timeout);
            }
        }
        self.drive(event.token);
    }

    /// Applies every posted completion to its (still-live, same-
    /// generation) connection.
    fn apply_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for done in completions {
            let Some(conn) = self.conn_mut(done.token) else {
                continue;
            };
            if conn.gen != done.gen || conn.state != ConnState::Dispatched {
                continue; // the connection died and the token was reused
            }
            self.finish_response(done.token, done.endpoint, done.response, done.started);
            self.drive(done.token);
        }
    }

    /// Records and serializes one response, applying the keep-alive
    /// verdict (the request's own verdict, downgraded to close when
    /// draining or over the per-connection cap).
    fn finish_response(
        &mut self,
        token: usize,
        endpoint: Endpoint,
        response: Response,
        started: Instant,
    ) {
        let draining = self.draining;
        let (read_timeout, metrics) = (self.shared.read_timeout, &self.shared.state.metrics);
        metrics.record(endpoint, response.status, started.elapsed());
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        let keep_alive = conn.req_keep && !draining;
        let _ = response.write_to_conn(&mut conn.out, keep_alive);
        conn.close_after_write = !keep_alive;
        conn.state = ConnState::Writing;
        conn.deadline = Some(Instant::now() + read_timeout);
    }

    /// The per-connection state machine: flush pending output, then
    /// parse-and-serve until the connection blocks, dispatches, or dies.
    fn drive(&mut self, token: usize) {
        let read_timeout = self.shared.read_timeout;
        let idle_timeout = self.shared.idle_timeout;
        let limits = self.shared.limits;
        loop {
            let Some(conn) = self.conn_mut(token) else {
                return;
            };
            // 1. Flush pending response bytes.
            if flush(conn).is_err() {
                self.close(token);
                return;
            }
            let conn = self.conn_mut(token).expect("still live");
            if conn.out_pos < conn.out.len() {
                break; // blocked on write; wait for writability
            }
            conn.out.clear();
            conn.out_pos = 0;
            // 2. Output is drained — advance the state machine.
            match conn.state {
                ConnState::Closing => {
                    // Rejection flushed: half-close and linger (reads
                    // drain into the void) until EOF or the deadline.
                    let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                    if conn.eof {
                        self.close(token);
                        return;
                    }
                    break;
                }
                ConnState::Dispatched => break, // awaiting the worker
                ConnState::Writing => {
                    if conn.close_after_write {
                        self.close(token);
                        return;
                    }
                    conn.state = ConnState::Idle;
                    conn.deadline = Some(Instant::now() + idle_timeout);
                }
                ConnState::Idle | ConnState::Reading => {}
            }
            // 3. Try to parse the next request off the carry.
            let conn = self.conn_mut(token).expect("still live");
            match conn.buffer.try_next_request(&limits) {
                Ok(Some(request)) => {
                    self.handle_request(token, request);
                    continue; // flush whatever that produced
                }
                Ok(None) => {
                    if conn.eof {
                        if conn.buffer.buffered() == 0 {
                            // Clean close (or idle EOF): nothing to
                            // answer.
                            self.close(token);
                        } else {
                            // The peer gave up mid-request.
                            self.fail_request(token, &HttpError::Incomplete, Instant::now());
                            continue;
                        }
                        return;
                    }
                    if conn.buffer.buffered() > 0 {
                        if conn.state != ConnState::Reading {
                            conn.state = ConnState::Reading;
                            conn.deadline = Some(Instant::now() + read_timeout);
                        }
                    } else if conn.state != ConnState::Idle {
                        conn.state = ConnState::Idle;
                        conn.deadline = Some(Instant::now() + idle_timeout);
                    }
                    break; // need more bytes
                }
                Err(err) => {
                    self.fail_request(token, &err, Instant::now());
                    continue;
                }
            }
        }
        self.update_interest(token);
    }

    /// Serves one parsed request: inline on the reactor when the route
    /// is cheap, else dispatched to the worker pool (or `503`'d at the
    /// request level if the dispatch queue is full).
    fn handle_request(&mut self, token: usize, request: Request) {
        let started = Instant::now();
        let max_requests = self.shared.max_requests_per_connection;
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        conn.served += 1;
        conn.req_keep = request.keep_alive() && conn.served < max_requests;
        let gen = conn.gen;
        let state = Arc::clone(&self.shared.state);
        let fast = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            route_fast(&state, &request)
        }));
        match fast {
            Ok(Some((endpoint, response))) => {
                self.finish_response(token, endpoint, response, started);
            }
            Ok(None) => {
                let rejected = {
                    let mut queue = self
                        .shared
                        .dispatch
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    if queue.len() >= self.shared.queue_depth {
                        true
                    } else {
                        queue.push_back(Job {
                            token,
                            gen,
                            request,
                            started,
                        });
                        false
                    }
                };
                if rejected {
                    // Request-level backpressure: this request bounces,
                    // the connection survives to retry on it.
                    self.shared.state.metrics.dispatch_rejection();
                    let response = Response::error(503, "server saturated; retry shortly")
                        .with_header("retry-after", self.shared.retry_after_s.to_string());
                    self.finish_response(token, Endpoint::Other, response, started);
                } else {
                    self.shared.dispatch_cv.notify_one();
                    let conn = self.conn_mut(token).expect("still live");
                    conn.state = ConnState::Dispatched;
                    conn.deadline = None;
                }
            }
            Err(_) => {
                // A panic in an inline handler is contained exactly like
                // a worker's.
                self.shared.state.metrics.worker_panic();
                let response = Response::error(500, "internal error while handling the request");
                self.finish_response(token, Endpoint::Other, response, started);
            }
        }
    }

    /// Answers a protocol failure (`400`/`408`/`413`/`431`) and marks
    /// the connection to close once the response flushes.
    fn fail_request(&mut self, token: usize, err: &HttpError, started: Instant) {
        let response = Response::error(err.status(), err.detail());
        self.finish_response(token, Endpoint::Other, response, started);
        if let Some(conn) = self.conn_mut(token) {
            conn.close_after_write = true;
        }
    }

    /// Reconciles the poller's interest set with the connection state:
    /// pending output wants writability; `Dispatched` pauses reads
    /// (pipelining backpressure); everything else wants readability.
    fn update_interest(&mut self, token: usize) {
        let Some(conn) = self.conn_mut(token) else {
            return;
        };
        let write = conn.out_pos < conn.out.len();
        let read = match conn.state {
            ConnState::Dispatched | ConnState::Writing => false,
            ConnState::Idle | ConnState::Reading | ConnState::Closing => true,
        };
        let want = Interest {
            read: read && !conn.eof,
            write,
        };
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            conn.interest = want;
            let _ = self.shared.poller.modify(fd, token, want);
        }
    }

    /// Enforces deadlines. Runs coarsely (see `run`), so timeouts land
    /// within a fraction of their budget past it — never before.
    fn sweep(&mut self, now: Instant) {
        for idx in 0..self.conns.len() {
            let token = idx + FIRST_CONN;
            let Some(conn) = self.conns[idx].as_mut() else {
                continue;
            };
            let Some(deadline) = conn.deadline else {
                continue;
            };
            if now < deadline {
                continue;
            }
            match conn.state {
                // Idle expiry is a clean, silent close.
                ConnState::Idle => self.close(token),
                // A request stalled half-written: answer it.
                ConnState::Reading => {
                    self.fail_request(token, &HttpError::Incomplete, now);
                    self.drive(token);
                }
                // A response write made no progress, or a lingering
                // close outstayed its welcome: cut it off.
                ConnState::Writing | ConnState::Closing => self.close(token),
                ConnState::Dispatched => {}
            }
        }
    }
}

/// Writes as much pending output as the socket will take. `Ok` with
/// bytes remaining means the socket is full; `Err` means the connection
/// is dead.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.out_pos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen;

    #[test]
    fn starts_serves_and_shuts_down() {
        let server = Server::start(ServerConfig::default(), Arc::new(ServeState::default()))
            .expect("bind loopback");
        let addr = server.local_addr();
        let (status, body) = loadgen::http_request(
            addr,
            &loadgen::get_request("/healthz"),
            Duration::from_secs(5),
        )
        .expect("healthz");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\""), "{body}");
        assert!(body.contains("\"ok\""), "{body}");

        let admission = server.state().metrics.admission();
        assert!(admission.conserved());
        assert_eq!(admission.offered, 1);
        server.shutdown();
    }

    /// A keep-alive connection whose next request stalls half-written
    /// must be answered with `408 Request Timeout`, not silently closed
    /// as idle — the idle budget is only for connections with *no*
    /// request bytes outstanding.
    #[test]
    fn stalled_half_written_request_gets_408_not_silent_close() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(150),
            read_timeout: Duration::from_millis(600),
            ..ServerConfig::default()
        };
        let server = Server::start(config, Arc::new(ServeState::default())).expect("bind loopback");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        use std::io::Write;

        // Request 1 completes normally and keeps the connection alive.
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let first = read_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");

        // Request 2 sends half a head, then stalls well past the idle
        // timeout. The server must classify this as a request timeout.
        stream.write_all(b"GET /healthz HTT").unwrap();
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("response then close");
        let rest = String::from_utf8_lossy(&rest);
        assert!(
            rest.starts_with("HTTP/1.1 408"),
            "half-written request must get 408, got: {rest:?}"
        );
        assert_eq!(server.state().metrics.errors(Endpoint::Other), 1);
        server.shutdown();
    }

    /// Once request bytes have started arriving, the *read* budget
    /// governs — a request whose bytes merely straddle the (shorter)
    /// idle deadline still completes.
    #[test]
    fn half_written_request_straddling_idle_timeout_completes() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_secs(2),
            ..ServerConfig::default()
        };
        let server = Server::start(config, Arc::new(ServeState::default())).expect("bind loopback");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        use std::io::Write;

        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let first = read_response(&mut stream);
        assert!(first.starts_with("HTTP/1.1 200"), "{first}");

        // Half the second request, a pause longer than idle_timeout
        // (but within read_timeout), then the rest: must succeed.
        stream.write_all(b"GET /healthz HT").unwrap();
        std::thread::sleep(Duration::from_millis(300));
        stream.write_all(b"TP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let second = read_response(&mut stream);
        assert!(
            second.starts_with("HTTP/1.1 200"),
            "straddling request must complete, got: {second:?}"
        );

        // A connection idle between requests (no bytes at all) still
        // expires silently — no 408, just EOF.
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("silent close");
        assert!(rest.is_empty(), "idle expiry must not write: {rest:?}");
        assert_eq!(server.state().metrics.errors(Endpoint::Other), 0);
        server.shutdown();
    }

    /// Reads one HTTP response (head + content-length body) as a string.
    fn read_response(stream: &mut TcpStream) -> String {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            let n = stream.read(&mut chunk).expect("read response");
            assert!(n > 0, "peer closed mid-response");
            buf.extend_from_slice(&chunk[..n]);
            if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&buf[..head_end + 4]).to_string();
                let body_len = head
                    .lines()
                    .find_map(|l| {
                        l.to_ascii_lowercase()
                            .strip_prefix("content-length:")
                            .map(|v| v.trim().parse::<usize>().unwrap())
                    })
                    .unwrap_or(0);
                if buf.len() >= head_end + 4 + body_len {
                    return String::from_utf8_lossy(&buf).to_string();
                }
            }
        }
    }

    #[test]
    fn malformed_request_gets_400_and_connection_closes() {
        let server = Server::start(ServerConfig::default(), Arc::new(ServeState::default()))
            .expect("bind loopback");
        let addr = server.local_addr();
        let (status, _) =
            loadgen::http_request(addr, b"NOT-A-REQUEST\r\n\r\n", Duration::from_secs(5))
                .expect("server answers malformed input");
        assert_eq!(status, 400);
        assert_eq!(server.state().metrics.errors(Endpoint::Other), 1);
        server.shutdown();
    }

    /// Pipelined requests on one connection are served in order off the
    /// carry, and the admission ledger still counts one connection.
    #[test]
    fn pipelined_requests_are_served_in_order() {
        let server = Server::start(ServerConfig::default(), Arc::new(ServeState::default()))
            .expect("bind loopback");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        use std::io::Write;
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /nope HTTP/1.1\r\nHost: t\r\n\r\n\
                  GET /v1/systems HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        // The final request asks for close, so EOF frames the burst; the
        // three responses must come back in request order.
        let mut all = Vec::new();
        stream.read_to_end(&mut all).expect("all three responses");
        let all = String::from_utf8_lossy(&all);
        let statuses: Vec<&str> = all
            .match_indices("HTTP/1.1 ")
            .map(|(i, _)| &all[i + 9..i + 12])
            .collect();
        assert_eq!(statuses, ["200", "404", "200"], "{all}");
        assert!(all.contains("connection: close"), "{all}");
        drop(stream);
        let admission = server.state().metrics.admission();
        assert_eq!(admission.offered, 1);
        server.shutdown();
    }

    /// A handler panic answers that request `500`, is counted, and the
    /// worker pool keeps serving afterwards — including through a drain.
    #[test]
    fn worker_panic_answers_500_and_pool_survives() {
        let state = Arc::new(ServeState::new(crate::state::ServeConfig {
            debug_routes: true,
            ..crate::state::ServeConfig::default()
        }));
        let config = ServerConfig {
            workers: 1, // one worker: a lost thread would be fatal
            ..ServerConfig::default()
        };
        let server = Server::start(config, state).expect("bind loopback");
        let addr = server.local_addr();
        for _ in 0..4 {
            let (status, _) = loadgen::http_request(
                addr,
                &loadgen::get_request("/debug/panic"),
                Duration::from_secs(5),
            )
            .expect("panic route still answers");
            assert_eq!(status, 500);
        }
        let (status, _) = loadgen::http_request(
            addr,
            &loadgen::get_request("/v1/leaderboard"),
            Duration::from_secs(5),
        )
        .expect("worker-dispatched route after panics");
        assert_eq!(status, 200);
        assert_eq!(server.state().metrics.worker_panics(), 4);
        server.shutdown();
    }
}
