//! `power-serve`: a std-only concurrent measurement query service.
//!
//! The crate exposes the repository's simulation + estimation stack over
//! a deliberately small HTTP/1.1 subset — no async runtime, no external
//! HTTP dependency. Serving is event-driven: one reactor thread owns
//! every connection and multiplexes readiness with [`poller`]
//! (epoll on Linux, `poll(2)` elsewhere), while a fixed worker pool
//! executes only the CPU-bound measurement math handed over through a
//! bounded dispatch queue:
//!
//! * [`json`] — the wire format: a re-export of the workspace's shared
//!   `mini-json` codec (the parser originally lived here and moved to
//!   `crates/vendor/mini-json` so other crates can share it);
//! * [`http`] — the request parser and response writer, with hard byte
//!   caps, total error enumeration (`400`/`408`/`413`/`431`), a
//!   per-connection [`http::RequestBuffer`] that preserves pipelined
//!   bytes across reads (including an incremental
//!   [`http::RequestBuffer::try_next_request`] the reactor drives
//!   without blocking), and RFC 9112 list-aware `Connection` token
//!   matching;
//! * [`router`] — pure request → response dispatch over the endpoints
//!   (`/v1/measure`, `/v1/sample-size`, `/v1/trace/window`,
//!   `/v1/systems`, the campaign-fleet CRUD under `/v1/campaigns`, the
//!   live `/v1/leaderboard`, `/healthz`, `/metrics`), split into an
//!   inline fast path ([`router::route_fast`]) the reactor answers
//!   without a worker hop and the full [`router::route`] workers run;
//! * [`poller`] — the readiness layer: a level-triggered epoll (or
//!   `poll(2)`) wrapper with a self-pipe wake-up for cross-thread
//!   notification, `usize` tokens, and no dependencies;
//! * [`state`] — shared catalog + the single-flight, LRU-bounded
//!   [`power_sim::store::TraceStore`] all simulation endpoints go
//!   through, plus the [`power_fleet::Fleet`] behind the campaign
//!   endpoints (journalled to `<store_dir>/fleet.wal` when a store
//!   directory is configured, so a killed server resumes every
//!   in-flight campaign at its watermark);
//! * [`metrics`] — per-endpoint counters and latency histograms with a
//!   Prometheus text rendering, plus the admission conservation law
//!   `offered == accepted + rejected`, dispatch-queue rejections, and
//!   worker panic counts;
//! * [`server`] — the reactor: non-blocking accept, a per-connection
//!   state machine (idle → reading → dispatched → writing), keep-alive
//!   lifecycle (idle timeout, per-connection request cap), saturation
//!   `503`s at both the connection and dispatch-queue levels,
//!   panic-contained workers, and graceful drain;
//! * [`loadgen`] — a loopback load generator with cold, pooled
//!   keep-alive, and pipelined connection disciplines whose connection
//!   accounting lines up with the server's admission counters, plus
//!   optional `Retry-After`-honoring retry on `503` and an
//!   [`loadgen::IdleConnections`] holder that parks warmed keep-alive
//!   connections for soak tests and benchmarks.

pub mod http;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod poller;
pub mod router;
pub mod server;
pub mod state;

pub use http::{HttpError, HttpLimits, Request, RequestBuffer, Response};
pub use json::Json;
pub use loadgen::{
    CampaignLoadPlan, CampaignReport, IdleConnections, LoadPlan, LoadReport, PooledClient,
    PooledResponse,
};
pub use metrics::{AdmissionStats, ArchiveGauges, Endpoint, FleetGauges, Metrics};
pub use poller::{Event, Interest, Poller};
pub use router::{route, route_fast};
pub use server::{Server, ServerConfig};
pub use state::{ServeConfig, ServeState};
