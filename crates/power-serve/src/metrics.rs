//! Per-endpoint request metrics and the `/metrics` text rendering.
//!
//! Counters are lock-free atomics; latency histograms reuse
//! [`power_stats::histogram::Histogram`] (fixed-range linear bins whose
//! edge-clamping insert keeps totals conserved) behind a mutex that is
//! held only for one `insert`. The rendering is Prometheus text
//! exposition format: `# TYPE` lines, labelled counters, and cumulative
//! `_bucket`/`_sum`/`_count` histogram series.
//!
//! Two counter families carry the service's conservation laws:
//!
//! * admission: `offered == accepted + rejected` — every **connection**
//!   the listener sees is either handed to a worker or turned away with
//!   503 (with keep-alive, one accepted connection serves many
//!   requests; the `power_serve_connection_requests` histogram records
//!   how many);
//! * per endpoint: `requests == errors + successes` is implied by
//!   labelling errors separately.

use power_sim::store::CacheStats;
use power_stats::histogram::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The service's endpoints, used as metric labels and histogram slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `POST /v1/measure`.
    Measure,
    /// `POST /v1/sample-size`.
    SampleSize,
    /// `GET /v1/trace/window`.
    TraceWindow,
    /// `POST|GET /v1/campaigns` and `GET|DELETE /v1/campaigns/:id`.
    Campaigns,
    /// `GET /v1/leaderboard`.
    Leaderboard,
    /// `GET /v1/systems`.
    Systems,
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// Anything else (404s, parse failures, unknown paths).
    Other,
}

impl Endpoint {
    /// Every endpoint, in rendering order.
    pub const ALL: [Endpoint; 9] = [
        Endpoint::Measure,
        Endpoint::SampleSize,
        Endpoint::TraceWindow,
        Endpoint::Campaigns,
        Endpoint::Leaderboard,
        Endpoint::Systems,
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Other,
    ];

    /// Dense index into per-endpoint arrays.
    pub fn index(self) -> usize {
        match self {
            Endpoint::Measure => 0,
            Endpoint::SampleSize => 1,
            Endpoint::TraceWindow => 2,
            Endpoint::Campaigns => 3,
            Endpoint::Leaderboard => 4,
            Endpoint::Systems => 5,
            Endpoint::Healthz => 6,
            Endpoint::Metrics => 7,
            Endpoint::Other => 8,
        }
    }

    /// The metric label value.
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Measure => "measure",
            Endpoint::SampleSize => "sample_size",
            Endpoint::TraceWindow => "trace_window",
            Endpoint::Campaigns => "campaigns",
            Endpoint::Leaderboard => "leaderboard",
            Endpoint::Systems => "systems",
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Other => "other",
        }
    }
}

/// Latency histogram range: 40 linear bins over [0, 100] ms. Requests
/// slower than the range clamp into the top bin (totals stay conserved);
/// the `_sum` series still accumulates true durations.
const LATENCY_BINS: usize = 40;
const LATENCY_MAX_US: f64 = 100_000.0;

/// Requests-served-per-connection histogram: 32 linear bins over
/// [0, 128] requests; longer-lived connections clamp into the top bin.
const CONN_REQUESTS_BINS: usize = 32;
const CONN_REQUESTS_MAX: f64 = 128.0;

/// Gauges describing the campaign fleet, when one is attached.
///
/// Cardinality is bounded by construction: campaigns are aggregated
/// into the four lifecycle states (`power_serve_campaigns{state=...}`),
/// never exported as per-campaign series — a fleet of 10 000 campaigns
/// costs the same scrape budget as a fleet of 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetGauges {
    /// Campaign counts by lifecycle state label, in display order.
    pub states: [(&'static str, u64); 4],
    /// Ingest plane shards.
    pub shards: u64,
    /// Samples handed to the plane (live + retired campaigns).
    pub offered: u64,
    /// Samples accepted behind watermarks.
    pub accepted: u64,
    /// Samples dropped as too late.
    pub late_dropped: u64,
    /// Duplicate sequence numbers discarded.
    pub duplicates: u64,
    /// Samples still buffered ahead of a watermark.
    pub pending: u64,
}

struct EndpointSlot {
    requests: AtomicU64,
    errors: AtomicU64,
    latency_sum_us: AtomicU64,
    latency: Mutex<Histogram>,
}

impl EndpointSlot {
    fn new() -> Self {
        EndpointSlot {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            latency_sum_us: AtomicU64::new(0),
            latency: Mutex::new(
                Histogram::with_range(0.0, LATENCY_MAX_US, LATENCY_BINS)
                    .expect("static latency range is valid"),
            ),
        }
    }
}

/// Admission counters; see the module docs for the conservation law.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Connections the listener accepted from the OS.
    pub offered: u64,
    /// Connections handed to a worker.
    pub accepted: u64,
    /// Connections turned away with `503` because the queue was full.
    pub rejected: u64,
}

impl AdmissionStats {
    /// The admission conservation law.
    pub fn conserved(&self) -> bool {
        self.offered == self.accepted + self.rejected
    }
}

/// Gauges describing the on-disk archive tier, when one is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArchiveGauges {
    /// Live sweeps in the archive.
    pub entries: u64,
    /// Segment files on disk.
    pub segments: u64,
    /// Bytes of live (referenced) records.
    pub live_bytes: u64,
    /// Bytes of superseded records awaiting compaction.
    pub dead_bytes: u64,
    /// Sweeps loaded into the memory tier at startup.
    pub warmed: u64,
}

/// The server's metrics registry.
pub struct Metrics {
    endpoints: [EndpointSlot; 9],
    offered: AtomicU64,
    accepted: AtomicU64,
    rejected: AtomicU64,
    connections_closed: AtomicU64,
    connection_requests_sum: AtomicU64,
    connection_requests: Mutex<Histogram>,
    worker_panics: AtomicU64,
    dispatch_rejected: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            endpoints: std::array::from_fn(|_| EndpointSlot::new()),
            offered: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            connection_requests_sum: AtomicU64::new(0),
            connection_requests: Mutex::new(
                Histogram::with_range(0.0, CONN_REQUESTS_MAX, CONN_REQUESTS_BINS)
                    .expect("static connection-requests range is valid"),
            ),
            worker_panics: AtomicU64::new(0),
            dispatch_rejected: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records one handled request.
    pub fn record(&self, endpoint: Endpoint, status: u16, latency: Duration) {
        let slot = &self.endpoints[endpoint.index()];
        slot.requests.fetch_add(1, Ordering::Relaxed);
        if status >= 400 {
            slot.errors.fetch_add(1, Ordering::Relaxed);
        }
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        slot.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        slot.latency
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(us as f64);
    }

    /// Counts a connection the listener accepted from the OS.
    pub fn connection_offered(&self) {
        self.offered.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection handed to a worker.
    pub fn connection_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a connection rejected with `503`.
    pub fn connection_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker-handled connection closing after serving
    /// `requests` sequential requests (0 for an idle connection that
    /// never sent one).
    pub fn connection_closed(&self, requests: u64) {
        self.connections_closed.fetch_add(1, Ordering::Relaxed);
        self.connection_requests_sum
            .fetch_add(requests, Ordering::Relaxed);
        self.connection_requests
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(requests as f64);
    }

    /// Worker-handled connections that have closed.
    pub fn connections_closed(&self) -> u64 {
        self.connections_closed.load(Ordering::Relaxed)
    }

    /// Counts a request-handler panic that was caught and converted to
    /// a `500`. The pool never shrinks: a panicking route costs one
    /// response, not one worker thread.
    pub fn worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Handler panics caught so far.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Counts a request answered `503` because the bounded dispatch
    /// queue to the worker pool was full. This is request-level
    /// backpressure on an *accepted* connection — it never appears in
    /// the connection-admission ledger.
    pub fn dispatch_rejection(&self) {
        self.dispatch_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests rejected `503` on a full dispatch queue so far.
    pub fn dispatch_rejections(&self) -> u64 {
        self.dispatch_rejected.load(Ordering::Relaxed)
    }

    /// Total requests served across closed connections; together with
    /// [`Metrics::connections_closed`] this gives the mean keep-alive
    /// reuse.
    pub fn connection_requests_sum(&self) -> u64 {
        self.connection_requests_sum.load(Ordering::Relaxed)
    }

    /// A snapshot of the admission counters. Reading `offered` last keeps
    /// the conservation law intact under concurrent admissions: a
    /// connection counted in `offered` may not yet be classified, but
    /// never the reverse.
    pub fn admission(&self) -> AdmissionStats {
        let accepted = self.accepted.load(Ordering::Acquire);
        let rejected = self.rejected.load(Ordering::Acquire);
        let offered = self.offered.load(Ordering::Acquire);
        AdmissionStats {
            offered: offered.max(accepted + rejected),
            accepted,
            rejected,
        }
    }

    /// Total requests recorded for `endpoint`.
    pub fn requests(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint.index()]
            .requests
            .load(Ordering::Relaxed)
    }

    /// Total error (status >= 400) responses for `endpoint`.
    pub fn errors(&self, endpoint: Endpoint) -> u64 {
        self.endpoints[endpoint.index()]
            .errors
            .load(Ordering::Relaxed)
    }

    /// Renders the Prometheus text exposition, folding in the trace
    /// store's cache counters and, when attached, the archive and
    /// campaign-fleet gauges.
    pub fn render_prometheus(
        &self,
        stats: CacheStats,
        archive: Option<ArchiveGauges>,
        fleet: Option<FleetGauges>,
    ) -> String {
        let mut out = String::with_capacity(4096);

        out.push_str("# TYPE power_serve_requests_total counter\n");
        for ep in Endpoint::ALL {
            out.push_str(&format!(
                "power_serve_requests_total{{endpoint=\"{}\"}} {}\n",
                ep.label(),
                self.requests(ep)
            ));
        }
        out.push_str("# TYPE power_serve_errors_total counter\n");
        for ep in Endpoint::ALL {
            out.push_str(&format!(
                "power_serve_errors_total{{endpoint=\"{}\"}} {}\n",
                ep.label(),
                self.errors(ep)
            ));
        }

        let admission = self.admission();
        out.push_str("# TYPE power_serve_admission_total counter\n");
        out.push_str(&format!(
            "power_serve_admission_total{{outcome=\"offered\"}} {}\n",
            admission.offered
        ));
        out.push_str(&format!(
            "power_serve_admission_total{{outcome=\"accepted\"}} {}\n",
            admission.accepted
        ));
        out.push_str(&format!(
            "power_serve_admission_total{{outcome=\"rejected\"}} {}\n",
            admission.rejected
        ));

        out.push_str("# TYPE power_serve_store_total counter\n");
        for (outcome, value) in [
            ("hits", stats.hits),
            ("derived", stats.derived),
            ("misses", stats.misses),
            ("coalesced", stats.coalesced),
            ("evictions", stats.evictions),
            ("archive_hits", stats.archive_hits),
            ("archive_writes", stats.archive_writes),
        ] {
            out.push_str(&format!(
                "power_serve_store_total{{outcome=\"{outcome}\"}} {value}\n"
            ));
        }
        out.push_str("# TYPE power_serve_store_entries gauge\n");
        out.push_str(&format!("power_serve_store_entries {}\n", stats.entries));

        out.push_str("# TYPE power_serve_archive_pruned_queries_total counter\n");
        out.push_str(&format!(
            "power_serve_archive_pruned_queries_total {}\n",
            stats.archive_pruned_queries
        ));
        out.push_str("# TYPE power_serve_archive_blocks_skipped_total counter\n");
        out.push_str(&format!(
            "power_serve_archive_blocks_skipped_total {}\n",
            stats.blocks_skipped
        ));

        if let Some(gauges) = archive {
            out.push_str("# TYPE power_serve_archive_entries gauge\n");
            out.push_str(&format!("power_serve_archive_entries {}\n", gauges.entries));
            out.push_str("# TYPE power_serve_archive_segments gauge\n");
            out.push_str(&format!(
                "power_serve_archive_segments {}\n",
                gauges.segments
            ));
            out.push_str("# TYPE power_serve_archive_bytes gauge\n");
            out.push_str(&format!(
                "power_serve_archive_bytes{{kind=\"live\"}} {}\n",
                gauges.live_bytes
            ));
            out.push_str(&format!(
                "power_serve_archive_bytes{{kind=\"dead\"}} {}\n",
                gauges.dead_bytes
            ));
            out.push_str("# TYPE power_serve_archive_warmed gauge\n");
            out.push_str(&format!("power_serve_archive_warmed {}\n", gauges.warmed));
        }

        if let Some(fleet) = fleet {
            out.push_str("# TYPE power_serve_campaigns gauge\n");
            for (state, count) in fleet.states {
                out.push_str(&format!(
                    "power_serve_campaigns{{state=\"{state}\"}} {count}\n"
                ));
            }
            out.push_str("# TYPE power_serve_fleet_shards gauge\n");
            out.push_str(&format!("power_serve_fleet_shards {}\n", fleet.shards));
            out.push_str("# TYPE power_serve_fleet_samples_total counter\n");
            for (outcome, value) in [
                ("offered", fleet.offered),
                ("accepted", fleet.accepted),
                ("late_dropped", fleet.late_dropped),
                ("duplicates", fleet.duplicates),
                ("pending", fleet.pending),
            ] {
                out.push_str(&format!(
                    "power_serve_fleet_samples_total{{outcome=\"{outcome}\"}} {value}\n"
                ));
            }
        }

        out.push_str("# TYPE power_serve_latency_us histogram\n");
        for ep in Endpoint::ALL {
            let slot = &self.endpoints[ep.index()];
            let hist = slot.latency.lock().unwrap_or_else(|e| e.into_inner());
            let labels = format!("endpoint=\"{}\"", ep.label());
            render_histogram(
                &mut out,
                "power_serve_latency_us",
                &labels,
                &hist,
                slot.latency_sum_us.load(Ordering::Relaxed),
            );
        }

        out.push_str("# TYPE power_serve_worker_panics_total counter\n");
        out.push_str(&format!(
            "power_serve_worker_panics_total {}\n",
            self.worker_panics()
        ));
        out.push_str("# TYPE power_serve_dispatch_rejected_total counter\n");
        out.push_str(&format!(
            "power_serve_dispatch_rejected_total {}\n",
            self.dispatch_rejections()
        ));
        out.push_str("# TYPE power_serve_connections_open gauge\n");
        out.push_str(&format!(
            "power_serve_connections_open {}\n",
            admission.accepted.saturating_sub(self.connections_closed())
        ));
        out.push_str("# TYPE power_serve_connections_closed_total counter\n");
        out.push_str(&format!(
            "power_serve_connections_closed_total {}\n",
            self.connections_closed()
        ));
        out.push_str("# TYPE power_serve_connection_requests histogram\n");
        {
            let hist = self
                .connection_requests
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            render_histogram(
                &mut out,
                "power_serve_connection_requests",
                "",
                &hist,
                self.connection_requests_sum(),
            );
        }
        out
    }
}

/// Renders one Prometheus histogram: the **full declared bucket
/// ladder** (every `le`, including empty interior buckets — consumers
/// interpolate quantiles from cumulative buckets, and a missing rung
/// breaks the interpolation), then `_sum` and `_count`.
fn render_histogram(out: &mut String, name: &str, labels: &str, hist: &Histogram, sum: u64) {
    let mut cumulative = 0u64;
    for (i, count) in hist.counts().iter().enumerate() {
        cumulative += count;
        let (_, hi) = hist.bin_edges(i);
        let le = if i + 1 == hist.bins() {
            "+Inf".to_string()
        } else {
            format!("{hi:.0}")
        };
        let sep = if labels.is_empty() { "" } else { "," };
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
        ));
    }
    if labels.is_empty() {
        out.push_str(&format!("{name}_sum {sum}\n"));
        out.push_str(&format!("{name}_count {}\n", hist.total()));
    } else {
        out.push_str(&format!("{name}_sum{{{labels}}} {sum}\n"));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", hist.total()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_renders() {
        let m = Metrics::new();
        m.record(Endpoint::Measure, 200, Duration::from_micros(1500));
        m.record(Endpoint::Measure, 400, Duration::from_micros(300));
        m.record(Endpoint::Healthz, 200, Duration::from_micros(40));
        m.connection_offered();
        m.connection_accepted();
        m.connection_offered();
        m.connection_rejected();
        assert_eq!(m.requests(Endpoint::Measure), 2);
        assert_eq!(m.errors(Endpoint::Measure), 1);
        let admission = m.admission();
        assert!(admission.conserved());
        assert_eq!(admission.offered, 2);

        let page = m.render_prometheus(
            CacheStats {
                hits: 5,
                derived: 1,
                misses: 2,
                coalesced: 3,
                evictions: 0,
                archive_hits: 4,
                archive_writes: 2,
                archive_pruned_queries: 6,
                blocks_skipped: 120,
                entries: 2,
            },
            Some(ArchiveGauges {
                entries: 2,
                segments: 1,
                live_bytes: 4096,
                dead_bytes: 512,
                warmed: 2,
            }),
            Some(FleetGauges {
                states: [("live", 3), ("stopped", 5), ("exhausted", 1), ("failed", 0)],
                shards: 16,
                offered: 100,
                accepted: 98,
                late_dropped: 1,
                duplicates: 1,
                pending: 0,
            }),
        );
        assert!(page.contains("power_serve_requests_total{endpoint=\"measure\"} 2"));
        assert!(page.contains("power_serve_errors_total{endpoint=\"measure\"} 1"));
        assert!(page.contains("power_serve_admission_total{outcome=\"offered\"} 2"));
        assert!(page.contains("power_serve_store_total{outcome=\"coalesced\"} 3"));
        assert!(page.contains("power_serve_store_total{outcome=\"archive_hits\"} 4"));
        assert!(page.contains("power_serve_store_total{outcome=\"archive_writes\"} 2"));
        assert!(page.contains("power_serve_archive_pruned_queries_total 6"));
        assert!(page.contains("power_serve_archive_blocks_skipped_total 120"));
        assert!(page.contains("power_serve_archive_entries 2"));
        assert!(page.contains("power_serve_archive_segments 1"));
        assert!(page.contains("power_serve_archive_bytes{kind=\"live\"} 4096"));
        assert!(page.contains("power_serve_archive_bytes{kind=\"dead\"} 512"));
        assert!(page.contains("power_serve_archive_warmed 2"));
        assert!(page.contains("power_serve_campaigns{state=\"live\"} 3"));
        assert!(page.contains("power_serve_campaigns{state=\"failed\"} 0"));
        assert!(page.contains("power_serve_fleet_shards 16"));
        assert!(page.contains("power_serve_fleet_samples_total{outcome=\"accepted\"} 98"));
        assert!(page.contains("power_serve_latency_us_count{endpoint=\"measure\"} 2"));
        assert!(page.contains("le=\"+Inf\"} 2"));
    }

    /// Every declared `le` rung appears — including empty interior
    /// buckets — and cumulative counts are monotone non-decreasing, so
    /// Prometheus quantile interpolation has the full ladder to work on.
    #[test]
    fn histogram_emits_full_bucket_ladder_with_monotone_counts() {
        let m = Metrics::new();
        // One fast and one clamped-slow request leave many empty
        // interior buckets between them.
        m.record(Endpoint::Measure, 200, Duration::from_micros(10));
        m.record(Endpoint::Measure, 200, Duration::from_secs(10));
        let page = m.render_prometheus(CacheStats::default(), None, None);

        let prefix = "power_serve_latency_us_bucket{endpoint=\"measure\",le=\"";
        let mut rungs = 0;
        let mut previous = 0u64;
        let mut saw_inf = false;
        for line in page.lines().filter(|l| l.starts_with(prefix)) {
            rungs += 1;
            let rest = &line[prefix.len()..];
            let (le, count) = rest.split_once("\"} ").expect("bucket line shape");
            let count: u64 = count.trim().parse().expect("bucket count");
            assert!(count >= previous, "cumulative counts must not decrease");
            previous = count;
            saw_inf |= le == "+Inf";
        }
        assert_eq!(rungs, LATENCY_BINS, "every declared le must appear");
        assert!(saw_inf, "the +Inf terminator must appear");
        assert_eq!(previous, 2, "the ladder tops out at the total");
    }

    #[test]
    fn connection_counters_render() {
        let m = Metrics::new();
        m.connection_closed(9);
        m.connection_closed(0);
        assert_eq!(m.connections_closed(), 2);
        assert_eq!(m.connection_requests_sum(), 9);
        let page = m.render_prometheus(CacheStats::default(), None, None);
        assert!(page.contains("power_serve_connections_closed_total 2"));
        assert!(page.contains("power_serve_connection_requests_count 2"));
        assert!(page.contains("power_serve_connection_requests_sum 9"));
        let rungs = page
            .lines()
            .filter(|l| l.starts_with("power_serve_connection_requests_bucket{le=\""))
            .count();
        assert_eq!(rungs, CONN_REQUESTS_BINS);
    }

    #[test]
    fn panic_and_dispatch_counters_render() {
        let m = Metrics::new();
        m.worker_panic();
        m.dispatch_rejection();
        m.dispatch_rejection();
        m.connection_offered();
        m.connection_accepted();
        assert_eq!(m.worker_panics(), 1);
        assert_eq!(m.dispatch_rejections(), 2);
        let page = m.render_prometheus(CacheStats::default(), None, None);
        assert!(page.contains("power_serve_worker_panics_total 1"));
        assert!(page.contains("power_serve_dispatch_rejected_total 2"));
        assert!(page.contains("power_serve_connections_open 1"));
        m.connection_closed(4);
        let page = m.render_prometheus(CacheStats::default(), None, None);
        assert!(page.contains("power_serve_connections_open 0"));
    }

    #[test]
    fn latency_overflow_clamps_into_top_bucket() {
        let m = Metrics::new();
        m.record(Endpoint::Systems, 200, Duration::from_secs(10));
        let page = m.render_prometheus(CacheStats::default(), None, None);
        assert!(page.contains("power_serve_latency_us_count{endpoint=\"systems\"} 1"));
        assert!(page.contains("power_serve_latency_us_sum{endpoint=\"systems\"} 10000000"));
    }
}
