//! Streaming power telemetry and online estimation.
//!
//! The batch pipeline (`power-sim` → `power-meter` → `power-method`)
//! answers the paper's questions *after the fact*: simulate a full run,
//! then measure it. Real measurement campaigns are live — samples arrive
//! one at a time, out of order, from many collectors at once, and the
//! operator wants to know *while the run is in flight* whether enough
//! nodes have been metered to hit a target accuracy. This crate is that
//! live half:
//!
//! * [`ring`] — fixed-capacity per-node ring buffers with the same
//!   Neumaier-compensated prefix sums as `power_sim::trace`, giving O(1)
//!   sliding-window averages and energies over the retained horizon;
//! * [`ingest`] — the one sample-ingest path, [`Collector::ingest`],
//!   with watermarks: bounded reordering of late samples, gap fill for
//!   dropped ones, and explicit drop accounting (nothing is lost
//!   silently);
//! * [`online`] — per-node and fleet-level Welford state feeding a
//!   sequential stopping rule: recompute the paper's Eq. 1–2 confidence
//!   interval after every accepted node and stop as soon as the
//!   half-width reaches the target λ — the online analogue of Table 5;
//! * [`anomaly`] — streaming detectors for the fault taxonomy of
//!   `power_meter::faults`: drift (windowed mean slope), stuck registers
//!   (run length), dropped samples (watermark gaps);
//! * [`runtime`] — the one campaign state machine,
//!   [`CampaignRuntime`], generic over the campaign's node source: it
//!   meters, journals, resumes and stops a campaign for the fleet and
//!   the live driver alike;
//! * [`live`] — a live-campaign driver that feeds `power-sim` engine
//!   output through sampling meters sample-by-sample and stops the
//!   campaign with a defensible accuracy statement;
//! * [`journal`] — the one campaign journal contract: a log of
//!   per-campaign `(node, average)` records that the fleet multiplexes
//!   and a live campaign writes as a fleet of one, replayed through
//!   [`online::replay_nodes`] on resume;
//! * [`plane`] — a sharded multi-campaign ingestion fabric: campaigns
//!   are partitioned across independently locked shards so thousands of
//!   concurrent campaigns share one sample plane without a global
//!   watermark bottleneck, with per-shard conservation accounting that
//!   sums exactly to the plane totals.

#![warn(missing_docs)]
// `!(a > b)` comparisons are deliberate throughout: unlike `a <= b` they
// are true for NaN inputs, so malformed windows/parameters are rejected
// instead of silently accepted.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod anomaly;
pub mod ingest;
pub mod journal;
pub mod live;
pub mod online;
pub mod plane;
pub mod ring;
pub mod runtime;

pub use anomaly::{AnomalyEvent, AnomalyKind, AnomalyMonitor, DetectorConfig};
pub use ingest::{Collector, IngestConfig, IngestStats, Sample};
pub use journal::{CampaignReplay, FleetJournal, MemJournal};
pub use live::{
    campaign_fingerprint, run_live_campaign, run_live_campaign_journaled, LiveCampaignConfig,
    LiveCampaignReport, LIVE_CAMPAIGN_ID,
};
pub use online::{CiQuantile, CvAssumption, Decision, SequentialEstimator, StoppingRule};
pub use plane::{IngestPlane, PlaneConfig, PlaneStats, ShardStats};
pub use ring::RingBuffer;
pub use runtime::{CampaignLog, CampaignRuntime, CampaignSource, CampaignState, Plan};

/// Errors produced by the telemetry subsystem.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryError {
    /// A configuration value was out of range.
    InvalidConfig {
        /// Offending field.
        field: &'static str,
        /// Violated constraint.
        reason: &'static str,
    },
    /// A window query did not overlap any retained samples.
    EmptyWindow,
    /// The queried span has been evicted from the ring's retained horizon.
    Evicted {
        /// Oldest sequence number still retained.
        oldest_retained: u64,
    },
    /// An underlying statistics call failed.
    Stats(power_stats::StatsError),
    /// An underlying simulation call failed.
    Sim(power_sim::SimError),
    /// An underlying metering call failed.
    Meter(power_meter::MeterError),
    /// A campaign journal failed or disagrees with the campaign it is
    /// being replayed into (wrong identity or campaign id, out-of-order
    /// nodes, nodes past the budget or the stopping decision, I/O).
    Journal(String),
    /// A campaign journal was written under another model revision
    /// (`power_sim::store::SIMULATION_KEY_EPOCH`), whose averages must not
    /// mix with this build's.
    ModelRevision {
        /// The revision the journal was written under.
        journal: u32,
        /// This build's revision.
        current: u32,
    },
}

impl std::fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TelemetryError::InvalidConfig { field, reason } => {
                write!(f, "invalid telemetry config `{field}`: {reason}")
            }
            TelemetryError::EmptyWindow => write!(f, "window overlaps no retained samples"),
            TelemetryError::Evicted { oldest_retained } => write!(
                f,
                "span evicted from ring (oldest retained seq = {oldest_retained})"
            ),
            TelemetryError::Stats(e) => write!(f, "stats error: {e}"),
            TelemetryError::Sim(e) => write!(f, "simulation error: {e}"),
            TelemetryError::Meter(e) => write!(f, "meter error: {e}"),
            TelemetryError::Journal(what) => write!(f, "campaign journal error: {what}"),
            TelemetryError::ModelRevision { journal, current } => write!(
                f,
                "campaign journal was written under model revision {journal}, \
                 and this build is model revision {current}"
            ),
        }
    }
}

impl std::error::Error for TelemetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TelemetryError::Stats(e) => Some(e),
            TelemetryError::Sim(e) => Some(e),
            TelemetryError::Meter(e) => Some(e),
            _ => None,
        }
    }
}

impl From<power_stats::StatsError> for TelemetryError {
    fn from(e: power_stats::StatsError) -> Self {
        TelemetryError::Stats(e)
    }
}

impl From<power_sim::SimError> for TelemetryError {
    fn from(e: power_sim::SimError) -> Self {
        TelemetryError::Sim(e)
    }
}

impl From<power_meter::MeterError> for TelemetryError {
    fn from(e: power_meter::MeterError) -> Self {
        TelemetryError::Meter(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TelemetryError>;
