//! Fleet-scale campaign multiplexing: a whole Top500-style list
//! measured concurrently on one ingest plane.
//!
//! The paper's central object is a *list*: hundreds of machines
//! measured under different methodology levels and ranked by energy
//! efficiency with quantified uncertainty. `power_telemetry::live`
//! drives exactly one campaign through one watermark; this crate is
//! the layer that runs thousands at once:
//!
//! * [`spec`] — what one submission measures: a deterministic synthetic
//!   machine (Gaussian node population, relative-noise meter) plus the
//!   stopping rule that decides when it has been measured well enough;
//! * [`fleet`] — the scheduler: campaigns partitioned across shards of
//!   a [`power_telemetry::plane::IngestPlane`], advanced lockstep
//!   round-robin (one node per live campaign per pass — the fairness
//!   contract), each node's finalized window average feeding that
//!   campaign's [`power_telemetry::SequentialEstimator`];
//! * durability — [`Fleet::open`] journals every campaign's `(node,
//!   average)` pairs into one [`power_telemetry::FleetJournal`] (e.g.
//!   `power_archive::FleetWal`), so a killed fleet resumes every
//!   in-flight campaign at its watermark;
//! * [`leaderboard`] — the live ranking: GFLOPS/W with confidence
//!   intervals mapped exactly from the power CI, tagged by methodology
//!   level.

#![warn(missing_docs)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod fleet;
pub mod leaderboard;
pub mod spec;

pub use fleet::{CampaignState, CampaignStatus, Fleet, FleetConfig, FleetDriver};
pub use leaderboard::LeaderboardRow;
pub use spec::FleetCampaignSpec;

/// Errors produced by the fleet subsystem.
#[derive(Debug)]
pub enum FleetError {
    /// A campaign spec field was out of range.
    InvalidSpec {
        /// Offending field.
        field: &'static str,
        /// Violated constraint.
        reason: &'static str,
    },
    /// The fleet is at its configured campaign capacity.
    Capacity {
        /// The configured ceiling.
        max_campaigns: u64,
    },
    /// A campaign id is not (or no longer) present.
    UnknownCampaign {
        /// The id that failed to resolve.
        id: u64,
    },
    /// The fleet journal failed or disagrees with the fleet replaying
    /// it.
    Journal(String),
    /// An underlying telemetry call failed.
    Telemetry(power_telemetry::TelemetryError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::InvalidSpec { field, reason } => {
                write!(f, "invalid campaign spec `{field}`: {reason}")
            }
            FleetError::Capacity { max_campaigns } => {
                write!(f, "fleet is at capacity ({max_campaigns} campaigns)")
            }
            FleetError::UnknownCampaign { id } => write!(f, "campaign {id} is not registered"),
            FleetError::Journal(what) => write!(f, "fleet journal error: {what}"),
            FleetError::Telemetry(e) => write!(f, "telemetry error: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Telemetry(e) => Some(e),
            _ => None,
        }
    }
}

/// A journal failure (the journal contract lives in `power_telemetry`)
/// is a [`FleetError::Journal`] with the journal's own text.
impl From<power_telemetry::TelemetryError> for FleetError {
    fn from(e: power_telemetry::TelemetryError) -> Self {
        match e {
            power_telemetry::TelemetryError::Journal(what) => FleetError::Journal(what),
            other => FleetError::Telemetry(other),
        }
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FleetError>;
