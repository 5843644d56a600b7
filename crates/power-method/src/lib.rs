//! The EE HPC WG power measurement methodology — the paper's core subject.
//!
//! This crate implements the methodology the Green500 and Top500 use to
//! accept power measurements, exactly as summarized in the paper's Table 1,
//! plus the paper's proposed revision and the adversarial analyses that
//! motivated it:
//!
//! * [`level`] — the three quality levels and the revised requirements:
//!   measurement granularity, timing, machine fraction, subsystems, and
//!   point of measurement;
//! * [`window`] — timing rules: Level 1's "the longer of one minute or 20%
//!   of the middle 80% of the core phase", Level 2's ten equally spaced
//!   averages, Level 3's continuous full-run coverage, and the revised
//!   full-core-phase rule;
//! * [`fraction`] — machine-fraction rules: 1/64 & 2 kW (L1), 1/8 & 10 kW
//!   (L2), everything (L3), and the revised `max(16 nodes, 10%)`;
//! * [`measure`] — executing a measurement plan against a simulated
//!   machine: node selection, metering, window averaging, linear
//!   extrapolation, FLOPS/W;
//! * [`extrapolate`] — subset-to-full-system estimates with the accuracy
//!   assessment (confidence intervals) the paper recommends every
//!   submission include;
//! * [`capcov`] — Eq. 5 sample sizing under accelerator power caps,
//!   where the cap converts power spread into runtime/energy spread
//!   that power-CV-based sizing never sees;
//! * [`gaming`] — the exploits: optimal-interval selection (TSUBAME-KFC
//!   −10.9%, L-CSC −23.9%), DVFS-phase timing, and low-VID node
//!   cherry-picking;
//! * [`validate`] — submission checking: does a claimed measurement
//!   actually satisfy its level's rules?
//! * [`report`] — submission records.

#![warn(missing_docs)]
// `!(a > b)` comparisons are deliberate throughout: unlike `a <= b` they
// are true for NaN inputs, so malformed windows/parameters are rejected
// instead of silently accepted.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod capcov;
pub mod conversion;
pub mod extrapolate;
pub mod fraction;
pub mod gaming;
pub mod level;
pub mod measure;
pub mod provisioning;
pub mod report;
pub mod subsystems;
pub mod validate;
pub mod window;

pub use capcov::{
    capped_sizing_study, eq5_coverage, eq5_coverage_cross, runtime_aware_required_nodes,
    CapCoverageConfig, CapSizingStudy, CoverageOutcome,
};
pub use extrapolate::ExtrapolationReport;
pub use fraction::FractionRule;
pub use level::{Methodology, MethodologySpec};
pub use measure::{
    measure_with_store, Measurement, MeasurementPlan, NodeSelection, WindowPlacement,
};
pub use report::Submission;
pub use subsystems::SubsystemOverheads;
pub use window::TimingRule;

/// Errors produced by methodology operations.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodError {
    /// Configuration out of range.
    InvalidConfig {
        /// Offending field.
        field: &'static str,
        /// Violated constraint.
        reason: &'static str,
    },
    /// An underlying simulation error.
    Sim(power_sim::SimError),
    /// An underlying metering error.
    Meter(power_meter::MeterError),
    /// An underlying statistics error.
    Stats(power_stats::StatsError),
}

impl std::fmt::Display for MethodError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MethodError::InvalidConfig { field, reason } => {
                write!(f, "invalid methodology config `{field}`: {reason}")
            }
            MethodError::Sim(e) => write!(f, "simulation error: {e}"),
            MethodError::Meter(e) => write!(f, "metering error: {e}"),
            MethodError::Stats(e) => write!(f, "statistics error: {e}"),
        }
    }
}

impl std::error::Error for MethodError {}

impl From<power_sim::SimError> for MethodError {
    fn from(e: power_sim::SimError) -> Self {
        MethodError::Sim(e)
    }
}

impl From<power_meter::MeterError> for MethodError {
    fn from(e: power_meter::MeterError) -> Self {
        MethodError::Meter(e)
    }
}

impl From<power_stats::StatsError> for MethodError {
    fn from(e: power_stats::StatsError) -> Self {
        MethodError::Stats(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MethodError>;
