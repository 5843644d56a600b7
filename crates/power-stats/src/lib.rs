//! Statistics substrate for large-scale power-measurement analysis.
//!
//! This crate implements, from scratch, every piece of statistical machinery
//! used by the SC '15 study *Node Variability in Large-Scale Power
//! Measurements* (Scogland et al.):
//!
//! * special functions ([`special`]): log-gamma, error function, regularized
//!   incomplete gamma and beta functions;
//! * the normal ([`normal`]) and Student-t ([`student_t`]) distributions with
//!   accurate CDFs and quantile functions;
//! * streaming summary statistics ([`summary`]) via Welford's algorithm;
//! * confidence intervals for a mean ([`ci`]) — the paper's Equations 1 and 2;
//! * sample-size determination ([`sample_size`]) — the paper's Equations 4
//!   and 5 including the finite-population correction, plus the conservative
//!   Chernoff–Hoeffding baseline of Davis et al. that the paper compares
//!   against;
//! * node-subset selection ([`sampling`]): without-replacement, stratified
//!   and systematic sampling;
//! * bootstrap re-sampling and the confidence-interval coverage simulation
//!   ([`bootstrap`]) behind the paper's Figure 3;
//! * histograms ([`histogram`]) for Figure 2, empirical distributions
//!   ([`empirical`]) and normality diagnostics ([`normality`]);
//! * the workspace's one stable hash, FNV-1a ([`hash`]).
//!
//! Everything is deterministic when seeded: all randomized routines take an
//! explicit [`rand::Rng`], and [`rng`] provides seed-derivation helpers so
//! that parallel simulations stay reproducible.
//!
//! # Quick example
//!
//! ```
//! use power_stats::sample_size::SampleSizePlan;
//!
//! // Paper Table 5: lambda = 1%, sigma/mu = 2%, N = 10_000 => n = 16.
//! let plan = SampleSizePlan::new(0.95, 0.01, 0.02).unwrap();
//! assert_eq!(plan.required_nodes(10_000).unwrap(), 16);
//! ```

#![warn(missing_docs)]
// `!(a > b)` comparisons are deliberate throughout: unlike `a <= b` they
// are true for NaN inputs, so malformed windows/parameters are rejected
// instead of silently accepted.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod anderson_darling;
pub mod bootstrap;
pub mod ci;
pub mod empirical;
pub mod hash;
pub mod histogram;
pub mod normal;
pub mod normality;
pub mod rng;
pub mod sample_size;
pub mod sampling;
pub mod special;
pub mod stratified;
pub mod student_t;
pub mod summary;

pub use ci::{mean_ci_t, mean_ci_z, ConfidenceInterval};
pub use normal::Normal;
pub use sample_size::SampleSizePlan;
pub use student_t::StudentT;
pub use summary::Summary;

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A parameter was outside its mathematical domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// Not enough observations to compute the requested statistic.
    InsufficientData {
        /// Number of observations required.
        needed: usize,
        /// Number of observations available.
        got: usize,
    },
    /// More observations than a distribution can index.
    TooManyObservations {
        /// The largest number of observations accepted.
        max: usize,
        /// Number of observations given.
        got: usize,
    },
    /// An iterative numerical routine failed to converge.
    NoConvergence {
        /// Name of the routine.
        routine: &'static str,
    },
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
            StatsError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
            StatsError::TooManyObservations { max, got } => {
                write!(f, "too many observations: at most {max}, got {got}")
            }
            StatsError::NoConvergence { routine } => {
                write!(f, "numerical routine `{routine}` failed to converge")
            }
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
