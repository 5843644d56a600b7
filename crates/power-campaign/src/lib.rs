//! `power-campaign`: a scenario-file sweep engine with multi-seed
//! parallelism and repeatability gates.
//!
//! A JSON *scenario file* declares a named experiment campaign: one or
//! more grids (systems × workloads × meters × methodologies × window
//! placements), a seed policy, scale knobs and a set of `expect` blocks.
//! The engine expands every grid into its full cross product of *cells*,
//! runs each cell once per seed on a work-stealing thread pool (sharing
//! the process-wide [`power_sim::store::TraceStore`] sweep memo), streams
//! per-seed metric rows to per-cell CSV files, folds them into a
//! cross-seed `summary.json` with mean/σ/min/max variance bands
//! (Neumaier-compensated accumulation), and finally evaluates the
//! repeatability gates.
//!
//! The module layering mirrors the run pipeline:
//!
//! * [`scenario`] — the schema: parse a scenario file into [`Scenario`]
//!   (grids, seeds, scale, expectations) with total error reporting;
//! * [`grid`] — cross-product expansion of grids into [`grid::Cell`]s,
//!   duplicate-free and in a deterministic order;
//! * [`probe`] — the computations a cell can run, keyed by the
//!   `methodologies` dimension: the four EE HPC WG measurement levels
//!   plus the paper-artifact probes (`trace`, `nodes`, `samplesize`,
//!   `gaming`, `coverage`, `vid`, `accuracy_gap`, `t_vs_z`);
//! * [`artifacts`] — the typed computations behind the paper-artifact
//!   probes, shared with `power-repro`'s drivers;
//! * [`pool`] — the work-stealing pool that executes (cell, seed) tasks;
//! * [`summary`] — per-metric cross-seed variance bands;
//! * [`gate`] — `expect` evaluation: absolute value ± band, interval
//!   bounds, and max cross-seed delta;
//! * [`engine`] — orchestration: expand → schedule → write CSV →
//!   summarize → gate, producing a [`engine::CampaignReport`].
//!
//! Determinism is a hard contract: the same scenario and seed list
//! produce bitwise-identical per-seed CSV files and `summary.json`
//! regardless of `--threads`. Parallel results land in per-task slots,
//! all files are written sequentially in expansion order, cross-seed
//! folds run in seed order, and every probe derives its RNG streams from
//! the (cell identity, seed) pair rather than from scheduling order.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod artifacts;
pub mod engine;
pub mod gate;
pub mod grid;
pub mod pool;
pub mod probe;
pub mod scenario;
pub mod summary;

pub use engine::{
    run_campaign, run_campaign_with_store, CampaignError, CampaignReport, CellResult,
};
pub use gate::{GateOutcome, GateResult};
pub use grid::Cell;
pub use scenario::{Expect, GridSpec, Scale, Scenario, ScenarioError};
pub use summary::Band;
