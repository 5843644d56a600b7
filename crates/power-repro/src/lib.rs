//! Experiment drivers regenerating every table and figure of the paper.
//!
//! Each `bin/` target reproduces one artifact of the paper's evaluation:
//!
//! | binary          | paper artifact |
//! |-----------------|----------------|
//! | `table1`        | Table 1 — methodology requirements by level |
//! | `table2`        | Table 2 — HPL runtime & segment powers |
//! | `table3`        | Table 3 — test-system inventory |
//! | `table4`        | Table 4 — per-node power statistics |
//! | `table5`        | Table 5 — recommended sample sizes |
//! | `figure1`       | Figure 1 — system power over time |
//! | `figure2`       | Figure 2 — per-node power histograms |
//! | `figure3`       | Figure 3 — bootstrap CI coverage |
//! | `figure4`       | Figure 4 — L-CSC efficiency vs VID |
//! | `gaming`        | §3 — optimal-interval & DVFS exploits |
//! | `accuracy_gap`  | §4 intro — 1/64-rule accuracy disparity |
//! | `t_vs_z`        | §4.2 — z-quantile under-coverage |
//! | `recommendation`| §6 — the revised max(16, 10%) rule across systems |
//! | `rank_stability`| §1 — Green500 rank fragility |
//! | `live_campaign` | online Table 5 — streaming ingestion + sequential stopping |
//! | `campaign`      | scenario-file sweeps with repeatability gates (`scenarios/*.json`) |
//! | `all`           | everything above in sequence |
//!
//! The tables and figures are computed by
//! [`power_campaign::artifacts`], the same functions behind the
//! campaign probes. This crate adds the drivers' seed policy over the
//! paper's systems ([`paper`]), the five experiments that have no
//! probe ([`experiments`]), renderers for terminals ([`render`],
//! [`plot`], [`table`]) and CSV ([`csv`]), and the `--quick` / `--full`
//! flag parser ([`scale`]).

#![warn(missing_docs)]

pub mod csv;
pub mod experiments;
pub mod paper;
pub mod plot;
pub mod render;
pub mod scale;
pub mod table;

pub use scale::{Args, SEED};
