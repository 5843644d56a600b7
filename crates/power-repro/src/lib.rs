//! Experiment drivers regenerating every table and figure of the paper.
//!
//! One driver, `all` ([`reproduce`]), prints every artifact of the
//! paper's evaluation, in this order:
//!
//! | section of `all` | paper artifact |
//! |------------------|----------------|
//! | Table 1          | methodology requirements by level |
//! | Figure 1         | system power over time |
//! | Table 2          | HPL runtime & segment powers |
//! | Table 3          | test-system inventory |
//! | Figure 2         | per-node power histograms |
//! | Table 4          | per-node power statistics |
//! | accuracy gap     | §4 intro — 1/64-rule accuracy disparity |
//! | Table 5          | recommended sample sizes |
//! | Figure 3         | bootstrap CI coverage |
//! | t vs z           | §4.2 — z-quantile under-coverage |
//! | Figure 4         | L-CSC efficiency vs VID |
//! | gaming           | §3 — optimal-interval & DVFS exploits |
//! | subsystems       | Aspect 3 — subsystem overstatement |
//! | imbalance        | the balanced-workload precondition |
//! | recommendation   | §6 — the revised max(16, 10%) rule across systems |
//! | exascale         | conclusion — Eq. 5 vs the revised rule at exascale sizes |
//! | rank stability   | §1 — Green500 rank fragility |
//!
//! `--csv <dir>` also writes Figures 1–4, Tables 2 and 4 and the gaming
//! rows as CSV. The other binaries are `campaign` (scenario-file sweeps
//! with repeatability gates, `scenarios/*.json`), `live_campaign` (online
//! Table 5: streaming ingestion and sequential stopping) and `serve`
//! (the query service).
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

use power_campaign::artifacts::{self, LcscConfigurations, Result};
use power_campaign::Scale;
use std::path::Path;

/// Runs every reproduction experiment at `scale` and returns the report
/// `all` prints; with `csv`, also writes the CSV artifacts into that
/// directory.
pub fn reproduce(scale: &Scale, csv: Option<&Path>) -> Result<String> {
    let traces = paper::traces(scale, SEED)?;
    let t2 = paper::table2(&traces)?;
    let gaming = paper::gaming(scale, &traces)?;
    let t4 = paper::table4(scale, SEED)?;
    let f3 = paper::figure3(scale, SEED)?;
    let f4 = artifacts::figure4(&LcscConfigurations::build()?, 56)?;
    if let Some(dir) = csv {
        csv::write_artifact(dir, "figure1.csv", &csv::figure1_csv(&traces))?;
        csv::write_artifact(dir, "table2.csv", &csv::table2_csv(&t2))?;
        csv::write_artifact(dir, "gaming.csv", &csv::gaming_csv(&gaming))?;
        csv::write_artifact(dir, "table4.csv", &csv::table4_csv(&t4))?;
        csv::write_artifact(dir, "figure2.csv", &csv::figure2_csv(&t4))?;
        csv::write_artifact(dir, "figure3.csv", &csv::figure3_csv(&f3))?;
        csv::write_artifact(dir, "figure4.csv", &csv::figure4_csv(&f4))?;
    }
    let label = if *scale == scale::full() {
        "FULL"
    } else {
        "QUICK"
    };
    let sections = [
        format!("Reproduction run at {label} scale\n"),
        render::render_table1(),
        render::render_figure1(&traces),
        render::render_table2(&t2),
        render::render_table3(),
        render::render_figure2(&t4),
        render::render_table4(&t4),
        render::render_accuracy_gap(&artifacts::accuracy_gap()?),
        render::render_table5(&artifacts::table5()?),
        render::render_figure3(&f3),
        render::render_t_vs_z(&artifacts::t_vs_z()?),
        render::render_figure4(&f4),
        render::render_gaming(&gaming),
        render::render_subsystems(&experiments::subsystem_overstatement()),
        render::render_imbalance(&experiments::imbalance_study(scale, SEED)?),
        render::render_recommendation(&experiments::recommendation()),
        render::render_exascale(&experiments::exascale_sweep()),
        render::render_rank_stability(&experiments::rank_stability_sweep(scale, SEED)),
    ];
    Ok(sections.map(|s| s + "\n").concat())
}
