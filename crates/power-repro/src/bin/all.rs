//! Runs every reproduction experiment in sequence (the EXPERIMENTS.md
//! generator). Pass --full for paper-fidelity scale and
//! `--csv <dir>` to also write machine-readable artifacts.
use power_campaign::artifacts::{self, LcscConfigurations, Result};
use power_repro::{csv, experiments, paper, render, scale, Args, SEED};

fn main() -> Result<()> {
    let args = Args::from_env(true);
    let scale = args.scale;
    println!(
        "Reproduction run at {} scale\n",
        if scale == scale::full() {
            "FULL"
        } else {
            "QUICK"
        }
    );
    println!("{}", render::render_table1());
    let traces = paper::traces(&scale, SEED)?;
    let t2 = paper::table2(&traces)?;
    let gaming = paper::gaming(&scale, &traces)?;
    let t4 = paper::table4(&scale, SEED)?;
    let f3 = paper::figure3(&scale, SEED)?;
    let f4 = artifacts::figure4(&LcscConfigurations::build()?, 56)?;
    if let Some(dir) = &args.csv {
        csv::write_artifact(dir, "figure1.csv", &csv::figure1_csv(&traces))?;
        csv::write_artifact(dir, "table2.csv", &csv::table2_csv(&t2))?;
        csv::write_artifact(dir, "gaming.csv", &csv::gaming_csv(&gaming))?;
        csv::write_artifact(dir, "table4.csv", &csv::table4_csv(&t4))?;
        csv::write_artifact(dir, "figure2.csv", &csv::figure2_csv(&t4))?;
        csv::write_artifact(dir, "figure3.csv", &csv::figure3_csv(&f3))?;
        csv::write_artifact(dir, "figure4.csv", &csv::figure4_csv(&f4))?;
        eprintln!("CSV artifacts written to {}", dir.display());
    }
    println!("{}", render::render_figure1(&traces));
    println!("{}", render::render_table2(&t2));
    println!("{}", render::render_table3());
    println!("{}", render::render_figure2(&t4));
    println!("{}", render::render_table4(&t4));
    println!(
        "{}",
        render::render_accuracy_gap(&artifacts::accuracy_gap()?)
    );
    println!("{}", render::render_table5(&artifacts::table5()?));
    println!("{}", render::render_figure3(&f3));
    println!("{}", render::render_t_vs_z(&artifacts::t_vs_z()?));
    println!("{}", render::render_figure4(&f4));
    println!("{}", render::render_gaming(&gaming));
    println!(
        "{}",
        render::render_subsystems(&experiments::subsystem_overstatement())
    );
    println!(
        "{}",
        render::render_imbalance(&experiments::imbalance_study(&scale, SEED)?)
    );
    println!(
        "{}",
        render::render_recommendation(&experiments::recommendation())
    );
    println!(
        "{}",
        render::render_exascale(&experiments::exascale_sweep())
    );
    println!(
        "{}",
        render::render_rank_stability(&experiments::rank_stability_sweep(&scale, SEED))
    );
    Ok(())
}
