//! Reproduces paper Figure 2: per-node power histograms.
use power_campaign::artifacts::Result;
use power_repro::{paper, render, Args, SEED};
fn main() -> Result<()> {
    let scale = Args::from_env(false).scale;
    print!("{}", render::render_figure2(&paper::table4(&scale, SEED)?));
    Ok(())
}
