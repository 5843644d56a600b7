//! Reproduces paper Figure 1: system power over time for four HPL runs.
use power_campaign::artifacts::Result;
use power_repro::{paper, render, Args, SEED};
fn main() -> Result<()> {
    let scale = Args::from_env(false).scale;
    print!("{}", render::render_figure1(&paper::traces(&scale, SEED)?));
    Ok(())
}
