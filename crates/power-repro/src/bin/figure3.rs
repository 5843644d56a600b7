//! Reproduces paper Figure 3: bootstrap confidence-interval coverage.
use power_campaign::artifacts::Result;
use power_repro::{paper, render, Args, SEED};
fn main() -> Result<()> {
    let scale = Args::from_env(false).scale;
    print!("{}", render::render_figure3(&paper::figure3(&scale, SEED)?));
    Ok(())
}
