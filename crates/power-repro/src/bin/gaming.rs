//! Reproduces the Section 3 gaming analyses: optimal-interval selection.
use power_campaign::artifacts::Result;
use power_repro::{paper, render, Args, SEED};
fn main() -> Result<()> {
    let scale = Args::from_env(false).scale;
    let traces = paper::traces(&scale, SEED)?;
    print!(
        "{}",
        render::render_gaming(&paper::gaming(&scale, &traces)?)
    );
    Ok(())
}
