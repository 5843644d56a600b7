//! Reproduces paper Table 4: per-node power statistics across systems.
use power_campaign::artifacts::Result;
use power_repro::{paper, render, Args, SEED};
fn main() -> Result<()> {
    let scale = Args::from_env(false).scale;
    print!("{}", render::render_table4(&paper::table4(&scale, SEED)?));
    Ok(())
}
