//! Reproduces paper Table 2: HPL runtime and segment powers.
use power_campaign::artifacts::Result;
use power_repro::{paper, render, Args, SEED};
fn main() -> Result<()> {
    let scale = Args::from_env(false).scale;
    let traces = paper::traces(&scale, SEED)?;
    print!("{}", render::render_table2(&paper::table2(&traces)?));
    Ok(())
}
