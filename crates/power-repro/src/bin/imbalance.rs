//! Reproduces the balanced-workload precondition study: where the paper's
//! normal-theory sample sizing breaks (Davis et al.'s data-intensive regime).
use power_campaign::artifacts::Result;
use power_repro::{experiments, render, Args, SEED};
fn main() -> Result<()> {
    let scale = Args::from_env(false).scale;
    print!(
        "{}",
        render::render_imbalance(&experiments::imbalance_study(&scale, SEED)?)
    );
    Ok(())
}
