//! Reproduces the Section 1 motivation: Green500 rank fragility.
use power_repro::{experiments, render, Args, SEED};
fn main() {
    let scale = Args::from_env(false).scale;
    print!(
        "{}",
        render::render_rank_stability(&experiments::rank_stability_sweep(&scale, SEED))
    );
}
