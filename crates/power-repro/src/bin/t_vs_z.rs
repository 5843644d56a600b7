//! Reproduces the Section 4.2 t-vs-z under-coverage analysis.
use power_campaign::artifacts::{self, Result};
use power_repro::render;
fn main() -> Result<()> {
    print!("{}", render::render_t_vs_z(&artifacts::t_vs_z()?));
    Ok(())
}
