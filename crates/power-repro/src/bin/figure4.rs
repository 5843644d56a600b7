//! Reproduces paper Figure 4: L-CSC per-node efficiency vs VID.
use power_campaign::artifacts::{self, LcscConfigurations, Result};
use power_repro::render;
fn main() -> Result<()> {
    print!(
        "{}",
        render::render_figure4(&artifacts::figure4(&LcscConfigurations::build()?, 56)?)
    );
    Ok(())
}
