//! Reproduces the Section 4 worked example: 1/64-rule accuracy disparity.
use power_campaign::artifacts::{self, Result};
use power_repro::render;
fn main() -> Result<()> {
    print!(
        "{}",
        render::render_accuracy_gap(&artifacts::accuracy_gap()?)
    );
    Ok(())
}
