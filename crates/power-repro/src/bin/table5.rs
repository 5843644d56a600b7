//! Reproduces paper Table 5: recommended sample sizes (exact match).
use power_campaign::artifacts::{self, Result};
use power_repro::render;
fn main() -> Result<()> {
    print!("{}", render::render_table5(&artifacts::table5()?));
    Ok(())
}
