//! Runs every reproduction experiment in sequence (the EXPERIMENTS.md
//! generator). Pass --full for paper-fidelity scale and
//! `--csv <dir>` to also write machine-readable artifacts.
use power_campaign::artifacts::Result;
use power_repro::Args;

fn main() -> Result<()> {
    let args = Args::from_env();
    let report = power_repro::reproduce(&args.scale, args.csv.as_deref())?;
    if let Some(dir) = &args.csv {
        eprintln!("CSV artifacts written to {}", dir.display());
    }
    print!("{report}");
    Ok(())
}
