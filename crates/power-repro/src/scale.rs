//! Run-scale selection and the drivers' flag parser.
//!
//! Full-fidelity reproduction simulates machines up to 122 880 nodes and
//! runs 100 000 bootstrap replications; the quick scale keeps every
//! experiment's *shape* while completing in seconds. Binaries accept
//! `--quick` / `--full` (quick is the default; the paper-fidelity numbers
//! in EXPERIMENTS.md come from `--full`), and `all` also takes
//! `--csv <dir>`. Any other argument is a usage error.

use power_campaign::Scale;
use std::path::PathBuf;

/// Base RNG seed of every driver, at both scales.
pub const SEED: u64 = 20_150_715;

/// Paper-fidelity scale.
pub fn full() -> Scale {
    Scale {
        max_nodes: usize::MAX,
        dt_scale: 1.0,
        placements: 501,
        bootstrap_reps: 100_000,
        bootstrap_population: 9_216,
    }
}

/// Seconds-not-minutes scale for CI and demos.
pub fn quick() -> Scale {
    Scale {
        max_nodes: 512,
        dt_scale: 4.0,
        placements: 101,
        bootstrap_reps: 5_000,
        bootstrap_population: 2_048,
    }
}

/// A driver's parsed flags.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--quick` (the default) or `--full`.
    pub scale: Scale,
    /// `--csv <dir>`: where to write machine-readable artifacts.
    pub csv: Option<PathBuf>,
}

impl Args {
    /// Parses `--quick` / `--full` and, if `csv` is set, `--csv <dir>`.
    pub fn parse<I: IntoIterator<Item = String>>(args: I, csv: bool) -> Result<Args, String> {
        let mut out = Args {
            scale: quick(),
            csv: None,
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => out.scale = quick(),
                "--full" => out.scale = full(),
                "--csv" if csv => match args.next() {
                    Some(dir) if !dir.starts_with('-') => out.csv = Some(PathBuf::from(dir)),
                    _ => return Err("--csv needs a directory".into()),
                },
                _ => return Err(format!("unexpected argument {arg:?}")),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments, `--csv <dir>` included, exiting
    /// through [`usage`] on an error.
    pub fn from_env() -> Args {
        Args::parse(std::env::args().skip(1), true).unwrap_or_else(|e| usage(&e, " [--csv <dir>]"))
    }
}

/// Prints `err` and the driver's usage line (the scale flags, then
/// `extra`), then exits with status 2.
pub fn usage(err: &str, extra: &str) -> ! {
    let bin = std::env::args().next().unwrap_or_default();
    eprintln!("{bin}: {err}");
    eprintln!("usage: {bin} [--quick | --full]{extra}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], csv: bool) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()), csv)
    }

    #[test]
    fn accepts_scale_flags() {
        assert_eq!(parse(&[], false).unwrap().scale, quick());
        assert_eq!(parse(&["--quick"], false).unwrap().scale, quick());
        assert_eq!(parse(&["--full"], false).unwrap().scale, full());
        assert_eq!(parse(&["--full"], true).unwrap().csv, None);
    }

    #[test]
    fn accepts_csv_dir_only_where_allowed() {
        let a = parse(&["--full", "--csv", "out/dir"], true).unwrap();
        assert_eq!(a.scale, full());
        assert_eq!(a.csv, Some(PathBuf::from("out/dir")));
        let a = parse(&["--csv", "d"], true).unwrap();
        assert_eq!((a.scale, a.csv), (quick(), Some(PathBuf::from("d"))));
        assert!(parse(&["--csv", "d"], false).is_err());
    }

    #[test]
    fn rejects_misspelt_flags() {
        let e = parse(&["--ful"], false).unwrap_err();
        assert!(e.contains("--ful"), "{e}");
        assert!(parse(&["--ful"], true).is_err());
        assert!(parse(&["--full", "other"], false).is_err());
    }

    #[test]
    fn rejects_csv_without_dir() {
        assert!(parse(&["--csv"], true).is_err());
        assert!(parse(&["--csv", "--full"], true).is_err());
    }

    #[test]
    fn clamping() {
        let q = quick();
        assert_eq!(q.clamp_nodes(122_880), 512);
        assert_eq!(q.clamp_nodes(100), 100);
        let f = full();
        assert_eq!(f.clamp_nodes(122_880), 122_880);
    }

    #[test]
    fn dt_floors_at_one_second() {
        let f = full();
        assert_eq!(f.dt_for_core(100.0), 1.0);
        assert!((f.dt_for_core(100_800.0) - 50.4).abs() < 1e-9);
        let q = quick();
        assert!((q.dt_for_core(100_800.0) - 201.6).abs() < 1e-9);
    }
}
