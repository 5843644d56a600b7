//! CSV artifact export.
//!
//! Every experiment can be dumped as machine-readable CSV next to the
//! terminal rendering, so downstream plotting (gnuplot, pandas) can
//! regenerate the paper's figures graphically. `all --csv <dir>` writes
//! one file per artifact.

use power_campaign::artifacts::{Figure4Row, GamingRow, Table2Row, Table4Row, TraceResult};
use power_stats::bootstrap::CoveragePoint;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes `contents` to `<dir>/<name>` (creating the directory) and
/// returns the path.
pub fn write_artifact(dir: &Path, name: &str, contents: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path)?;
    f.write_all(contents.as_bytes())?;
    Ok(path)
}

/// Table 2 rows as CSV.
pub fn table2_csv(rows: &[Table2Row]) -> String {
    let mut out = String::from(
        "system,runtime_h,core_kw,first20_kw,last20_kw,paper_core_kw,paper_first20_kw,paper_last20_kw\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.name,
            r.runtime_h,
            r.core_kw,
            r.first20_kw,
            r.last20_kw,
            r.targets.core_kw.unwrap_or(f64::NAN),
            r.targets.first20_kw.unwrap_or(f64::NAN),
            r.targets.last20_kw.unwrap_or(f64::NAN),
        ));
    }
    out
}

/// Figure 1 traces as long-format CSV (`system,t_s,watts`).
pub fn figure1_csv(traces: &[TraceResult]) -> String {
    let mut out = String::from("system,t_s,watts\n");
    for t in traces {
        for (i, &w) in t.trace.watts.iter().enumerate() {
            out.push_str(&format!("{},{},{}\n", t.name, t.trace.time_at(i), w));
        }
    }
    out
}

/// Table 4 rows as CSV.
pub fn table4_csv(rows: &[Table4Row]) -> String {
    let mut out =
        String::from("system,population,simulated,mean_w,sigma_w,cv,paper_mean_w,paper_sigma_w\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.name,
            r.targets.population,
            r.simulated_nodes,
            r.mean_w,
            r.sigma_w,
            r.cv,
            r.targets.mean_node_w.unwrap_or(f64::NAN),
            r.targets.sigma_node_w.unwrap_or(f64::NAN),
        ));
    }
    out
}

/// Figure 2 raw per-node averages as long-format CSV.
pub fn figure2_csv(rows: &[Table4Row]) -> String {
    let mut out = String::from("system,node,avg_w\n");
    for r in rows {
        for (node, &w) in r.node_averages.iter().enumerate() {
            out.push_str(&format!("{},{node},{w}\n", r.name));
        }
    }
    out
}

/// Figure 3 coverage points as CSV.
pub fn figure3_csv(points: &[CoveragePoint]) -> String {
    let mut out = String::from("n,confidence,coverage,replications\n");
    for p in points {
        out.push_str(&format!(
            "{},{},{},{}\n",
            p.n, p.confidence, p.coverage, p.replications
        ));
    }
    out
}

/// Figure 4 rows as CSV.
pub fn figure4_csv(rows: &[Figure4Row]) -> String {
    let mut out = String::from("node,vid_sum,eff_tuned,eff_default,eff_default_fan_corrected\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            r.node, r.vid_sum, r.eff_tuned, r.eff_default, r.eff_default_fan_corrected
        ));
    }
    out
}

/// Gaming rows as CSV.
pub fn gaming_csv(rows: &[GamingRow]) -> String {
    let mut out = String::from(
        "system,honest_w,l1_best_w,l1_gain,l1_spread,unrestricted_best_w,unrestricted_gain\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.name,
            r.level1.honest_w,
            r.level1.best_w,
            r.level1.gaming_gain(),
            r.level1.measurement_spread(),
            r.unrestricted.best_w,
            r.unrestricted.gaming_gain(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use power_campaign::{artifacts, Scale};

    fn tiny() -> Scale {
        Scale {
            max_nodes: 32,
            dt_scale: 32.0,
            placements: 11,
            bootstrap_reps: 50,
            bootstrap_population: 64,
        }
    }

    #[test]
    fn csv_headers_and_row_counts() {
        let scale = tiny();
        let traces = paper::traces(&scale, 5).unwrap();
        let t2 = table2_csv(&paper::table2(&traces).unwrap());
        assert!(t2.starts_with("system,"));
        assert_eq!(t2.lines().count(), 5); // header + 4 systems

        let f1 = figure1_csv(&traces);
        assert!(f1.lines().count() > 100);

        let rows = paper::table4(&scale, 5).unwrap();
        assert_eq!(table4_csv(&rows).lines().count(), 7);
        let f2 = figure2_csv(&rows);
        assert!(f2.lines().count() > 6 * 30);

        let f3 = figure3_csv(&paper::figure3(&scale, 5).unwrap());
        assert_eq!(f3.lines().count(), 22); // header + 7 n x 3 conf

        let lcsc = artifacts::LcscConfigurations::build().unwrap();
        let f4 = figure4_csv(&artifacts::figure4(&lcsc, 8).unwrap());
        assert_eq!(f4.lines().count(), 9);

        let g = gaming_csv(&paper::gaming(&scale, &traces).unwrap());
        assert_eq!(g.lines().count(), 5);
    }

    #[test]
    fn write_artifact_roundtrip() {
        let dir = std::env::temp_dir().join("hpcpower-csv-test");
        let path = write_artifact(&dir, "x.csv", "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
