//! Rendering experiment results as terminal tables and plots, with
//! paper-vs-reproduced columns. Shared by every `bin/` driver.

use crate::experiments::{ExascaleCell, ImbalanceStudy, RecommendationRow, SubsystemRow};
use crate::plot::{downsample, line_plot, Series};
use crate::table::{kw, pct, TextTable};
use power_campaign::artifacts::{
    AccuracyGap, Figure4Row, GamingRow, Table2Row, Table4Row, TraceResult, TvsZRow,
};
use power_green500::perturb::RankStability;
use power_method::level::Methodology;
use power_sim::systems::SystemPreset;
use power_stats::bootstrap::CoveragePoint;
use power_stats::sample_size::TableCell;

/// Renders Table 1: the methodology requirement matrix.
pub fn render_table1() -> String {
    let mut t = TextTable::new(["Aspect", "Level 1", "Level 2", "Level 3", "Revised (SC'15)"]);
    t.row([
        "1a: Granularity",
        "1 sample/s",
        "1 sample/s",
        "integrated energy",
        "1 sample/s",
    ]);
    t.row([
        "1b: Timing",
        "max(1 min, 20% of middle 80%)",
        "10 equally spaced averages",
        "full run",
        "full core phase",
    ]);
    t.row([
        "2: Machine fraction",
        "max(1/64, 2 kW)",
        "max(1/8, 10 kW)",
        "whole system",
        "max(16 nodes, 10%)",
    ]);
    t.row([
        "3: Subsystems",
        "compute only",
        "all (measured or estimated)",
        "all measured",
        "compute only",
    ]);
    t.row([
        "4: Measurement point",
        "upstream or manufacturer data",
        "upstream or off-line",
        "upstream or simultaneous",
        "upstream or manufacturer data",
    ]);
    t.row(["Accuracy assessment", "-", "-", "-", "required"]);
    let mut out = String::from("== Table 1: EE HPC WG methodology requirements ==\n");
    out.push_str(&t.render());
    // Sanity: render from the typed specs too.
    for m in Methodology::all() {
        let spec = m.spec();
        out.push_str(&format!(
            "  {m}: covers_full_core={} accuracy_required={}\n",
            spec.timing.covers_full_core(),
            spec.requires_accuracy_assessment
        ));
    }
    out
}

/// Renders Table 2 with paper-vs-reproduced columns.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut t = TextTable::new([
        "System",
        "Runtime (h)",
        "Core (kW)",
        "First 20% (kW)",
        "Last 20% (kW)",
        "Paper core",
        "Paper first",
        "Paper last",
        "d(first%)",
        "d(last%)",
    ]);
    for r in rows {
        let p = r.targets;
        let f_ratio = r.first20_kw / r.core_kw;
        let l_ratio = r.last20_kw / r.core_kw;
        let pf = p.first20_kw.unwrap() / p.core_kw.unwrap();
        let pl = p.last20_kw.unwrap() / p.core_kw.unwrap();
        t.row([
            r.name.to_string(),
            format!("{:.1}", r.runtime_h),
            format!("{:.1}", r.core_kw),
            format!("{:.1}", r.first20_kw),
            format!("{:.1}", r.last20_kw),
            format!("{:.1}", p.core_kw.unwrap()),
            format!("{:.1}", p.first20_kw.unwrap()),
            format!("{:.1}", p.last20_kw.unwrap()),
            pct(f_ratio - pf),
            pct(l_ratio - pl),
        ]);
    }
    format!(
        "== Table 2: HPL runtime and segment power (reproduced vs paper) ==\n{}",
        t.render()
    )
}

/// Renders Table 3: the test-system inventory, from the presets.
pub fn render_table3() -> String {
    let mut t = TextTable::new([
        "System",
        "Nodes (N)",
        "Components measured",
        "Sockets/node",
        "Workload",
        "Meter scope",
    ]);
    for p in SystemPreset::variability_presets() {
        t.row([
            p.name.to_string(),
            p.targets.population.to_string(),
            p.measured_nodes.to_string(),
            p.cluster_spec.node.processors.len().to_string(),
            p.workload.workload().name().to_string(),
            format!("{:?}", p.scope),
        ]);
    }
    format!("== Table 3: test systems ==\n{}", t.render())
}

/// Renders Table 4 with paper-vs-reproduced columns.
pub fn render_table4(rows: &[Table4Row]) -> String {
    let mut t = TextTable::new([
        "System",
        "N (paper)",
        "n simulated",
        "mean (W)",
        "sigma (W)",
        "sigma/mu",
        "paper mean",
        "paper sigma/mu",
    ]);
    for r in rows {
        let p = r.targets;
        let paper_cv = p.sigma_node_w.unwrap() / p.mean_node_w.unwrap();
        t.row([
            r.name.to_string(),
            p.population.to_string(),
            r.simulated_nodes.to_string(),
            format!("{:.2}", r.mean_w),
            format!("{:.2}", r.sigma_w),
            format!("{:.2}%", r.cv * 100.0),
            format!("{:.2}", p.mean_node_w.unwrap()),
            format!("{:.2}%", paper_cv * 100.0),
        ]);
    }
    format!(
        "== Table 4: per-node power statistics (reproduced vs paper) ==\n{}",
        t.render()
    )
}

/// Renders Table 5 (must match the paper exactly).
pub fn render_table5(cells: &[TableCell]) -> String {
    let mut t = TextTable::new(["lambda", "sigma/mu=0.02", "sigma/mu=0.03", "sigma/mu=0.05"]);
    for chunk in cells.chunks(3) {
        t.row([
            format!("{:.1}%", chunk[0].lambda * 100.0),
            chunk[0].nodes.to_string(),
            chunk[1].nodes.to_string(),
            chunk[2].nodes.to_string(),
        ]);
    }
    format!(
        "== Table 5: recommended sample sizes (N = 10000, 95% CI) ==\n{}\
         (paper: 62/137/370, 16/35/96, 7/16/43, 4/9/24)\n",
        t.render()
    )
}

/// Renders Figure 1 as ASCII plots of normalized power vs core progress.
pub fn render_figure1(traces: &[TraceResult]) -> String {
    let mut out = String::from("== Figure 1: system power over time (HPL) ==\n");
    for t in traces {
        let pts: Vec<(f64, f64)> = t
            .trace
            .watts
            .iter()
            .enumerate()
            .map(|(i, &w)| (t.trace.time_at(i) / 3600.0, w / 1000.0))
            .collect();
        let series = Series {
            label: format!(
                "{} ({} nodes simulated, kW vs hours)",
                t.name, t.simulated_nodes
            ),
            points: downsample(&pts, 110),
        };
        out.push_str(&line_plot(&[series], 100, 14));
        out.push('\n');
    }
    out
}

/// Renders Figure 2 as ASCII histograms.
pub fn render_figure2(rows: &[Table4Row]) -> String {
    use power_stats::histogram::{Binning, Histogram};
    let mut out = String::from("== Figure 2: per-node power histograms ==\n");
    for r in rows {
        let h = Histogram::new(&r.node_averages, Binning::Fixed(16)).expect("non-empty");
        out.push_str(&format!(
            "-- {} (n = {}, watts) --\n{}\n",
            r.name,
            r.node_averages.len(),
            h.render_ascii(48)
        ));
    }
    out
}

/// Renders Figure 3 as a coverage table plus plot.
pub fn render_figure3(points: &[CoveragePoint]) -> String {
    let mut t = TextTable::new(["n", "nominal", "coverage", "error", "MC s.e."]);
    for p in points {
        t.row([
            p.n.to_string(),
            format!("{:.0}%", p.confidence * 100.0),
            format!("{:.2}%", p.coverage * 100.0),
            pct(p.calibration_error()),
            format!("{:.3}%", p.std_error() * 100.0),
        ]);
    }
    let mut series = Vec::new();
    for conf in [0.80, 0.95, 0.99] {
        let pts: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| (p.confidence - conf).abs() < 1e-9)
            .map(|p| (p.n as f64, p.coverage * 100.0))
            .collect();
        if !pts.is_empty() {
            series.push(Series {
                label: format!("{:.0}% CI coverage", conf * 100.0),
                points: pts,
            });
        }
    }
    format!(
        "== Figure 3: bootstrap confidence-interval coverage (LRZ pilot) ==\n{}\n{}",
        t.render(),
        line_plot(&series, 70, 12)
    )
}

/// Renders Figure 4 as a table sorted by VID.
pub fn render_figure4(rows: &[Figure4Row]) -> String {
    let mut sorted = rows.to_vec();
    sorted.sort_by_key(|r| r.vid_sum);
    let mut t = TextTable::new([
        "node",
        "VID sum",
        "tuned 774MHz/1.018V (GF/W)",
        "default 900MHz/VID (GF/W)",
        "default, fan-corrected (GF/W)",
    ]);
    for r in &sorted {
        t.row([
            r.node.to_string(),
            r.vid_sum.to_string(),
            format!("{:.3}", r.eff_tuned),
            format!("{:.3}", r.eff_default),
            format!("{:.3}", r.eff_default_fan_corrected),
        ]);
    }
    let mean_tuned = rows.iter().map(|r| r.eff_tuned).sum::<f64>() / rows.len() as f64;
    let mean_default = rows.iter().map(|r| r.eff_default).sum::<f64>() / rows.len() as f64;
    format!(
        "== Figure 4: L-CSC single-node efficiency vs VID ==\n{}\
         mean tuned = {:.3} GF/W, mean default = {:.3} GF/W, DVFS gain = {}\n",
        t.render(),
        mean_tuned,
        mean_default,
        pct(mean_tuned / mean_default - 1.0)
    )
}

/// Renders the Section 3 gaming scans.
pub fn render_gaming(rows: &[GamingRow]) -> String {
    let mut t = TextTable::new([
        "System",
        "honest (kW)",
        "L1 best window (kW)",
        "L1 gain",
        "L1 spread",
        "unrestricted best (kW)",
        "unrestricted gain",
    ]);
    for r in rows {
        t.row([
            r.name.to_string(),
            kw(r.level1.honest_w),
            kw(r.level1.best_w),
            pct(r.level1.gaming_gain()),
            pct(r.level1.measurement_spread()),
            kw(r.unrestricted.best_w),
            pct(r.unrestricted.gaming_gain()),
        ]);
    }
    format!(
        "== Section 3: optimal-interval gaming ==\n\
         (paper: TSUBAME-KFC gained 10.9%, L-CSC could gain 23.9%)\n{}",
        t.render()
    )
}

/// Renders the Section 4 accuracy-gap worked example.
pub fn render_accuracy_gap(gap: &AccuracyGap) -> String {
    format!(
        "== Section 4: accuracy disparity of the 1/64 rule (sigma/mu = 2%) ==\n\
         210-node machine  : {} nodes measured -> within {:.1}% at 95% (paper: 3.2%)\n\
         18688-node machine: {} nodes measured -> within {:.1}% at 95% (paper: 0.2%)\n",
        gap.small_n,
        gap.small_lambda * 100.0,
        gap.large_n,
        gap.large_lambda * 100.0
    )
}

/// Renders the t-vs-z under-coverage table.
pub fn render_t_vs_z(rows: &[TvsZRow]) -> String {
    let mut t = TextTable::new(["n", "t_{n-1,0.975}", "z_0.975", "width ratio t/z"]);
    for r in rows {
        t.row([
            r.n.to_string(),
            format!("{:.4}", r.t_crit),
            format!("{:.4}", r.z_crit),
            format!("{:.4}", r.ratio),
        ]);
    }
    format!(
        "== Section 4.2: z-quantile under-coverage ==\n\
         (paper: at n = 15 the z interval is roughly 9% too narrow)\n{}",
        t.render()
    )
}

/// Renders the Section 6 recommendation comparison.
pub fn render_recommendation(rows: &[RecommendationRow]) -> String {
    let mut t = TextTable::new([
        "System",
        "N",
        "L1 nodes",
        "L1 accuracy",
        "revised nodes",
        "revised accuracy",
    ]);
    for r in rows {
        t.row([
            r.name.to_string(),
            r.population.to_string(),
            r.level1_nodes.to_string(),
            format!("{:.2}%", r.level1_lambda * 100.0),
            r.revised_nodes.to_string(),
            format!("{:.2}%", r.revised_lambda * 100.0),
        ]);
    }
    format!(
        "== Section 6: revised rule max(16 nodes, 10%) vs Level 1 (sigma/mu = 2.5%, 95% CI) ==\n{}",
        t.render()
    )
}

/// Renders the rank-stability sweep.
pub fn render_rank_stability(sweep: &[(f64, RankStability)]) -> String {
    let mut t = TextTable::new([
        "measurement spread",
        "#1 retained",
        "top-3 set retained",
        "top-3 order retained",
        "mean displacement",
    ]);
    for (spread, s) in sweep {
        t.row([
            format!("{:.0}%", spread * 100.0),
            format!("{:.1}%", s.top1_retention * 100.0),
            format!("{:.1}%", s.top3_set_retention * 100.0),
            format!("{:.1}%", s.top3_order_retention * 100.0),
            format!("{:.2}", s.mean_displacement),
        ]);
    }
    format!(
        "== Section 1: Green500 rank stability under measurement spread ==\n\
         (paper: #1 over #3 advantage < 20%, while L1 spread can exceed 20%)\n{}",
        t.render()
    )
}

/// Renders the subsystem-coverage (Aspect 3) comparison.
pub fn render_subsystems(rows: &[SubsystemRow]) -> String {
    let mut t = TextTable::new([
        "System",
        "compute (kW)",
        "overheads (kW)",
        "L1 efficiency overstatement",
    ]);
    for r in rows {
        t.row([
            r.name.to_string(),
            format!("{:.1}", r.compute_kw),
            format!("{:.1}", r.overheads_kw),
            pct(r.overstatement),
        ]);
    }
    format!(
        "== Aspect 3: what a compute-only (Level 1) number hides ==\n\
         (interconnect + storage + infrastructure at typical shares)\n{}",
        t.render()
    )
}

/// Renders the imbalanced-workload study.
pub fn render_imbalance(s: &ImbalanceStudy) -> String {
    let mut t = TextTable::new([
        "quantity",
        "balanced (HPL-like)",
        "hot/cold (data-intensive)",
    ]);
    t.row([
        "sigma/mu".to_string(),
        format!("{:.2}%", s.balanced_cv * 100.0),
        format!("{:.2}%", s.hotcold_cv * 100.0),
    ]);
    t.row([
        "normality screen".to_string(),
        if s.balanced_normal { "safe" } else { "UNSAFE" }.to_string(),
        if s.hotcold_normal { "safe" } else { "UNSAFE" }.to_string(),
    ]);
    t.row([
        format!("95% CI coverage at n = {}", s.planned_n),
        format!("{:.1}%", s.balanced_coverage * 100.0),
        format!("{:.1}%", s.hotcold_coverage * 100.0),
    ]);
    t.row([
        "95th-pct relative error".to_string(),
        format!("{:.2}%", s.balanced_err95 * 100.0),
        format!("{:.2}%", s.hotcold_err95 * 100.0),
    ]);
    t.row([
        "Eq. 4 n at the actual sigma/mu".to_string(),
        format!("{}", s.planned_n),
        format!("{}", s.hotcold_needed_n),
    ]);
    format!(
        "== Balanced-workload precondition (Davis et al. regime) ==\n\
         (the paper: the method \"will not be appropriate in scenarios where\n\
         the distribution ... contains many outliers or is heavily skewed\")\n{}",
        t.render()
    )
}

/// Renders the exascale projection.
pub fn render_exascale(cells: &[ExascaleCell]) -> String {
    let mut t = TextTable::new([
        "N (nodes)",
        "sigma/mu",
        "Eq. 5 n for 1%",
        "revised-rule n",
        "revised accuracy",
    ]);
    for c in cells {
        t.row([
            c.population.to_string(),
            format!("{:.0}%", c.cv * 100.0),
            c.eq5_nodes.to_string(),
            c.revised_nodes.to_string(),
            format!("{:.2}%", c.revised_lambda * 100.0),
        ]);
    }
    format!(
        "== Exascale projection: does max(16, 10%) survive higher variability? ==\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{experiments, paper};
    use power_campaign::{artifacts, Scale};

    fn tiny() -> Scale {
        Scale {
            max_nodes: 48,
            dt_scale: 24.0,
            placements: 11,
            bootstrap_reps: 100,
            bootstrap_population: 128,
        }
    }

    #[test]
    fn static_tables_render() {
        let t1 = render_table1();
        assert!(t1.contains("1/64"));
        assert!(t1.contains("max(16 nodes, 10%)"));
        let t3 = render_table3();
        assert!(t3.contains("Titan"));
        assert!(t3.contains("FIRESTARTER"));
        let t5 = render_table5(&artifacts::table5().unwrap());
        assert!(t5.contains("370"));
        assert!(t5.contains("0.5%"));
    }

    #[test]
    fn dynamic_tables_render() {
        let scale = tiny();
        let traces = paper::traces(&scale, 3).unwrap();
        let t2 = render_table2(&paper::table2(&traces).unwrap());
        assert!(t2.contains("Sequoia-25"));
        let f1 = render_figure1(&traces);
        assert!(f1.contains("Piz Daint"));
        let g = render_gaming(&paper::gaming(&scale, &traces).unwrap());
        assert!(g.contains("L-CSC"));
        let rows = paper::table4(&scale, 3).unwrap();
        assert!(render_table4(&rows).contains("LRZ"));
        assert!(render_figure2(&rows).contains('#'));
    }

    #[test]
    fn analytic_renders() {
        assert!(render_accuracy_gap(&artifacts::accuracy_gap().unwrap()).contains("3.2%"));
        assert!(render_t_vs_z(&artifacts::t_vs_z().unwrap()).contains("1.09"));
        assert!(render_recommendation(&experiments::recommendation()).contains("Titan"));
        let lcsc = artifacts::LcscConfigurations::build().unwrap();
        let f4 = render_figure4(&artifacts::figure4(&lcsc, 16).unwrap());
        assert!(f4.contains("DVFS gain"));
        let f3 = render_figure3(&paper::figure3(&tiny(), 3).unwrap());
        assert!(f3.contains("coverage"));
        let rs = render_rank_stability(&experiments::rank_stability_sweep(&tiny(), 3));
        assert!(rs.contains("#1 retained"));
        let ss = render_subsystems(&experiments::subsystem_overstatement());
        assert!(ss.contains("overheads"));
        let ex = render_exascale(&experiments::exascale_sweep());
        assert!(ex.contains("1000000"));
        let im = render_imbalance(&experiments::imbalance_study(&tiny(), 3).unwrap());
        assert!(im.contains("UNSAFE"));
    }
}
