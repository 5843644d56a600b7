//! The experiments that have no campaign probe: the §6 recommendation,
//! the Aspect 3 subsystem overstatement, the balanced-workload
//! precondition, the exascale projection and the §1 rank-stability
//! sweep. The paper's tables and figures live in
//! [`power_campaign::artifacts`]. Every function is deterministic given
//! its seed, derived per stream with [`artifacts::stream_seed`].

use crate::paper::sim_threads;
use power_campaign::artifacts::{self, stream_seed, Result};
use power_campaign::Scale;
use power_green500::list::{november_2014_top, RankedList};
use power_green500::perturb::{rank_stability, PerturbConfig, RankStability};
use power_sim::store::TraceStore;
use power_sim::systems::SystemPreset;
use power_stats::sample_size::SampleSizePlan;
use power_stats::summary::Summary;

/// One row of the §6 recommendation comparison.
#[derive(Debug, Clone)]
pub struct RecommendationRow {
    /// System name.
    pub name: &'static str,
    /// Machine size.
    pub population: usize,
    /// Nodes required by the old Level 1 rule (at ~400 W nodes).
    pub level1_nodes: usize,
    /// Nodes required by the revised max(16, 10%) rule.
    pub revised_nodes: usize,
    /// 95% accuracy achieved by Level 1's count at sigma/mu = 2.5%.
    pub level1_lambda: f64,
    /// 95% accuracy achieved by the revised count at sigma/mu = 2.5%.
    pub revised_lambda: f64,
}

/// Evaluates the revised rule across the paper's machines.
pub fn recommendation() -> Vec<RecommendationRow> {
    use power_method::fraction::FractionRule;
    let plan = SampleSizePlan::new(0.95, 0.01, 0.025).expect("valid plan");
    SystemPreset::variability_presets()
        .into_iter()
        .map(|preset| {
            let population = preset.targets.population;
            let node_w = preset.targets.mean_node_w.unwrap_or(400.0);
            let l1 = FractionRule::level1()
                .required_nodes(population, node_w)
                .expect("valid");
            let rev = FractionRule::revised()
                .required_nodes(population, node_w)
                .expect("valid");
            RecommendationRow {
                name: preset.name,
                population,
                level1_nodes: l1,
                revised_nodes: rev,
                level1_lambda: plan
                    .achieved_lambda(l1 as u64, population as u64)
                    .expect("valid"),
                revised_lambda: plan
                    .achieved_lambda(rev as u64, population as u64)
                    .expect("valid"),
            }
        })
        .collect()
}

/// One row of the subsystem-coverage (Aspect 3) comparison.
#[derive(Debug, Clone)]
pub struct SubsystemRow {
    /// System name.
    pub name: &'static str,
    /// Compute-only power as Level 1 reports it (kW, full machine).
    pub compute_kw: f64,
    /// True subsystem overheads (kW).
    pub overheads_kw: f64,
    /// Relative efficiency overstatement of the compute-only number.
    pub overstatement: f64,
}

/// Quantifies how much a compute-only (Level 1) number overstates
/// efficiency on each variability system, with typical interconnect /
/// storage / infrastructure overheads.
pub fn subsystem_overstatement() -> Vec<SubsystemRow> {
    use power_method::subsystems::SubsystemOverheads;
    SystemPreset::variability_presets()
        .into_iter()
        .map(|preset| {
            let n = preset.targets.population;
            let node_w = preset.targets.mean_node_w.unwrap_or(400.0);
            let compute_w = node_w * n as f64;
            let overheads = SubsystemOverheads::typical_cluster(n);
            SubsystemRow {
                name: preset.name,
                compute_kw: compute_w / 1000.0,
                overheads_kw: overheads.total_w(n) / 1000.0,
                overstatement: overheads
                    .efficiency_overstatement(n, compute_w)
                    .expect("compute power positive"),
            }
        })
        .collect()
}

/// Results of the imbalanced-workload study — the regime where the paper
/// says its normal-theory method does NOT apply (Davis et al.'s
/// data-intensive clusters).
#[derive(Debug, Clone, Copy)]
pub struct ImbalanceStudy {
    /// sigma/mu observed under a balanced (HPL-like) load.
    pub balanced_cv: f64,
    /// sigma/mu observed under a hot/cold data-intensive load.
    pub hotcold_cv: f64,
    /// Sample size planned from the paper's sigma/mu = 2.5% assumption.
    pub planned_n: usize,
    /// 95% CI coverage achieved by that plan under the balanced load.
    pub balanced_coverage: f64,
    /// Achieved relative error (95th percentile) under the balanced load.
    pub balanced_err95: f64,
    /// 95% CI coverage achieved by the same plan under the hot/cold load.
    pub hotcold_coverage: f64,
    /// Achieved relative error (95th percentile) under the hot/cold load.
    pub hotcold_err95: f64,
    /// Sample size Equation 4 demands once the *actual* hot/cold sigma/mu
    /// is known.
    pub hotcold_needed_n: usize,
    /// Whether the normality screen flags the balanced population as safe.
    pub balanced_normal: bool,
    /// Whether the normality screen flags the hot/cold population.
    pub hotcold_normal: bool,
}

/// Runs the imbalance study on a TU-Dresden-class machine.
pub fn imbalance_study(scale: &Scale, seed: u64) -> Result<ImbalanceStudy> {
    use power_stats::ci::mean_ci_t_finite;
    use power_stats::normality::assess_normality;
    use power_stats::rng::substream;
    use power_stats::sampling::{gather, sample_without_replacement};
    use power_workload::LoadBalance;

    let preset = SystemPreset::variability_presets()
        .into_iter()
        .find(|p| p.name == "TU Dresden")
        .expect("preset exists");
    let n_nodes = scale.clamp_nodes(420).max(210);
    let balanced = preset.with_total_nodes(n_nodes);
    let hotcold = SystemPreset {
        balance: LoadBalance::HotCold {
            hot_fraction: 0.3,
            cold_factor: 0.25,
        },
        ..balanced.clone()
    };
    let averages_for = |preset: &SystemPreset, stream: u64| {
        artifacts::node_averages(
            preset,
            scale,
            TraceStore::global(),
            stream_seed(stream, seed),
            sim_threads(),
        )
    };
    let balanced = averages_for(&balanced, 0xBA1)?;
    let hotcold = averages_for(&hotcold, 0xB0C0)?;

    let cv = |xs: &[f64]| {
        Summary::from_slice(xs)
            .coefficient_of_variation()
            .expect("nonzero")
    };
    let plan = SampleSizePlan::new(0.95, 0.01, 0.025).expect("valid plan");
    let planned_n = plan.required_nodes(n_nodes as u64).expect("valid") as usize;

    // Repeated campaigns: CI coverage + achieved error quantile.
    let study = |xs: &[f64], stream: u64| -> (f64, f64) {
        let truth: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let reps = (scale.bootstrap_reps / 10).max(200);
        let mut hits = 0usize;
        let mut errs: Vec<f64> = Vec::with_capacity(reps);
        for rep in 0..reps {
            let mut rng = substream(stream_seed(stream, seed), rep as u64);
            let idx =
                sample_without_replacement(&mut rng, xs.len(), planned_n).expect("valid sample");
            let sample = gather(xs, &idx);
            let summary = Summary::from_slice(&sample);
            let ci = mean_ci_t_finite(&summary, 0.95, xs.len() as u64).expect("n >= 2");
            if ci.contains(truth) {
                hits += 1;
            }
            errs.push((summary.mean() - truth).abs() / truth);
        }
        errs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let err95 = errs[(errs.len() as f64 * 0.95) as usize - 1];
        (hits as f64 / reps as f64, err95)
    };
    let (balanced_coverage, balanced_err95) = study(&balanced, 0x1CE);
    let (hotcold_coverage, hotcold_err95) = study(&hotcold, 0x2CE);

    let hotcold_cv = cv(&hotcold);
    let needed = SampleSizePlan::new(0.95, 0.01, hotcold_cv)
        .expect("valid plan")
        .required_nodes(n_nodes as u64)
        .expect("valid") as usize;

    Ok(ImbalanceStudy {
        balanced_cv: cv(&balanced),
        hotcold_cv,
        planned_n,
        balanced_coverage,
        balanced_err95,
        hotcold_coverage,
        hotcold_err95,
        hotcold_needed_n: needed,
        balanced_normal: assess_normality(&balanced)
            .expect("enough nodes")
            .procedure_is_safe(),
        hotcold_normal: assess_normality(&hotcold)
            .expect("enough nodes")
            .procedure_is_safe(),
    })
}

/// One cell of the exascale projection.
#[derive(Debug, Clone, Copy)]
pub struct ExascaleCell {
    /// Machine size.
    pub population: u64,
    /// Assumed sigma/mu.
    pub cv: f64,
    /// Nodes Equation 5 demands for 1% at 95%.
    pub eq5_nodes: u64,
    /// Nodes the revised max(16, 10%) rule demands.
    pub revised_nodes: u64,
    /// Accuracy the revised rule achieves at this sigma/mu.
    pub revised_lambda: f64,
}

/// The paper's conclusion caveat, quantified: "the specific percentage and
/// count may shift if the level of variability increases significantly in
/// the exascale timeframe, but our methods would show this and provide
/// new baseline requirements." Sweep machine size and sigma/mu and let
/// the formulas speak.
pub fn exascale_sweep() -> Vec<ExascaleCell> {
    use power_method::fraction::FractionRule;
    let mut cells = Vec::new();
    for &population in &[10_000u64, 100_000, 1_000_000] {
        for &cv in &[0.02, 0.05, 0.10] {
            let plan = SampleSizePlan::new(0.95, 0.01, cv).expect("valid plan");
            let eq5 = plan.required_nodes(population).expect("valid");
            let revised = FractionRule::revised()
                .required_nodes(population as usize, 400.0)
                .expect("valid") as u64;
            let lambda = plan
                .achieved_lambda(revised.min(population), population)
                .expect("valid");
            cells.push(ExascaleCell {
                population,
                cv,
                eq5_nodes: eq5,
                revised_nodes: revised,
                revised_lambda: lambda,
            });
        }
    }
    cells
}

/// Rank-stability sweep over measurement spreads (§1 motivation).
pub fn rank_stability_sweep(scale: &Scale, seed: u64) -> Vec<(f64, RankStability)> {
    let list = RankedList::new(november_2014_top()).expect("non-empty");
    [0.01, 0.02, 0.05, 0.10, 0.20]
        .into_iter()
        .map(|spread| {
            let s = rank_stability(
                &list,
                &PerturbConfig {
                    measured_spread: spread,
                    replications: scale.bootstrap_reps,
                    seed: stream_seed(0x9A6E, seed),
                },
            )
            .expect("valid config");
            (spread, s)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> Scale {
        Scale {
            max_nodes: 64,
            dt_scale: 16.0,
            placements: 21,
            bootstrap_reps: 200,
            bootstrap_population: 256,
        }
    }

    #[test]
    fn recommendation_rows() {
        let rows = recommendation();
        assert_eq!(rows.len(), 6);
        let titan = rows.iter().find(|r| r.name == "Titan").unwrap();
        assert_eq!(titan.revised_nodes, 1869); // 10% of 18688
        assert!(
            titan.revised_lambda < titan.level1_lambda || titan.level1_nodes > titan.revised_nodes
        );
        let tud = rows.iter().find(|r| r.name == "TU Dresden").unwrap();
        assert_eq!(tud.revised_nodes, 21); // max(16, ceil(21))
                                           // Revised rule always reaches ~1.3% accuracy or better at cv=2.5%.
        for r in &rows {
            assert!(r.revised_lambda < 0.013, "{}: {}", r.name, r.revised_lambda);
        }
    }

    #[test]
    fn subsystem_overstatement_rows() {
        let rows = subsystem_overstatement();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert!(r.overheads_kw > 0.0, "{}", r.name);
            // Typical clusters: low-single-digit to ~12% overstatement.
            assert!(
                (0.005..0.15).contains(&r.overstatement),
                "{}: {}",
                r.name,
                r.overstatement
            );
        }
        // Titan's compute number is GPU-only, so its relative overheads
        // are the largest.
        let max = rows
            .iter()
            .max_by(|a, b| a.overstatement.partial_cmp(&b.overstatement).unwrap())
            .unwrap();
        assert_eq!(max.name, "Titan");
    }

    #[test]
    fn imbalance_breaks_the_normal_theory_plan() {
        let s = imbalance_study(&tiny_scale(), 7).unwrap();
        // Balanced: tight, normal, well-covered, accurate.
        assert!(s.balanced_cv < 0.05);
        assert!(s.balanced_normal);
        assert!(s.balanced_coverage > 0.85);
        assert!(s.balanced_err95 < 0.02);
        // Hot/cold: an order of magnitude more spread, flagged by the
        // normality screen, and the planned-n error misses 1% badly.
        assert!(s.hotcold_cv > 5.0 * s.balanced_cv);
        assert!(!s.hotcold_normal);
        assert!(s.hotcold_err95 > 4.0 * s.balanced_err95);
        assert!(s.hotcold_needed_n > 3 * s.planned_n);
    }

    #[test]
    fn rank_stability_sweep_is_monotone() {
        let sweep = rank_stability_sweep(&tiny_scale(), 7);
        assert_eq!(sweep.len(), 5);
        // More spread, less stability (allow MC slack of 0.05).
        for w in sweep.windows(2) {
            assert!(w[1].1.top1_retention <= w[0].1.top1_retention + 0.05);
        }
        assert!(sweep[0].1.top1_retention > 0.95);
        assert!(sweep[4].1.top3_order_retention < 0.9);
    }
}
