//! The paper's artifacts as typed functions: system traces (Table 2,
//! Figure 1), per-node averages (Table 4, Figure 2), the §3
//! interval-gaming scans, bootstrap coverage (Figure 3), the L-CSC case
//! study (Figure 4), Table 5, and the §4 worked examples.
//!
//! This is the one implementation behind both the campaign probes
//! ([`crate::probe`]) and `power-repro`'s drivers. Every function takes
//! an already-derived seed, and both sides derive it with one policy,
//! [`stream_seed`]: probes pass a hash of the cell's identity as the
//! stream tag, the repro drivers a fixed per-artifact stream. Worker
//! counts are fixed only where they move results: the bootstrap's picks
//! its RNG substreams, so [`coverage`] pins it to [`COVERAGE_THREADS`].
//! Simulation products do not depend on the worker count, so
//! [`system_trace`] and [`node_averages`] take the caller's.

use crate::scenario::Scale;
use power_method::gaming::{optimal_interval, unrestricted_interval, IntervalScan};
use power_method::window::TimingRule;
use power_sim::cluster::Cluster;
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator};
use power_sim::store::TraceStore;
use power_sim::systems::{LcscCaseStudy, PaperTargets, SystemPreset};
use power_sim::trace::SystemTrace;
use power_stats::bootstrap::{coverage_study, CoverageConfig, CoveragePoint};
use power_stats::ci::predicted_relative_accuracy;
use power_stats::empirical::Empirical;
use power_stats::normal::z_critical;
use power_stats::sample_size::{paper_table5, SampleSizePlan, TableCell};
use power_stats::student_t::t_critical;
use power_stats::summary::Summary;
use power_workload::RunPhases;

/// Why an artifact could not be computed.
pub type ArtifactError = Box<dyn std::error::Error + Send + Sync>;

/// Result of an artifact computation.
pub type Result<T> = std::result::Result<T, ArtifactError>;

/// Bootstrap workers of every coverage study. Fixed, because the
/// study's RNG substreams are per worker.
pub const COVERAGE_THREADS: usize = 2;

/// The seed policy of every artifact: the seed of stream `tag` under base
/// seed `seed`, through the SplitMix64 finalizer, so streams depend only
/// on the `(tag, seed)` identity and nearby tags or seeds decorrelate.
pub fn stream_seed(tag: u64, seed: u64) -> u64 {
    let mut z = tag ^ seed.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulation settings for a run whose core phase lasts `core_secs`:
/// the scale's time step, the calibrated noise levels, and the caller's
/// seed and worker count.
pub fn sim_config(scale: &Scale, core_secs: f64, seed: u64, threads: usize) -> SimulationConfig {
    SimulationConfig {
        dt: scale.dt_for_core(core_secs),
        noise_sigma: 0.01,
        common_noise_sigma: 0.003,
        seed,
        threads,
    }
}

/// A simulated whole-system trace plus its identity, scaled back to
/// full-machine watts.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// System name.
    pub name: &'static str,
    /// Whole-machine power over time (watts, full population).
    pub trace: SystemTrace,
    /// Run phases.
    pub phases: RunPhases,
    /// Published targets.
    pub targets: PaperTargets,
    /// Nodes actually simulated.
    pub simulated_nodes: usize,
}

/// Simulates `preset` (already sized to the simulated node count)
/// running its workload on `threads` workers, and scales its wall trace
/// up to `full_nodes`.
pub fn system_trace(
    preset: &SystemPreset,
    full_nodes: usize,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
    threads: usize,
) -> Result<TraceResult> {
    let cluster = Cluster::build(preset.cluster_spec.clone())?;
    let workload = preset.workload.workload();
    let phases = workload.phases();
    let cfg = sim_config(scale, phases.core(), seed, threads);
    let sim = Simulator::new(&cluster, workload, preset.balance, cfg)?;
    let products = store.products(&sim, &ProductRequest::system_only())?;
    // `scaled` returns a fresh trace, so the cached products stay pristine.
    let factor = full_nodes as f64 / cluster.len() as f64;
    let trace = products
        .system_trace(MeterScope::Wall)
        .expect("system trace was requested")
        .scaled(factor);
    Ok(TraceResult {
        name: preset.name,
        trace,
        phases,
        targets: preset.targets,
        simulated_nodes: cluster.len(),
    })
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// System name.
    pub name: &'static str,
    /// HPL core-phase runtime in hours.
    pub runtime_h: f64,
    /// Core-phase average power (kW).
    pub core_kw: f64,
    /// First-20% average (kW).
    pub first20_kw: f64,
    /// Last-20% average (kW).
    pub last20_kw: f64,
    /// First-20% average relative to the core average, minus one.
    pub first20_delta: f64,
    /// Last-20% average relative to the core average, minus one.
    pub last20_delta: f64,
    /// Published targets.
    pub targets: PaperTargets,
}

/// Table 2's segment averages of one trace.
pub fn table2_row(t: &TraceResult) -> Result<Table2Row> {
    let core = t
        .trace
        .window_average(t.phases.core_start(), t.phases.core_end())?;
    let (a, b) = t.phases.core_segment(0.0, 0.2);
    let first = t.trace.window_average(a, b)?;
    let (a, b) = t.phases.core_segment(0.8, 1.0);
    let last = t.trace.window_average(a, b)?;
    Ok(Table2Row {
        name: t.name,
        runtime_h: t.phases.core() / 3600.0,
        core_kw: core / 1000.0,
        first20_kw: first / 1000.0,
        last20_kw: last / 1000.0,
        first20_delta: first / core - 1.0,
        last20_delta: last / core - 1.0,
        targets: t.targets,
    })
}

/// Interval-gaming results for one system.
#[derive(Debug, Clone)]
pub struct GamingRow {
    /// System name.
    pub name: &'static str,
    /// The Level 1 scan (window restricted to the middle 80%).
    pub level1: IntervalScan,
    /// An unrestricted scan (20% window anywhere in the core phase) —
    /// the search the TSUBAME-KFC / L-CSC numbers refer to.
    pub unrestricted: IntervalScan,
}

/// The Section 3 optimal-interval exploits on one trace, scanning
/// `scale.placements` window positions.
pub fn gaming_row(t: &TraceResult, scale: &Scale) -> Result<GamingRow> {
    let level1 = optimal_interval(&t.trace, &t.phases, &TimingRule::level1(), scale.placements)?;
    let unrestricted = unrestricted_interval(&t.trace, &t.phases, 0.2, scale.placements)?;
    Ok(GamingRow {
        name: t.name,
        level1,
        unrestricted,
    })
}

/// Per-node averages over the Table 4 window (the core phase minus its
/// first 10%) at `preset`'s meter scope. `preset` is already sized to
/// the simulated node count.
pub fn node_averages(
    preset: &SystemPreset,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
    threads: usize,
) -> Result<Vec<f64>> {
    let cluster = Cluster::build(preset.cluster_spec.clone())?;
    let workload = preset.workload.workload();
    let phases = workload.phases();
    let mut cfg = sim_config(scale, phases.core(), seed, threads);
    // Avoid sampling in lockstep with periodic workloads.
    cfg.dt *= 1.0371;
    let sim = Simulator::new(&cluster, workload, preset.balance, cfg)?;
    // One sweep fills all three meter scopes, so later requests for
    // another scope are cache hits. It asks for the averages alone, so
    // the sweep stops at the window's end and sums no machine trace.
    let products = store.products(
        &sim,
        &ProductRequest::averages_only(
            phases.core_start() + 0.1 * phases.core(),
            phases.core_end(),
        ),
    )?;
    Ok(products
        .node_averages(preset.scope)
        .expect("averages were requested")
        .to_vec())
}

/// One row of Table 4, plus the per-node averages behind it (Figure 2's
/// histograms and Figure 3's pilot).
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// System name.
    pub name: &'static str,
    /// Nodes simulated.
    pub simulated_nodes: usize,
    /// Per-node mean power (W).
    pub mean_w: f64,
    /// Per-node standard deviation (W).
    pub sigma_w: f64,
    /// sigma/mu.
    pub cv: f64,
    /// Published targets.
    pub targets: PaperTargets,
    /// Raw per-node averages.
    pub node_averages: Vec<f64>,
}

/// Table 4's statistics of `preset`'s per-node averages.
pub fn table4_row(preset: &SystemPreset, node_averages: Vec<f64>) -> Result<Table4Row> {
    let summary = Summary::from_slice(&node_averages);
    Ok(Table4Row {
        name: preset.name,
        simulated_nodes: node_averages.len(),
        mean_w: summary.mean(),
        sigma_w: summary.sample_std_dev()?,
        cv: summary.coefficient_of_variation()?,
        targets: preset.targets,
        node_averages,
    })
}

/// Figure 3's bootstrap study: resample simulated machines from the
/// `pilot` per-node averages and measure how often the t-interval of
/// each sample size covers the true mean.
pub fn coverage(
    pilot: &[f64],
    sample_sizes: &[usize],
    confidences: &[f64],
    scale: &Scale,
    seed: u64,
) -> Result<Vec<CoveragePoint>> {
    let cfg = CoverageConfig {
        population_size: scale.bootstrap_population,
        sample_sizes: sample_sizes.to_vec(),
        confidences: confidences.to_vec(),
        replications: scale.bootstrap_reps,
        threads: COVERAGE_THREADS,
        seed,
    };
    Ok(coverage_study(&Empirical::new(pilot)?, &cfg)?)
}

/// One node of the Figure 4 case study.
#[derive(Debug, Clone, Copy)]
pub struct Figure4Row {
    /// Node index.
    pub node: usize,
    /// Sum of the node's four GPU VID bins (the x-axis of Figure 4).
    pub vid_sum: u32,
    /// Efficiency at the tuned settings (774 MHz / 1.018 V, slow fans),
    /// GFLOPS/W.
    pub eff_tuned: f64,
    /// Efficiency at default settings (900 MHz / VID voltage, fast fans),
    /// GFLOPS/W.
    pub eff_default: f64,
    /// Default-settings efficiency corrected for the constant fan-power
    /// offset, GFLOPS/W.
    pub eff_default_fan_corrected: f64,
}

/// The L-CSC case study built in its two machine configurations.
pub struct LcscConfigurations {
    /// The study: per-node throughput and the two governors.
    pub study: LcscCaseStudy,
    /// Tuned: 774 MHz at a fixed 1.018 V, slow fans.
    pub tuned: Cluster,
    /// Default: 900 MHz at each board's VID voltage, fast fans.
    pub default: Cluster,
}

impl LcscConfigurations {
    /// Builds both configurations.
    pub fn build() -> Result<Self> {
        let study = LcscCaseStudy::new();
        let tuned = Cluster::build(study.cluster_spec.clone())?;
        let default = tuned
            .clone()
            .with_governor(study.default_governor.clone())?
            .with_fan_policy(study.fast_fans)?;
        Ok(LcscConfigurations {
            study,
            tuned,
            default,
        })
    }
}

/// Figure 4: single-node Linpack efficiency of the first `nodes` L-CSC
/// nodes in both configurations, plus the default configuration
/// corrected for its fan power.
pub fn figure4(lcsc: &LcscConfigurations, nodes: usize) -> Result<Vec<Figure4Row>> {
    let (tuned, default) = (&lcsc.tuned, &lcsc.default);
    // Constant fan-power offset between the two configurations (wall).
    let fan_slow = tuned.spec().node.fan.power(0.45);
    let fan_fast = tuned.spec().node.fan.power(0.70);
    let fan_delta_wall = (fan_fast - fan_slow) / tuned.spec().node.psu_efficiency;
    let gf_tuned = lcsc.study.gflops_at(774.0);
    let gf_default = lcsc.study.gflops_at(900.0);
    (0..nodes.min(tuned.len()))
        .map(|node| {
            let vid_sum = tuned.asics(node)?.iter().map(|a| a.vid_bin as u32).sum();
            let p_tuned = steady_power(tuned, node)?;
            let p_default = steady_power(default, node)?;
            Ok(Figure4Row {
                node,
                vid_sum,
                eff_tuned: gf_tuned / p_tuned,
                eff_default: gf_default / p_default,
                eff_default_fan_corrected: gf_default / (p_default - fan_delta_wall),
            })
        })
        .collect()
}

/// Full-load steady-state wall power of one node: iterate the
/// thermal/fan/power fixed point.
fn steady_power(cluster: &Cluster, node: usize) -> Result<f64> {
    let thermal = &cluster.spec().node.thermal;
    let mut temp = 60.0;
    let mut power = cluster.node_power(node, 0.0, 1.0, temp)?;
    for _ in 0..20 {
        let heat = power.dc_w - power.fan_w;
        temp = thermal.steady_temp(heat, power.fan_speed);
        power = cluster.node_power(node, 0.0, 1.0, temp)?;
    }
    Ok(power.wall_w)
}

/// Table 5, which must match the paper exactly.
pub fn table5() -> Result<Vec<TableCell>> {
    Ok(paper_table5()?)
}

/// The Section 4 worked example: accuracy of the 1/64 rule on a small vs
/// a large machine (210 vs 18 688 nodes, sigma/mu = 2%).
#[derive(Debug, Clone, Copy)]
pub struct AccuracyGap {
    /// Nodes measured on the 210-node machine (1/64 rule).
    pub small_n: u64,
    /// 95% relative accuracy on the small machine (t-based).
    pub small_lambda: f64,
    /// Nodes measured on the 18 688-node machine.
    pub large_n: u64,
    /// 95% relative accuracy on the large machine (z-based).
    pub large_lambda: f64,
}

/// Computes the accuracy-gap worked example exactly as in the paper.
pub fn accuracy_gap() -> Result<AccuracyGap> {
    let small_n = 210u64.div_ceil(64);
    let large_n = 18_688u64.div_ceil(64);
    let small_lambda = predicted_relative_accuracy(0.95, 0.02, small_n, true)?;
    let plan = SampleSizePlan::new(0.95, 0.01, 0.02)?;
    let large_lambda = plan.achieved_lambda(large_n, 18_688)?;
    Ok(AccuracyGap {
        small_n,
        small_lambda,
        large_n,
        large_lambda,
    })
}

/// One row of the t-vs-z under-coverage comparison (§4.2).
#[derive(Debug, Clone, Copy)]
pub struct TvsZRow {
    /// Sample size.
    pub n: u64,
    /// t critical value at 95% (`nu = n - 1`).
    pub t_crit: f64,
    /// z critical value at 95%.
    pub z_crit: f64,
    /// Width ratio `t/z` — how much too narrow the z interval is.
    pub ratio: f64,
}

/// Quantifies the z-quantile approximation error across sample sizes.
pub fn t_vs_z() -> Result<Vec<TvsZRow>> {
    let z = z_critical(0.95)?;
    [3u64, 5, 10, 15, 20, 30, 50, 100]
        .into_iter()
        .map(|n| {
            let t = t_critical(0.95, n as f64 - 1.0)?;
            Ok(TvsZRow {
                n,
                t_crit: t,
                z_crit: z,
                ratio: t / z,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_is_exact() {
        let ns: Vec<u64> = table5().unwrap().iter().map(|c| c.nodes).collect();
        assert_eq!(ns, vec![62, 137, 370, 16, 35, 96, 7, 16, 43, 4, 9, 24]);
    }

    #[test]
    fn figure4_trends() {
        let rows = figure4(&LcscConfigurations::build().unwrap(), 56).unwrap();
        assert_eq!(rows.len(), 56);
        // Tuned beats default everywhere; fan correction lands between.
        for r in &rows {
            assert!(r.eff_tuned > r.eff_default, "node {}", r.node);
            assert!(r.eff_default_fan_corrected > r.eff_default);
        }
        // Default efficiency declines with VID (correlation < 0).
        let corr = vid_eff_correlation(&rows, |r| r.eff_default);
        assert!(corr < -0.3, "default corr = {corr}");
        // Tuned efficiency unrelated to VID.
        let corr_tuned = vid_eff_correlation(&rows, |r| r.eff_tuned);
        assert!(corr_tuned.abs() < 0.3, "tuned corr = {corr_tuned}");
    }

    fn vid_eff_correlation(rows: &[Figure4Row], f: impl Fn(&Figure4Row) -> f64) -> f64 {
        let n = rows.len() as f64;
        let mx = rows.iter().map(|r| r.vid_sum as f64).sum::<f64>() / n;
        let my = rows.iter().map(&f).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vx = 0.0;
        let mut vy = 0.0;
        for r in rows {
            let dx = r.vid_sum as f64 - mx;
            let dy = f(r) - my;
            cov += dx * dy;
            vx += dx * dx;
            vy += dy * dy;
        }
        cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
    }

    #[test]
    fn accuracy_gap_matches_paper() {
        let gap = accuracy_gap().unwrap();
        assert_eq!(gap.small_n, 4);
        assert_eq!(gap.large_n, 292);
        assert!(
            (gap.small_lambda - 0.032).abs() < 0.002,
            "{}",
            gap.small_lambda
        );
        assert!(
            (gap.large_lambda - 0.002).abs() < 0.0005,
            "{}",
            gap.large_lambda
        );
    }

    #[test]
    fn t_vs_z_under_coverage() {
        let rows = t_vs_z().unwrap();
        let n15 = rows.iter().find(|r| r.n == 15).unwrap();
        assert!((n15.ratio - 1.094).abs() < 0.002, "{}", n15.ratio);
        // Ratio decreases toward 1 as n grows.
        for w in rows.windows(2) {
            assert!(w[1].ratio < w[0].ratio);
        }
    }
}
