//! Cell probes: what the `methodologies` grid dimension names.
//!
//! Two probe families share the dimension:
//!
//! * the four EE HPC WG **measurement levels** (`level1` … `level3`,
//!   `revised`) execute a full [`power_method::measure`] plan on the
//!   cell's system/workload/meter/window and report the submitted
//!   numbers;
//! * the **paper-artifact probes** reproduce a table or figure of the
//!   paper for the cell's system: `trace` (Table 2 segment averages),
//!   `nodes` (Table 4 per-node statistics), `samplesize` (the Table 5
//!   grid), `gaming` (Section 3 interval exploits), `coverage`
//!   (Figure 3 bootstrap under-coverage), `vid` (the Figure 4 case
//!   study) plus the scale-free `accuracy_gap` and `t_vs_z` worked
//!   examples. Each is a thin adapter from the typed rows of
//!   [`crate::artifacts`] to a metric map.
//!
//! A third family covers the **accelerator layer** (`power_accel`):
//! `accel` sweeps a binned GPU population capped and uncapped and
//! reports the cap's power-spread-to-runtime-spread conversion, `occ`
//! exercises the on-chip-meter artifact pipeline against a known true
//! series, and `eq5cap` runs the Eq. 5-under-cap coverage study
//! (`power_method::capcov`). Their `systems` entries name
//! [`AccelPreset`]s (`k20x`, `v100`), not `SystemPreset`s.
//!
//! Every probe returns a flat `metric name → f64` map; the engine folds
//! those across seeds. Seed discipline: *simulation* probes fold the
//! campaign seed into the simulation noise stream (each seed is an
//! independent run of the machine), while *measurement* probes pin the
//! simulation seed to the cell and fold the campaign seed into the
//! measurement plan only — so all seeds of one cell share a single
//! cached sweep in the [`TraceStore`] and cross-seed bands isolate
//! metering/selection noise, which is what a repeatability gate on a
//! submission procedure should measure.

use std::collections::BTreeMap;

use crate::artifacts::{self, stream_seed, LcscConfigurations, TraceResult};
use crate::grid::Cell;
use crate::scenario::Scale;
use power_accel::{AccelPreset, SweepResult};
use power_meter::device::MeterModel;
use power_meter::occ::OccModel;
use power_method::capcov::{capped_sizing_study, CapCoverageConfig};
use power_method::gaming::vid_bias;
use power_method::level::Methodology;
use power_method::measure::{measure_with_store, MeasurementPlan, NodeSelection, WindowPlacement};
use power_sim::cluster::Cluster;
use power_sim::store::TraceStore;
use power_sim::systems::SystemPreset;
use power_workload::WorkloadSpec;

/// Why a probe could not run its cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeError {
    /// Cell identity.
    pub cell: String,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ProbeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cell `{}`: {}", self.cell, self.reason)
    }
}

impl std::error::Error for ProbeError {}

/// Metric map produced by one (cell, seed) execution.
pub type Metrics = BTreeMap<String, f64>;

/// All probe names the `methodologies` dimension accepts.
pub fn known_probes() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Methodology::names().to_vec();
    names.extend([
        "trace",
        "nodes",
        "samplesize",
        "gaming",
        "coverage",
        "vid",
        "accuracy_gap",
        "t_vs_z",
        "accel",
        "occ",
        "eq5cap",
    ]);
    names
}

fn perr(cell: &Cell, reason: impl Into<String>) -> ProbeError {
    ProbeError {
        cell: cell.id(),
        reason: reason.into(),
    }
}

/// The cell's system running the cell's workload, sized to the scale's
/// simulated node count, and the full machine size.
fn resolve_preset(cell: &Cell, scale: &Scale) -> Result<(SystemPreset, usize), ProbeError> {
    if cell.system.preset == "-" {
        return Err(perr(
            cell,
            format!("probe `{}` needs a system", cell.methodology),
        ));
    }
    let mut preset = SystemPreset::by_name(&cell.system.preset).ok_or_else(|| {
        perr(
            cell,
            format!(
                "unknown system preset `{}` (known: {})",
                cell.system.preset,
                SystemPreset::names().join(", ")
            ),
        )
    })?;
    if cell.workload != "preset" {
        let base = preset.workload.workload();
        preset.workload = WorkloadSpec::by_name(&cell.workload, base.phases(), base.total_flops())
            .ok_or_else(|| {
                perr(
                    cell,
                    format!(
                        "unknown workload `{}` (preset, {})",
                        cell.workload,
                        WorkloadSpec::names().join(", ")
                    ),
                )
            })?;
    }
    let full = cell.system.nodes.unwrap_or(preset.cluster_spec.total_nodes);
    let simulated = scale.clamp_nodes(full);
    Ok((preset.with_total_nodes(simulated), full))
}

fn resolve_placement(cell: &Cell) -> Result<WindowPlacement, ProbeError> {
    match cell.window.as_str() {
        "earliest" => Ok(WindowPlacement::Earliest),
        "middle" => Ok(WindowPlacement::Middle),
        "latest" => Ok(WindowPlacement::Latest),
        w => {
            if let Some(frac) = w.strip_prefix("f:") {
                let f: f64 = frac
                    .parse()
                    .map_err(|_| perr(cell, format!("bad window fraction `{w}`")))?;
                if !(0.0..=1.0).contains(&f) {
                    return Err(perr(cell, format!("window fraction `{w}` not in [0, 1]")));
                }
                Ok(WindowPlacement::Fraction(f))
            } else {
                Err(perr(
                    cell,
                    format!("unknown window `{w}` (earliest|middle|latest|f:<0..1>)"),
                ))
            }
        }
    }
}

/// Simulates the cell's system and scales its trace to the full machine
/// (Table 2 / gaming input).
fn system_trace(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<TraceResult, ProbeError> {
    let (preset, full_nodes) = resolve_preset(cell, scale)?;
    let seed = stream_seed(cell.sim_tag(), seed);
    artifacts::system_trace(&preset, full_nodes, scale, store, seed, 1)
        .map_err(|e| perr(cell, e.to_string()))
}

fn probe_trace(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let trace = system_trace(cell, scale, store, seed)?;
    let row = artifacts::table2_row(&trace).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("runtime_h".into(), row.runtime_h);
    m.insert("core_kw".into(), row.core_kw);
    m.insert("first20_kw".into(), row.first20_kw);
    m.insert("last20_kw".into(), row.last20_kw);
    m.insert("first20_delta_pct".into(), row.first20_delta * 100.0);
    m.insert("last20_delta_pct".into(), row.last20_delta * 100.0);
    Ok(m)
}

/// The cell's system, sized for Table 4, and its per-node averages.
fn node_averages(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<(SystemPreset, Vec<f64>), ProbeError> {
    let (preset, _) = resolve_preset(cell, scale)?;
    // Match the repro drivers: simulate at least 200 nodes so σ estimates
    // have support even when `measured_nodes` is tiny.
    let n = scale.clamp_nodes(
        cell.system
            .nodes
            .unwrap_or_else(|| preset.measured_nodes.max(200)),
    );
    let preset = preset.with_total_nodes(n);
    let seed = stream_seed(cell.sim_tag(), seed ^ 0x40);
    let averages = artifacts::node_averages(&preset, scale, store, seed, 1)
        .map_err(|e| perr(cell, e.to_string()))?;
    Ok((preset, averages))
}

fn probe_nodes(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let (preset, averages) = node_averages(cell, scale, store, seed)?;
    let row = artifacts::table4_row(&preset, averages).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("simulated_nodes".into(), row.simulated_nodes as f64);
    m.insert("mean_w".into(), row.mean_w);
    m.insert("sigma_w".into(), row.sigma_w);
    m.insert("cv_pct".into(), row.cv * 100.0);
    Ok(m)
}

fn probe_samplesize(cell: &Cell) -> Result<Metrics, ProbeError> {
    let cells = artifacts::table5().map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    for c in cells {
        m.insert(
            format!("n_l{}_cv{}", c.lambda * 100.0, c.cv * 100.0),
            c.nodes as f64,
        );
    }
    Ok(m)
}

fn probe_gaming(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let trace = system_trace(cell, scale, store, seed)?;
    let row = artifacts::gaming_row(&trace, scale).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("honest_kw".into(), row.level1.honest_w / 1000.0);
    m.insert("level1_gain_pct".into(), row.level1.gaming_gain() * 100.0);
    m.insert(
        "level1_spread_pct".into(),
        row.level1.measurement_spread() * 100.0,
    );
    m.insert(
        "unrestricted_gain_pct".into(),
        row.unrestricted.gaming_gain() * 100.0,
    );
    Ok(m)
}

fn probe_coverage(
    cell: &Cell,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let (_, averages) = node_averages(cell, scale, store, seed)?;
    let seed = stream_seed(cell.stream_tag(), seed ^ 0xF163);
    let points = artifacts::coverage(&averages, &[5, 10, 20], &[0.95], scale, seed)
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    for p in points {
        m.insert(
            format!("coverage_n{}_c{}", p.n, (p.confidence * 100.0).round()),
            p.coverage,
        );
    }
    Ok(m)
}

fn probe_vid(cell: &Cell) -> Result<Metrics, ProbeError> {
    let lcsc = LcscConfigurations::build().map_err(|e| perr(cell, e.to_string()))?;
    let rows = artifacts::figure4(&lcsc, usize::MAX).map_err(|e| perr(cell, e.to_string()))?;
    let n = rows.len() as f64;
    let eff_tuned = rows.iter().map(|r| r.eff_tuned).sum::<f64>() / n;
    let eff_default = rows.iter().map(|r| r.eff_default).sum::<f64>() / n;
    let bias = vid_bias(&lcsc.default, 16, 60.0).map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("eff_tuned_gflops_w".into(), eff_tuned);
    m.insert("eff_default_gflops_w".into(), eff_default);
    m.insert(
        "tuned_gain_pct".into(),
        (eff_tuned / eff_default - 1.0) * 100.0,
    );
    m.insert("vid_bias_pct".into(), bias.bias * 100.0);
    Ok(m)
}

fn probe_accuracy_gap(cell: &Cell) -> Result<Metrics, ProbeError> {
    let gap = artifacts::accuracy_gap().map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("small_n".into(), gap.small_n as f64);
    m.insert("small_lambda_pct".into(), gap.small_lambda * 100.0);
    m.insert("large_n".into(), gap.large_n as f64);
    m.insert("large_lambda_pct".into(), gap.large_lambda * 100.0);
    Ok(m)
}

fn probe_t_vs_z(cell: &Cell) -> Result<Metrics, ProbeError> {
    let rows = artifacts::t_vs_z().map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("z_crit".into(), rows[0].z_crit);
    for r in rows.iter().filter(|r| matches!(r.n, 3 | 10 | 50)) {
        m.insert(format!("t_over_z_n{}", r.n), r.ratio);
    }
    Ok(m)
}

fn resolve_accel(cell: &Cell, scale: &Scale) -> Result<(AccelPreset, usize), ProbeError> {
    if cell.system.preset == "-" {
        return Err(perr(
            cell,
            format!("probe `{}` needs an accelerator system", cell.methodology),
        ));
    }
    let preset = AccelPreset::by_name(&cell.system.preset).ok_or_else(|| {
        perr(
            cell,
            format!(
                "unknown accelerator preset `{}` (known: {})",
                cell.system.preset,
                AccelPreset::names().join(", ")
            ),
        )
    })?;
    let devices = scale.clamp_nodes(cell.system.nodes.unwrap_or(preset.devices));
    Ok((preset, devices))
}

/// Builds the cell's device population and runs the uncapped and capped
/// fixed-work sweeps. The per-device work shrinks with `dt_scale` (the
/// campaign's speed knob) but keeps enough governor ticks to settle.
fn accel_sweeps(
    cell: &Cell,
    scale: &Scale,
    seed: u64,
) -> Result<(AccelPreset, SweepResult, SweepResult), ProbeError> {
    let (preset, devices) = resolve_accel(cell, scale)?;
    let pop = preset
        .population(Some(devices), stream_seed(cell.sim_tag(), seed))
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut uncapped_cfg = preset.sweep_config(false);
    uncapped_cfg.work_gflop =
        (preset.work_gflop / scale.dt_scale).max(preset.spec.gflops_at_fmax * preset.dt_s * 16.0);
    let mut capped_cfg = uncapped_cfg;
    capped_cfg.cap_w = Some(preset.cap_w);
    let uncapped = pop
        .sweep(&uncapped_cfg)
        .map_err(|e| perr(cell, e.to_string()))?;
    let capped = pop
        .sweep(&capped_cfg)
        .map_err(|e| perr(cell, e.to_string()))?;
    Ok((preset, uncapped, capped))
}

fn probe_accel(cell: &Cell, scale: &Scale, seed: u64) -> Result<Metrics, ProbeError> {
    let (preset, uncapped, capped) = accel_sweeps(cell, scale, seed)?;
    let mut m = Metrics::new();
    m.insert("devices".into(), uncapped.runs.len() as f64);
    m.insert("cap_w".into(), preset.cap_w);
    m.insert("uncapped_mean_w".into(), uncapped.mean_power_w());
    m.insert("capped_mean_w".into(), capped.mean_power_w());
    m.insert("uncapped_power_cv_pct".into(), uncapped.power_cv() * 100.0);
    m.insert("capped_power_cv_pct".into(), capped.power_cv() * 100.0);
    m.insert("runtime_cv_pct".into(), capped.runtime_cv() * 100.0);
    m.insert("runtime_spread_pct".into(), capped.runtime_spread() * 100.0);
    m.insert("energy_cv_pct".into(), capped.energy_cv() * 100.0);
    m.insert(
        "throttled_pct".into(),
        capped.throttled_device_frac() * 100.0,
    );
    m.insert("max_over_cap_w".into(), capped.max_over_cap_w());
    Ok(m)
}

/// Exercises the OCC artifact pipeline (cadence, quantization, gain,
/// offset, read latency) against a sinusoidal true power series at the
/// accelerator's TDP scale, reporting the end-to-end measurement error.
fn probe_occ(cell: &Cell, scale: &Scale, seed: u64) -> Result<Metrics, ProbeError> {
    let (preset, _) = resolve_accel(cell, scale)?;
    let model = OccModel::power9();
    let mut rng = power_stats::rng::substream(stream_seed(cell.stream_tag(), seed), 0x0CC);
    let occ = model
        .instantiate(&mut rng)
        .map_err(|e| perr(cell, e.to_string()))?;
    // A ±5% sine at the card's TDP, 60 s period, 600 s of 50 ms samples.
    let dt = 0.05;
    let mean = preset.spec.tdp_w;
    let series: Vec<f64> = (0..12_000)
        .map(|i| {
            let t = (i as f64 + 0.5) * dt;
            mean * (1.0 + 0.05 * (2.0 * std::f64::consts::PI * t / 60.0).sin())
        })
        .collect();
    let reading = occ
        .measure(&series, 0.0, dt, 60.0, 540.0)
        .map_err(|e| perr(cell, e.to_string()))?;
    let first = (reading.t_start / dt) as usize;
    let last = (reading.t_end / dt) as usize;
    let truth = series[first..last].iter().sum::<f64>() / (last - first) as f64;
    let mut m = Metrics::new();
    m.insert("true_w".into(), truth);
    m.insert("occ_w".into(), reading.average_w);
    m.insert(
        "occ_error_pct".into(),
        (reading.average_w / truth - 1.0) * 100.0,
    );
    m.insert("gain_err_pct".into(), (occ.gain() - 1.0) * 100.0);
    m.insert("offset_w".into(), occ.offset());
    m.insert("staleness_s".into(), occ.staleness(0.0, 120.0));
    m.insert("samples".into(), reading.samples as f64);
    Ok(m)
}

/// The headline experiment: does Eq. 5 sizing still cover at nominal
/// confidence under a power cap? Four Monte Carlo coverage studies over
/// the cell's device population (see `power_method::capcov`).
fn probe_eq5cap(cell: &Cell, scale: &Scale, seed: u64) -> Result<Metrics, ProbeError> {
    let (_, uncapped, capped) = accel_sweeps(cell, scale, seed)?;
    let cfg = CapCoverageConfig {
        confidence: 0.95,
        lambda: 0.01,
        reps: scale.bootstrap_reps.min(1 << 20) as u32,
        seed: stream_seed(cell.stream_tag(), seed ^ 0xE05),
    };
    let study = capped_sizing_study(
        &uncapped.powers_w(),
        &capped.powers_w(),
        &capped.energies_j(),
        &cfg,
    )
    .map_err(|e| perr(cell, e.to_string()))?;
    let mut m = Metrics::new();
    m.insert("devices".into(), uncapped.runs.len() as f64);
    m.insert(
        "uncapped_power_cv_pct".into(),
        study.uncapped_power.sizing_cv * 100.0,
    );
    m.insert(
        "capped_power_cv_pct".into(),
        study.capped_power.sizing_cv * 100.0,
    );
    m.insert(
        "capped_energy_cv_pct".into(),
        study.capped_energy_runtime_aware.sizing_cv * 100.0,
    );
    m.insert(
        "n_uncapped_power".into(),
        study.uncapped_power.required_n as f64,
    );
    m.insert(
        "n_power_sized".into(),
        study.capped_energy_power_sized.required_n as f64,
    );
    m.insert(
        "n_runtime_aware".into(),
        study.capped_energy_runtime_aware.required_n as f64,
    );
    m.insert(
        "cov_uncapped_power_pct".into(),
        study.uncapped_power.coverage * 100.0,
    );
    m.insert(
        "cov_capped_power_pct".into(),
        study.capped_power.coverage * 100.0,
    );
    m.insert(
        "cov_energy_naive_pct".into(),
        study.capped_energy_power_sized.coverage * 100.0,
    );
    m.insert(
        "cov_energy_aware_pct".into(),
        study.capped_energy_runtime_aware.coverage * 100.0,
    );
    m.insert(
        "naive_shortfall_pct".into(),
        study.capped_energy_power_sized.shortfall() * 100.0,
    );
    Ok(m)
}

fn probe_measure(
    cell: &Cell,
    methodology: Methodology,
    scale: &Scale,
    store: &TraceStore,
    seed: u64,
) -> Result<Metrics, ProbeError> {
    let (preset, _) = resolve_preset(cell, scale)?;
    let cluster =
        Cluster::build(preset.cluster_spec.clone()).map_err(|e| perr(cell, e.to_string()))?;
    let workload = preset.workload.workload();
    let meter = MeterModel::by_name(&cell.meter).ok_or_else(|| {
        perr(
            cell,
            format!(
                "unknown meter `{}` ({})",
                cell.meter,
                MeterModel::names().join(", ")
            ),
        )
    })?;
    let placement = resolve_placement(cell)?;
    // Simulation seed pinned to the cell: all campaign seeds of this cell
    // share one sweep in the store; the campaign seed drives the plan.
    let cfg = artifacts::sim_config(
        scale,
        workload.phases().core(),
        stream_seed(cell.sim_tag(), 0x51D),
        1,
    );
    let plan = MeasurementPlan {
        methodology,
        meter_model: meter,
        selection: NodeSelection::Random,
        placement,
        overheads: power_method::subsystems::SubsystemOverheads::none(),
        overhead_estimate_error: 0.10,
        seed: stream_seed(cell.stream_tag(), seed ^ 0x3EA5),
    };
    let m = measure_with_store(store, &cluster, workload, preset.balance, cfg, &plan)
        .map_err(|e| perr(cell, e.to_string()))?;
    let mut out = Metrics::new();
    out.insert("reported_kw".into(), m.reported_power_w / 1000.0);
    out.insert("metered_nodes".into(), m.metered_nodes.len() as f64);
    out.insert("machine_fraction_pct".into(), m.machine_fraction() * 100.0);
    if m.rmax_flops > 0.0 {
        out.insert("gflops_per_w".into(), m.flops_per_watt() / 1.0e9);
    }
    if let Some(a) = &m.assessment {
        out.insert("relative_accuracy_pct".into(), a.relative_accuracy * 100.0);
    }
    Ok(out)
}

/// Runs the cell's probe for one campaign seed.
pub fn run_probe(
    cell: &Cell,
    seed: u64,
    scale: &Scale,
    store: &TraceStore,
) -> Result<Metrics, ProbeError> {
    if let Some(methodology) = Methodology::by_name(&cell.methodology) {
        return probe_measure(cell, methodology, scale, store, seed);
    }
    match cell.methodology.as_str() {
        "trace" => probe_trace(cell, scale, store, seed),
        "nodes" => probe_nodes(cell, scale, store, seed),
        "samplesize" => probe_samplesize(cell),
        "gaming" => probe_gaming(cell, scale, store, seed),
        "coverage" => probe_coverage(cell, scale, store, seed),
        "vid" => probe_vid(cell),
        "accuracy_gap" => probe_accuracy_gap(cell),
        "t_vs_z" => probe_t_vs_z(cell),
        "accel" => probe_accel(cell, scale, seed),
        "occ" => probe_occ(cell, scale, seed),
        "eq5cap" => probe_eq5cap(cell, scale, seed),
        other => Err(perr(
            cell,
            format!(
                "unknown probe `{other}` (known: {})",
                known_probes().join(", ")
            ),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::expand;
    use crate::scenario::Scenario;

    fn one_cell(grid_json: &str) -> Cell {
        let s = Scenario::parse(&format!(
            r#"{{"name":"t","seeds":[1],"grids":[{grid_json}]}}"#
        ))
        .unwrap();
        expand(&s).remove(0)
    }

    fn tiny_scale() -> Scale {
        Scale {
            max_nodes: 64,
            dt_scale: 16.0,
            placements: 21,
            bootstrap_reps: 200,
            bootstrap_population: 128,
        }
    }

    #[test]
    fn samplesize_probe_matches_table5() {
        let cell = one_cell(r#"{"name":"g","methodologies":["samplesize"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m["n_l1_cv2"], 16.0);
        assert_eq!(m["n_l0.5_cv5"], 370.0);
        assert_eq!(m["n_l2_cv5"], 24.0);
        assert_eq!(m.len(), 12);
    }

    #[test]
    fn t_vs_z_and_accuracy_gap_are_seed_free() {
        let cell = one_cell(r#"{"name":"g","methodologies":["t_vs_z"]}"#);
        let a = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        let b = run_probe(&cell, 99, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(a, b);
        assert!(a["t_over_z_n3"] > 2.0, "t blows up at n=3: {a:?}");
        let cell = one_cell(r#"{"name":"g","methodologies":["accuracy_gap"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m["small_n"], 4.0);
        assert_eq!(m["large_n"], 292.0);
        assert!(m["small_lambda_pct"] > m["large_lambda_pct"]);
    }

    #[test]
    fn trace_probe_reproduces_lcsc_tail() {
        let cell = one_cell(r#"{"name":"g","systems":["l-csc"],"methodologies":["trace"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        // L-CSC: last-20% average is >15% below the core average.
        assert!(m["last20_delta_pct"] < -15.0, "{m:?}");
        assert!(m["core_kw"] > 40.0 && m["core_kw"] < 80.0, "{m:?}");
    }

    #[test]
    fn measure_probe_runs_and_reuses_identical_sweeps() {
        let store = TraceStore::new();
        let cell = one_cell(
            r#"{"name":"g","systems":["l-csc"],"meters":["pdu"],
                "methodologies":["level1"],"windows":["middle"]}"#,
        );
        let scale = tiny_scale();
        let a = run_probe(&cell, 1, &scale, &store).unwrap();
        let misses_after_first = store.misses();
        // Same (cell, seed): the plan selects the same subset, so the
        // sweep is a pure cache hit — and the metrics are bit-identical.
        let b = run_probe(&cell, 1, &scale, &store).unwrap();
        assert!(a["reported_kw"] > 0.0);
        assert!(b["metered_nodes"] >= 1.0);
        assert_eq!(a, b);
        assert_eq!(store.misses(), misses_after_first);
        assert!(store.hits() > 0);
    }

    #[test]
    fn sibling_probes_share_one_simulation_sweep() {
        // `trace` and `gaming` differ only in the methodology dimension;
        // their simulation identity (system + workload + seed) matches,
        // so the second probe's sweep is served from the store.
        let store = TraceStore::new();
        let trace_cell = one_cell(r#"{"name":"g","systems":["l-csc"],"methodologies":["trace"]}"#);
        let gaming_cell =
            one_cell(r#"{"name":"g","systems":["l-csc"],"methodologies":["gaming"]}"#);
        let scale = tiny_scale();
        run_probe(&trace_cell, 7, &scale, &store).unwrap();
        let misses_after_trace = store.misses();
        let m = run_probe(&gaming_cell, 7, &scale, &store).unwrap();
        assert_eq!(store.misses(), misses_after_trace);
        assert!(store.hits() > 0);
        assert!(m["unrestricted_gain_pct"] >= m["level1_gain_pct"] - 1e-9);
    }

    #[test]
    fn accel_probe_reports_cap_conversion() {
        let cell = one_cell(r#"{"name":"g","systems":["k20x"],"methodologies":["accel"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m["devices"], 64.0);
        assert!(m["uncapped_power_cv_pct"] > 1.0, "{m:?}");
        assert!(
            m["capped_power_cv_pct"] < m["uncapped_power_cv_pct"],
            "{m:?}"
        );
        assert!(m["throttled_pct"] > 20.0, "{m:?}");
        assert!(m["runtime_spread_pct"] > 1.0, "{m:?}");
        // Different seed, different fleet.
        let other = run_probe(&cell, 2, &tiny_scale(), TraceStore::global()).unwrap();
        assert_ne!(m["uncapped_mean_w"], other["uncapped_mean_w"]);
        // Same seed: bit-identical.
        let again = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        assert_eq!(m, again);
    }

    #[test]
    fn occ_probe_error_stays_within_artifact_budget() {
        let cell = one_cell(r#"{"name":"g","systems":["v100"],"methodologies":["occ"]}"#);
        let m = run_probe(&cell, 3, &tiny_scale(), TraceStore::global()).unwrap();
        // Gain ±1.6%, offset ±2 W on ~300 W, ±0.5 W quantization and
        // window misalignment: end-to-end error bounded by ~3%.
        assert!(m["occ_error_pct"].abs() < 3.0, "{m:?}");
        assert!(m["gain_err_pct"].abs() <= 1.6 + 1e-9);
        assert!(m["offset_w"].abs() <= 2.0 + 1e-9);
        assert!(m["staleness_s"] >= 0.1 && m["staleness_s"] <= 0.6, "{m:?}");
        assert!(m["samples"] > 1_000.0);
    }

    #[test]
    fn eq5cap_probe_shows_naive_under_coverage() {
        let cell = one_cell(r#"{"name":"g","systems":["k20x"],"methodologies":["eq5cap"]}"#);
        let m = run_probe(&cell, 1, &tiny_scale(), TraceStore::global()).unwrap();
        // Sizing from the compressed capped power CV prescribes fewer
        // devices than the energy spread needs...
        assert!(m["n_power_sized"] < m["n_runtime_aware"], "{m:?}");
        // ...so the naive energy interval under-covers its nominal 95%.
        assert!(m["cov_energy_naive_pct"] < 95.0 - 10.0, "{m:?}");
        // Power-only claims stay calibrated, capped or not.
        assert!(m["cov_uncapped_power_pct"] > 90.0, "{m:?}");
        assert!(m["cov_capped_power_pct"] > 90.0, "{m:?}");
        // The runtime-aware fix restores energy coverage.
        assert!(m["cov_energy_aware_pct"] > 90.0, "{m:?}");
    }

    #[test]
    fn accel_probes_reject_cpu_presets_and_vice_versa() {
        let scale = tiny_scale();
        let cell = one_cell(r#"{"name":"g","systems":["colosse"],"methodologies":["accel"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown accelerator preset"), "{e}");
        let cell = one_cell(r#"{"name":"g","methodologies":["eq5cap"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("needs an accelerator system"), "{e}");
        let cell = one_cell(r#"{"name":"g","systems":["k20x"],"methodologies":["trace"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown system"), "{e}");
    }

    #[test]
    fn unknown_names_error_with_context() {
        let scale = tiny_scale();
        let cell = one_cell(r#"{"name":"g","methodologies":["nope"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown probe"), "{e}");
        let cell = one_cell(r#"{"name":"g","systems":["atlantis"],"methodologies":["trace"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown system"), "{e}");
        let cell = one_cell(
            r#"{"name":"g","systems":["l-csc"],"meters":["laser"],
                "methodologies":["level1"]}"#,
        );
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("unknown meter"), "{e}");
        let cell = one_cell(r#"{"name":"g","methodologies":["trace"]}"#);
        let e = run_probe(&cell, 1, &scale, TraceStore::global()).unwrap_err();
        assert!(e.reason.contains("needs a system"), "{e}");
    }
}
