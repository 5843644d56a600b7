//! The paper's simulated artifacts over the paper's systems, computed by
//! the shared [`power_campaign::artifacts`] functions.
//!
//! Seed policy: the one the campaign probes use,
//! [`artifacts::stream_seed`]`(stream, seed)`, with a fixed stream per
//! simulation — `i` for the i-th trace system, `0x40 + i` for the i-th
//! variability system, `0xF163` for the Figure 3 bootstrap.
//! Simulations share the process-wide [`TraceStore`], so Figure 3 reuses
//! Table 4's LRZ sweep.

use power_campaign::artifacts::{
    self, stream_seed, GamingRow, Result, Table2Row, Table4Row, TraceResult,
};
use power_campaign::Scale;
use power_sim::store::TraceStore;
use power_sim::systems::SystemPreset;
use power_stats::bootstrap::CoveragePoint;

/// Simulation workers: every core. No simulation product depends on the
/// count.
pub fn sim_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |p| p.get())
}

/// Simulates the four Figure 1 / Table 2 systems.
pub fn traces(scale: &Scale, seed: u64) -> Result<Vec<TraceResult>> {
    SystemPreset::trace_presets()
        .into_iter()
        .enumerate()
        .map(|(i, preset)| {
            let full = preset.targets.population;
            let n = scale.clamp_nodes(preset.cluster_spec.total_nodes);
            let preset = preset.with_total_nodes(n);
            artifacts::system_trace(
                &preset,
                full,
                scale,
                TraceStore::global(),
                stream_seed(i as u64, seed),
                sim_threads(),
            )
        })
        .collect()
}

/// Table 2 from the traces.
pub fn table2(traces: &[TraceResult]) -> Result<Vec<Table2Row>> {
    traces.iter().map(artifacts::table2_row).collect()
}

/// The Section 3 optimal-interval exploits on the traces.
pub fn gaming(scale: &Scale, traces: &[TraceResult]) -> Result<Vec<GamingRow>> {
    traces
        .iter()
        .map(|t| artifacts::gaming_row(t, scale))
        .collect()
}

/// Table 4 (and the Figure 2 inputs) for the six node-variability
/// systems.
pub fn table4(scale: &Scale, seed: u64) -> Result<Vec<Table4Row>> {
    SystemPreset::variability_presets()
        .into_iter()
        .enumerate()
        .map(|(i, preset)| variability_row(i, preset, scale, seed))
        .collect()
}

fn variability_row(i: usize, preset: SystemPreset, scale: &Scale, seed: u64) -> Result<Table4Row> {
    let n = scale.clamp_nodes(preset.measured_nodes.max(200));
    let preset = preset.with_total_nodes(n);
    let averages = artifacts::node_averages(
        &preset,
        scale,
        TraceStore::global(),
        stream_seed(0x40 + i as u64, seed),
        sim_threads(),
    )?;
    artifacts::table4_row(&preset, averages)
}

/// Figure 3: the bootstrap coverage study on the LRZ Table 4 pilot.
pub fn figure3(scale: &Scale, seed: u64) -> Result<Vec<CoveragePoint>> {
    let (i, lrz) = SystemPreset::variability_presets()
        .into_iter()
        .enumerate()
        .find(|(_, p)| p.name == "LRZ")
        .expect("LRZ is a variability preset");
    let pilot = variability_row(i, lrz, scale, seed)?;
    artifacts::coverage(
        &pilot.node_averages,
        &[3, 5, 10, 15, 20, 30, 50],
        &[0.80, 0.95, 0.99],
        scale,
        stream_seed(0xF163, seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_sim::cluster::Cluster;
    use power_sim::engine::{MeterScope, ProductRequest, Simulator};
    use power_stats::bootstrap::{coverage_study, CoverageConfig};
    use power_stats::empirical::Empirical;

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
    fn table2_shape_holds_at_tiny_scale() {
        let rows = table2(&traces(&tiny_scale(), 7).unwrap()).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            // Full-population kW magnitude matches the paper within 5%.
            let target = row.targets.core_kw.unwrap();
            assert!(
                (row.core_kw - target).abs() / target < 0.05,
                "{}: {} vs {}",
                row.name,
                row.core_kw,
                target
            );
        }
        // GPU systems drop >15% first-to-last; Colosse < 2%.
        let lcsc = rows.iter().find(|r| r.name == "L-CSC").unwrap();
        assert!((lcsc.first20_kw - lcsc.last20_kw) / lcsc.core_kw > 0.15);
        let colosse = rows.iter().find(|r| r.name == "Colosse").unwrap();
        assert!(((colosse.first20_kw - colosse.last20_kw) / colosse.core_kw).abs() < 0.02);
    }

    #[test]
    fn table4_rows_complete() {
        let rows = table4(&tiny_scale(), 7).unwrap();
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(
                row.cv > 0.005 && row.cv < 0.06,
                "{}: cv {}",
                row.name,
                row.cv
            );
            assert_eq!(row.node_averages.len(), row.simulated_nodes);
        }
    }

    #[test]
    fn figure3_coverage_reasonable_at_tiny_scale() {
        let pts = figure3(&tiny_scale(), 7).unwrap();
        assert_eq!(pts.len(), 7 * 3);
        for p in &pts {
            // 200 reps is noisy; just require the right ballpark.
            assert!(
                (p.coverage - p.confidence).abs() < 0.12,
                "n={} conf={} coverage={}",
                p.n,
                p.confidence,
                p.coverage
            );
        }
    }

    /// Figure 3 must not depend on the host's core count: it equals the
    /// study on two bootstrap workers whatever `available_parallelism`
    /// says.
    #[test]
    fn figure3_is_host_independent() {
        let scale = tiny_scale();
        let lrz = table4(&scale, 7)
            .unwrap()
            .into_iter()
            .find(|r| r.name == "LRZ")
            .unwrap();
        let direct = coverage_study(
            &Empirical::new(&lrz.node_averages).unwrap(),
            &CoverageConfig {
                population_size: scale.bootstrap_population,
                sample_sizes: vec![3, 5, 10, 15, 20, 30, 50],
                confidences: vec![0.80, 0.95, 0.99],
                replications: scale.bootstrap_reps,
                threads: 2,
                seed: stream_seed(0xF163, 7),
            },
        )
        .unwrap();
        assert_eq!(figure3(&scale, 7).unwrap(), direct);
    }

    /// System traces must not depend on the host's core count: each
    /// equals the trace simulated on one worker, whatever
    /// `available_parallelism` says.
    #[test]
    fn traces_are_host_independent() {
        let scale = tiny_scale();
        let got = traces(&scale, 7).unwrap();
        for (i, preset) in SystemPreset::trace_presets().into_iter().enumerate() {
            let full = preset.targets.population as f64;
            let n = scale.clamp_nodes(preset.cluster_spec.total_nodes);
            let preset = preset.with_total_nodes(n);
            let cluster = Cluster::build(preset.cluster_spec.clone()).unwrap();
            let workload = preset.workload.workload();
            let cfg = artifacts::sim_config(
                &scale,
                workload.phases().core(),
                stream_seed(i as u64, 7),
                1,
            );
            let sim = Simulator::new(&cluster, workload, preset.balance, cfg).unwrap();
            let products = sim.run_products(&ProductRequest::system_only()).unwrap();
            let one_worker = products.system_trace(MeterScope::Wall).unwrap();
            assert_eq!(
                got[i].trace,
                one_worker.scaled(full / cluster.len() as f64),
                "{}",
                got[i].name
            );
        }
    }

    #[test]
    fn gaming_rows_reproduce_section3() {
        let scale = tiny_scale();
        let rows = gaming(&scale, &traces(&scale, 7).unwrap()).unwrap();
        let lcsc = rows.iter().find(|r| r.name == "L-CSC").unwrap();
        // Unrestricted search (the published 23.9% regime) beats the
        // middle-80%-restricted Level 1 search.
        assert!(lcsc.unrestricted.gaming_gain() >= lcsc.level1.gaming_gain());
        assert!(lcsc.unrestricted.gaming_gain() > 0.15);
        let colosse = rows.iter().find(|r| r.name == "Colosse").unwrap();
        assert!(colosse.unrestricted.gaming_gain() < 0.02);
    }
}
