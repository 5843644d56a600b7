//! Shared fixtures for the Criterion benchmark suite.
//!
//! Each bench target regenerates one of the paper's tables/figures (or an
//! ablation of a design choice) at a bench-friendly scale; the full-scale
//! reproduction lives in `power-repro`'s binaries. Bench names map to
//! paper artifacts as follows:
//!
//! | bench target      | paper artifact |
//! |-------------------|----------------|
//! | `bench_table2`    | Table 2 / Figure 1 trace generation |
//! | `bench_table4`    | Table 4 / Figure 2 per-node statistics, sim node-step throughput budget |
//! | `bench_table5`    | Table 5 sample-size grid + Eq. 4/5 kernels |
//! | `bench_figure3`   | Figure 3 bootstrap coverage study |
//! | `bench_figure4`   | Figure 4 case-study sweep |
//! | `bench_method`    | Level 1/2/3/Revised measurement execution |
//! | `bench_gaming`    | Section 3 optimal-interval scans |
//! | `bench_green500`  | Section 1 rank-stability Monte Carlo |
//! | `bench_ablations` | design-choice ablations (threads, dt, bootstrap memory strategy, window coverage) |
//! | `bench_telemetry` | streaming ingest, ring queries, stopping-rule push |
//! | `bench_serve`     | endpoint routing + loopback throughput budgets |
//! | `bench_archive`   | archive append/scan/compaction |
//! | `bench_fleet`     | fleet concurrency, partitioned-plane ingest, leaderboard latency budgets |
//!
//! Every bench binary ends by draining the [`report`] sink to a
//! machine-readable `BENCH_<name>.json` (see [`bench_main!`]), and the
//! targets with hard budgets enforce them through [`report::budget`] so
//! a regression fails `cargo bench` at the site that measured it.

pub mod report;

/// Drop-in replacement for `criterion_main!` that also drains the
/// [`report`] sink to `BENCH_<name>.json` after the groups run, with
/// every Criterion measurement recorded as `<group>/<id>.{min,median,
/// mean}_ns` beside the bench's own metrics, so every bench binary
/// leaves machine-readable evidence behind.
#[macro_export]
macro_rules! bench_main {
    ($name:literal, $($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            for m in ::criterion::take_measurements() {
                $crate::report::timing(&m.id, m.min_s, m.median_s, m.mean_s);
            }
            $crate::report::write($name);
        }
    };
}

use power_sim::cluster::Cluster;
use power_sim::engine::{MeterScope, ProductRequest, SimulationConfig, Simulator};
use power_sim::store::TraceStore;
use power_sim::systems::SystemPreset;
use power_sim::trace::SystemTrace;
use power_workload::RunPhases;

/// Simulation config used across benches.
pub fn bench_sim_config(dt: f64) -> SimulationConfig {
    SimulationConfig {
        dt,
        noise_sigma: 0.01,
        common_noise_sigma: 0.002,
        seed: 0xBE7C,
        threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
    }
}

/// A built, scaled-down preset ready to simulate.
pub struct Fixture {
    /// The preset (scaled).
    pub preset: SystemPreset,
    /// The built machine.
    pub cluster: Cluster,
    /// Time step matched to the run length.
    pub dt: f64,
}

/// Builds a fixture for a preset scaled to `nodes`.
pub fn fixture(preset: SystemPreset, nodes: usize) -> Fixture {
    let preset = preset.with_total_nodes(nodes);
    let cluster = Cluster::build(preset.cluster_spec.clone()).expect("preset valid");
    let core = preset.workload.workload().phases().core();
    let dt = (core / 400.0).max(1.0);
    Fixture {
        preset,
        cluster,
        dt,
    }
}

impl Fixture {
    /// Runs the whole-system trace for this fixture. Served from the
    /// process-wide [`TraceStore`], so bench targets sharing a fixture do
    /// not pay the simulation twice. Benches that *measure* simulation
    /// cost build their own [`Simulator`] inside the timed loop instead.
    pub fn system_trace(&self) -> (SystemTrace, RunPhases) {
        let workload = self.preset.workload.workload();
        let sim = Simulator::new(
            &self.cluster,
            workload,
            self.preset.balance,
            bench_sim_config(self.dt),
        )
        .expect("config valid");
        let products = TraceStore::global()
            .products(&sim, &ProductRequest::system_only())
            .expect("trace");
        (
            products
                .system_trace(MeterScope::Wall)
                .expect("system was requested")
                .clone(),
            workload.phases(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_traces() {
        let f = fixture(power_sim::systems::lcsc(), 32);
        assert_eq!(f.cluster.len(), 32);
        let (trace, phases) = f.system_trace();
        assert!(trace.len() > 100);
        assert!(phases.core() > 0.0);
    }
}
