//! Workload load models for the simulated supercomputer substrate.
//!
//! The SC '15 paper's time-variability findings are driven by the *shape* of
//! the load a benchmark places on each node over a run:
//!
//! * CPU-class HPL runs (Colosse, Sequoia) fill main memory, run for many
//!   hours, and hold an almost perfectly flat utilization until a short
//!   trailing-matrix tail — segment averages agree to a fraction of a
//!   percent (paper Table 2);
//! * GPU in-core HPL runs (Piz Daint, L-CSC) store the matrix in GPU memory,
//!   finish in ~1.5 h, and lose utilization steadily as the trailing matrix
//!   shrinks — first-20% and last-20% averages differ by **more than 20%**;
//! * stress workloads (FIRESTARTER, MPrime) and the Rodinia CFD solver used
//!   on Titan's GPUs hold near-constant load, which is why they are suitable
//!   for the *inter-node* variability study of Section 4.
//!
//! A [`Workload`] maps `(node, time)` to a utilization in `[0, 1]`; the
//! `power-sim` engine turns utilization plus thermal/fan/DVFS state into
//! watts.

#![warn(missing_docs)]

pub mod balance;
pub mod firestarter;
pub mod graph500;
pub mod hpl;
pub mod iophase;
pub mod mprime;
pub mod phase;
pub mod registry;
pub mod rodinia;

pub use balance::LoadBalance;
pub use firestarter::Firestarter;
pub use graph500::Graph500;
pub use hpl::{Hpl, HplShape, HplVariant};
pub use iophase::IoPhase;
pub use mprime::MPrime;
pub use phase::RunPhases;
pub use registry::WorkloadSpec;
pub use rodinia::RodiniaCfd;

use power_stats::hash::Fnv1a;

/// A workload: a named load pattern over the nodes of a machine.
///
/// Utilization is a dimensionless fraction of the node's peak dynamic
/// activity; the simulator composes it with per-node load-balance factors,
/// DVFS state and thermal dynamics to produce power.
pub trait Workload: Send + Sync {
    /// Human-readable workload name (e.g. `"HPL"`).
    fn name(&self) -> &str;

    /// Phase structure (setup / core / teardown durations) of one run.
    fn phases(&self) -> RunPhases;

    /// Utilization of `node` at absolute run time `t` seconds (measured
    /// from the start of the *setup* phase). Must return a value in
    /// `[0, 1]`; outside the run it should return the idle level.
    fn utilization(&self, node: usize, t: f64) -> f64;

    /// The time-independent, per-node part of [`Workload::utilization`]:
    /// whatever about a node's value does not change over the run, for
    /// [`Workload::utilizations`] to read back. It is a pure function of
    /// the node; the simulator computes it once per node per sweep. The
    /// default, `[0.0; 2]`, is for workloads that need none.
    fn lane_term(&self, _node: usize) -> [f64; 2] {
        [0.0; 2]
    }

    /// Utilization of every node in `nodes` at time `t`, written to `out`
    /// in the same order. `terms[k]` is `lane_term(nodes[k])`; `terms` and
    /// `out` have `nodes.len()` entries.
    ///
    /// Each value must be bit-identical to `utilization(node, t)`; the
    /// default loops over it. Workloads whose per-node value shares an
    /// expensive node-independent part override this to compute that part
    /// once per call, and read each node's time-independent part from its
    /// term — the simulator calls it once per time step for a whole block
    /// of nodes.
    fn utilizations(&self, t: f64, nodes: &[usize], terms: &[[f64; 2]], out: &mut [f64]) {
        debug_assert_eq!(nodes.len(), out.len());
        debug_assert_eq!(terms.len(), out.len());
        for (u, &node) in out.iter_mut().zip(nodes) {
            *u = self.utilization(node, t);
        }
    }

    /// Total useful floating-point operations performed by the run across
    /// the whole machine (used for FLOPS/W metrics). Zero for workloads
    /// without a meaningful flop count.
    fn total_flops(&self) -> f64 {
        0.0
    }

    /// Feeds the workload's identity into `h`: a tag naming the type,
    /// then every parameter [`Workload::utilization`] and
    /// [`Workload::total_flops`] read. Two workloads that feed the same
    /// bytes must produce the same utilizations everywhere — simulation
    /// caches key results by this hash.
    ///
    /// Implementations destructure `self` without `..`, so a new field
    /// does not compile until it is hashed.
    fn fingerprint(&self, h: &mut Fnv1a);
}

/// Asserts that no two of `loads` share a [`Workload::fingerprint`]. Each
/// workload's tests perturb every field in turn through it.
#[cfg(test)]
pub(crate) fn assert_fingerprints_distinct(loads: &[&dyn Workload]) {
    let mut seen = std::collections::HashMap::new();
    for (i, wl) in loads.iter().enumerate() {
        let mut h = Fnv1a::default();
        wl.fingerprint(&mut h);
        if let Some(j) = seen.insert(h.finish(), i) {
            panic!("{} variants {j} and {i} share a fingerprint", wl.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_types_fingerprint_apart() {
        let phases = RunPhases::new(60.0, 3600.0, 60.0).unwrap();
        assert_fingerprints_distinct(&[
            &Hpl::new(HplVariant::CpuMainMemory, phases, 1.0e15).unwrap(),
            &Hpl::new(HplVariant::GpuInCore, phases, 1.0e15).unwrap(),
            &Firestarter::new(phases),
            &MPrime::new(phases),
            &RodiniaCfd::new(phases),
            &Graph500::new(phases),
            &IoPhase::new(phases, 1.0e15).unwrap(),
        ]);
    }

    /// Any workload in this crate must produce in-range utilizations
    /// throughout and beyond its run.
    #[test]
    fn all_workloads_stay_in_unit_range() {
        let phases = RunPhases::new(60.0, 3600.0, 60.0).unwrap();
        let loads: Vec<Box<dyn Workload>> = vec![
            Box::new(Hpl::new(HplVariant::CpuMainMemory, phases, 1.0e15).unwrap()),
            Box::new(Hpl::new(HplVariant::GpuInCore, phases, 1.0e15).unwrap()),
            Box::new(Firestarter::new(phases)),
            Box::new(MPrime::new(phases)),
            Box::new(RodiniaCfd::new(phases)),
            Box::new(Graph500::new(phases)),
            Box::new(IoPhase::new(phases, 1.0e15).unwrap()),
        ];
        for wl in &loads {
            for node in [0usize, 3, 999] {
                for i in 0..200 {
                    let t = -10.0 + i as f64 * (phases.total() + 40.0) / 200.0;
                    let u = wl.utilization(node, t);
                    assert!(
                        (0.0..=1.0).contains(&u),
                        "{} out of range at t={t}: {u}",
                        wl.name()
                    );
                }
            }
        }
    }
}
