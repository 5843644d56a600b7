//! The workloads a machine can run, as one owned value.
//!
//! A [`WorkloadSpec`] is one of this crate's workload types with its
//! parameters. Presets own one, and the campaign harness resolves the
//! short names scenario files declare (the paper's benchmark set) through
//! [`WorkloadSpec::by_name`] — the single place those names are resolved,
//! so scenario files, the HTTP service and the CLI agree.

use crate::{
    Firestarter, Graph500, Hpl, HplVariant, IoPhase, MPrime, RodiniaCfd, RunPhases, Workload,
};

/// A workload by value: every implementation in this crate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadSpec {
    /// High-Performance Linpack.
    Hpl(Hpl),
    /// FIRESTARTER stress test.
    Firestarter(Firestarter),
    /// MPrime torture test.
    MPrime(MPrime),
    /// Rodinia CFD solver.
    Rodinia(RodiniaCfd),
    /// Graph500-style breadth-first search.
    Graph500(Graph500),
    /// Compute bursts alternating with heavy-tailed I/O stalls.
    IoPhase(IoPhase),
}

impl WorkloadSpec {
    /// Canonical workload names accepted by [`WorkloadSpec::by_name`], in
    /// registry order.
    pub fn names() -> [&'static str; 7] {
        [
            "hpl-cpu",
            "hpl-gpu",
            "firestarter",
            "mprime",
            "rodinia",
            "graph500",
            "iophase",
        ]
    }

    /// Resolves a scenario-file workload name.
    ///
    /// `phases` gives the run's phase structure; `total_flops` is the
    /// useful whole-machine flop count (HPL variants only — the stress
    /// workloads ignore it, matching [`Workload::total_flops`]'s zero
    /// default). Matching is case-insensitive and treats `_` and `-`
    /// alike; returns `None` for unknown names or an HPL flop count that
    /// is not a positive finite number.
    pub fn by_name(name: &str, phases: RunPhases, total_flops: f64) -> Option<WorkloadSpec> {
        let key: String = name
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        Some(match key.as_str() {
            "hplcpu" | "hpl" => {
                WorkloadSpec::Hpl(Hpl::new(HplVariant::CpuMainMemory, phases, total_flops).ok()?)
            }
            "hplgpu" => {
                WorkloadSpec::Hpl(Hpl::new(HplVariant::GpuInCore, phases, total_flops).ok()?)
            }
            "firestarter" => WorkloadSpec::Firestarter(Firestarter::new(phases)),
            "mprime" => WorkloadSpec::MPrime(MPrime::new(phases)),
            "rodinia" | "rodiniacfd" => WorkloadSpec::Rodinia(RodiniaCfd::new(phases)),
            "graph500" => WorkloadSpec::Graph500(Graph500::new(phases)),
            "iophase" | "io" => WorkloadSpec::IoPhase(IoPhase::new(phases, total_flops.max(0.0))?),
            _ => return None,
        })
    }

    /// Borrows the workload as the trait object the simulator drives.
    pub fn workload(&self) -> &dyn Workload {
        match self {
            WorkloadSpec::Hpl(w) => w,
            WorkloadSpec::Firestarter(w) => w,
            WorkloadSpec::MPrime(w) => w,
            WorkloadSpec::Rodinia(w) => w,
            WorkloadSpec::Graph500(w) => w,
            WorkloadSpec::IoPhase(w) => w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_resolves() {
        let phases = RunPhases::new(60.0, 3600.0, 60.0).unwrap();
        for name in WorkloadSpec::names() {
            let wl = WorkloadSpec::by_name(name, phases, 1.0e15)
                .unwrap_or_else(|| panic!("{name} should resolve"));
            let u = wl.workload().utilization(0, phases.core_start() + 1.0);
            assert!((0.0..=1.0).contains(&u), "{name}: {u}");
        }
    }

    #[test]
    fn name_matching_is_forgiving() {
        let phases = RunPhases::new(60.0, 3600.0, 60.0).unwrap();
        assert!(WorkloadSpec::by_name("HPL_CPU", phases, 1.0e15).is_some());
        assert!(WorkloadSpec::by_name("hpl-gpu", phases, 1.0e15).is_some());
        assert!(WorkloadSpec::by_name("FIRESTARTER", phases, 0.0).is_some());
        assert!(WorkloadSpec::by_name("linpack", phases, 1.0e15).is_none());
    }

    #[test]
    fn hpl_rejects_bad_flops() {
        let phases = RunPhases::new(60.0, 3600.0, 60.0).unwrap();
        assert!(WorkloadSpec::by_name("hpl-cpu", phases, -1.0).is_none());
        assert!(WorkloadSpec::by_name("hpl-gpu", phases, f64::NAN).is_none());
    }
}
