//! Facility-level power composition.
//!
//! Section 2.2 of the paper: "A measurement of the entire facility power
//! usually includes other components such as storage, other compute
//! clusters, and infrastructure. As such, it cannot be used to get an
//! accurate power measurement of an isolated supercomputer." This module
//! makes that claim quantifiable: a [`Facility`] hosts the machine under
//! test alongside co-tenant loads and building overheads, produces the
//! trace a facility meter would record, and reports the bias of treating
//! that reading as the machine's power.

use crate::trace::SystemTrace;
use crate::{Result, SimError};

/// A co-tenant load in the facility.
#[derive(Debug, Clone, PartialEq)]
pub enum CoTenant {
    /// A constant draw (storage arrays, tape libraries, infrastructure
    /// racks).
    Constant {
        /// Label for reports.
        name: String,
        /// Draw in watts.
        watts: f64,
    },
    /// Another cluster with its own trace (need not be aligned with the
    /// machine under test; sampled with zero-order hold, idle outside).
    Trace {
        /// Label for reports.
        name: String,
        /// The co-tenant's own power trace.
        trace: SystemTrace,
    },
}

impl CoTenant {
    /// The co-tenant's power at time `t`.
    pub fn power_at(&self, t: f64) -> f64 {
        match self {
            CoTenant::Constant { watts, .. } => *watts,
            CoTenant::Trace { trace, .. } => {
                if t < trace.t0 || t >= trace.t_end() || trace.is_empty() {
                    0.0
                } else {
                    let idx = ((t - trace.t0) / trace.dt) as usize;
                    trace.watts[idx.min(trace.watts.len() - 1)]
                }
            }
        }
    }

    /// The co-tenant's label.
    pub fn name(&self) -> &str {
        match self {
            CoTenant::Constant { name, .. } | CoTenant::Trace { name, .. } => name,
        }
    }
}

/// A facility: the machine under test plus everything else behind the
/// same utility meter.
#[derive(Debug, Clone, PartialEq)]
pub struct Facility {
    /// Co-tenant loads.
    pub tenants: Vec<CoTenant>,
    /// Cooling overhead as a fraction of total IT power (PUE - 1, e.g.
    /// 0.35 for a PUE of 1.35).
    pub cooling_overhead: f64,
}

impl Facility {
    /// A facility with no co-tenants and a given PUE.
    pub fn dedicated(pue: f64) -> Result<Self> {
        if !(1.0..3.0).contains(&pue) {
            return Err(SimError::InvalidConfig {
                field: "pue",
                reason: "PUE must lie in [1, 3)",
            });
        }
        Ok(Facility {
            tenants: Vec::new(),
            cooling_overhead: pue - 1.0,
        })
    }

    /// Adds a co-tenant.
    pub fn with_tenant(mut self, tenant: CoTenant) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// The trace the facility utility meter records while `machine` (the
    /// system under test) runs.
    pub fn meter_trace(&self, machine: &SystemTrace) -> Result<SystemTrace> {
        if machine.is_empty() {
            return Err(SimError::InvalidConfig {
                field: "machine",
                reason: "machine trace must be non-empty",
            });
        }
        let watts = machine
            .watts
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let t = machine.time_at(i);
                let it = w + self.tenants.iter().map(|c| c.power_at(t)).sum::<f64>();
                it * (1.0 + self.cooling_overhead)
            })
            .collect();
        SystemTrace::new(machine.t0, machine.dt, watts)
    }

    /// The relative overstatement of the machine's power from attributing
    /// the whole facility reading to it, averaged over `[from, to)`.
    pub fn attribution_bias(&self, machine: &SystemTrace, from: f64, to: f64) -> Result<f64> {
        let facility = self.meter_trace(machine)?;
        let fac = facility.window_average(from, to)?;
        let mach = machine.window_average(from, to)?;
        if mach <= 0.0 {
            return Err(SimError::InvalidConfig {
                field: "machine",
                reason: "machine draws no power in the window",
            });
        }
        Ok(fac / mach - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> SystemTrace {
        SystemTrace::new(0.0, 1.0, vec![50_000.0; 100]).unwrap()
    }

    #[test]
    fn dedicated_facility_is_pue_only() {
        let f = Facility::dedicated(1.35).unwrap();
        let trace = f.meter_trace(&machine()).unwrap();
        assert!((trace.mean() - 50_000.0 * 1.35).abs() < 1e-6);
        let bias = f.attribution_bias(&machine(), 0.0, 100.0).unwrap();
        assert!((bias - 0.35).abs() < 1e-9);
    }

    #[test]
    fn constant_tenants_add() {
        let f = Facility::dedicated(1.0)
            .unwrap()
            .with_tenant(CoTenant::Constant {
                name: "storage".into(),
                watts: 10_000.0,
            })
            .with_tenant(CoTenant::Constant {
                name: "infra".into(),
                watts: 5_000.0,
            });
        let bias = f.attribution_bias(&machine(), 0.0, 100.0).unwrap();
        assert!((bias - 0.3).abs() < 1e-9); // 15/50
    }

    #[test]
    fn trace_tenant_overlaps_partially() {
        // Co-tenant runs only during [20, 60): the facility reading is
        // contaminated in that window and clean elsewhere.
        let tenant_trace = SystemTrace::new(20.0, 1.0, vec![25_000.0; 40]).unwrap();
        let f = Facility::dedicated(1.0)
            .unwrap()
            .with_tenant(CoTenant::Trace {
                name: "other-cluster".into(),
                trace: tenant_trace,
            });
        let clean = f.attribution_bias(&machine(), 0.0, 20.0).unwrap();
        let dirty = f.attribution_bias(&machine(), 20.0, 60.0).unwrap();
        assert!(clean.abs() < 1e-9);
        assert!((dirty - 0.5).abs() < 1e-9);
        // Whole-run average sits in between.
        let avg = f.attribution_bias(&machine(), 0.0, 100.0).unwrap();
        assert!(avg > 0.1 && avg < 0.5);
    }

    #[test]
    fn paper_claim_facility_reading_unusable() {
        // A realistic facility: PUE 1.25, storage + a second cluster at
        // half the machine's draw. The facility number overstates the
        // machine by far more than any methodology tolerance.
        let f = Facility::dedicated(1.25)
            .unwrap()
            .with_tenant(CoTenant::Constant {
                name: "storage".into(),
                watts: 8_000.0,
            })
            .with_tenant(CoTenant::Trace {
                name: "cluster-B".into(),
                trace: SystemTrace::new(0.0, 1.0, vec![25_000.0; 100]).unwrap(),
            });
        let bias = f.attribution_bias(&machine(), 0.0, 100.0).unwrap();
        assert!(bias > 0.5, "facility bias = {bias:.3}");
    }

    #[test]
    fn tenant_accessors_and_validation() {
        let c = CoTenant::Constant {
            name: "x".into(),
            watts: 1.0,
        };
        assert_eq!(c.name(), "x");
        assert_eq!(c.power_at(123.0), 1.0);
        assert!(Facility::dedicated(0.9).is_err());
        assert!(Facility::dedicated(5.0).is_err());
        let f = Facility::dedicated(1.2).unwrap();
        let empty = SystemTrace::new(0.0, 1.0, vec![]).unwrap();
        assert!(f.meter_trace(&empty).is_err());
    }
}
