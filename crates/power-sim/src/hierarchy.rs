//! Power-distribution hierarchy and measurement points.
//!
//! Aspect 4 of the EE HPC WG methodology governs *where in the power
//! hierarchy* a measurement may be taken: upstream of power conversion, or
//! downstream with conversion losses modelled (Level 1: manufacturer data;
//! Level 2: off-line measurements; Level 3: simultaneous measurement).
//! This module models the conversion chain
//!
//! ```text
//! facility transformer -> UPS -> PDU -> node PSU -> node DC rails
//! ```
//!
//! with a per-stage efficiency, so that a reading at any point can be
//! referred to any other point, and so that reproduction experiments can
//! quantify the error of using nameplate instead of measured efficiencies.

use crate::{Result, SimError};

/// Points at which a meter can be attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MeasurementPoint {
    /// Node-internal DC rails (downstream of the node PSU).
    NodeDc,
    /// Node wall plug (upstream of the node PSU) — the methodology's
    /// canonical "upstream of power conversion" point for compute nodes.
    NodeWall,
    /// PDU input.
    PduInput,
    /// UPS input.
    UpsInput,
    /// Facility transformer input.
    FacilityInput,
}

/// Per-stage efficiencies of the distribution chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerHierarchy {
    /// Node PSU efficiency (DC out / AC in).
    pub psu_efficiency: f64,
    /// PDU efficiency (output / input).
    pub pdu_efficiency: f64,
    /// UPS efficiency (output / input).
    pub ups_efficiency: f64,
    /// Facility transformer efficiency (output / input).
    pub transformer_efficiency: f64,
}

impl PowerHierarchy {
    /// Typical modern data-center chain: 92% PSU, 99% PDU, 95% UPS
    /// (double-conversion), 98.5% transformer.
    pub fn typical() -> Self {
        PowerHierarchy {
            psu_efficiency: 0.92,
            pdu_efficiency: 0.99,
            ups_efficiency: 0.95,
            transformer_efficiency: 0.985,
        }
    }

    /// Validates stage efficiencies.
    pub fn validate(&self) -> Result<()> {
        for (field, v) in [
            ("psu_efficiency", self.psu_efficiency),
            ("pdu_efficiency", self.pdu_efficiency),
            ("ups_efficiency", self.ups_efficiency),
            ("transformer_efficiency", self.transformer_efficiency),
        ] {
            if !(v > 0.0 && v <= 1.0) {
                return Err(SimError::InvalidConfig {
                    field,
                    reason: "stage efficiency must lie in (0, 1]",
                });
            }
        }
        Ok(())
    }

    /// Cumulative efficiency from `point` down to the node DC rails,
    /// i.e. `P_dc = eff * P(point)`.
    pub fn efficiency_to_dc(&self, point: MeasurementPoint) -> f64 {
        match point {
            MeasurementPoint::NodeDc => 1.0,
            MeasurementPoint::NodeWall => self.psu_efficiency,
            MeasurementPoint::PduInput => self.psu_efficiency * self.pdu_efficiency,
            MeasurementPoint::UpsInput => {
                self.psu_efficiency * self.pdu_efficiency * self.ups_efficiency
            }
            MeasurementPoint::FacilityInput => {
                self.psu_efficiency
                    * self.pdu_efficiency
                    * self.ups_efficiency
                    * self.transformer_efficiency
            }
        }
    }

    /// Converts a power reading taken at `from` into the equivalent power
    /// at `to` (both for the same underlying load).
    pub fn convert(&self, watts: f64, from: MeasurementPoint, to: MeasurementPoint) -> f64 {
        // Refer to DC, then back out to the target point.
        let dc = watts * self.efficiency_to_dc(from);
        dc / self.efficiency_to_dc(to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn efficiencies_compound_downstream() {
        let h = PowerHierarchy::typical();
        let mut prev = 1.1;
        for p in [
            MeasurementPoint::NodeDc,
            MeasurementPoint::NodeWall,
            MeasurementPoint::PduInput,
            MeasurementPoint::UpsInput,
            MeasurementPoint::FacilityInput,
        ] {
            let e = h.efficiency_to_dc(p);
            assert!(e < prev, "{p:?}");
            assert!(e > 0.0 && e <= 1.0);
            prev = e;
        }
    }

    #[test]
    fn convert_round_trips() {
        let h = PowerHierarchy::typical();
        let w = 1000.0;
        for from in [
            MeasurementPoint::NodeDc,
            MeasurementPoint::PduInput,
            MeasurementPoint::FacilityInput,
        ] {
            for to in [MeasurementPoint::NodeWall, MeasurementPoint::UpsInput] {
                let there = h.convert(w, from, to);
                let back = h.convert(there, to, from);
                assert!((back - w).abs() < 1e-9, "{from:?} -> {to:?}");
            }
        }
    }

    #[test]
    fn upstream_reads_higher() {
        let h = PowerHierarchy::typical();
        // 1000 W at the node wall looks larger at the facility input.
        let at_facility = h.convert(
            1000.0,
            MeasurementPoint::NodeWall,
            MeasurementPoint::FacilityInput,
        );
        assert!(at_facility > 1000.0);
        // And smaller at the DC rails.
        let at_dc = h.convert(1000.0, MeasurementPoint::NodeWall, MeasurementPoint::NodeDc);
        assert!((at_dc - 920.0).abs() < 1e-9);
    }

    #[test]
    fn identity_conversion() {
        let h = PowerHierarchy::typical();
        assert_eq!(
            h.convert(
                500.0,
                MeasurementPoint::PduInput,
                MeasurementPoint::PduInput
            ),
            500.0
        );
    }

    #[test]
    fn validation() {
        assert!(PowerHierarchy::typical().validate().is_ok());
        let mut h = PowerHierarchy::typical();
        h.ups_efficiency = 0.0;
        assert!(h.validate().is_err());
        let mut h = PowerHierarchy::typical();
        h.pdu_efficiency = 1.01;
        assert!(h.validate().is_err());
    }
}
