//! Point-of-measurement handling (Aspect 4).
//!
//! Table 1's fourth aspect governs *where* power may be measured:
//! upstream of power conversion, or downstream with conversion losses
//! accounted — from manufacturer data (Level 1), off-line measurements
//! (Level 2), or simultaneous measurement (Level 3). This module refers
//! readings between points of the `power-sim` conversion hierarchy and
//! quantifies the bias of trusting manufacturer-claimed efficiencies, the
//! quiet inaccuracy the level distinctions exist to bound.

use power_sim::hierarchy::{MeasurementPoint, PowerHierarchy};

use crate::{MethodError, Result};

/// How conversion losses between the meter and the reference point are
/// accounted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossAccounting {
    /// Use the machine's true stage efficiencies (Level 3's simultaneous
    /// measurement, idealized).
    Measured,
    /// Use manufacturer-claimed stage efficiencies, which may differ from
    /// the truth (Level 1).
    ManufacturerData(PowerHierarchy),
}

/// Refers a reading taken at `meter_point` to `reference_point`.
///
/// `truth` is the machine's actual conversion chain (which produced the
/// reading); `accounting` is what the submitter uses to convert.
pub fn refer_reading(
    watts: f64,
    meter_point: MeasurementPoint,
    reference_point: MeasurementPoint,
    truth: &PowerHierarchy,
    accounting: LossAccounting,
) -> Result<f64> {
    if !(watts >= 0.0 && watts.is_finite()) {
        return Err(MethodError::InvalidConfig {
            field: "watts",
            reason: "reading must be non-negative and finite",
        });
    }
    truth.validate()?;
    let h = match accounting {
        LossAccounting::Measured => *truth,
        LossAccounting::ManufacturerData(claimed) => {
            claimed.validate()?;
            claimed
        }
    };
    Ok(h.convert(watts, meter_point, reference_point))
}

/// The relative error in the referred power from using claimed instead of
/// true efficiencies, for a reading at `meter_point` referred to
/// `reference_point`.
pub fn accounting_bias(
    truth: &PowerHierarchy,
    claimed: &PowerHierarchy,
    meter_point: MeasurementPoint,
    reference_point: MeasurementPoint,
) -> Result<f64> {
    truth.validate()?;
    claimed.validate()?;
    // For the same physical load, the true referred value uses the true
    // chain; the submitted value uses the claimed chain.
    let w = 1_000.0;
    let true_ref = truth.convert(w, meter_point, reference_point);
    let claimed_ref = claimed.convert(w, meter_point, reference_point);
    Ok(claimed_ref / true_ref - 1.0)
}

/// A typical optimistic data sheet: every stage claimed ~2 points better
/// than `truth` (vendors quote best-point efficiency; real loads sit off
/// the peak).
pub fn optimistic_datasheet(truth: &PowerHierarchy) -> PowerHierarchy {
    PowerHierarchy {
        psu_efficiency: (truth.psu_efficiency + 0.02).min(0.999),
        pdu_efficiency: (truth.pdu_efficiency + 0.005).min(0.999),
        ups_efficiency: (truth.ups_efficiency + 0.02).min(0.999),
        transformer_efficiency: (truth.transformer_efficiency + 0.005).min(0.999),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> PowerHierarchy {
        PowerHierarchy::typical()
    }

    #[test]
    fn measured_accounting_is_exact() {
        let t = truth();
        // A 1 kW load read at the PDU, referred to the node wall.
        let at_pdu = t.convert(
            1_000.0,
            MeasurementPoint::NodeWall,
            MeasurementPoint::PduInput,
        );
        let back = refer_reading(
            at_pdu,
            MeasurementPoint::PduInput,
            MeasurementPoint::NodeWall,
            &t,
            LossAccounting::Measured,
        )
        .unwrap();
        assert!((back - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn optimistic_datasheet_understates_power() {
        let t = truth();
        let claimed = optimistic_datasheet(&t);
        // Meter at UPS input, reference at node wall: the claimed chain
        // says less of the UPS reading is loss, so more is compute...
        // no: referring *downstream* divides by fewer losses under the
        // optimistic sheet, LOWERING the claimed node-wall power.
        let bias = accounting_bias(
            &t,
            &claimed,
            MeasurementPoint::UpsInput,
            MeasurementPoint::NodeWall,
        )
        .unwrap();
        assert!(bias > 0.0, "bias = {bias}");
        // ~2-3% for PDU+UPS stage optimism.
        assert!((0.005..0.06).contains(&bias), "bias = {bias}");
    }

    #[test]
    fn bias_grows_with_distance_from_reference() {
        let t = truth();
        let claimed = optimistic_datasheet(&t);
        let near = accounting_bias(
            &t,
            &claimed,
            MeasurementPoint::PduInput,
            MeasurementPoint::NodeWall,
        )
        .unwrap()
        .abs();
        let far = accounting_bias(
            &t,
            &claimed,
            MeasurementPoint::FacilityInput,
            MeasurementPoint::NodeWall,
        )
        .unwrap()
        .abs();
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn upstream_measurement_needs_no_accounting() {
        // Measuring at the reference point itself: zero bias whatever the
        // data sheet claims — the reason the methodology prefers upstream
        // measurement.
        let t = truth();
        let claimed = optimistic_datasheet(&t);
        let bias = accounting_bias(
            &t,
            &claimed,
            MeasurementPoint::NodeWall,
            MeasurementPoint::NodeWall,
        )
        .unwrap();
        assert!(bias.abs() < 1e-12);
    }

    #[test]
    fn validation() {
        let t = truth();
        assert!(refer_reading(
            f64::NAN,
            MeasurementPoint::PduInput,
            MeasurementPoint::NodeWall,
            &t,
            LossAccounting::Measured
        )
        .is_err());
        let mut bad = t;
        bad.psu_efficiency = 0.0;
        assert!(accounting_bias(
            &t,
            &bad,
            MeasurementPoint::PduInput,
            MeasurementPoint::NodeWall
        )
        .is_err());
    }
}
