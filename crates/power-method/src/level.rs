//! Methodology quality levels (paper Table 1) and the revised rules.

use crate::fraction::FractionRule;
use crate::window::TimingRule;
use power_sim::hierarchy::MeasurementPoint;

/// Granularity requirement (Aspect 1a).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Granularity {
    /// At least one averaged power sample per second.
    OneSamplePerSecond,
    /// Continuously integrated energy.
    IntegratedEnergy,
}

/// Subsystem coverage requirement (Aspect 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SubsystemRule {
    /// Compute nodes only.
    ComputeNodesOnly,
    /// All participating subsystems, measured or estimated.
    AllParticipatingMeasuredOrEstimated,
    /// All participating subsystems, measured.
    AllParticipatingMeasured,
}

/// Point-of-measurement requirement (Aspect 4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConversionRule {
    /// Upstream of power conversion, or downstream with
    /// manufacturer-supplied loss data.
    UpstreamOrManufacturerData,
    /// Upstream, or downstream with off-line loss measurements.
    UpstreamOrOfflineMeasurement,
    /// Upstream, or conversion loss measured simultaneously.
    UpstreamOrSimultaneousMeasurement,
}

/// A named methodology variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Methodology {
    /// EE HPC WG Level 1 (the most common real-world submission class).
    Level1,
    /// EE HPC WG Level 2.
    Level2,
    /// EE HPC WG Level 3.
    Level3,
    /// The paper's proposed revision: full-core-phase timing and
    /// max(16, 10%) machine fraction, with a mandatory accuracy
    /// assessment. Adopted by the Green500/Top500 in the late-2015
    /// timeframe.
    Revised,
}

impl Methodology {
    /// The full requirement set of this methodology.
    pub fn spec(&self) -> MethodologySpec {
        match self {
            Methodology::Level1 => MethodologySpec {
                methodology: *self,
                granularity: Granularity::OneSamplePerSecond,
                timing: TimingRule::level1(),
                fraction: FractionRule::level1(),
                subsystems: SubsystemRule::ComputeNodesOnly,
                conversion: ConversionRule::UpstreamOrManufacturerData,
                reference_point: MeasurementPoint::NodeWall,
                requires_accuracy_assessment: false,
            },
            Methodology::Level2 => MethodologySpec {
                methodology: *self,
                granularity: Granularity::OneSamplePerSecond,
                timing: TimingRule::level2(),
                fraction: FractionRule::level2(),
                subsystems: SubsystemRule::AllParticipatingMeasuredOrEstimated,
                conversion: ConversionRule::UpstreamOrOfflineMeasurement,
                reference_point: MeasurementPoint::NodeWall,
                requires_accuracy_assessment: false,
            },
            Methodology::Level3 => MethodologySpec {
                methodology: *self,
                granularity: Granularity::IntegratedEnergy,
                timing: TimingRule::FullCore,
                fraction: FractionRule::All,
                subsystems: SubsystemRule::AllParticipatingMeasured,
                conversion: ConversionRule::UpstreamOrSimultaneousMeasurement,
                reference_point: MeasurementPoint::NodeWall,
                requires_accuracy_assessment: false,
            },
            Methodology::Revised => MethodologySpec {
                methodology: *self,
                granularity: Granularity::OneSamplePerSecond,
                timing: TimingRule::FullCore,
                fraction: FractionRule::revised(),
                subsystems: SubsystemRule::ComputeNodesOnly,
                conversion: ConversionRule::UpstreamOrManufacturerData,
                reference_point: MeasurementPoint::NodeWall,
                requires_accuracy_assessment: true,
            },
        }
    }

    /// All four variants, in increasing order of rigour of the original
    /// three plus the revision.
    pub fn all() -> [Methodology; 4] {
        [
            Methodology::Level1,
            Methodology::Level2,
            Methodology::Level3,
            Methodology::Revised,
        ]
    }

    /// Looks a methodology up by its scenario-file name: `"level1"`,
    /// `"level2"`, `"level3"` or `"revised"` (case-insensitive; `"l1"`
    /// etc. also accepted). The campaign harness selects methodologies by
    /// these names; [`Methodology::names`] lists the canonical forms.
    pub fn by_name(name: &str) -> Option<Methodology> {
        match name.to_ascii_lowercase().as_str() {
            "level1" | "l1" => Some(Methodology::Level1),
            "level2" | "l2" => Some(Methodology::Level2),
            "level3" | "l3" => Some(Methodology::Level3),
            "revised" | "sc15" => Some(Methodology::Revised),
            _ => None,
        }
    }

    /// Canonical names accepted by [`Methodology::by_name`].
    pub fn names() -> [&'static str; 4] {
        ["level1", "level2", "level3", "revised"]
    }
}

impl std::str::FromStr for Methodology {
    type Err = crate::MethodError;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        Methodology::by_name(s).ok_or(crate::MethodError::InvalidConfig {
            field: "methodology",
            reason: "unknown methodology name (expected level1|level2|level3|revised)",
        })
    }
}

impl std::fmt::Display for Methodology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Methodology::Level1 => write!(f, "Level 1"),
            Methodology::Level2 => write!(f, "Level 2"),
            Methodology::Level3 => write!(f, "Level 3"),
            Methodology::Revised => write!(f, "Revised (SC'15)"),
        }
    }
}

/// The complete requirement set of a methodology variant — one row of the
/// paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodologySpec {
    /// Which variant this is.
    pub methodology: Methodology,
    /// Aspect 1a: measurement granularity.
    pub granularity: Granularity,
    /// Aspect 1b: timing.
    pub timing: TimingRule,
    /// Aspect 2: machine fraction.
    pub fraction: FractionRule,
    /// Aspect 3: subsystems.
    pub subsystems: SubsystemRule,
    /// Aspect 4: point of measurement.
    pub conversion: ConversionRule,
    /// The reference point all readings are normalized to.
    pub reference_point: MeasurementPoint,
    /// Whether submissions must include an accuracy assessment (the
    /// paper's additional recommendation).
    pub requires_accuracy_assessment: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_workload::RunPhases;

    #[test]
    fn table1_level_structure() {
        let l1 = Methodology::Level1.spec();
        assert_eq!(l1.granularity, Granularity::OneSamplePerSecond);
        assert!(!l1.timing.covers_full_core());
        assert_eq!(l1.subsystems, SubsystemRule::ComputeNodesOnly);

        let l2 = Methodology::Level2.spec();
        assert!(l2.timing.covers_full_core());
        assert_eq!(
            l2.subsystems,
            SubsystemRule::AllParticipatingMeasuredOrEstimated
        );

        let l3 = Methodology::Level3.spec();
        assert_eq!(l3.granularity, Granularity::IntegratedEnergy);
        assert_eq!(l3.fraction, FractionRule::All);
        assert_eq!(l3.subsystems, SubsystemRule::AllParticipatingMeasured);
    }

    #[test]
    fn revised_spec_matches_paper_conclusions() {
        let rev = Methodology::Revised.spec();
        assert_eq!(rev.timing, TimingRule::FullCore);
        assert_eq!(
            rev.fraction,
            FractionRule::NodesOrFraction {
                min_nodes: 16,
                min_fraction: 0.10
            }
        );
        assert!(rev.requires_accuracy_assessment);
    }

    #[test]
    fn fraction_requirements_increase_with_level() {
        let phases = RunPhases::core_only(3600.0).unwrap();
        let _ = phases;
        let n = 10_000;
        let l1 = Methodology::Level1
            .spec()
            .fraction
            .required_nodes(n, 400.0)
            .unwrap();
        let l2 = Methodology::Level2
            .spec()
            .fraction
            .required_nodes(n, 400.0)
            .unwrap();
        let l3 = Methodology::Level3
            .spec()
            .fraction
            .required_nodes(n, 400.0)
            .unwrap();
        assert!(l1 < l2 && l2 < l3);
        assert_eq!(l3, n);
    }

    #[test]
    fn display_names() {
        assert_eq!(Methodology::Level1.to_string(), "Level 1");
        assert_eq!(Methodology::Revised.to_string(), "Revised (SC'15)");
        assert_eq!(Methodology::all().len(), 4);
    }
}
