//! Submission validation: does a claimed measurement satisfy its level?
//!
//! The lists can only check what a submission declares; this module
//! encodes those checks. It is also the enforcement point for the paper's
//! revised rules (full core phase, max(16, 10%) nodes, accuracy
//! assessment).

use crate::level::MethodologySpec;
use crate::report::Submission;
use crate::window::TimingRule;
use power_workload::RunPhases;

/// A specific way a submission violates its claimed methodology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Violation {
    /// The measurement window is shorter than the timing rule requires.
    WindowTooShort {
        /// Seconds covered.
        got_s: f64,
        /// Seconds required.
        need_s: f64,
    },
    /// A short window strays outside the middle 80% of the core phase.
    WindowOutsideMiddle80,
    /// A full-coverage rule was claimed but the windows do not span the
    /// core phase.
    CorePhaseNotCovered,
    /// Too few nodes were metered for the machine fraction rule.
    TooFewNodes {
        /// Nodes metered.
        got: usize,
        /// Nodes required.
        need: usize,
    },
    /// The aggregate measured power is below the rule's floor.
    BelowPowerFloor {
        /// Watts measured.
        got_w: f64,
        /// Watts required.
        need_w: f64,
    },
    /// The methodology requires an accuracy assessment and none was given.
    MissingAccuracyAssessment,
}

/// Checks `submission` against `spec` for a run with the given phases.
///
/// Returns every violation found (empty = compliant).
pub fn validate(
    submission: &Submission,
    spec: &MethodologySpec,
    phases: &RunPhases,
) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Timing checks.
    let covered: f64 = submission
        .windows
        .iter()
        .map(|&(a, b)| (b - a).max(0.0))
        .sum();
    match spec.timing {
        TimingRule::ShortWindow { .. } => {
            let need = spec.timing.window_length(phases);
            if covered + 1e-9 < need {
                violations.push(Violation::WindowTooShort {
                    got_s: covered,
                    need_s: need,
                });
            }
            let (lo, hi) = phases.core_middle_80();
            if submission
                .windows
                .iter()
                .any(|&(a, b)| a < lo - 1e-9 || b > hi + 1e-9)
            {
                violations.push(Violation::WindowOutsideMiddle80);
            }
        }
        TimingRule::SpacedSegments { .. } | TimingRule::FullCore => {
            // Full coverage: the union of windows must span the core phase.
            let starts_ok = submission
                .windows
                .iter()
                .map(|w| w.0)
                .fold(f64::INFINITY, f64::min)
                <= phases.core_start() + 1e-9;
            let ends_ok = submission
                .windows
                .iter()
                .map(|w| w.1)
                .fold(f64::NEG_INFINITY, f64::max)
                >= phases.core_end() - 1e-9;
            let length_ok = covered >= phases.core() - 1e-6;
            if !(starts_ok && ends_ok && length_ok) {
                violations.push(Violation::CorePhaseNotCovered);
            }
        }
    }

    // Fraction checks. Reconstruct the two floors from the rule.
    match spec.fraction {
        crate::fraction::FractionRule::FractionWithPowerFloor {
            min_fraction,
            min_power_w,
        } => {
            let need = (submission.total_nodes as f64 * min_fraction).ceil() as usize;
            if submission.metered_nodes < need && submission.metered_nodes < submission.total_nodes
            {
                violations.push(Violation::TooFewNodes {
                    got: submission.metered_nodes,
                    need,
                });
            }
            if submission.measured_subset_power_w < min_power_w
                && submission.metered_nodes < submission.total_nodes
            {
                violations.push(Violation::BelowPowerFloor {
                    got_w: submission.measured_subset_power_w,
                    need_w: min_power_w,
                });
            }
        }
        crate::fraction::FractionRule::All => {
            if submission.metered_nodes < submission.total_nodes {
                violations.push(Violation::TooFewNodes {
                    got: submission.metered_nodes,
                    need: submission.total_nodes,
                });
            }
        }
        crate::fraction::FractionRule::NodesOrFraction {
            min_nodes,
            min_fraction,
        } => {
            let need = min_nodes
                .max((submission.total_nodes as f64 * min_fraction).ceil() as usize)
                .min(submission.total_nodes);
            if submission.metered_nodes < need {
                violations.push(Violation::TooFewNodes {
                    got: submission.metered_nodes,
                    need,
                });
            }
        }
    }

    // Accuracy assessment.
    if spec.requires_accuracy_assessment && submission.claimed_accuracy.is_none() {
        violations.push(Violation::MissingAccuracyAssessment);
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::Methodology;

    fn phases() -> RunPhases {
        RunPhases::new(100.0, 1000.0, 50.0).unwrap()
    }

    fn l1_submission() -> Submission {
        Submission {
            system: "demo".into(),
            methodology: Methodology::Level1,
            reported_power_w: 100_000.0,
            rmax_flops: 1e15,
            metered_nodes: 16,
            total_nodes: 1024,
            measured_subset_power_w: 6_400.0,
            // 160 s window inside the middle 80% ([200, 1000]).
            windows: vec![(400.0, 560.0)],
            claimed_accuracy: None,
        }
    }

    #[test]
    fn compliant_level1_passes() {
        let s = l1_submission();
        let v = validate(&s, &Methodology::Level1.spec(), &phases());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn short_window_flagged() {
        let mut s = l1_submission();
        s.windows = vec![(400.0, 450.0)]; // 50 s < 160 s required
        let v = validate(&s, &Methodology::Level1.spec(), &phases());
        assert!(matches!(v[0], Violation::WindowTooShort { .. }));
    }

    #[test]
    fn window_outside_middle80_flagged() {
        let mut s = l1_submission();
        s.windows = vec![(120.0, 280.0)]; // starts before core_start + 10%
        let v = validate(&s, &Methodology::Level1.spec(), &phases());
        assert!(v.contains(&Violation::WindowOutsideMiddle80));
    }

    #[test]
    fn too_few_nodes_flagged() {
        let mut s = l1_submission();
        s.metered_nodes = 10; // < 1024/64 = 16
        let v = validate(&s, &Methodology::Level1.spec(), &phases());
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::TooFewNodes { need: 16, .. })));
    }

    #[test]
    fn power_floor_flagged() {
        let mut s = l1_submission();
        s.measured_subset_power_w = 1_500.0;
        let v = validate(&s, &Methodology::Level1.spec(), &phases());
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::BelowPowerFloor { .. })));
    }

    #[test]
    fn revised_requires_full_core_and_assessment() {
        let mut s = l1_submission();
        s.methodology = Methodology::Revised;
        s.metered_nodes = 110; // >= max(16, 10% of 1024 = 103)
        let spec = Methodology::Revised.spec();
        let v = validate(&s, &spec, &phases());
        assert!(v.contains(&Violation::CorePhaseNotCovered));
        assert!(v.contains(&Violation::MissingAccuracyAssessment));

        // Fix it up: full core window + assessment + enough nodes.
        s.windows = vec![(100.0, 1100.0)];
        s.claimed_accuracy = Some(0.011);
        let v = validate(&s, &spec, &phases());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn revised_node_floor() {
        let mut s = l1_submission();
        s.methodology = Methodology::Revised;
        s.windows = vec![(100.0, 1100.0)];
        s.claimed_accuracy = Some(0.011);
        s.metered_nodes = 50; // < 10% of 1024
        let v = validate(&s, &Methodology::Revised.spec(), &phases());
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::TooFewNodes { need: 103, .. })));
    }

    #[test]
    fn level3_census_required() {
        let mut s = l1_submission();
        s.methodology = Methodology::Level3;
        s.windows = vec![(100.0, 1100.0)];
        s.metered_nodes = 1023;
        let v = validate(&s, &Methodology::Level3.spec(), &phases());
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::TooFewNodes { need: 1024, .. })));
    }

    #[test]
    fn level2_segments_accepted_as_full_coverage() {
        let mut s = l1_submission();
        s.methodology = Methodology::Level2;
        s.metered_nodes = 128;
        s.measured_subset_power_w = 51_200.0;
        // Ten contiguous segments spanning the core phase.
        s.windows = (0..10)
            .map(|k| (100.0 + k as f64 * 100.0, 200.0 + k as f64 * 100.0))
            .collect();
        let v = validate(&s, &Methodology::Level2.spec(), &phases());
        assert!(v.is_empty(), "{v:?}");
    }
}
