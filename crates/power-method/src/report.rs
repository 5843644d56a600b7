//! Submission records — what a site sends to the Green500/Top500.

use crate::level::Methodology;
use crate::measure::Measurement;

/// A list submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// System name.
    pub system: String,
    /// Methodology the site claims to have followed.
    pub methodology: Methodology,
    /// Reported full-system power in watts.
    pub reported_power_w: f64,
    /// Reported sustained performance in flops/s (Rmax).
    pub rmax_flops: f64,
    /// Number of nodes that were metered.
    pub metered_nodes: usize,
    /// Machine size in nodes.
    pub total_nodes: usize,
    /// Aggregate measured (un-extrapolated) subset power in watts.
    pub measured_subset_power_w: f64,
    /// Measurement windows in run time.
    pub windows: Vec<(f64, f64)>,
    /// Self-reported relative accuracy (the paper's recommended
    /// assessment), if provided.
    pub claimed_accuracy: Option<f64>,
}

impl Submission {
    /// Builds a submission from a completed measurement.
    pub fn from_measurement(system: impl Into<String>, m: &Measurement) -> Self {
        Submission {
            system: system.into(),
            methodology: m.methodology,
            reported_power_w: m.reported_power_w,
            rmax_flops: m.rmax_flops,
            metered_nodes: m.metered_nodes.len(),
            total_nodes: m.total_nodes,
            measured_subset_power_w: m.subset_power_w,
            windows: m.windows.clone(),
            claimed_accuracy: m.assessment.as_ref().map(|a| a.relative_accuracy),
        }
    }

    /// The ranking metric: FLOPS/W.
    pub fn flops_per_watt(&self) -> f64 {
        if self.reported_power_w > 0.0 {
            self.rmax_flops / self.reported_power_w
        } else {
            0.0
        }
    }

    /// GFLOPS/W, as the lists print it.
    pub fn gflops_per_watt(&self) -> f64 {
        self.flops_per_watt() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submission() -> Submission {
        Submission {
            system: "L-CSC".into(),
            methodology: Methodology::Level1,
            reported_power_w: 57_200.0,
            rmax_flops: 301.5e12,
            metered_nodes: 16,
            total_nodes: 160,
            measured_subset_power_w: 5_720.0,
            windows: vec![(600.0, 1680.0)],
            claimed_accuracy: Some(0.012),
        }
    }

    #[test]
    fn efficiency_metric() {
        let s = submission();
        // 301.5 TF / 57.2 kW = 5.27 GF/W (the real L-CSC Green500 entry).
        assert!((s.gflops_per_watt() - 5.271).abs() < 0.01);
        let zero = Submission {
            reported_power_w: 0.0,
            ..s
        };
        assert_eq!(zero.flops_per_watt(), 0.0);
    }

    #[test]
    fn from_measurement_copies_fields() {
        use crate::measure::Measurement;
        let m = Measurement {
            methodology: Methodology::Revised,
            total_nodes: 100,
            metered_nodes: (0..16).collect(),
            windows: vec![(0.0, 100.0)],
            subset_power_w: 6_400.0,
            overhead_w: 0.0,
            reported_power_w: 40_000.0,
            per_node_w: vec![400.0; 16],
            rmax_flops: 1e14,
            assessment: None,
        };
        let s = Submission::from_measurement("demo", &m);
        assert_eq!(s.metered_nodes, 16);
        assert_eq!(s.total_nodes, 100);
        assert_eq!(s.claimed_accuracy, None);
        assert!((s.flops_per_watt() - 2.5e9).abs() < 1.0);
    }
}
