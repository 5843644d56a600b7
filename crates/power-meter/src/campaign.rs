//! Measurement campaigns: a fleet of instruments over a node subset.
//!
//! A [`Campaign`] owns one instantiated meter per metered node (each with
//! its own systematic gain error — metering 16 nodes with 16 PDU-grade
//! devices is *not* the same as metering them with one revenue-grade
//! device, which is part of why the paper folds "the standard variance of
//! power measurement equipment" into its recommended sigma/mu planning
//! value). Running the campaign over a simulated [`NodeTrace`] yields
//! per-node readings plus the aggregate, and checks the methodology's
//! minimum-aggregate-power floors.

use crate::device::{MeterModel, SamplingMeter};
use crate::reading::Reading;
use crate::{MeterError, Result};
use power_sim::trace::NodeTrace;
use power_stats::rng::substream;

/// A fleet of meters attached to specific nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    node_ids: Vec<usize>,
    meters: Vec<SamplingMeter>,
}

impl Campaign {
    /// Attaches one instrument of class `model` to each node in
    /// `node_ids`; instrument gain errors are drawn deterministically from
    /// `seed`.
    pub fn new(node_ids: &[usize], model: MeterModel, seed: u64) -> Result<Self> {
        if node_ids.is_empty() {
            return Err(MeterError::InvalidCampaign("no nodes to meter"));
        }
        let mut meters = Vec::with_capacity(node_ids.len());
        for (k, _) in node_ids.iter().enumerate() {
            let mut rng = substream(seed, k as u64);
            meters.push(model.instantiate(&mut rng)?);
        }
        Ok(Campaign {
            node_ids: node_ids.to_vec(),
            meters,
        })
    }

    /// The metered node ids.
    pub fn node_ids(&self) -> &[usize] {
        &self.node_ids
    }

    /// Number of metered nodes.
    pub fn len(&self) -> usize {
        self.node_ids.len()
    }

    /// Whether the campaign meters no nodes (never true once built).
    pub fn is_empty(&self) -> bool {
        self.node_ids.is_empty()
    }

    /// Runs the campaign over a simulated trace for the window
    /// `[from, to)`.
    ///
    /// The trace must cover exactly the campaign's nodes, in order (it is
    /// usually produced by `Simulator::subset_trace(campaign.node_ids())`).
    pub fn run(&self, trace: &NodeTrace, from: f64, to: f64, seed: u64) -> Result<CampaignResult> {
        if trace.node_ids != self.node_ids {
            return Err(MeterError::InvalidCampaign(
                "trace nodes do not match campaign nodes",
            ));
        }
        let mut readings = Vec::with_capacity(self.meters.len());
        for (k, meter) in self.meters.iter().enumerate() {
            let mut rng = substream(seed ^ 0x5EED_CAFE, k as u64);
            readings.push(meter.measure(
                &mut rng,
                &trace.samples[k],
                trace.t0,
                trace.dt,
                from,
                to,
            )?);
        }
        let aggregate = Reading::sum(&readings).expect("campaign is non-empty");
        Ok(CampaignResult {
            node_ids: self.node_ids.clone(),
            readings,
            aggregate,
        })
    }
}

/// The outcome of one campaign window.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Metered node ids.
    pub node_ids: Vec<usize>,
    /// Per-node readings (order matches `node_ids`).
    pub readings: Vec<Reading>,
    /// Sum across meters.
    pub aggregate: Reading,
}

impl CampaignResult {
    /// Per-node average powers (the input to the paper's statistics).
    pub fn node_averages(&self) -> Vec<f64> {
        self.readings.iter().map(|r| r.average_w).collect()
    }

    /// Whether the aggregate measured power meets a minimum floor in
    /// watts — Level 1 requires at least 2 kW, Level 2 at least 10 kW.
    pub fn meets_minimum_power(&self, floor_w: f64) -> bool {
        self.aggregate.average_w >= floor_w
    }

    /// Extrapolates the aggregate to a full machine of `total_nodes`
    /// nodes by linear scaling — the methodology's Level 1 rule.
    pub fn extrapolate_linear(&self, total_nodes: usize) -> f64 {
        self.aggregate.average_w * total_nodes as f64 / self.node_ids.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(nodes: &[usize], watts_per_node: &[f64], samples: usize) -> NodeTrace {
        NodeTrace::new(
            nodes.to_vec(),
            0.0,
            1.0,
            watts_per_node.iter().map(|&w| vec![w; samples]).collect(),
        )
        .unwrap()
    }

    #[test]
    fn campaign_reads_each_node() {
        let nodes = [3usize, 7, 11];
        let c = Campaign::new(&nodes, MeterModel::ideal(), 1).unwrap();
        let t = trace(&nodes, &[100.0, 200.0, 300.0], 60);
        let result = c.run(&t, 0.0, 60.0, 2).unwrap();
        let avgs = result.node_averages();
        assert!((avgs[0] - 100.0).abs() < 1e-9);
        assert!((avgs[1] - 200.0).abs() < 1e-9);
        assert!((avgs[2] - 300.0).abs() < 1e-9);
        assert!((result.aggregate.average_w - 600.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolation_scales_linearly() {
        let nodes = [0usize, 1];
        let c = Campaign::new(&nodes, MeterModel::ideal(), 1).unwrap();
        let t = trace(&nodes, &[100.0, 100.0], 10);
        let result = c.run(&t, 0.0, 10.0, 2).unwrap();
        assert!((result.extrapolate_linear(128) - 12_800.0).abs() < 1e-6);
    }

    #[test]
    fn minimum_power_floors() {
        let nodes = [0usize; 1];
        let c = Campaign::new(&nodes, MeterModel::ideal(), 1).unwrap();
        let t = trace(&nodes, &[1500.0], 10);
        let result = c.run(&t, 0.0, 10.0, 2).unwrap();
        assert!(!result.meets_minimum_power(2000.0));
        assert!(result.meets_minimum_power(1000.0));
    }

    #[test]
    fn per_meter_gain_errors_differ_but_stay_in_class() {
        let nodes: Vec<usize> = (0..50).collect();
        let c = Campaign::new(&nodes, MeterModel::pdu_grade(), 9).unwrap();
        let t = trace(&nodes, &vec![400.0; 50], 100);
        let result = c.run(&t, 0.0, 100.0, 3).unwrap();
        let avgs = result.node_averages();
        let spread = avgs
            .iter()
            .map(|a| (a - 400.0).abs() / 400.0)
            .fold(0.0f64, f64::max);
        assert!(spread <= 0.015 + 0.01, "spread = {spread}");
        // Identical nodes should still read differently through different
        // instruments.
        assert!(avgs.iter().any(|a| (a - avgs[0]).abs() > 0.1));
    }

    #[test]
    fn mismatched_trace_rejected() {
        let c = Campaign::new(&[1, 2], MeterModel::ideal(), 1).unwrap();
        let t = trace(&[1, 3], &[100.0, 100.0], 10);
        assert!(matches!(
            c.run(&t, 0.0, 10.0, 2),
            Err(MeterError::InvalidCampaign(_))
        ));
    }

    #[test]
    fn empty_campaign_rejected() {
        assert!(Campaign::new(&[], MeterModel::ideal(), 1).is_err());
    }

    #[test]
    fn deterministic_given_seeds() {
        let nodes = [0usize, 1, 2];
        let c = Campaign::new(&nodes, MeterModel::pdu_grade(), 7).unwrap();
        let t = trace(&nodes, &[100.0, 200.0, 300.0], 30);
        let a = c.run(&t, 0.0, 30.0, 11).unwrap();
        let b = c.run(&t, 0.0, 30.0, 11).unwrap();
        assert_eq!(a, b);
    }
}
