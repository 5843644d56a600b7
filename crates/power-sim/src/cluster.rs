//! A cluster: N nodes with sampled manufacturing variability.
//!
//! Building a [`Cluster`] from a [`ClusterSpec`] performs the "manufacturing
//! run": every processor of every node receives an [`AsicSample`] and every
//! node a residual efficiency multiplier, all derived deterministically from
//! the spec's seed so that a machine can be rebuilt bit-identically.

use crate::dvfs::Governor;
use crate::fan::FanPolicy;
use crate::node::{NodePower, NodeSpec};
use crate::variability::{AsicSample, VariabilityModel};
use crate::{Result, SimError};
use power_stats::hash::Fnv1a;
use power_stats::rng::substream;

/// Full description of a machine.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Machine name (for reports).
    pub name: String,
    /// Total number of compute nodes.
    pub total_nodes: usize,
    /// Hardware of each node (homogeneous machine).
    pub node: NodeSpec,
    /// Manufacturing-spread model.
    pub variability: VariabilityModel,
    /// DVFS governor in force.
    pub governor: Governor,
    /// Fan policy in force.
    pub fan_policy: FanPolicy,
    /// Peak-to-peak inlet-temperature spread across the machine room in
    /// kelvin: node 0 sits at the nominal ambient, the last node
    /// `ambient_gradient_c` warmer (cold-aisle to hot-spot gradient). The
    /// paper names temperature among the secondary causes of node
    /// variability; this knob lets experiments isolate it.
    pub ambient_gradient_c: f64,
    /// Seed for the manufacturing run.
    pub seed: u64,
}

impl ClusterSpec {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let ClusterSpec {
            name,
            total_nodes,
            node,
            variability,
            governor,
            fan_policy,
            ambient_gradient_c,
            seed,
        } = self;
        h.write_str(name);
        h.write_u64(*total_nodes as u64);
        node.fingerprint(h);
        variability.fingerprint(h);
        governor.fingerprint(h);
        fan_policy.fingerprint(h);
        h.write_f64(*ambient_gradient_c);
        h.write_u64(*seed);
    }

    /// Validates the whole spec.
    pub fn validate(&self) -> Result<()> {
        if self.total_nodes == 0 {
            return Err(SimError::InvalidConfig {
                field: "total_nodes",
                reason: "a machine needs at least one node",
            });
        }
        self.node.validate()?;
        self.variability.validate()?;
        self.governor.validate()?;
        self.fan_policy.validate()?;
        if !(self.ambient_gradient_c >= 0.0 && self.ambient_gradient_c < 30.0) {
            return Err(SimError::InvalidConfig {
                field: "ambient_gradient_c",
                reason: "must lie in [0, 30) kelvin",
            });
        }
        Ok(())
    }
}

/// A built machine: spec plus sampled per-node variability.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    spec: ClusterSpec,
    /// Per-node ASIC samples (flattened: `node * procs_per_node + i`).
    asics: Vec<AsicSample>,
    /// Per-node residual multipliers.
    multipliers: Vec<f64>,
}

impl Cluster {
    /// Runs the manufacturing process for the spec.
    pub fn build(spec: ClusterSpec) -> Result<Self> {
        spec.validate()?;
        let procs = spec.node.processors.len();
        let mut asics = Vec::with_capacity(spec.total_nodes * procs);
        let mut multipliers = Vec::with_capacity(spec.total_nodes);
        for node in 0..spec.total_nodes {
            // One decorrelated stream per node: rebuilding a 10k-node
            // machine and a 100-node machine with the same seed yields the
            // same first 100 nodes.
            let mut rng = substream(spec.seed, node as u64);
            for _ in 0..procs {
                asics.push(spec.variability.sample_asic(&mut rng));
            }
            multipliers.push(spec.variability.sample_node_multiplier(&mut rng));
        }
        Ok(Cluster {
            spec,
            asics,
            multipliers,
        })
    }

    /// The machine's spec.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.spec.total_nodes
    }

    /// Whether the machine has no nodes (never true once built).
    pub fn is_empty(&self) -> bool {
        self.spec.total_nodes == 0
    }

    /// ASIC samples of one node.
    pub fn asics(&self, node: usize) -> Result<&[AsicSample]> {
        let procs = self.spec.node.processors.len();
        if node >= self.spec.total_nodes {
            return Err(SimError::NoSuchNode {
                index: node,
                total: self.spec.total_nodes,
            });
        }
        Ok(&self.asics[node * procs..(node + 1) * procs])
    }

    /// Residual multiplier of one node.
    pub fn multiplier(&self, node: usize) -> Result<f64> {
        self.multipliers
            .get(node)
            .copied()
            .ok_or(SimError::NoSuchNode {
                index: node,
                total: self.spec.total_nodes,
            })
    }

    /// Instantaneous power of one node at time `t` with workload
    /// utilization `utilization` and die temperature `temp_c`: the scalar
    /// model the engine's block kernel reproduces bit for bit.
    pub fn node_power(
        &self,
        node: usize,
        t: f64,
        utilization: f64,
        temp_c: f64,
    ) -> Result<NodePower> {
        let pstate = self.spec.governor.pstate(t, utilization);
        Ok(self.spec.node.power(
            self.asics(node)?,
            self.multipliers[node],
            utilization,
            &pstate,
            &self.spec.fan_policy,
            temp_c,
        ))
    }

    /// Replaces the governor (e.g. to compare default vs tuned DVFS on the
    /// same silicon).
    pub fn with_governor(mut self, governor: Governor) -> Result<Self> {
        governor.validate()?;
        self.spec.governor = governor;
        Ok(self)
    }

    /// Replaces the fan policy (e.g. pinned vs automatic on the same
    /// silicon).
    pub fn with_fan_policy(mut self, policy: FanPolicy) -> Result<Self> {
        policy.validate()?;
        self.spec.fan_policy = policy;
        Ok(self)
    }

    /// Inlet-temperature offset of `node` above the nominal ambient:
    /// a linear cold-aisle-to-hot-spot gradient across node indices.
    pub fn ambient_offset(&self, node: usize) -> f64 {
        let n = self.spec.total_nodes;
        if n <= 1 || self.spec.ambient_gradient_c == 0.0 {
            return 0.0;
        }
        self.spec.ambient_gradient_c * node as f64 / (n - 1) as f64
    }

    /// Nodes sorted by VID of their first processor — the primitive behind
    /// the paper's "screen processors via software for the ones with the
    /// lowest VIDs" gaming observation.
    pub fn nodes_by_vid(&self) -> Vec<usize> {
        let procs = self.spec.node.processors.len();
        let mut idx: Vec<usize> = (0..self.spec.total_nodes).collect();
        idx.sort_by_key(|&n| {
            // Sort by the *sum* of VID bins across the node's processors,
            // which is what a software screening tool would compute.
            (0..procs)
                .map(|i| self.asics[n * procs + i].vid_bin as u32)
                .sum::<u32>()
        });
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{MemorySpec, ProcessorSpec, StaticSpec};
    use crate::dvfs::PState;
    use crate::fan::FanSpec;
    use crate::thermal::ThermalSpec;
    use crate::vid::VoltagePolicy;

    pub(crate) fn test_spec(nodes: usize, seed: u64) -> ClusterSpec {
        ClusterSpec {
            name: "testbox".into(),
            total_nodes: nodes,
            node: NodeSpec {
                processors: vec![
                    ProcessorSpec {
                        dynamic_w: 95.0,
                        leakage_w: 20.0,
                        idle_fraction: 0.12,
                        f_nom_mhz: 2700.0,
                        v_nom: 1.0,
                        leakage_temp_coeff: 0.008,
                        t_ref_c: 60.0,
                    };
                    2
                ],
                memory: MemorySpec {
                    idle_w: 15.0,
                    active_w: 25.0,
                },
                static_power: StaticSpec { watts: 40.0 },
                fan: FanSpec {
                    max_power_w: 60.0,
                    min_speed: 0.3,
                },
                thermal: ThermalSpec {
                    t_ambient_c: 25.0,
                    r_th_max: 0.10,
                    r_th_min: 0.04,
                    tau_s: 120.0,
                },
                psu_efficiency: 0.92,
            },
            variability: VariabilityModel {
                leakage_sigma: 0.12,
                node_sigma: 0.015,
                vid_bins: 6,
                vid_leakage_corr: 0.7,
            },
            governor: Governor::Static(PState {
                f_mhz: 2700.0,
                voltage: VoltagePolicy::Fixed(1.0),
            }),
            fan_policy: FanPolicy::Pinned { speed: 0.5 },
            ambient_gradient_c: 0.0,
            seed,
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = Cluster::build(test_spec(50, 9)).unwrap();
        let b = Cluster::build(test_spec(50, 9)).unwrap();
        assert_eq!(a, b);
        let c = Cluster::build(test_spec(50, 10)).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn growing_machine_preserves_prefix() {
        let small = Cluster::build(test_spec(20, 9)).unwrap();
        let large = Cluster::build(test_spec(200, 9)).unwrap();
        for n in 0..20 {
            assert_eq!(small.asics(n).unwrap(), large.asics(n).unwrap());
            assert_eq!(small.multiplier(n).unwrap(), large.multiplier(n).unwrap());
        }
    }

    #[test]
    fn nodes_differ_from_each_other() {
        let c = Cluster::build(test_spec(100, 3)).unwrap();
        let p0 = c.node_power(0, 0.0, 1.0, 60.0).unwrap();
        let mut any_diff = false;
        for n in 1..100 {
            let p = c.node_power(n, 0.0, 1.0, 60.0).unwrap();
            if (p.wall_w - p0.wall_w).abs() > 0.1 {
                any_diff = true;
                break;
            }
        }
        assert!(any_diff, "manufacturing spread should differentiate nodes");
    }

    #[test]
    fn out_of_range_node_errors() {
        let c = Cluster::build(test_spec(10, 3)).unwrap();
        assert!(matches!(
            c.asics(10),
            Err(SimError::NoSuchNode {
                index: 10,
                total: 10
            })
        ));
        assert!(c.multiplier(10).is_err());
        assert!(c.node_power(10, 0.0, 1.0, 60.0).is_err());
        assert!(c.node_power(9, 0.0, 1.0, 60.0).is_ok());
    }

    #[test]
    fn nodes_by_vid_sorted() {
        let c = Cluster::build(test_spec(200, 4)).unwrap();
        let order = c.nodes_by_vid();
        assert_eq!(order.len(), 200);
        let vid_sum =
            |n: usize| -> u32 { c.asics(n).unwrap().iter().map(|a| a.vid_bin as u32).sum() };
        for w in order.windows(2) {
            assert!(vid_sum(w[0]) <= vid_sum(w[1]));
        }
        // And the spread is real: best < worst.
        assert!(vid_sum(order[0]) < vid_sum(*order.last().unwrap()));
    }

    #[test]
    fn governor_and_fan_swaps() {
        let c = Cluster::build(test_spec(5, 4)).unwrap();
        let before = c.node_power(0, 0.0, 1.0, 60.0).unwrap();
        let c2 = c
            .clone()
            .with_governor(Governor::Static(PState {
                f_mhz: 1350.0,
                voltage: VoltagePolicy::Fixed(0.9),
            }))
            .unwrap();
        let after = c2.node_power(0, 0.0, 1.0, 60.0).unwrap();
        assert!(after.wall_w < before.wall_w);
        let c3 = c.with_fan_policy(FanPolicy::Pinned { speed: 1.0 }).unwrap();
        let louder = c3.node_power(0, 0.0, 1.0, 60.0).unwrap();
        assert!(louder.fan_w > before.fan_w);
    }

    #[test]
    fn zero_node_machine_rejected() {
        assert!(Cluster::build(test_spec(0, 1)).is_err());
    }
}
