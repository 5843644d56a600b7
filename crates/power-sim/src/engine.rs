//! Time-stepped simulation engine.
//!
//! The engine advances each node's thermal state through a run and records
//! power. Nodes are mutually independent (the workload couples them only
//! through its deterministic utilization function), so the node loop
//! parallelizes trivially: `std::thread::scope` splits the node range into
//! one contiguous range per worker.
//!
//! # The block kernel
//!
//! Every sample of every node comes out of one kernel, `NodeBlock`. It
//! holds per-lane state for a block of nodes as a struct of arrays — RNG
//! substream, die temperature, ambient-shifted inlet temperature, ASIC
//! samples, residual multiplier, load-balance factor, workload lane term
//! and node plan — and advances the whole block one sample at a time.
//! Work that does not depend on the node is done once per step for the
//! block (the sample time, the common-mode multiplier, the averaging-window
//! overlap, the governor's P-state and the node-independent part of the
//! utilization, via [`Workload::utilizations`]) or once per sweep (the
//! thermal step factor and the fan policy). [`Simulator::run_products`]
//! hands [`BLOCK_WIDTH`]-node blocks to its workers round-robin. No
//! node-step allocates.
//!
//! ## The node plan
//!
//! The processor power model, `dynamic_w·activity·f_ratio·v_ratio²` plus
//! `leakage_w·leakage_factor·v_ratio²·(1 + k·ΔT)`, holds per-lane
//! constants for as long as the P-state holds. A lane's *node plan* keeps
//! them, processor-major: `f_ratio` per processor, and `v_ratio²` and
//! `leakage_w·leakage_factor·v_ratio²` per processor and lane (the lane's
//! VID bin picks its voltage; a missing ASIC sample reads as nominal).
//! Plans are built when a block is loaded and rebuilt only when the
//! governor's P-state changes:
//!
//! * `Static`: one plan per block;
//! * `Schedule`: the P-state is resolved once per step, and the plan is
//!   rebuilt at each switch time;
//! * `OnDemand`: the high and low plans are both built at load, and each
//!   lane selects one on its clamped utilization.
//!
//! A pinned fan's power and thermal resistance are computed once per
//! sweep; an automatic fan's speed is computed per lane from its die
//! temperature, with the policy's constants hoisted.
//!
//! The workload has a per-lane part too: [`Workload::lane_term`], the
//! time-independent part of a node's utilization (HPL's ripple
//! dephasing, a `(sin, cos)` pair), is computed once per lane when a
//! block is loaded and handed back to [`Workload::utilizations`] at every
//! step, so a step neither looks it up nor recomputes it.
//!
//! A step then runs lane-major loops with no `match` and no lookup inside,
//! which LLVM can vectorize: the noise draws; the clamped utilization;
//! one loop per processor that adds `dynamic + leakage.max(0)` into an
//! accumulator that starts at `-0.0` (the neutral element
//! `Iterator::<f64>::sum` starts from, so the total is the scalar model's
//! processor sum); and one loop for memory, DC and wall power and the
//! thermal step.
//!
//! The kernel is bit-identical to the scalar reference loop —
//! [`Cluster::node_power`] then
//! [`ThermalState::step`](crate::thermal::ThermalState::step), one node at
//! a time — because every hoisted constant is the left-to-right prefix of
//! a product the scalar model forms in the same order, every other
//! floating-point expression keeps its operand order, Rust never
//! contracts to FMA (so a vector lane rounds as the scalar code does), and
//! each node draws its noise with the [`ziggurat`] sampler from its own
//! RNG substream keyed by `(seed, node)`.
//!
//! # One sweep, every product
//!
//! [`NodePower`](crate::node::NodePower) already carries wall, DC and
//! processor power for each sample, so a single node sweep can feed every
//! meter scope and every product at once. [`Simulator::run_products`] is
//! that sweep: it takes a [`ProductRequest`] and returns [`RunProducts`]
//! holding, per scope,
//!
//! * whole-machine power vs time (Figure 1, Table 2);
//! * per-node time-averaged power over a window (Table 4, Figure 2, the
//!   sample-size studies);
//! * full per-sample traces for a metered node subset (the measurement
//!   campaigns in `power-meter`).
//!
//! A sweep runs every step of the run, except for a request for per-node
//! averages alone ([`ProductRequest::averages_only`]): with no trace to
//! fill, it stops before the first step `k` whose start
//! `k as f64 * dt` reaches the window's end. That step overlaps the
//! window by at most zero, and so does every later one, so the averages
//! keep their bits; the thermal state before the window still steps from
//! sample 0. [`RunProducts::steps`] still reports the run's step count.
//!
//! The legacy single-product methods ([`Simulator::system_trace`],
//! [`Simulator::node_averages`], [`Simulator::subset_trace`]) are thin
//! wrappers over `run_products`. Callers that need several products — or
//! the same product repeatedly — should go through
//! [`crate::store::TraceStore`], which memoizes `RunProducts` per
//! (machine, workload, balance, config) so the node loop runs once.
//!
//! # What the thread count can change
//!
//! Nothing. Per-node values depend only on `(seed, node)`, never on which
//! worker or block a node landed in. Whole-machine totals are summed in
//! a fixed order: each [`BLOCK_WIDTH`]-node block (block `b` holds nodes
//! `64b..64b + 64`) sums its lanes in node order into a block partial, and
//! the partials are added to the totals in block order. Workers take
//! blocks round-robin, and a worker whose block is ready before the one
//! ahead of it waits its turn. So per-node window averages, subset traces and
//! system traces are bit-identical for every product mix, every scope
//! queried and every worker thread count.

use crate::cluster::Cluster;
use crate::components::ProcessorSpec;
use crate::dvfs::{Governor, PState};
use crate::fan::FanPolicy;
use crate::node::NodeSpec;
use crate::trace::{NodeTrace, SystemTrace};
use crate::variability::AsicSample;
use crate::{Result, SimError};
use power_stats::rng::{substream, ziggurat};
use power_workload::{LoadBalance, Workload};
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// Nodes a [`Simulator::run_products`] worker advances together. Any width
/// gives the same bits; this one keeps a block's lane state in L1 while
/// spreading each step's node-independent work over many nodes.
pub const BLOCK_WIDTH: usize = 64;

/// Which part of the node's power a product should report.
///
/// The methodology's Aspect 3 ("which subsystems must be included") and the
/// paper's Titan dataset (GPUs only) both need sub-node scopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MeterScope {
    /// AC power at the node wall plug (the canonical scope).
    Wall,
    /// DC power downstream of the node PSU.
    Dc,
    /// Processor (CPU/GPU board) power only.
    ProcessorsOnly,
}

impl MeterScope {
    /// Every scope, in the dense order used by [`RunProducts`].
    pub const ALL: [MeterScope; 3] = [MeterScope::Wall, MeterScope::Dc, MeterScope::ProcessorsOnly];

    /// Dense index into per-scope product arrays.
    pub fn index(self) -> usize {
        match self {
            MeterScope::Wall => 0,
            MeterScope::Dc => 1,
            MeterScope::ProcessorsOnly => 2,
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Time step / sample interval in seconds.
    pub dt: f64,
    /// Relative per-node per-sample load/measurement fluctuation sigma
    /// (multiplicative Gaussian noise; 0 disables).
    pub noise_sigma: f64,
    /// Relative machine-wide per-sample fluctuation sigma. Per-node noise
    /// averages out across a 100 000-node machine; this common-mode term
    /// (interconnect phases, OS jitter, global algorithm steps) is what
    /// keeps large-system traces realistically jagged, as in the paper's
    /// Figure 1 Sequoia curve.
    pub common_noise_sigma: f64,
    /// RNG seed for the noise streams.
    pub seed: u64,
    /// Worker threads (clamped to at least 1). Every product is
    /// bit-identical for any value (see the module docs), so cache keys
    /// exclude it.
    pub threads: usize,
}

impl SimulationConfig {
    /// One-second sampling (the methodology's Level 1/2 granularity) with
    /// mild fluctuation noise.
    pub fn one_hertz(seed: u64) -> Self {
        SimulationConfig {
            dt: 1.0,
            noise_sigma: 0.01,
            common_noise_sigma: 0.004,
            seed,
            threads: std::thread::available_parallelism().map_or(4, |p| p.get()),
        }
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if !(self.dt > 0.0 && self.dt.is_finite()) {
            return Err(SimError::InvalidConfig {
                field: "dt",
                reason: "time step must be positive",
            });
        }
        if !(self.noise_sigma >= 0.0 && self.noise_sigma < 0.5) {
            return Err(SimError::InvalidConfig {
                field: "noise_sigma",
                reason: "noise sigma must lie in [0, 0.5)",
            });
        }
        if !(self.common_noise_sigma >= 0.0 && self.common_noise_sigma < 0.5) {
            return Err(SimError::InvalidConfig {
                field: "common_noise_sigma",
                reason: "common noise sigma must lie in [0, 0.5)",
            });
        }
        Ok(())
    }
}

/// What one simulation sweep should produce.
///
/// Whole-machine traces and per-node averages require sweeping every node;
/// a subset-only request sweeps just the metered nodes (the per-node RNG
/// substreams make the two indistinguishable sample-for-sample).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProductRequest {
    /// Build the three whole-machine [`SystemTrace`]s.
    pub system: bool,
    /// Accumulate per-node time averages over this `[from, to)` window,
    /// for every node and every scope.
    pub averages_window: Option<(f64, f64)>,
    /// Retain full per-sample traces for these nodes, for every scope.
    pub subset: Option<Vec<usize>>,
}

impl ProductRequest {
    /// Whole-machine traces only.
    pub fn system_only() -> Self {
        ProductRequest {
            system: true,
            ..ProductRequest::default()
        }
    }

    /// Per-node averages over `[from, to)` alone. With no trace to fill,
    /// the sweep stops at the window's end (see the module docs).
    pub fn averages_only(from: f64, to: f64) -> Self {
        ProductRequest {
            averages_window: Some((from, to)),
            ..ProductRequest::default()
        }
    }

    /// Whole-machine traces plus per-node averages over `[from, to)`.
    pub fn with_averages(from: f64, to: f64) -> Self {
        ProductRequest {
            system: true,
            averages_window: Some((from, to)),
            ..ProductRequest::default()
        }
    }

    /// Per-sample traces for a metered subset, sweeping only those nodes.
    pub fn subset_only(nodes: &[usize]) -> Self {
        ProductRequest {
            subset: Some(nodes.to_vec()),
            ..ProductRequest::default()
        }
    }

    /// Adds a retained subset to a full-machine request.
    pub fn and_subset(mut self, nodes: &[usize]) -> Self {
        self.subset = Some(nodes.to_vec());
        self
    }

    /// Whether this request requires sweeping every node of the machine.
    pub fn needs_full_sweep(&self) -> bool {
        self.system || self.averages_window.is_some()
    }

    /// The steps a sweep of `steps` samples of `dt` seconds must run to
    /// answer this request: all of them, unless per-node averages are all
    /// it asks for. Then the sweep stops before the first step `k` with
    /// `k as f64 * dt >= to` — the expression the sweep computes a step's
    /// start with — because that step and every later one (the start is
    /// monotone in `k`) overlaps the window by at most zero.
    fn horizon(&self, steps: usize, dt: f64) -> usize {
        let to = match self {
            ProductRequest {
                system: false,
                averages_window: Some((_, to)),
                subset: None,
            } => *to,
            _ => return steps,
        };
        // The ceiling lands on `k` or next to it; rounding in either
        // quotient can put it one off, so walk to the first `k` that
        // meets the sweep's own test.
        let mut k = ((to / dt).ceil() as usize).min(steps);
        while k > 0 && (k - 1) as f64 * dt >= to {
            k -= 1;
        }
        while k < steps && (k as f64 * dt) < to {
            k += 1;
        }
        k
    }
}

/// Everything one sweep produced; see [`Simulator::run_products`].
///
/// Per-scope accessors take a [`MeterScope`] and return `None` when the
/// originating [`ProductRequest`] did not ask for that product.
#[derive(Debug, Clone, PartialEq)]
pub struct RunProducts {
    request: ProductRequest,
    dt: f64,
    steps: usize,
    /// Nodes in the swept machine — the population, not the subset size.
    cluster_len: usize,
    system: Option<[SystemTrace; 3]>,
    averages: Option<[Vec<f64>; 3]>,
    subset: Option<[NodeTrace; 3]>,
}

impl RunProducts {
    /// The request this sweep answered.
    pub fn request(&self) -> &ProductRequest {
        &self.request
    }

    /// The sample interval used.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Samples per trace.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whole-machine power vs time at `scope`.
    pub fn system_trace(&self, scope: MeterScope) -> Option<&SystemTrace> {
        self.system.as_ref().map(|s| &s[scope.index()])
    }

    /// Per-node window averages at `scope` (one entry per node of the
    /// machine, in node order).
    pub fn node_averages(&self, scope: MeterScope) -> Option<&[f64]> {
        self.averages.as_ref().map(|a| a[scope.index()].as_slice())
    }

    /// Retained subset trace at `scope`.
    pub fn subset_trace(&self, scope: MeterScope) -> Option<&NodeTrace> {
        self.subset.as_ref().map(|s| &s[scope.index()])
    }

    /// The retained subset, if it covers every node of the machine
    /// (node ids `0..cluster_len` in order) — a *full sweep* whose
    /// per-sample series can answer any window or sub-subset question
    /// after the fact. A prefix subset on a larger machine is *not* a full
    /// sweep: aggregating it would pass off a partial population as
    /// machine-wide results.
    fn full_retained_subset(&self) -> Option<&[NodeTrace; 3]> {
        let subset = self.subset.as_ref()?;
        let ids = &subset[0].node_ids;
        if ids.len() == self.cluster_len
            && !ids.is_empty()
            && ids.iter().enumerate().all(|(i, &id)| i == id)
        {
            Some(subset)
        } else {
            None
        }
    }

    /// Attempts to answer `want` from what this sweep retained, without
    /// re-simulating anything.
    ///
    /// Beyond exact matches, two derivations are supported: a sweep that
    /// retained per-sample series for *every* node can produce window
    /// averages for any window and a system trace by aggregation, and a
    /// retained subset can serve any sub-subset (in any order). Returns
    /// `None` when `want` needs something this sweep did not keep. Derived
    /// values agree with a fresh sweep to floating-point re-association
    /// error (≲1e-9 relative), not bit-for-bit.
    pub fn try_derive(&self, want: &ProductRequest) -> Option<RunProducts> {
        let system = if want.system {
            Some(match &self.system {
                Some(system) => system.clone(),
                None => {
                    let full = self.full_retained_subset()?;
                    [
                        full[0].aggregate().ok()?,
                        full[1].aggregate().ok()?,
                        full[2].aggregate().ok()?,
                    ]
                }
            })
        } else {
            None
        };
        let averages = match want.averages_window {
            None => None,
            Some(w) if self.request.averages_window == Some(w) => self.averages.clone(),
            Some((from, to)) => {
                let full = self.full_retained_subset()?;
                Some([
                    full[0].node_window_averages(from, to).ok()?,
                    full[1].node_window_averages(from, to).ok()?,
                    full[2].node_window_averages(from, to).ok()?,
                ])
            }
        };
        if want.averages_window.is_some() && averages.is_none() {
            return None;
        }
        let subset = match &want.subset {
            None => None,
            Some(ids) if self.request.subset.as_ref() == Some(ids) => self.subset.clone(),
            Some(ids) => {
                let have = self.subset.as_ref()?;
                let rows: Vec<usize> = ids
                    .iter()
                    .map(|id| have[0].node_ids.iter().position(|h| h == id))
                    .collect::<Option<_>>()?;
                let mut traces = Vec::with_capacity(3);
                for scope in have.iter() {
                    let samples: Vec<Vec<f64>> =
                        rows.iter().map(|&r| scope.samples[r].clone()).collect();
                    traces.push(NodeTrace::new(ids.clone(), scope.t0, scope.dt, samples).ok()?);
                }
                let [w, d, p]: [NodeTrace; 3] = traces.try_into().ok()?;
                Some([w, d, p])
            }
        };
        if want.subset.is_some() && subset.is_none() {
            return None;
        }
        Some(RunProducts {
            request: want.clone(),
            dt: self.dt,
            steps: self.steps,
            cluster_len: self.cluster_len,
            system,
            averages,
            subset,
        })
    }

    /// Nodes in the swept machine — the population, not the subset size.
    pub fn cluster_len(&self) -> usize {
        self.cluster_len
    }

    /// True when the retained subset covers every node of the machine
    /// (ids `0..cluster_len` in order) — the *full sweep* property that
    /// lets [`RunProducts::try_derive`] answer arbitrary windows and
    /// sub-subsets.
    pub fn covers_machine(&self) -> bool {
        self.full_retained_subset().is_some()
    }

    /// Deconstructs into raw [`ProductParts`], for external
    /// serialization (e.g. the `power-archive` disk tier).
    pub fn into_parts(self) -> ProductParts {
        ProductParts {
            request: self.request,
            dt: self.dt,
            steps: self.steps,
            cluster_len: self.cluster_len,
            system: self.system,
            averages: self.averages,
            subset: self.subset,
        }
    }

    /// Rebuilds products from raw parts, validating the same shape
    /// invariants a sweep guarantees: each requested product is present
    /// (and unrequested ones absent), per-node averages cover the
    /// machine, and a retained subset matches the requested node ids.
    pub fn from_parts(parts: ProductParts) -> Result<RunProducts> {
        let invalid = |reason: &'static str| SimError::InvalidConfig {
            field: "ProductParts",
            reason,
        };
        if parts.dt <= 0.0 || !parts.dt.is_finite() {
            return Err(invalid("dt must be finite and positive"));
        }
        if parts.steps == 0 || parts.cluster_len == 0 {
            return Err(invalid("steps and cluster_len must be non-zero"));
        }
        if parts.system.is_some() != parts.request.system {
            return Err(invalid("system traces must match the request"));
        }
        if parts.averages.is_some() != parts.request.averages_window.is_some() {
            return Err(invalid("averages must match the request"));
        }
        if parts.subset.is_some() != parts.request.subset.is_some() {
            return Err(invalid("subset traces must match the request"));
        }
        if let Some(system) = &parts.system {
            if system.iter().any(|t| t.watts.len() != parts.steps) {
                return Err(invalid("system trace length must equal steps"));
            }
        }
        if let Some(averages) = &parts.averages {
            if averages.iter().any(|a| a.len() != parts.cluster_len) {
                return Err(invalid("averages must cover every node"));
            }
        }
        if let Some(subset) = &parts.subset {
            let want_ids = parts.request.subset.as_ref().expect("checked above");
            for trace in subset.iter() {
                if &trace.node_ids != want_ids {
                    return Err(invalid("subset node ids must match the request"));
                }
                if trace.samples.iter().any(|row| row.len() != parts.steps) {
                    return Err(invalid("subset trace length must equal steps"));
                }
            }
        }
        Ok(RunProducts {
            request: parts.request,
            dt: parts.dt,
            steps: parts.steps,
            cluster_len: parts.cluster_len,
            system: parts.system,
            averages: parts.averages,
            subset: parts.subset,
        })
    }
}

/// Raw constituents of a [`RunProducts`], produced by
/// [`RunProducts::into_parts`] and consumed by
/// [`RunProducts::from_parts`]. Exists so external crates can serialize
/// products without this module giving up field privacy (and the
/// invariants it protects).
#[derive(Debug, Clone, PartialEq)]
pub struct ProductParts {
    /// The request the sweep answered.
    pub request: ProductRequest,
    /// Sample interval, seconds.
    pub dt: f64,
    /// Samples per trace.
    pub steps: usize,
    /// Nodes in the swept machine.
    pub cluster_len: usize,
    /// Whole-machine traces, `[Wall, Dc, ProcessorsOnly]`.
    pub system: Option<[SystemTrace; 3]>,
    /// Per-node window averages, `[Wall, Dc, ProcessorsOnly]`.
    pub averages: Option<[Vec<f64>; 3]>,
    /// Retained subset traces, `[Wall, Dc, ProcessorsOnly]`.
    pub subset: Option<[NodeTrace; 3]>,
}

/// Per-worker accumulator for the sweep.
#[derive(Default)]
struct WorkerOut {
    averages: Vec<(usize, [f64; 3])>,
    /// `(subset slot, lane in the current block, per-scope series)`.
    subset: Vec<(usize, usize, [Vec<f64>; 3])>,
}

/// Whole-machine totals of a sweep, added one block partial at a time in
/// block order (see the module docs). Workers take blocks round-robin and
/// each waits for its turn to add, so a sweep allocates the same buffers
/// whatever the scheduling.
struct BlockSums {
    state: Mutex<SumState>,
    turn: Condvar,
}

struct SumState {
    /// The block whose partial is due next.
    next: usize,
    /// Set when a worker panicked: its blocks never arrive.
    abandoned: bool,
    /// `[wall, dc, processors]` totals per step.
    totals: [Vec<f64>; 3],
}

impl BlockSums {
    fn new(steps: usize) -> Self {
        BlockSums {
            state: Mutex::new(SumState {
                next: 0,
                abandoned: false,
                totals: [vec![0.0; steps], vec![0.0; steps], vec![0.0; steps]],
            }),
            turn: Condvar::new(),
        }
    }

    /// Waits until every block before `block` is added, then adds
    /// `partial`. Returns `false` if a worker panicked, so the sweep is
    /// being abandoned.
    fn add(&self, block: usize, partial: &[Vec<f64>; 3]) -> bool {
        let Ok(mut st) = self.state.lock() else {
            return false;
        };
        while st.next != block && !st.abandoned {
            st = match self.turn.wait(st) {
                Ok(st) => st,
                Err(_) => return false,
            };
        }
        if st.abandoned {
            return false;
        }
        for (total, part) in st.totals.iter_mut().zip(partial) {
            for (t, p) in total.iter_mut().zip(part) {
                *t += p;
            }
        }
        st.next += 1;
        drop(st);
        self.turn.notify_all();
        true
    }
}

/// Held by each sweep worker: if the worker panics, marks the sums
/// abandoned and wakes every waiter, so no worker waits forever for a
/// block that will not arrive.
struct AbandonOnPanic<'s>(&'s BlockSums);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Ok(mut st) = self.0.state.lock() {
                st.abandoned = true;
            }
            self.0.turn.notify_all();
        }
    }
}

/// A node plan: the P-state constants of the processor power model,
/// resolved once for every lane of a block (see the module docs).
///
/// Each entry is computed exactly as [`ProcessorSpec::power`] computes it,
/// so a lane that reads the plan gets the scalar model's bits. Rows are
/// processor-major: processor `i`'s lanes sit at `i * lanes..(i + 1) * lanes`.
struct NodePlan {
    /// Per processor: `(f / f_nom).max(0)`.
    f_ratio: Vec<f64>,
    /// Per processor and lane: `(v / v_nom).max(0)²`, with `v` the lane's
    /// voltage under the P-state.
    v_ratio2: Vec<f64>,
    /// Per processor and lane: `leakage_w * leakage_factor * v_ratio²`.
    leakage: Vec<f64>,
}

impl NodePlan {
    fn with_capacity(procs: usize, width: usize) -> Self {
        NodePlan {
            f_ratio: Vec::with_capacity(procs),
            v_ratio2: Vec::with_capacity(procs * width),
            leakage: Vec::with_capacity(procs * width),
        }
    }

    /// Resolves `pstate` for lanes with the given ASIC samples. A lane with
    /// fewer samples than processors reads [`AsicSample::nominal`] for the
    /// rest, as [`NodeSpec::power`] does. Allocates nothing within the
    /// capacity the plan was created with.
    fn build(&mut self, processors: &[ProcessorSpec], pstate: &PState, asics: &[&[AsicSample]]) {
        let nominal = AsicSample::nominal();
        self.f_ratio.clear();
        self.v_ratio2.clear();
        self.leakage.clear();
        for (i, proc) in processors.iter().enumerate() {
            self.f_ratio.push((pstate.f_mhz / proc.f_nom_mhz).max(0.0));
            for lane in asics {
                let asic = lane.get(i).unwrap_or(&nominal);
                let v = pstate.voltage.voltage(asic.vid_bin);
                let v_ratio2 = (v / proc.v_nom).max(0.0).powi(2);
                self.v_ratio2.push(v_ratio2);
                self.leakage
                    .push(proc.leakage_w * asic.leakage_factor * v_ratio2);
            }
        }
    }

    /// Processor `i`'s `(f_ratio, v_ratio², leakage)` over `lanes` lanes.
    fn row(&self, i: usize, lanes: usize) -> (f64, &[f64], &[f64]) {
        let lanes_i = i * lanes..(i + 1) * lanes;
        (
            self.f_ratio[i],
            &self.v_ratio2[lanes_i.clone()],
            &self.leakage[lanes_i],
        )
    }
}

/// One processor's power on one lane, from its plan entries: the split
/// form of [`ProcessorSpec::power`], with the same operand order. `busy`
/// is `1 - idle_fraction`; `u` is already clamped to `[0, 1]`.
#[inline(always)]
fn processor_w(
    proc: &ProcessorSpec,
    busy: f64,
    u: f64,
    temp_c: f64,
    (f_ratio, v_ratio2, leakage): (f64, f64, f64),
) -> f64 {
    let activity = proc.idle_fraction + busy * u;
    let dynamic = proc.dynamic_w * activity * f_ratio * v_ratio2;
    let leakage = leakage * (1.0 + proc.leakage_temp_coeff * (temp_c - proc.t_ref_c));
    dynamic + leakage.max(0.0)
}

/// The fan policy resolved for a sweep: what the last lane loop needs to
/// turn a die temperature into fan power and thermal resistance.
#[derive(Clone, Copy)]
enum FanPlan {
    /// A pinned speed: fan power and thermal resistance are constants.
    Pinned { fan_w: f64, r_th: f64 },
    /// Automatic regulation, with [`FanPolicy::speed`],
    /// [`FanSpec::power`](crate::fan::FanSpec::power) and
    /// [`ThermalSpec::r_th`](crate::thermal::ThermalSpec::r_th) split into
    /// their per-sweep and per-lane parts.
    Auto {
        t_low_c: f64,
        /// `t_high_c - t_low_c`.
        t_span: f64,
        min_speed: f64,
        /// `1 - min_speed`.
        speed_span: f64,
        max_power_w: f64,
        /// `1 / r_th_max`.
        g_min: f64,
        /// `1 / r_th_min - 1 / r_th_max`.
        g_span: f64,
    },
}

impl FanPlan {
    fn new(node: &NodeSpec, policy: &FanPolicy) -> Self {
        let thermal = node.thermal;
        match *policy {
            FanPolicy::Pinned { .. } => {
                let speed = policy.speed(thermal.t_ambient_c, &node.fan);
                FanPlan::Pinned {
                    fan_w: node.fan.power(speed),
                    r_th: thermal.r_th(speed),
                }
            }
            FanPolicy::Auto { t_low_c, t_high_c } => {
                let g_min = 1.0 / thermal.r_th_max;
                let g_max = 1.0 / thermal.r_th_min;
                FanPlan::Auto {
                    t_low_c,
                    t_span: t_high_c - t_low_c,
                    min_speed: node.fan.min_speed,
                    speed_span: 1.0 - node.fan.min_speed,
                    max_power_w: node.fan.max_power_w,
                    g_min,
                    g_span: g_max - g_min,
                }
            }
        }
    }
}

/// The block kernel: per-lane simulation state for a block of nodes,
/// stored as a struct of arrays and advanced one sample per
/// [`NodeBlock::step`] for the whole block.
///
/// The sweep ([`Simulator::run_products`]) drives every node through
/// this type. Its buffers are sized once; [`NodeBlock::load`] reuses them
/// for the next block.
struct NodeBlock<'s, 'a> {
    sim: &'s Simulator<'a>,
    /// Thermal step factor `1 - exp(-dt / tau)`, fixed for the sweep.
    alpha: f64,
    fan: FanPlan,
    nodes: Vec<usize>,
    rng: Vec<StdRng>,
    temp_c: Vec<f64>,
    /// Inlet temperature: nominal ambient plus the node's position in the
    /// room's thermal gradient.
    t_ambient_c: Vec<f64>,
    asics: Vec<&'a [AsicSample]>,
    multiplier: Vec<f64>,
    factor: Vec<f64>,
    /// The workload's [`Workload::lane_term`] per lane.
    terms: Vec<[f64; 2]>,
    /// The lanes' node plans: the governor's one P-state, or `OnDemand`'s
    /// `[high, low]`.
    plans: [NodePlan; 2],
    /// The `Schedule` P-state `plans[0]` was built for.
    scheduled: Option<PState>,
    /// Scratch: the workload's utilization per lane for the current step,
    /// then the lane's clamped utilization.
    util: Vec<f64>,
    /// Scratch: the per-lane noise multiplier `1 + sigma * z`.
    noise: Vec<f64>,
    /// Scratch: the per-lane processor power of the current step.
    processors_w: Vec<f64>,
    /// The current step's `[wall, dc, processors]` watts per lane.
    watts: Vec<[f64; 3]>,
}

impl<'s, 'a> NodeBlock<'s, 'a> {
    /// An empty block with room for `width` lanes.
    fn new(sim: &'s Simulator<'a>, width: usize) -> Self {
        let spec = sim.cluster.spec();
        let procs = spec.node.processors.len();
        NodeBlock {
            sim,
            alpha: spec.node.thermal.step_alpha(sim.config.dt),
            fan: FanPlan::new(&spec.node, &spec.fan_policy),
            nodes: Vec::with_capacity(width),
            rng: Vec::with_capacity(width),
            temp_c: Vec::with_capacity(width),
            t_ambient_c: Vec::with_capacity(width),
            asics: Vec::with_capacity(width),
            multiplier: Vec::with_capacity(width),
            factor: Vec::with_capacity(width),
            terms: Vec::with_capacity(width),
            plans: [
                NodePlan::with_capacity(procs, width),
                NodePlan::with_capacity(procs, width),
            ],
            scheduled: None,
            util: Vec::with_capacity(width),
            noise: Vec::with_capacity(width),
            processors_w: Vec::with_capacity(width),
            watts: Vec::with_capacity(width),
        }
    }

    /// Resets the lanes to `nodes` (validated indices), each at sample 0
    /// and at its inlet temperature, and builds their node plans.
    /// Allocates nothing when `nodes` fits the width the block was created
    /// with.
    fn load(&mut self, nodes: &[usize]) {
        let sim = self.sim;
        let cluster = sim.cluster;
        let spec = cluster.spec();
        let t_ambient_c = spec.node.thermal.t_ambient_c;
        self.nodes.clear();
        self.rng.clear();
        self.temp_c.clear();
        self.t_ambient_c.clear();
        self.asics.clear();
        self.multiplier.clear();
        self.factor.clear();
        self.terms.clear();
        for &node in nodes {
            let inlet = t_ambient_c + cluster.ambient_offset(node);
            self.nodes.push(node);
            self.rng.push(substream(sim.config.seed, node as u64));
            self.temp_c.push(inlet);
            self.t_ambient_c.push(inlet);
            self.asics
                .push(cluster.asics(node).expect("node index validated by caller"));
            self.multiplier.push(
                cluster
                    .multiplier(node)
                    .expect("node index validated by caller"),
            );
            self.factor.push(sim.balance.factor(node, cluster.len()));
            self.terms.push(sim.workload.lane_term(node));
        }
        self.util.resize(nodes.len(), 0.0);
        self.noise.resize(nodes.len(), 0.0);
        self.processors_w.resize(nodes.len(), 0.0);
        self.watts.resize(nodes.len(), [0.0; 3]);
        let processors = &spec.node.processors;
        let [high, low] = &mut self.plans;
        self.scheduled = None;
        match &spec.governor {
            Governor::Static(pstate) => high.build(processors, pstate, &self.asics),
            Governor::OnDemand {
                high: h, low: l, ..
            } => {
                high.build(processors, h, &self.asics);
                low.build(processors, l, &self.asics);
            }
            // Built by the first step, and rebuilt at each switch.
            Governor::Schedule(_) => {}
        }
    }

    /// Advances every lane by sample `step` (the sample starting at
    /// `step * dt`) under the machine-wide multiplier `common_mult`, and
    /// returns each lane's `[wall, dc, processors]` watts in lane order.
    fn step(&mut self, step: usize, common_mult: f64) -> &[[f64; 3]] {
        let sim = self.sim;
        let spec = sim.cluster.spec();
        let node = &spec.node;
        let t = step as f64 * sim.config.dt;
        let sigma = sim.config.noise_sigma;
        sim.workload
            .utilizations(t, &self.nodes, &self.terms, &mut self.util);
        // The one P-state of the step, or OnDemand's per-lane threshold.
        let threshold = match &spec.governor {
            Governor::Static(_) => None,
            Governor::OnDemand { threshold, .. } => Some(*threshold),
            governor @ Governor::Schedule(_) => {
                let pstate = governor.pstate(t, 0.0);
                if self.scheduled != Some(pstate) {
                    self.plans[0].build(&node.processors, &pstate, &self.asics);
                    self.scheduled = Some(pstate);
                }
                None
            }
        };
        let lanes = self.nodes.len();
        let (rng, factor) = (&mut self.rng[..lanes], &self.factor[..lanes]);
        let (u, noise) = (&mut self.util[..lanes], &mut self.noise[..lanes]);
        let (temp, processors_w) = (&self.temp_c[..lanes], &mut self.processors_w[..lanes]);
        // The draws get a loop of their own: it keeps the lanes'
        // independent generator chains in flight together.
        if sigma > 0.0 {
            for (n, rng) in noise.iter_mut().zip(rng.iter_mut()) {
                *n = 1.0 + sigma * ziggurat(rng);
            }
            for ((u, f), n) in u.iter_mut().zip(factor).zip(noise.iter()) {
                *u = (*u * f * common_mult * n).clamp(0.0, 1.0);
            }
        } else {
            for (u, f) in u.iter_mut().zip(factor) {
                *u = (*u * f * common_mult).clamp(0.0, 1.0);
            }
        }
        let u = &*u;
        // `-0.0`, the neutral element `Iterator::<f64>::sum` starts from.
        processors_w.fill(-0.0);
        for (i, proc) in node.processors.iter().enumerate() {
            let busy = 1.0 - proc.idle_fraction;
            let (f_high, v_high, leak_high) = self.plans[0].row(i, lanes);
            let lane_iter = processors_w.iter_mut().zip(u).zip(temp);
            match threshold {
                None => {
                    for (((p, &u), &temp), (&v, &leak)) in
                        lane_iter.zip(v_high.iter().zip(leak_high))
                    {
                        *p += processor_w(proc, busy, u, temp, (f_high, v, leak));
                    }
                }
                Some(threshold) => {
                    let (f_low, v_low, leak_low) = self.plans[1].row(i, lanes);
                    let high = v_high.iter().zip(leak_high);
                    let low = v_low.iter().zip(leak_low);
                    for (((p, &u), &temp), ((&vh, &lh), (&vl, &ll))) in lane_iter.zip(high.zip(low))
                    {
                        let plan = if u >= threshold {
                            (f_high, vh, lh)
                        } else {
                            (f_low, vl, ll)
                        };
                        *p += processor_w(proc, busy, u, temp, plan);
                    }
                }
            }
        }
        match self.fan {
            FanPlan::Pinned { fan_w, r_th } => self.finish(lanes, |_| (fan_w, r_th)),
            FanPlan::Auto {
                t_low_c,
                t_span,
                min_speed,
                speed_span,
                max_power_w,
                g_min,
                g_span,
            } => self.finish(lanes, |temp| {
                let x = ((temp - t_low_c) / t_span).clamp(0.0, 1.0);
                let speed = (min_speed + speed_span * x).clamp(0.0, 1.0);
                let fan_w = max_power_w * speed * speed * speed;
                (fan_w, 1.0 / (g_min + g_span * speed))
            }),
        }
        &self.watts[..lanes]
    }

    /// The last lane loop of [`NodeBlock::step`]: memory, DC and wall
    /// power and the thermal step. `fan` maps a die temperature to
    /// `(fan_w, r_th)`; taking it as a closure gives each fan kind its
    /// own loop.
    #[inline(always)]
    fn finish(&mut self, lanes: usize, fan: impl Fn(f64) -> (f64, f64)) {
        let node = &self.sim.cluster.spec().node;
        let (memory, static_w) = (node.memory, node.static_power.power());
        let lane_out = self.temp_c[..lanes]
            .iter_mut()
            .zip(&mut self.watts[..lanes])
            .zip(&self.util[..lanes])
            .zip(&self.processors_w[..lanes]);
        let inputs = self.multiplier[..lanes]
            .iter()
            .zip(&self.t_ambient_c[..lanes]);
        for ((((temp, out), &u), &processors_w), (&multiplier, &t_ambient_c)) in
            lane_out.zip(inputs)
        {
            let memory_w = memory.idle_w + memory.active_w * u;
            let (fan_w, r_th) = fan(*temp);
            let compute_w = (processors_w + memory_w + static_w) * multiplier;
            let dc_w = compute_w + fan_w;
            let heat_w = dc_w - fan_w;
            let target = t_ambient_c + r_th * heat_w.max(0.0);
            *temp += (target - *temp) * self.alpha;
            *out = [dc_w / node.psu_efficiency, dc_w, processors_w];
        }
    }
}

/// A simulator binding a machine, a workload and a load-balance policy.
pub struct Simulator<'a> {
    cluster: &'a Cluster,
    workload: &'a dyn Workload,
    balance: LoadBalance,
    config: SimulationConfig,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator.
    pub fn new(
        cluster: &'a Cluster,
        workload: &'a dyn Workload,
        balance: LoadBalance,
        config: SimulationConfig,
    ) -> Result<Self> {
        config.validate()?;
        Ok(Simulator {
            cluster,
            workload,
            balance,
            config,
        })
    }

    /// The simulated machine.
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// The workload driving the machine.
    pub fn workload(&self) -> &dyn Workload {
        self.workload
    }

    /// The load-balance policy.
    pub fn balance(&self) -> LoadBalance {
        self.balance
    }

    /// The engine configuration.
    pub fn config(&self) -> &SimulationConfig {
        &self.config
    }

    /// The configured time step.
    pub fn dt(&self) -> f64 {
        self.config.dt
    }

    /// Number of samples covering the whole run.
    pub fn run_steps(&self) -> usize {
        (self.workload.phases().total() / self.config.dt).ceil() as usize
    }

    /// End of the sampled run in seconds (`run_steps * dt`).
    pub fn run_end(&self) -> f64 {
        self.run_steps() as f64 * self.config.dt
    }

    /// Per-step machine-wide utilization multipliers (common-mode noise).
    /// Deterministic in the seed, shared by every node and every product.
    fn common_noise(&self, steps: usize) -> Vec<f64> {
        if self.config.common_noise_sigma == 0.0 {
            return vec![1.0; steps];
        }
        // A dedicated substream far away from the per-node streams.
        let mut rng = substream(self.config.seed ^ 0xC0FF_EE00_D00D_F00Du64, u64::MAX);
        (0..steps)
            .map(|_| 1.0 + self.config.common_noise_sigma * ziggurat(&mut rng))
            .collect()
    }

    /// Validates `request` against this simulator without simulating
    /// anything: degenerate or fully-out-of-run averaging windows and
    /// out-of-range or repeated subset indices are rejected.
    pub fn validate_request(&self, request: &ProductRequest) -> Result<()> {
        if !request.system && request.averages_window.is_none() && request.subset.is_none() {
            return Err(SimError::InvalidConfig {
                field: "request",
                reason: "at least one product must be requested",
            });
        }
        if let Some((from, to)) = request.averages_window {
            if !(to > from) {
                return Err(SimError::InvalidConfig {
                    field: "to",
                    reason: "window end must exceed window start",
                });
            }
            if !(from < self.run_end() && to > 0.0) {
                return Err(SimError::InvalidConfig {
                    field: "window",
                    reason: "window does not overlap the run",
                });
            }
        }
        if let Some(subset) = request.subset.as_deref() {
            let n = self.cluster.len();
            let mut seen = vec![false; n];
            for &node in subset {
                if node >= n {
                    return Err(SimError::NoSuchNode {
                        index: node,
                        total: n,
                    });
                }
                if std::mem::replace(&mut seen[node], true) {
                    return Err(SimError::InvalidConfig {
                        field: "subset",
                        reason: "subset node ids must be distinct",
                    });
                }
            }
        }
        Ok(())
    }

    /// Runs one node sweep and returns every requested product, for all
    /// three meter scopes at once.
    ///
    /// All validation happens up front ([`Simulator::validate_request`]),
    /// before any node is simulated.
    pub fn run_products(&self, request: &ProductRequest) -> Result<RunProducts> {
        self.validate_request(request)?;
        let steps = self.run_steps();
        let n = self.cluster.len();
        let dt = self.config.dt;
        let horizon = request.horizon(steps, dt);

        let subset: &[usize] = request.subset.as_deref().unwrap_or(&[]);
        let slot_of: HashMap<usize, usize> = subset
            .iter()
            .enumerate()
            .map(|(k, &node)| (node, k))
            .collect();

        let full_sweep = request.needs_full_sweep();
        let work: Vec<usize> = if full_sweep {
            (0..n).collect()
        } else {
            subset.to_vec()
        };
        let blocks = work.len().div_ceil(BLOCK_WIDTH);
        let threads = self.config.threads.max(1).min(blocks.max(1));
        // The draws are sequential, so the horizon's prefix is the same
        // for any length.
        let common = self.common_noise(horizon);

        let system_len = if request.system { steps } else { 0 };
        let sums = BlockSums::new(system_len);
        let mut outs: Vec<WorkerOut> = (0..threads).map(|_| WorkerOut::default()).collect();

        std::thread::scope(|scope_| {
            for (w, out) in outs.iter_mut().enumerate() {
                let sim = self;
                let (common, slot_of, work, sums) = (&common, &slot_of, &work, &sums);
                scope_.spawn(move || {
                    let _abandon = AbandonOnPanic(sums);
                    let WorkerOut {
                        averages,
                        subset: subset_out,
                    } = out;
                    let mut block = NodeBlock::new(sim, BLOCK_WIDTH);
                    let mut weighted = [[0.0f64; 3]; BLOCK_WIDTH];
                    let mut partial = [
                        vec![0.0; system_len],
                        vec![0.0; system_len],
                        vec![0.0; system_len],
                    ];
                    for b in (w..blocks).step_by(threads) {
                        let nodes = &work[b * BLOCK_WIDTH..((b + 1) * BLOCK_WIDTH).min(work.len())];
                        block.load(nodes);
                        let retained = subset_out.len();
                        for (lane, node) in nodes.iter().enumerate() {
                            if let Some(&slot) = slot_of.get(node) {
                                let series = [vec![0.0; steps], vec![0.0; steps], vec![0.0; steps]];
                                subset_out.push((slot, lane, series));
                            }
                        }
                        let weighted = &mut weighted[..nodes.len()];
                        weighted.fill([0.0; 3]);
                        let mut weight = 0.0f64;
                        for (step, &common_mult) in common.iter().enumerate() {
                            let watts = block.step(step, common_mult);
                            if request.system {
                                for vals in watts {
                                    for (acc, v) in partial.iter_mut().zip(vals) {
                                        acc[step] += v;
                                    }
                                }
                            }
                            for (_, lane, series) in &mut subset_out[retained..] {
                                for (s, v) in series.iter_mut().zip(watts[*lane]) {
                                    s[step] = v;
                                }
                            }
                            if let Some((from, to)) = request.averages_window {
                                let a = step as f64 * dt;
                                let overlap = ((a + dt).min(to) - a.max(from)).max(0.0);
                                if overlap > 0.0 {
                                    weight += overlap;
                                    for (accs, vals) in weighted.iter_mut().zip(watts) {
                                        for (acc, v) in accs.iter_mut().zip(vals) {
                                            *acc += v * overlap;
                                        }
                                    }
                                }
                            }
                        }
                        if request.averages_window.is_some() {
                            for (&node, accs) in nodes.iter().zip(weighted.iter()) {
                                averages.push((node, accs.map(|x| x / weight)));
                            }
                        }
                        if request.system {
                            if !sums.add(b, &partial) {
                                return;
                            }
                            partial.iter_mut().for_each(|p| p.fill(0.0));
                        }
                    }
                });
            }
        });

        let system = if request.system {
            let st = sums.state.into_inner().expect("a sweep worker panicked");
            debug_assert_eq!(st.next, blocks);
            let [w, d, p] = st.totals;
            Some([
                SystemTrace::new(0.0, dt, w)?,
                SystemTrace::new(0.0, dt, d)?,
                SystemTrace::new(0.0, dt, p)?,
            ])
        } else {
            None
        };

        let averages = if request.averages_window.is_some() {
            let mut per_scope = [vec![0.0f64; n], vec![0.0f64; n], vec![0.0f64; n]];
            for out in &outs {
                for &(node, vals) in &out.averages {
                    for (scope_avgs, v) in per_scope.iter_mut().zip(vals) {
                        scope_avgs[node] = v;
                    }
                }
            }
            Some(per_scope)
        } else {
            None
        };

        let subset_traces = if request.subset.is_some() {
            let mut per_scope: [Vec<Vec<f64>>; 3] = [
                vec![Vec::new(); subset.len()],
                vec![Vec::new(); subset.len()],
                vec![Vec::new(); subset.len()],
            ];
            for out in &mut outs {
                for (slot, _, series) in out.subset.drain(..) {
                    let [w, d, p] = series;
                    per_scope[0][slot] = w;
                    per_scope[1][slot] = d;
                    per_scope[2][slot] = p;
                }
            }
            let [w, d, p] = per_scope;
            Some([
                NodeTrace::new(subset.to_vec(), 0.0, dt, w)?,
                NodeTrace::new(subset.to_vec(), 0.0, dt, d)?,
                NodeTrace::new(subset.to_vec(), 0.0, dt, p)?,
            ])
        } else {
            None
        };

        Ok(RunProducts {
            request: request.clone(),
            dt,
            steps,
            cluster_len: n,
            system,
            averages,
            subset: subset_traces,
        })
    }

    /// Whole-machine power vs time over the full run, at the configured
    /// sampling interval and scope. Convenience wrapper over
    /// [`Simulator::run_products`]; repeated callers should share a
    /// [`crate::store::TraceStore`] instead.
    pub fn system_trace(&self, scope: MeterScope) -> Result<SystemTrace> {
        let products = self.run_products(&ProductRequest::system_only())?;
        Ok(products
            .system_trace(scope)
            .expect("system trace was requested")
            .clone())
    }

    /// Per-node time-averaged power over the window `[from, to)`, for all
    /// nodes of the machine. The window is validated against the run span
    /// before any node is simulated; the sweep asks for the averages alone
    /// ([`ProductRequest::averages_only`]), so it stops at the window end.
    pub fn node_averages(&self, from: f64, to: f64, scope: MeterScope) -> Result<Vec<f64>> {
        let products = self.run_products(&ProductRequest::averages_only(from, to))?;
        Ok(products
            .node_averages(scope)
            .expect("averages were requested")
            .to_vec())
    }

    /// Full per-sample traces for a metered subset of nodes over the whole
    /// run. Sweeps only the subset.
    pub fn subset_trace(&self, nodes: &[usize], scope: MeterScope) -> Result<NodeTrace> {
        let products = self.run_products(&ProductRequest::subset_only(nodes))?;
        Ok(products
            .subset_trace(scope)
            .expect("subset was requested")
            .clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};
    use crate::components::{MemorySpec, ProcessorSpec, StaticSpec};
    use crate::dvfs::{Governor, PState};
    use crate::fan::{FanPolicy, FanSpec};
    use crate::thermal::ThermalSpec;
    use crate::variability::VariabilityModel;
    use crate::vid::{VidTable, VoltagePolicy};
    use power_stats::summary::Summary;
    use power_workload::{Firestarter, Hpl, HplVariant, RunPhases};

    fn spec(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            name: "engine-test".into(),
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
            seed: 99,
        }
    }

    fn config() -> SimulationConfig {
        SimulationConfig {
            dt: 5.0,
            noise_sigma: 0.01,
            common_noise_sigma: 0.003,
            seed: 7,
            threads: 4,
        }
    }

    #[test]
    fn system_trace_shape_and_magnitude() {
        let cluster = Cluster::build(spec(32)).unwrap();
        let phases = RunPhases::new(60.0, 1200.0, 60.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let trace = sim.system_trace(MeterScope::Wall).unwrap();
        assert_eq!(trace.len(), sim.run_steps());
        // Core-phase power: ~32 nodes x ~(2*115 + 40 + 40 + fan)/0.92 W.
        let core = trace.window_average(200.0, 1200.0).unwrap();
        let per_node = core / 32.0;
        assert!(
            (300.0..450.0).contains(&per_node),
            "per-node wall = {per_node}"
        );
        // Setup phase draws much less than core phase.
        let setup = trace.window_average(0.0, 50.0).unwrap();
        assert!(setup < 0.75 * core, "setup={setup} core={core}");
    }

    #[test]
    fn results_independent_of_thread_count() {
        let cluster = Cluster::build(spec(2 * BLOCK_WIDTH + 5)).unwrap();
        let phases = RunPhases::core_only(300.0).unwrap();
        let wl = Firestarter::new(phases);
        let mut c1 = config();
        c1.threads = 1;
        let mut c8 = config();
        c8.threads = 8;
        let t1 = Simulator::new(&cluster, &wl, LoadBalance::Balanced, c1)
            .unwrap()
            .system_trace(MeterScope::Wall)
            .unwrap();
        let t8 = Simulator::new(&cluster, &wl, LoadBalance::Balanced, c8)
            .unwrap()
            .system_trace(MeterScope::Wall)
            .unwrap();
        // System totals add block partials in block order, so three
        // blocks over one or eight workers give the same bits.
        assert_eq!(t1.watts, t8.watts);
        // Per-node products never cross a block boundary.
        let request = ProductRequest::with_averages(20.0, 250.0).and_subset(&[15, 2, 9, 130]);
        let p1 = Simulator::new(&cluster, &wl, LoadBalance::Balanced, c1)
            .unwrap()
            .run_products(&request)
            .unwrap();
        let p8 = Simulator::new(&cluster, &wl, LoadBalance::Balanced, c8)
            .unwrap()
            .run_products(&request)
            .unwrap();
        for scope in MeterScope::ALL {
            assert_eq!(p1.system_trace(scope), p8.system_trace(scope));
            assert_eq!(p1.node_averages(scope), p8.node_averages(scope));
            assert_eq!(p1.subset_trace(scope), p8.subset_trace(scope));
        }
    }

    #[test]
    fn node_averages_spread_matches_variability_scale() {
        let cluster = Cluster::build(spec(200)).unwrap();
        let phases = RunPhases::core_only(600.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let avgs = sim.node_averages(100.0, 600.0, MeterScope::Wall).unwrap();
        assert_eq!(avgs.len(), 200);
        let s = Summary::from_slice(&avgs);
        let cv = s.coefficient_of_variation().unwrap();
        // Paper's observed regime: roughly 1-3%.
        assert!((0.005..0.06).contains(&cv), "cv = {cv}");
    }

    #[test]
    fn subset_trace_matches_node_averages() {
        let cluster = Cluster::build(spec(20)).unwrap();
        let phases = RunPhases::core_only(300.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let nodes = vec![3, 7, 11];
        let trace = sim.subset_trace(&nodes, MeterScope::Wall).unwrap();
        assert_eq!(trace.node_count(), 3);
        let from_trace = trace.node_window_averages(50.0, 300.0).unwrap();
        let all = sim.node_averages(50.0, 300.0, MeterScope::Wall).unwrap();
        for (k, &node) in nodes.iter().enumerate() {
            assert!(
                (from_trace[k] - all[node]).abs() < 1e-9,
                "node {node}: {} vs {}",
                from_trace[k],
                all[node]
            );
        }
    }

    #[test]
    fn scopes_nest() {
        let cluster = Cluster::build(spec(8)).unwrap();
        let phases = RunPhases::core_only(200.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        // One sweep yields every scope at once.
        let products = sim
            .run_products(&ProductRequest::with_averages(50.0, 200.0))
            .unwrap();
        let wall = products.node_averages(MeterScope::Wall).unwrap();
        let dc = products.node_averages(MeterScope::Dc).unwrap();
        let procs = products.node_averages(MeterScope::ProcessorsOnly).unwrap();
        for i in 0..8 {
            assert!(wall[i] > dc[i], "wall > dc at {i}");
            assert!(dc[i] > procs[i], "dc > processors at {i}");
        }
        // And the wrapper methods agree with the combined sweep.
        let wall_wrapped = sim.node_averages(50.0, 200.0, MeterScope::Wall).unwrap();
        for (a, b) in wall.iter().zip(&wall_wrapped) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn combined_request_matches_individual_products() {
        let cluster = Cluster::build(spec(12)).unwrap();
        let phases = RunPhases::core_only(200.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let nodes = vec![1, 5, 9];
        let combined = sim
            .run_products(&ProductRequest::with_averages(50.0, 200.0).and_subset(&nodes))
            .unwrap();
        let lone_trace = sim.system_trace(MeterScope::Dc).unwrap();
        assert_eq!(combined.system_trace(MeterScope::Dc).unwrap(), &lone_trace);
        let lone_subset = sim.subset_trace(&nodes, MeterScope::Wall).unwrap();
        assert_eq!(
            combined.subset_trace(MeterScope::Wall).unwrap(),
            &lone_subset
        );
        let lone_avgs = sim
            .node_averages(50.0, 200.0, MeterScope::ProcessorsOnly)
            .unwrap();
        assert_eq!(
            combined.node_averages(MeterScope::ProcessorsOnly).unwrap(),
            lone_avgs.as_slice()
        );
    }

    #[test]
    fn prefix_subset_is_not_a_full_sweep() {
        // A retained subset whose ids happen to be the prefix 0..k of a
        // larger machine must not be promoted to a full sweep: deriving
        // system traces or window averages from it would report k-node
        // aggregates as machine-wide results.
        let cluster = Cluster::build(spec(20)).unwrap();
        let phases = RunPhases::core_only(200.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let prefix = sim
            .run_products(&ProductRequest::subset_only(&[0, 1, 2]))
            .unwrap();
        assert!(prefix.try_derive(&ProductRequest::system_only()).is_none());
        assert!(prefix
            .try_derive(&ProductRequest::with_averages(50.0, 200.0))
            .is_none());
        // Sub-subset slicing is still fine — it never claims the machine.
        let sliced = prefix
            .try_derive(&ProductRequest::subset_only(&[2, 0]))
            .unwrap();
        assert_eq!(
            sliced.subset_trace(MeterScope::Wall).unwrap().node_ids,
            vec![2, 0]
        );
        // A subset that genuinely covers the machine still derives both.
        let all: Vec<usize> = (0..20).collect();
        let full = sim
            .run_products(&ProductRequest::subset_only(&all))
            .unwrap();
        let derived = full
            .try_derive(&ProductRequest::with_averages(50.0, 200.0))
            .unwrap();
        assert_eq!(derived.node_averages(MeterScope::Wall).unwrap().len(), 20);
        assert!(full.try_derive(&ProductRequest::system_only()).is_some());
    }

    #[test]
    fn gpu_hpl_trace_slopes_down() {
        let cluster = Cluster::build(spec(16)).unwrap();
        let phases = RunPhases::new(60.0, 3600.0, 60.0).unwrap();
        let wl = Hpl::new(HplVariant::GpuInCore, phases, 1e15).unwrap();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let trace = sim.system_trace(MeterScope::Wall).unwrap();
        let (a, b) = phases.core_segment(0.0, 0.2);
        let first = trace.window_average(a, b).unwrap();
        let (a, b) = phases.core_segment(0.8, 1.0);
        let last = trace.window_average(a, b).unwrap();
        assert!((first - last) / first > 0.15, "first={first} last={last}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let cluster = Cluster::build(spec(4)).unwrap();
        let phases = RunPhases::core_only(100.0).unwrap();
        let wl = Firestarter::new(phases);
        let mut bad = config();
        bad.dt = 0.0;
        assert!(Simulator::new(&cluster, &wl, LoadBalance::Balanced, bad).is_err());
        let mut bad = config();
        bad.noise_sigma = 0.9;
        assert!(Simulator::new(&cluster, &wl, LoadBalance::Balanced, bad).is_err());
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        assert!(sim.subset_trace(&[99], MeterScope::Wall).is_err());
        assert!(sim.node_averages(10.0, 10.0, MeterScope::Wall).is_err());
        assert!(sim.node_averages(5000.0, 6000.0, MeterScope::Wall).is_err());
        // The empty request is rejected too.
        assert!(sim.run_products(&ProductRequest::default()).is_err());
    }

    #[test]
    fn window_validation_happens_before_simulation() {
        // A machine this size would take meaningful time to sweep; an
        // out-of-run window must be rejected without paying for it.
        let cluster = Cluster::build(spec(50_000)).unwrap();
        let phases = RunPhases::core_only(10_000.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let start = std::time::Instant::now();
        assert!(sim
            .node_averages(20_000.0, 30_000.0, MeterScope::Wall)
            .is_err());
        assert!(sim.node_averages(300.0, 200.0, MeterScope::Wall).is_err());
        assert!(sim.subset_trace(&[60_000], MeterScope::Wall).is_err());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "validation must not simulate the machine"
        );
    }

    #[test]
    fn duplicate_subset_ids_rejected_before_simulation() {
        // A repeated node id used to pass validation and then fail after
        // the whole sweep; it must be rejected up front, like a bad window.
        let cluster = Cluster::build(spec(50_000)).unwrap();
        let phases = RunPhases::core_only(10_000.0).unwrap();
        let wl = Firestarter::new(phases);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let duplicate = |e: SimError| {
            matches!(
                e,
                SimError::InvalidConfig {
                    field: "subset",
                    ..
                }
            )
        };
        let start = std::time::Instant::now();
        for request in [
            ProductRequest::subset_only(&[3, 3]),
            ProductRequest::system_only().and_subset(&[3, 3]),
            ProductRequest::with_averages(0.0, 500.0).and_subset(&[7, 1, 7]),
        ] {
            assert!(duplicate(sim.validate_request(&request).unwrap_err()));
            assert!(duplicate(sim.run_products(&request).unwrap_err()));
        }
        assert!(duplicate(
            sim.subset_trace(&[5, 9, 5], MeterScope::Wall).unwrap_err()
        ));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "validation must not simulate the machine"
        );
        // Distinct ids still pass.
        assert!(sim
            .validate_request(&ProductRequest::subset_only(&[3, 4]))
            .is_ok());
    }

    #[test]
    fn averages_only_sweep_stops_at_the_window_end_bit_for_bit() {
        // Two blocks, a setup phase, and one step exactly representable
        // and one not: the averages-only sweep must stop at the first step
        // starting at or past the window end and match the sweep that
        // fills the system traces too, bit for bit.
        let cluster = Cluster::build(spec(70)).unwrap();
        let phases = RunPhases::new(60.0, 900.0, 60.0).unwrap();
        let wl = Hpl::new(HplVariant::GpuInCore, phases, 1e15).unwrap();
        for dt in [5.0, 5.0 * 1.0371] {
            let mut cfg = config();
            cfg.dt = dt;
            cfg.threads = 2;
            let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
            let steps = sim.run_steps();
            let on_step = 97.0 * dt;
            let windows = [
                (100.0, on_step),
                (100.0, on_step.next_down()),
                (100.0, on_step.next_up()),
                (100.0, 98.5 * dt),
                (100.0, sim.run_end() + 1000.0),
                (10.0, 40.0),
            ];
            for (from, to) in windows {
                let request = ProductRequest::averages_only(from, to);
                let first_past = (0..steps).find(|&k| k as f64 * dt >= to).unwrap_or(steps);
                assert_eq!(request.horizon(steps, dt), first_past, "dt {dt}, to {to}");
                let alone = sim.run_products(&request).unwrap();
                let full = sim
                    .run_products(&ProductRequest::with_averages(from, to))
                    .unwrap();
                assert_eq!(alone.steps(), steps);
                assert!(alone.system_trace(MeterScope::Wall).is_none());
                for scope in MeterScope::ALL {
                    let bits = |p: &RunProducts| -> Vec<u64> {
                        let avgs = p.node_averages(scope).unwrap();
                        avgs.iter().map(|a| a.to_bits()).collect()
                    };
                    assert_eq!(bits(&alone), bits(&full), "dt {dt}, window {from}..{to}");
                }
            }
            // The window that ends on a step boundary stops there, well
            // short of the run; any other product sweeps the whole run.
            let on = ProductRequest::averages_only(100.0, on_step);
            assert_eq!(on.horizon(steps, dt), 97);
            for other in [
                ProductRequest::with_averages(100.0, on_step),
                ProductRequest::averages_only(100.0, on_step).and_subset(&[3]),
            ] {
                assert_eq!(other.horizon(steps, dt), steps);
            }
        }
    }

    #[test]
    fn node_plan_reads_nominal_asics_where_samples_are_missing() {
        // `Cluster::build` samples one ASIC per processor, so only a plan
        // built by hand sees a short slice. It must fall back to nominal
        // samples exactly as the scalar model does, bit for bit.
        let mut node = spec(1).node;
        node.processors.push(ProcessorSpec {
            f_nom_mhz: 2000.0,
            v_nom: 0.9,
            leakage_w: 30.0,
            ..node.processors[0]
        });
        let leaky = AsicSample {
            leakage_factor: 1.3,
            vid_bin: 4,
        };
        let lanes: [&[AsicSample]; 4] = [&[], &[leaky], &[leaky, leaky], &[leaky; 3]];
        let fan = FanPolicy::Pinned { speed: 0.5 };
        for voltage in [
            VoltagePolicy::Fixed(0.95),
            VoltagePolicy::UseVid(VidTable::firepro_s9150()),
        ] {
            let pstate = PState {
                f_mhz: 2400.0,
                voltage,
            };
            let mut plan = NodePlan::with_capacity(node.processors.len(), lanes.len());
            plan.build(&node.processors, &pstate, &lanes);
            for (k, asics) in lanes.iter().enumerate() {
                for (u, temp_c) in [(0.0, 30.0), (0.55, 61.0), (1.0, 90.0)] {
                    let mut got = -0.0;
                    for (i, proc) in node.processors.iter().enumerate() {
                        let (f_ratio, v_ratio2, leakage) = plan.row(i, lanes.len());
                        let busy = 1.0 - proc.idle_fraction;
                        got +=
                            processor_w(proc, busy, u, temp_c, (f_ratio, v_ratio2[k], leakage[k]));
                    }
                    let want = node
                        .power(asics, 1.0, u, &pstate, &fan, temp_c)
                        .processors_w;
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "lane {k}, u {u}, {voltage:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn warmup_transient_visible_in_trace() {
        // With auto fans and a cold start, power should drift upward over
        // the first thermal time constants of a constant-load run.
        let mut s = spec(8);
        s.fan_policy = FanPolicy::Auto {
            t_low_c: 40.0,
            t_high_c: 80.0,
        };
        let cluster = Cluster::build(s).unwrap();
        let phases = RunPhases::core_only(1200.0).unwrap();
        let wl = Firestarter::new(phases);
        let mut cfg = config();
        cfg.noise_sigma = 0.0;
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let trace = sim.system_trace(MeterScope::Wall).unwrap();
        let early = trace.window_average(10.0, 60.0).unwrap();
        let late = trace.window_average(900.0, 1200.0).unwrap();
        assert!(late > early * 1.005, "early={early} late={late}");
    }
}
