//! Live measurement campaigns with sequential stopping.
//!
//! The batch pipeline picks `n` from Table 5, meters `n` nodes, and
//! reports. The live driver inverts that: it meters nodes *one at a
//! time*, takes each node's trace from the engine
//! ([`Simulator::subset_trace`]), pushes every step through a sampling
//! meter into the ingestion layer, and after the node's window average
//! lands re-evaluates the sequential stopping rule. The campaign ends the
//! moment the Eq. 1–2 confidence interval (with finite-population
//! correction) reaches the target λ — typically after exactly the Table 5
//! node count, but *measured*, not assumed.
//!
//! The state machine is the fleet's: a live campaign is a
//! [`CampaignRuntime`] over the simulator's nodes, driven to its end on a
//! one-shard [`IngestPlane`]. This module holds that node source, the
//! identity checks a journal passes before it resumes, and the report.
//!
//! Everything is deterministic: node selection, meter gains, meter
//! noise, the block-bounded arrival jitter that exercises the reordering
//! path, and fault injection all derive from `seed` via independent RNG
//! substreams, so a campaign is exactly reproducible sample-for-sample.
//!
//! # Durable campaigns
//!
//! That determinism is what makes a crashed campaign *resumable*: the
//! only state that matters at a node boundary is the sequence of
//! finalized per-node window averages fed to the estimator so far.
//! [`run_live_campaign_journaled`] journals the campaign as a fleet of
//! one, campaign [`LIVE_CAMPAIGN_ID`], through the fleet's
//! [`FleetJournal`] (e.g. `FleetWal` in `power-archive`): `Created` with
//! [`campaign_fingerprint`], the population `N` as 8 little-endian bytes
//! and the model revision ([`SIMULATION_KEY_EPOCH`]) as 4, one synced
//! `Node` record per finalized average, and `Finished`
//! when the rule fires or the budget runs out. On startup the durable
//! prefix is checked by [`replay_nodes`](crate::online::replay_nodes)
//! against the selection order and
//! replayed into the estimator, so the campaign continues at its
//! watermark and reports what an uninterrupted run reports (ingestion
//! accounting and anomaly events cover only the resumed portion). A
//! journal holding another campaign id (a fleet's log), model revision,
//! fingerprint or population is refused before anything is written to
//! it; one written under another revision is refused with
//! [`TelemetryError::ModelRevision`], which names both. Journals from
//! before the revision was recorded (8 creation bytes) name theirs only
//! through the fingerprint.

use crate::anomaly::{AnomalyEvent, AnomalyMonitor, DetectorConfig};
use crate::ingest::{IngestConfig, IngestStats, Sample};
use crate::journal::{CampaignReplay, FleetJournal};
use crate::online::{CiQuantile, CvAssumption, StoppingRule};
use crate::plane::{IngestPlane, PlaneConfig};
use crate::ring::RingBuffer;
use crate::runtime::{CampaignLog, CampaignRuntime, CampaignSource, CampaignState, Plan};
use crate::{Result, TelemetryError};
use power_meter::faults::MeterFault;
use power_meter::MeterModel;
use power_sim::engine::MeterScope;
use power_sim::store::SIMULATION_KEY_EPOCH;
use power_sim::Simulator;
use power_stats::ci::ConfidenceInterval;
use power_stats::hash::Fnv1a;
use power_stats::rng::substream;
use power_stats::sampling::sample_without_replacement;
use power_stats::SampleSizePlan;
use rand::Rng;

/// RNG substream tags (arbitrary, fixed for reproducibility).
const STREAM_SELECT: u64 = 0x11FE_CA3E_5E1E_C700;
const STREAM_METER: u64 = 0x11FE_CA3E_3E7E_D000;
const STREAM_JITTER: u64 = 0x11FE_CA3E_917E_4000;

/// The campaign id a live campaign journals under: it is a fleet of one.
pub const LIVE_CAMPAIGN_ID: u64 = 0;

/// Configuration of a live campaign.
#[derive(Debug, Clone)]
pub struct LiveCampaignConfig {
    /// Two-sided confidence level, e.g. `0.95`.
    pub confidence: f64,
    /// Target relative accuracy λ.
    pub lambda: f64,
    /// Critical-value family for the stopping rule and the reported CI.
    pub quantile: CiQuantile,
    /// CV source for the stopping rule.
    pub cv: CvAssumption,
    /// Instrument model every metered node gets an instance of.
    pub meter: MeterModel,
    /// The rule cannot stop before this many nodes (≥ 2).
    pub pilot_nodes: usize,
    /// Hard cap on metered nodes (the campaign's meter budget).
    pub max_nodes: usize,
    /// Ingestion lateness bound; arrivals are jittered within blocks of
    /// this size to exercise the reordering path.
    pub lateness: u64,
    /// Root seed for selection, metering, jitter and faults.
    pub seed: u64,
    /// Which power boundary the meters see.
    pub scope: MeterScope,
    /// Streaming anomaly detection, if wanted.
    pub detector: Option<DetectorConfig>,
    /// Faults injected into specific nodes' meters (node id → fault).
    pub faults: Vec<(usize, MeterFault)>,
}

impl LiveCampaignConfig {
    /// A reasonable default campaign for target accuracy `lambda` with
    /// planned coefficient of variation `cv`.
    pub fn table5(lambda: f64, cv: f64, meter: MeterModel) -> Self {
        LiveCampaignConfig {
            confidence: 0.95,
            lambda,
            quantile: CiQuantile::Normal,
            cv: CvAssumption::Planned(cv),
            meter,
            pilot_nodes: 2,
            max_nodes: usize::MAX,
            lateness: 4,
            seed: 2015,
            scope: MeterScope::Wall,
            detector: None,
            faults: Vec::new(),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.pilot_nodes < 2 {
            return Err(TelemetryError::InvalidConfig {
                field: "pilot_nodes",
                reason: "pilot needs at least two nodes for a spread estimate",
            });
        }
        if self.max_nodes < self.pilot_nodes {
            return Err(TelemetryError::InvalidConfig {
                field: "max_nodes",
                reason: "node budget must cover the pilot",
            });
        }
        self.meter.validate()?;
        for (_, fault) in &self.faults {
            fault.validate()?;
        }
        Ok(())
    }

    /// The order in which a campaign over `population` nodes will meter
    /// the machine: a seeded draw without replacement, truncated to the
    /// node budget. Deterministic per (config, seed) — the same order
    /// [`run_live_campaign`] uses, so callers can know up front which
    /// node ids will be metered first (e.g. to target fault injection at
    /// nodes that will actually be metered).
    pub fn selection_order(&self, population: usize) -> Result<Vec<usize>> {
        let budget = self.max_nodes.min(population);
        let mut select_rng = substream(self.seed ^ STREAM_SELECT, 0);
        let mut all = sample_without_replacement(&mut select_rng, population, population)?;
        all.truncate(budget);
        Ok(all)
    }
}

/// Fingerprints a campaign identity: everything that determines the
/// node selection order and the per-node averages — the full config
/// (via its `Debug` rendering, the workspace's standard trick for
/// structural hashing), the machine size and the simulation model's
/// epoch ([`SIMULATION_KEY_EPOCH`]). A journal written under one fingerprint
/// refuses to replay into a campaign with another, so averages metered
/// under an older model are never mixed with new ones.
pub fn campaign_fingerprint(cfg: &LiveCampaignConfig, population: usize) -> u64 {
    fingerprint_under(cfg, population, SIMULATION_KEY_EPOCH)
}

fn fingerprint_under(cfg: &LiveCampaignConfig, population: usize, epoch: u32) -> u64 {
    let mut h = Fnv1a::default();
    h.write(format!("{cfg:?}").as_bytes());
    h.write_u64(population as u64);
    h.write(&epoch.to_le_bytes());
    h.finish()
}

/// The first model revision whose live journals record it in their
/// creation bytes.
const FIRST_RECORDED_REVISION: u32 = 6;

/// A live journal's creation bytes: the population, then the model
/// revision, both little-endian.
fn creation_bytes(population: usize) -> [u8; 12] {
    let mut bytes = [0; 12];
    bytes[..8].copy_from_slice(&(population as u64).to_le_bytes());
    bytes[8..].copy_from_slice(&SIMULATION_KEY_EPOCH.to_le_bytes());
    bytes
}

/// The model revision a live journal was written under, when it can be
/// told: read from its creation bytes or, for a journal from before they
/// recorded it, the earlier revision whose fingerprint of this campaign
/// it carries.
fn journal_revision(
    cfg: &LiveCampaignConfig,
    population: usize,
    fingerprint: u64,
    spec: &[u8],
) -> Option<u32> {
    match spec.len() {
        12 => Some(u32::from_le_bytes(spec[8..].try_into().expect("4 bytes"))),
        8 if spec == (population as u64).to_le_bytes() => (1..FIRST_RECORDED_REVISION)
            .find(|&epoch| fingerprint_under(cfg, population, epoch) == fingerprint),
        _ => None,
    }
}

/// What a finished live campaign reports.
#[derive(Debug, Clone)]
pub struct LiveCampaignReport {
    /// Machine size `N`.
    pub population: usize,
    /// Nodes actually metered (including journal-replayed ones).
    pub metered_nodes: u64,
    /// Nodes whose averages were replayed from a journal instead of
    /// metered in this process (a subset of `metered_nodes`).
    pub resumed_nodes: u64,
    /// Node count at which the stopping rule fired, if it did before the
    /// budget ran out.
    pub stopped_at: Option<u64>,
    /// Closed-form Eq. 5 node count for comparison (planned-CV rules).
    pub planned_nodes: Option<u64>,
    /// Fleet mean node power in watts.
    pub mean_node_w: f64,
    /// Confidence interval for the mean (empirical spread, FPC applied).
    pub ci: ConfidenceInterval,
    /// Achieved relative accuracy (half-width / mean).
    pub relative_accuracy: f64,
    /// Extrapolated machine power `N · mean` in watts.
    pub reported_power_w: f64,
    /// Measurement window `[from, to)` in run seconds.
    pub window: (f64, f64),
    /// Ingestion accounting across the whole campaign.
    pub ingest: IngestStats,
    /// Anomaly events, if a detector was configured.
    pub anomalies: Vec<AnomalyEvent>,
}

/// Jitters `samples` in place within consecutive blocks of `lateness`
/// entries (Fisher–Yates per block). Displacement is bounded by the
/// block, so ingestion with the same lateness bound repairs the order
/// losslessly — this exercises the reordering path without drops.
fn block_jitter<R: Rng + ?Sized>(samples: &mut [Sample], lateness: u64, rng: &mut R) {
    let block = lateness.max(1) as usize;
    if block < 2 {
        return;
    }
    for chunk in samples.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            let j = rng.random_range(0..=i);
            chunk.swap(i, j);
        }
    }
}

/// Runs a live campaign against `sim`.
///
/// Nodes are drawn without replacement in a seeded random order and
/// metered one at a time: the engine's trace of the node goes through
/// the node's meter (and fault, if injected), arrival order is jittered
/// within the lateness bound, the samples are ingested into the
/// campaign's lanes, and the finalized window average goes to the
/// sequential estimator. The campaign stops at the
/// rule's word, at a census of the candidate budget, or at `max_nodes`.
pub fn run_live_campaign(
    sim: &Simulator<'_>,
    cfg: &LiveCampaignConfig,
) -> Result<LiveCampaignReport> {
    run_campaign(sim, cfg, None)
}

/// Runs a live campaign with durable progress: like
/// [`run_live_campaign`], but every finalized per-node average is
/// recorded in `journal` (as campaign [`LIVE_CAMPAIGN_ID`]) and synced
/// and, if the journal already holds a prefix of this campaign (same
/// [`campaign_fingerprint`] and population), the campaign resumes at its
/// watermark instead of re-metering the recorded nodes. See the module
/// docs for the exact resume semantics.
pub fn run_live_campaign_journaled(
    sim: &Simulator<'_>,
    cfg: &LiveCampaignConfig,
    journal: &mut dyn FleetJournal,
) -> Result<LiveCampaignReport> {
    run_campaign(sim, cfg, Some(journal))
}

/// The live campaign's durable state in `journal`, if it holds one. A
/// journal holding another campaign id, or campaign [`LIVE_CAMPAIGN_ID`]
/// written under another model revision, config or population, is
/// refused before anything is written to it.
fn own_replay(
    journal: &mut dyn FleetJournal,
    cfg: &LiveCampaignConfig,
    population: usize,
) -> Result<Option<CampaignReplay>> {
    let mut replays = journal.replay()?;
    let live = replays.remove(&LIVE_CAMPAIGN_ID);
    if let Some(other) = replays.keys().next() {
        return Err(TelemetryError::Journal(format!(
            "journal holds campaign {other}: a live campaign only resumes its own"
        )));
    }
    let Some(rep) = live else {
        return Ok(None);
    };
    let revision = journal_revision(cfg, population, rep.fingerprint, &rep.spec);
    if let Some(journal) = revision.filter(|&r| r != SIMULATION_KEY_EPOCH) {
        return Err(TelemetryError::ModelRevision {
            journal,
            current: SIMULATION_KEY_EPOCH,
        });
    }
    let fingerprint = campaign_fingerprint(cfg, population);
    if rep.fingerprint != fingerprint || rep.spec != creation_bytes(population) {
        return Err(TelemetryError::Journal(format!(
            "journal belongs to campaign {:#018x} ({} creation bytes), \
             not {fingerprint:#018x}/{population} nodes",
            rep.fingerprint,
            rep.spec.len()
        )));
    }
    Ok(Some(rep))
}

/// A live campaign's nodes: the machine's, in selection order, each
/// metered from the engine's one-node trace through its meter (and
/// fault, if injected), its arrival order jittered within the lateness
/// bound, its finalized ring replayed into the anomaly monitor.
struct SimulatedNodes<'a, 's> {
    sim: &'a Simulator<'s>,
    cfg: &'a LiveCampaignConfig,
    population: usize,
    plan: Plan,
    /// Candidate order: seeded draw without replacement over the machine.
    candidates: Vec<usize>,
    monitor: Option<AnomalyMonitor>,
}

impl CampaignSource for SimulatedNodes<'_, '_> {
    fn plan(&self) -> Plan {
        self.plan
    }

    fn node_id(&self, slot: u64) -> u64 {
        self.candidates[slot as usize] as u64
    }

    fn identity(&self) -> (u64, Vec<u8>) {
        let fingerprint = campaign_fingerprint(self.cfg, self.population);
        (fingerprint, creation_bytes(self.population).to_vec())
    }

    fn meter_node(&mut self, slot: u64, out: &mut Vec<Sample>) -> Result<()> {
        let cfg = self.cfg;
        let node = self.candidates[slot as usize];
        let trace = self.sim.subset_trace(&[node], cfg.scope)?;
        let mut rng = substream(cfg.seed ^ STREAM_METER, node as u64);
        let meter = cfg.meter.instantiate(&mut rng)?;
        let fault = cfg
            .faults
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, f)| *f)
            .unwrap_or(MeterFault::None);
        let mut last_good = None;
        out.clear();
        for (step, &watts) in trace.samples[0].iter().enumerate() {
            let w = meter.sample_one(&mut rng, watts);
            // Fault layer, same draw order as `FaultyMeter::measure`;
            // t_rel is measured from the window start, before which the
            // stuck fault has nothing to freeze onto.
            let t = step as f64 * self.plan.dt;
            if let Some(faulted) =
                fault.apply_sample(&mut rng, w, t - self.plan.window.0, &mut last_good)
            {
                out.push(Sample {
                    node: slot as usize,
                    seq: step as u64,
                    watts: faulted,
                });
            }
        }
        let mut rng = substream(cfg.seed ^ STREAM_JITTER, node as u64);
        block_jitter(out, cfg.lateness, &mut rng);
        Ok(())
    }

    fn finalized(&mut self, slot: usize, ring: &RingBuffer) -> Result<()> {
        if let Some(mon) = self.monitor.as_mut() {
            for seq in ring.first_seq()..ring.next_seq() {
                match ring.get(seq) {
                    Some(w) => mon.observe(slot, w)?,
                    None => mon.observe_missing(slot)?,
                }
            }
        }
        Ok(())
    }
}

fn run_campaign(
    sim: &Simulator<'_>,
    cfg: &LiveCampaignConfig,
    journal: Option<&mut dyn FleetJournal>,
) -> Result<LiveCampaignReport> {
    cfg.validate()?;
    let population = sim.cluster().len();
    let phases = sim.workload().phases();
    let rule = StoppingRule {
        confidence: cfg.confidence,
        lambda: cfg.lambda,
        population: population as u64,
        quantile: cfg.quantile,
        cv: cfg.cv,
        min_nodes: cfg.pilot_nodes as u64,
    };
    let planned_nodes = match cfg.cv {
        CvAssumption::Planned(cv) => Some(
            SampleSizePlan::new(cfg.confidence, cfg.lambda, cv)?
                .required_nodes(population as u64)?,
        ),
        CvAssumption::Empirical => None,
    };
    let candidates = cfg.selection_order(population)?;
    let plan = Plan {
        rule,
        budget: candidates.len() as u64,
        dt: sim.dt(),
        // Rings retain the whole run.
        ingest: IngestConfig {
            lateness: cfg.lateness,
            ring_capacity: sim.run_steps() + 1,
        },
        window: (phases.core_start(), phases.core_end()),
    };
    let monitor = match cfg.detector {
        Some(det) => Some(AnomalyMonitor::new(candidates.len(), 0.0, plan.dt, det)?),
        None => None,
    };
    let source = SimulatedNodes {
        sim,
        cfg,
        population,
        plan,
        candidates,
        monitor,
    };

    // The campaign is the one campaign of a one-shard plane. A journaled
    // prefix replays into the estimator: those nodes were metered by a
    // previous incarnation of this campaign, and determinism guarantees
    // re-metering them would reproduce the recorded averages exactly.
    let id = LIVE_CAMPAIGN_ID;
    let plane = IngestPlane::new(PlaneConfig { shards: 1 })?;
    let mut log = CampaignLog::None;
    let mut prior = None;
    if let Some(journal) = journal {
        prior = own_replay(journal, cfg, population)?;
        log = CampaignLog::Own(journal);
    }
    let mut runtime = CampaignRuntime::open(id, source, prior.as_ref(), &plane, &mut log)?;
    let mut scratch = Vec::new();
    while runtime.state() == CampaignState::Live {
        runtime.advance(id, &plane, &mut log, &mut scratch)?;
    }
    if let Some(e) = runtime.error() {
        return Err(e.clone());
    }

    let estimator = runtime.estimator();
    let ci = estimator.ci()?;
    let relative_accuracy = ci.relative_accuracy()?;
    let mean_node_w = estimator.mean();
    Ok(LiveCampaignReport {
        population,
        metered_nodes: estimator.count(),
        resumed_nodes: runtime.resumed_nodes(),
        stopped_at: estimator.stopped_at(),
        planned_nodes,
        mean_node_w,
        ci,
        relative_accuracy,
        reported_power_w: mean_node_w * population as f64,
        window: plan.window,
        ingest: runtime
            .ingest(id, &plane)
            .map(|(stats, _)| stats)
            .unwrap_or_default(),
        anomalies: runtime
            .source()
            .monitor
            .as_ref()
            .map(|m| m.events().to_vec())
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{CampaignReplay, MemJournal};
    use power_sim::cluster::{Cluster, ClusterSpec};
    use power_sim::components::{MemorySpec, ProcessorSpec, StaticSpec};
    use power_sim::dvfs::{Governor, PState};
    use power_sim::engine::SimulationConfig;
    use power_sim::fan::{FanPolicy, FanSpec};
    use power_sim::thermal::ThermalSpec;
    use power_sim::variability::VariabilityModel;
    use power_sim::vid::VoltagePolicy;
    use power_sim::NodeSpec;
    use power_workload::{Firestarter, LoadBalance, RunPhases, Workload};
    use std::collections::BTreeMap;

    fn spec(nodes: usize) -> ClusterSpec {
        ClusterSpec {
            name: "live-test".into(),
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
            threads: 2,
        }
    }

    /// Firestarter with `ramp`-second ramps around a `core`-second core
    /// phase, on `spec(nodes)`.
    fn rig(nodes: usize, ramp: f64, core: f64) -> (Cluster, Firestarter) {
        let phases = RunPhases::new(ramp, core, ramp).unwrap();
        (
            Cluster::build(spec(nodes)).unwrap(),
            Firestarter::new(phases),
        )
    }

    fn campaign(cv: CvAssumption) -> LiveCampaignConfig {
        LiveCampaignConfig {
            cv,
            lambda: 0.02,
            ..LiveCampaignConfig::table5(0.02, 0.03, MeterModel::ideal())
        }
    }

    #[test]
    fn campaign_stops_and_meets_lambda() {
        let (cluster, wl) = rig(120, 60.0, 600.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let cfg = campaign(CvAssumption::Empirical);
        let report = run_live_campaign(&sim, &cfg).unwrap();
        let n = report.stopped_at.expect("rule must fire on 120 nodes");
        assert_eq!(report.metered_nodes, n);
        assert!((2..120).contains(&n), "stopped at {n}");
        assert!(
            report.relative_accuracy <= cfg.lambda + 1e-12,
            "achieved {} > {}",
            report.relative_accuracy,
            cfg.lambda
        );
        // In-bound jitter: lossless ingestion.
        assert_eq!(report.ingest.dropped(), 0);
        assert_eq!(report.ingest.gaps, 0);
        assert!(report.ingest.reordered > 0, "jitter never exercised");
        // Sanity on the extrapolated machine power (~300-450 W/node).
        let per_node = report.reported_power_w / 120.0;
        assert!((250.0..500.0).contains(&per_node), "{per_node}");
        assert!(report.anomalies.is_empty());
    }

    #[test]
    fn campaign_is_deterministic() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let cfg = campaign(CvAssumption::Empirical);
        let a = run_live_campaign(&sim, &cfg).unwrap();
        let b = run_live_campaign(&sim, &cfg).unwrap();
        assert_eq!(a.metered_nodes, b.metered_nodes);
        assert_eq!(a.mean_node_w, b.mean_node_w);
        assert_eq!(a.relative_accuracy, b.relative_accuracy);
        assert_eq!(a.ingest, b.ingest);
    }

    #[test]
    fn arrival_jitter_does_not_move_the_estimate() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let mut cfg = campaign(CvAssumption::Empirical);
        cfg.lateness = 0; // in-order fast path, no jitter
        let ordered = run_live_campaign(&sim, &cfg).unwrap();
        cfg.lateness = 8;
        let jittered = run_live_campaign(&sim, &cfg).unwrap();
        assert_eq!(ordered.ingest.reordered, 0);
        assert!(jittered.ingest.reordered > 0, "jitter never exercised");
        assert_eq!(ordered.metered_nodes, jittered.metered_nodes);
        assert_eq!(ordered.stopped_at, jittered.stopped_at);
        assert_eq!(
            ordered.mean_node_w.to_bits(),
            jittered.mean_node_w.to_bits()
        );
        assert_eq!(
            ordered.relative_accuracy.to_bits(),
            jittered.relative_accuracy.to_bits()
        );
    }

    #[test]
    fn node_budget_caps_the_campaign() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let mut cfg = campaign(CvAssumption::Empirical);
        cfg.lambda = 1e-6; // unreachable target
        cfg.max_nodes = 10;
        let report = run_live_campaign(&sim, &cfg).unwrap();
        assert_eq!(report.metered_nodes, 10);
        assert_eq!(report.stopped_at, None);
        assert!(report.relative_accuracy > 1e-6);
    }

    #[test]
    fn injected_faults_surface_as_anomalies() {
        let (cluster, wl) = rig(40, 30.0, 600.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let mut cfg = campaign(CvAssumption::Empirical);
        cfg.lambda = 1e-6; // force a metering sweep of the whole budget
        cfg.max_nodes = 40;
        cfg.detector = Some(DetectorConfig {
            drift_window: 24,
            drift_threshold_per_hour: 0.5,
            stuck_run: 10,
            stuck_tolerance_w: 0.0,
            gap_threshold: 5,
        });
        // Freeze every meter early: with dt = 5 s each node emits long
        // runs of its stuck value — unambiguous for the run-length
        // detector even at this coarse step.
        cfg.faults = (0..40)
            .map(|n| (n, MeterFault::StuckAfter { after_s: 100.0 }))
            .collect();
        let report = run_live_campaign(&sim, &cfg).unwrap();
        let stuck = report
            .anomalies
            .iter()
            .filter(|e| matches!(e.kind, crate::anomaly::AnomalyKind::Stuck { .. }))
            .count();
        assert!(stuck >= 30, "stuck events: {stuck} of 40 nodes");
    }

    #[test]
    fn config_validation() {
        let ok = campaign(CvAssumption::Empirical);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.pilot_nodes = 1;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.max_nodes = 1;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.faults = vec![(0, MeterFault::DropSamples { prob: 2.0 })];
        assert!(bad.validate().is_err());
    }

    /// A [`MemJournal`] that simulates a crash by erroring after
    /// `fail_after` node records (the record itself still lands, as with
    /// a real WAL that syncs then dies).
    #[derive(Default)]
    struct CrashingJournal {
        inner: MemJournal,
        fail_after: Option<usize>,
    }

    /// The live campaign's durable state in `journal`.
    fn live(journal: &mut dyn FleetJournal) -> CampaignReplay {
        journal.replay().unwrap().remove(&LIVE_CAMPAIGN_ID).unwrap()
    }

    impl FleetJournal for CrashingJournal {
        fn replay(&mut self) -> Result<BTreeMap<u64, CampaignReplay>> {
            self.inner.replay()
        }
        fn record_created(&mut self, id: u64, fingerprint: u64, spec: &[u8]) -> Result<()> {
            self.inner.record_created(id, fingerprint, spec)
        }
        fn record_node(&mut self, id: u64, node: u64, average: f64) -> Result<()> {
            self.inner.record_node(id, node, average)?;
            if self
                .fail_after
                .is_some_and(|limit| live(&mut self.inner).nodes.len() >= limit)
            {
                return Err(TelemetryError::Journal("injected crash".into()));
            }
            Ok(())
        }
        fn record_finished(&mut self, id: u64) -> Result<()> {
            self.inner.record_finished(id)
        }
        fn record_deleted(&mut self, id: u64) -> Result<()> {
            self.inner.record_deleted(id)
        }
        fn sync(&mut self) -> Result<()> {
            self.inner.sync()
        }
    }

    /// A live journal holding `nodes` under the given identity.
    fn live_journal(fingerprint: u64, population: usize, nodes: &[(u64, f64)]) -> MemJournal {
        let mut journal = MemJournal::default();
        journal
            .record_created(LIVE_CAMPAIGN_ID, fingerprint, &creation_bytes(population))
            .unwrap();
        for &(node, avg) in nodes {
            journal.record_node(LIVE_CAMPAIGN_ID, node, avg).unwrap();
        }
        journal
    }

    #[test]
    fn journaled_campaign_matches_plain_run() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let cfg = campaign(CvAssumption::Empirical);
        let plain = run_live_campaign(&sim, &cfg).unwrap();
        let mut journal = CrashingJournal::default();
        let journaled = run_live_campaign_journaled(&sim, &cfg, &mut journal).unwrap();
        assert_eq!(journaled.resumed_nodes, 0);
        assert_eq!(journaled.metered_nodes, plain.metered_nodes);
        assert_eq!(journaled.mean_node_w, plain.mean_node_w);
        assert_eq!(journaled.relative_accuracy, plain.relative_accuracy);
        let rep = live(&mut journal);
        assert_eq!(rep.nodes.len() as u64, plain.metered_nodes);
        assert_eq!(rep.spec, creation_bytes(60));
        assert_eq!(rep.spec[8..], SIMULATION_KEY_EPOCH.to_le_bytes());
        assert_eq!(rep.fingerprint, campaign_fingerprint(&cfg, 60));
        // Finished marks the end of the campaign, rule or budget.
        assert!(plain.stopped_at.is_some());
        assert!(rep.finished);
    }

    /// With an ideal meter, no faults and in-bound jitter, every
    /// journaled average is the engine's own window average of the node.
    #[test]
    fn live_meters_exactly_the_engines_samples() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let mut cfg = campaign(CvAssumption::Empirical);
        cfg.meter = MeterModel::ideal();
        cfg.faults.clear();
        cfg.lateness = 4;
        let mut journal = MemJournal::default();
        let report = run_live_campaign_journaled(&sim, &cfg, &mut journal).unwrap();
        assert!(report.ingest.reordered > 0, "jitter never exercised");
        let nodes = live(&mut journal).nodes;
        assert_eq!(nodes.len() as u64, report.metered_nodes);
        let phases = wl.phases();
        let (core_start, core_end) = (phases.core_start(), phases.core_end());
        for (node, avg) in nodes {
            let engine = sim
                .subset_trace(&[node as usize], MeterScope::Wall)
                .unwrap()
                .node_window_averages(core_start, core_end)
                .unwrap()[0];
            assert!(
                (avg - engine).abs() <= 1e-12 * engine.abs(),
                "node {node}: live {avg} vs engine {engine}"
            );
        }
    }

    #[test]
    fn interrupted_campaign_resumes_and_matches() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let mut cfg = campaign(CvAssumption::Empirical);
        cfg.lambda = 1e-6; // unreachable: meter the whole 12-node budget
        cfg.max_nodes = 12;
        let baseline = run_live_campaign(&sim, &cfg).unwrap();
        assert!(baseline.metered_nodes > 4, "need room to interrupt");

        // "Crash" after 4 nodes have been made durable.
        let mut journal = CrashingJournal {
            fail_after: Some(4),
            ..CrashingJournal::default()
        };
        let err = run_live_campaign_journaled(&sim, &cfg, &mut journal).unwrap_err();
        assert!(matches!(err, TelemetryError::Journal(_)), "{err}");
        assert_eq!(live(&mut journal).nodes.len(), 4);

        // Resume from the durable prefix: the report is identical to an
        // uninterrupted run's.
        journal.fail_after = None;
        let resumed = run_live_campaign_journaled(&sim, &cfg, &mut journal).unwrap();
        assert_eq!(resumed.resumed_nodes, 4);
        assert_eq!(resumed.metered_nodes, baseline.metered_nodes);
        assert_eq!(resumed.stopped_at, baseline.stopped_at);
        assert_eq!(resumed.mean_node_w, baseline.mean_node_w);
        assert_eq!(resumed.relative_accuracy, baseline.relative_accuracy);
    }

    /// A capped campaign that crashed after its last budgeted node but
    /// before `Finished` resumes done, meters nothing, and records the
    /// missing `Finished` once.
    #[test]
    fn capped_campaign_resumed_without_its_finish_records_it() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let mut cfg = campaign(CvAssumption::Empirical);
        cfg.lambda = 1e-6; // unreachable: meter the whole 12-node budget
        cfg.max_nodes = 12;
        let mut first = MemJournal::default();
        let baseline = run_live_campaign_journaled(&sim, &cfg, &mut first).unwrap();
        assert_eq!((baseline.metered_nodes, baseline.stopped_at), (12, None));

        let nodes = live(&mut first).nodes;
        let fingerprint = campaign_fingerprint(&cfg, 60);
        let mut journal = live_journal(fingerprint, 60, &nodes);
        assert!(!live(&mut journal).finished);
        let resumed = run_live_campaign_journaled(&sim, &cfg, &mut journal).unwrap();
        assert_eq!((resumed.resumed_nodes, resumed.metered_nodes), (12, 12));
        assert_eq!(
            resumed.mean_node_w.to_bits(),
            baseline.mean_node_w.to_bits()
        );
        assert_eq!(resumed.ingest, IngestStats::default());
        let rep = live(&mut journal);
        assert!(rep.finished);
        assert_eq!(rep.nodes, nodes);

        // Done and finished: a second resume leaves the journal as it is.
        let again = run_live_campaign_journaled(&sim, &cfg, &mut journal).unwrap();
        assert_eq!(again.mean_node_w.to_bits(), baseline.mean_node_w.to_bits());
        assert_eq!(live(&mut journal), rep);
    }

    #[test]
    fn journal_mismatches_are_rejected() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let cfg = campaign(CvAssumption::Empirical);

        // A journal written under a different campaign config.
        let other = campaign(CvAssumption::Planned(0.10));
        let mut foreign = live_journal(campaign_fingerprint(&other, 60), 60, &[]);
        let err = run_live_campaign_journaled(&sim, &cfg, &mut foreign).unwrap_err();
        assert!(matches!(err, TelemetryError::Journal(_)), "{err}");

        // A journal written under another model revision names it in its
        // creation bytes.
        let mut other_model = MemJournal::default();
        let mut created = creation_bytes(60);
        created[8..].copy_from_slice(&(SIMULATION_KEY_EPOCH + 1).to_le_bytes());
        other_model
            .record_created(LIVE_CAMPAIGN_ID, 0, &created)
            .unwrap();
        let err = run_live_campaign_journaled(&sim, &cfg, &mut other_model).unwrap_err();
        assert_eq!(
            err,
            TelemetryError::ModelRevision {
                journal: SIMULATION_KEY_EPOCH + 1,
                current: SIMULATION_KEY_EPOCH,
            }
        );

        // One written before journals recorded their revision (8 creation
        // bytes) names it through its fingerprint of the same campaign.
        let mut old_model = MemJournal::default();
        old_model
            .record_created(
                LIVE_CAMPAIGN_ID,
                fingerprint_under(&cfg, 60, 5),
                &created[..8],
            )
            .unwrap();
        let err = run_live_campaign_journaled(&sim, &cfg, &mut old_model).unwrap_err();
        assert_eq!(
            err,
            TelemetryError::ModelRevision {
                journal: 5,
                current: SIMULATION_KEY_EPOCH,
            }
        );
        assert_eq!(
            err.to_string(),
            format!(
                "campaign journal was written under model revision 5, \
                 and this build is model revision {SIMULATION_KEY_EPOCH}"
            )
        );

        // The same 8 bytes under a fingerprint of no earlier revision: a
        // foreign journal, not an old one.
        let mut foreign_old = MemJournal::default();
        foreign_old
            .record_created(LIVE_CAMPAIGN_ID, 1, &created[..8])
            .unwrap();
        let err = run_live_campaign_journaled(&sim, &cfg, &mut foreign_old).unwrap_err();
        assert!(matches!(err, TelemetryError::Journal(_)), "{err}");

        // A journal written for a different population.
        let mut resized = live_journal(campaign_fingerprint(&cfg, 60), 61, &[]);
        let err = run_live_campaign_journaled(&sim, &cfg, &mut resized).unwrap_err();
        assert!(matches!(err, TelemetryError::Journal(_)), "{err}");

        // A journal whose node order disagrees with the deterministic
        // selection order.
        let mut run_first = MemJournal::default();
        run_live_campaign_journaled(&sim, &cfg, &mut run_first).unwrap();
        let mut nodes = live(&mut run_first).nodes;
        nodes.swap(0, 1);
        let mut tampered = live_journal(campaign_fingerprint(&cfg, 60), 60, &nodes);
        let err = run_live_campaign_journaled(&sim, &cfg, &mut tampered).unwrap_err();
        assert!(matches!(err, TelemetryError::Journal(_)), "{err}");

        // More nodes than the node budget (a capped selection order is a
        // prefix of the uncapped one).
        let mut capped = cfg.clone();
        capped.max_nodes = 3;
        let over: Vec<(u64, f64)> = cfg.selection_order(60).unwrap()[..4]
            .iter()
            .map(|&n| (n as u64, 400.0))
            .collect();
        let mut over_budget = live_journal(campaign_fingerprint(&capped, 60), 60, &over);
        let err = run_live_campaign_journaled(&sim, &capped, &mut over_budget).unwrap_err();
        assert!(
            matches!(&err, TelemetryError::Journal(what) if what.contains("at most 3")),
            "{err}"
        );
    }

    #[test]
    fn nodes_past_the_stopping_decision_are_rejected() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let cfg = campaign(CvAssumption::Empirical);
        let mut run_first = MemJournal::default();
        let report = run_live_campaign_journaled(&sim, &cfg, &mut run_first).unwrap();
        let n = report.stopped_at.expect("rule fires on 60 nodes") as usize;
        let mut nodes = live(&mut run_first).nodes;
        assert_eq!(nodes.len(), n);

        // The journal as written resumes cleanly, metering nothing.
        let mut intact = run_first.clone();
        let resumed = run_live_campaign_journaled(&sim, &cfg, &mut intact).unwrap();
        assert_eq!(resumed.resumed_nodes, n as u64);
        assert_eq!(resumed.mean_node_w, report.mean_node_w);

        // One more node, next in selection order, after the rule fired.
        let next = cfg.selection_order(60).unwrap()[n] as u64;
        nodes.push((next, report.mean_node_w));
        let mut overrun = live_journal(campaign_fingerprint(&cfg, 60), 60, &nodes);
        let err = run_live_campaign_journaled(&sim, &cfg, &mut overrun).unwrap_err();
        assert!(
            matches!(&err, TelemetryError::Journal(what) if what.contains("past the stopping decision")),
            "{err}"
        );
    }

    /// What [`live_reports_are_pinned`] holds fixed of a report: the stop,
    /// the node counts, the estimate and its interval as bits, every
    /// ingest counter, and the anomaly events.
    type Pin = (
        Option<u64>,
        u64,
        u64,
        [u64; 3],
        [u64; 5],
        Vec<(usize, u64, &'static str)>,
    );

    fn pin(r: &LiveCampaignReport) -> Pin {
        let IngestStats {
            accepted,
            late_dropped,
            gaps,
            reordered,
            duplicates,
        } = r.ingest;
        let events = r
            .anomalies
            .iter()
            .map(|e| {
                let kind = match e.kind {
                    crate::anomaly::AnomalyKind::Drift { .. } => "drift",
                    crate::anomaly::AnomalyKind::Stuck { .. } => "stuck",
                    crate::anomaly::AnomalyKind::Gap { .. } => "gap",
                };
                (e.node, e.seq, kind)
            })
            .collect();
        (
            r.stopped_at,
            r.metered_nodes,
            r.resumed_nodes,
            [
                r.mean_node_w.to_bits(),
                r.ci.lower().to_bits(),
                r.ci.upper().to_bits(),
            ],
            [accepted, late_dropped, gaps, reordered, duplicates],
            events,
        )
    }

    /// Four campaigns' reports, and a resume of the faulted one from a
    /// three-node prefix, pinned bit for bit: a planned-CV Table 5 cell
    /// on ideal meters, an empirical-CV PDU campaign, the same with a
    /// drift and a stuck meter under a detector, and a node-capped
    /// campaign.
    #[test]
    fn live_reports_are_pinned() {
        let (cluster, wl) = rig(60, 30.0, 300.0);
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, config()).unwrap();
        let planned = LiveCampaignConfig::table5(0.02, 0.03, MeterModel::ideal());
        let pdu = LiveCampaignConfig {
            cv: CvAssumption::Empirical,
            pilot_nodes: 6,
            lateness: 4,
            ..LiveCampaignConfig::table5(0.01, 0.03, MeterModel::pdu_grade())
        };
        let mut faulted = pdu.clone();
        let order = faulted.selection_order(60).unwrap();
        faulted.faults = vec![
            (order[1], MeterFault::Drift { rate_per_hour: 0.9 }),
            (order[3], MeterFault::StuckAfter { after_s: 60.0 }),
        ];
        faulted.detector = Some(DetectorConfig {
            drift_window: 24,
            drift_threshold_per_hour: 0.5,
            stuck_run: 10,
            stuck_tolerance_w: 0.0,
            gap_threshold: 5,
        });
        let capped = LiveCampaignConfig {
            lambda: 1e-6,
            max_nodes: 10,
            ..pdu.clone()
        };
        let mut got: Vec<Pin> = [&planned, &pdu, &faulted, &capped]
            .into_iter()
            .map(|cfg| pin(&run_live_campaign(&sim, cfg).unwrap()))
            .collect();
        let mut journal = CrashingJournal {
            fail_after: Some(3),
            ..CrashingJournal::default()
        };
        run_live_campaign_journaled(&sim, &faulted, &mut journal).unwrap_err();
        journal.fail_after = None;
        got.push(pin(&run_live_campaign_journaled(
            &sim,
            &faulted,
            &mut journal,
        )
        .unwrap()));
        // At dt = 5 s the core phase's thermal rise trips the drift
        // detector on every node; the pin holds what the monitor reports.
        let want: Vec<Pin> = vec![
            (
                Some(8),
                8,
                0,
                [
                    4644596354562026782,
                    4644540957978016209,
                    4644651751146037355,
                ],
                [576, 0, 0, 295, 0],
                vec![],
            ),
            (
                Some(15),
                15,
                0,
                [
                    4644543706630605592,
                    4644485953499377306,
                    4644601459761833878,
                ],
                [1080, 0, 0, 525, 0],
                vec![],
            ),
            (
                Some(16),
                16,
                0,
                [
                    4644558529811147916,
                    4644502062305021414,
                    4644614997317274418,
                ],
                [1152, 0, 0, 562, 0],
                vec![
                    (0, 47, "drift"),
                    (0, 66, "drift"),
                    (1, 47, "drift"),
                    (1, 67, "drift"),
                    (2, 47, "drift"),
                    (2, 66, "drift"),
                    (3, 26, "stuck"),
                    (3, 47, "drift"),
                    (4, 47, "drift"),
                    (4, 66, "drift"),
                    (5, 47, "drift"),
                    (5, 66, "drift"),
                    (6, 47, "drift"),
                    (6, 66, "drift"),
                    (7, 47, "drift"),
                    (7, 66, "drift"),
                    (8, 47, "drift"),
                    (8, 66, "drift"),
                    (9, 47, "drift"),
                    (9, 66, "drift"),
                    (10, 47, "drift"),
                    (10, 66, "drift"),
                    (11, 47, "drift"),
                    (11, 66, "drift"),
                    (12, 47, "drift"),
                    (12, 66, "drift"),
                    (13, 47, "drift"),
                    (13, 66, "drift"),
                    (14, 47, "drift"),
                    (14, 66, "drift"),
                    (15, 47, "drift"),
                    (15, 66, "drift"),
                ],
            ),
            (
                None,
                10,
                0,
                [
                    4644554086020371797,
                    4644473760760442099,
                    4644634411280301495,
                ],
                [720, 0, 0, 358, 0],
                vec![],
            ),
            (
                Some(16),
                16,
                3,
                [
                    4644558529811147916,
                    4644502062305021414,
                    4644614997317274418,
                ],
                [936, 0, 0, 448, 0],
                vec![
                    (3, 26, "stuck"),
                    (3, 47, "drift"),
                    (4, 47, "drift"),
                    (4, 66, "drift"),
                    (5, 47, "drift"),
                    (5, 66, "drift"),
                    (6, 47, "drift"),
                    (6, 66, "drift"),
                    (7, 47, "drift"),
                    (7, 66, "drift"),
                    (8, 47, "drift"),
                    (8, 66, "drift"),
                    (9, 47, "drift"),
                    (9, 66, "drift"),
                    (10, 47, "drift"),
                    (10, 66, "drift"),
                    (11, 47, "drift"),
                    (11, 66, "drift"),
                    (12, 47, "drift"),
                    (12, 66, "drift"),
                    (13, 47, "drift"),
                    (13, 66, "drift"),
                    (14, 47, "drift"),
                    (14, 66, "drift"),
                    (15, 47, "drift"),
                    (15, 66, "drift"),
                ],
            ),
        ];
        assert_eq!(got, want, "{got:?}");
    }
}
