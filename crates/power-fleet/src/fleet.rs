//! The fleet scheduler: many stopping rules, one ingest plane.
//!
//! A [`Fleet`] owns a partitioned
//! [`IngestPlane`] and a campaign table
//! partitioned the same way (`id mod shards`), so the unit of
//! concurrency is the shard: threads advancing different shards share
//! nothing but the plane's disjoint shard locks. One **pass** over a
//! shard ([`Fleet::advance_shard`]) advances every live campaign on it
//! by exactly one node — generate the node's metered stream, hand it to
//! the plane, wait for the lane watermark to pass the end of the
//! stream, finalize the window average, feed the campaign's
//! [`SequentialEstimator`], and journal the pair. One node per campaign
//! per pass is the fairness contract: no campaign can starve while
//! another runs to census, because the scheduler is lockstep
//! round-robin by construction.
//!
//! Campaign lifecycle: `Live` → (`Stopped` | `Exhausted` | `Failed`).
//! `Stopped` means the sequential rule fired (paper Eq. 5 / Table 5);
//! `Exhausted` means the meter budget ran out first; `Failed` means an
//! unrecoverable journal/plane error (the campaign's durable prefix is
//! still resumable). Finished campaigns release their plane lanes —
//! their counters fold into the shard's retired totals, so plane-wide
//! conservation accounting survives campaign churn.

use crate::spec::FleetCampaignSpec;
use crate::{FleetError, Result};
use power_stats::ConfidenceInterval;
use power_telemetry::online::{replay_nodes, SequentialEstimator};
use power_telemetry::plane::{IngestPlane, PlaneConfig, PlaneStats, ShardStats};
use power_telemetry::{FleetJournal, IngestConfig, IngestStats, Sample};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Sample-time geometry shared by every campaign lane: sequence `k`
/// covers `[k, k + 1)` seconds from origin 0.
const T0: f64 = 0.0;
const DT: f64 = 1.0;

/// Fleet-level configuration.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Shard count for both the plane and the campaign table.
    pub shards: usize,
    /// Most campaigns the fleet will hold at once (creation beyond this
    /// is refused, not queued).
    pub max_campaigns: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 16,
            max_campaigns: 10_000,
        }
    }
}

/// Where a campaign is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CampaignState {
    /// Still metering nodes.
    Live,
    /// The sequential stopping rule fired.
    Stopped,
    /// The meter budget ran out before the rule fired.
    Exhausted,
    /// An unrecoverable journal or plane error halted the campaign.
    Failed,
}

impl CampaignState {
    /// Stable lowercase label (used by the HTTP API and metrics).
    pub fn label(&self) -> &'static str {
        match self {
            CampaignState::Live => "live",
            CampaignState::Stopped => "stopped",
            CampaignState::Exhausted => "exhausted",
            CampaignState::Failed => "failed",
        }
    }

    /// Every state, in display order.
    pub const ALL: [CampaignState; 4] = [
        CampaignState::Live,
        CampaignState::Stopped,
        CampaignState::Exhausted,
        CampaignState::Failed,
    ];
}

/// Point-in-time snapshot of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignStatus {
    /// Fleet-assigned campaign id.
    pub id: u64,
    /// The spec the campaign runs.
    pub spec: FleetCampaignSpec,
    /// Lifecycle state.
    pub state: CampaignState,
    /// Nodes with finalized averages so far (includes resumed ones).
    pub metered_nodes: u64,
    /// Nodes replayed from the journal rather than metered in this
    /// process.
    pub resumed_nodes: u64,
    /// Effective meter budget.
    pub budget: u64,
    /// Running mean node power, if any node finalized yet.
    pub mean_node_w: Option<f64>,
    /// Confidence interval on the mean node power (empirical spread,
    /// the rule's quantile + finite-population correction).
    pub ci_node_w: Option<ConfidenceInterval>,
    /// Current relative CI half-width (the rule's stopping statistic).
    pub relative_accuracy: Option<f64>,
    /// Lane counters: classified samples + offered, live campaigns
    /// only; finished campaigns carry their final snapshot.
    pub ingest: Option<(IngestStats, u64)>,
    /// Why the campaign failed, when `state == Failed`.
    pub error: Option<String>,
}

impl CampaignStatus {
    /// Reported machine power in watts (`mean node power × N`).
    pub fn power_w(&self) -> Option<f64> {
        self.mean_node_w.map(|m| m * self.spec.population as f64)
    }

    /// Energy efficiency in GFLOPS/W, the Green500 ranking metric.
    pub fn gflops_per_w(&self) -> Option<f64> {
        self.power_w().map(|p| self.spec.rmax_gflops() / p)
    }
}

/// One campaign's in-flight scheduler state.
pub(crate) struct CampaignRuntime {
    pub(crate) spec: FleetCampaignSpec,
    pub(crate) estimator: SequentialEstimator,
    pub(crate) state: CampaignState,
    /// Next node (== lane slot) to meter; equals nodes finalized.
    pub(crate) next_slot: u64,
    resumed: u64,
    budget: u64,
    /// Final lane counters, captured when the plane lanes are released.
    ingest_final: Option<(IngestStats, u64)>,
    error: Option<String>,
}

impl CampaignRuntime {
    fn status(&self, id: u64, plane: &IngestPlane) -> CampaignStatus {
        let n = self.estimator.count();
        CampaignStatus {
            id,
            spec: self.spec.clone(),
            state: self.state,
            metered_nodes: self.next_slot,
            resumed_nodes: self.resumed,
            budget: self.budget,
            mean_node_w: (n > 0).then(|| self.estimator.mean()),
            ci_node_w: self.estimator.ci().ok(),
            relative_accuracy: self.estimator.relative_accuracy().ok(),
            ingest: self.ingest_final.or_else(|| plane.campaign_stats(id)),
            error: self.error.clone(),
        }
    }
}

/// A fleet of concurrently advancing measurement campaigns. See the
/// module docs for the scheduling and accounting contracts.
pub struct Fleet {
    cfg: FleetConfig,
    plane: IngestPlane,
    tables: Vec<Mutex<BTreeMap<u64, CampaignRuntime>>>,
    journal: Option<Mutex<Box<dyn FleetJournal>>>,
    next_id: AtomicU64,
    campaigns: AtomicU64,
    live: AtomicU64,
    stopping: AtomicBool,
    idle: Mutex<()>,
    wake: Condvar,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("cfg", &self.cfg)
            .field("campaigns", &self.campaigns.load(Ordering::Relaxed))
            .field("live", &self.live.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl Fleet {
    /// Creates an empty fleet with no durable journal.
    pub fn new(cfg: FleetConfig) -> Result<Self> {
        Self::build(cfg, None)
    }

    /// Opens a fleet over a durable journal, resuming every surviving
    /// campaign at its watermark: the journaled node averages replay
    /// into a fresh estimator, and metering continues at the next slot.
    pub fn open(cfg: FleetConfig, journal: Box<dyn FleetJournal>) -> Result<Self> {
        Self::build(cfg, Some(journal))
    }

    fn build(cfg: FleetConfig, journal: Option<Box<dyn FleetJournal>>) -> Result<Self> {
        if cfg.shards == 0 {
            return Err(FleetError::InvalidSpec {
                field: "shards",
                reason: "fleet needs at least one shard",
            });
        }
        let fleet = Fleet {
            plane: IngestPlane::new(PlaneConfig { shards: cfg.shards })?,
            tables: (0..cfg.shards)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
            journal: journal.map(Mutex::new),
            next_id: AtomicU64::new(0),
            campaigns: AtomicU64::new(0),
            live: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            idle: Mutex::new(()),
            wake: Condvar::new(),
            cfg,
        };
        fleet.resume_from_journal()?;
        Ok(fleet)
    }

    fn resume_from_journal(&self) -> Result<()> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let replays = journal.lock().expect("journal poisoned").replay()?;
        let mut max_id = None;
        for (id, rep) in replays {
            max_id = Some(id);
            let spec = FleetCampaignSpec::decode(&rep.spec)?;
            if spec.fingerprint() != rep.fingerprint {
                return Err(FleetError::Journal(format!(
                    "campaign {id}: journaled fingerprint {:#018x} does not match its spec \
                     ({:#018x}) — refusing to poison the estimator",
                    rep.fingerprint,
                    spec.fingerprint()
                )));
            }
            let budget = spec.budget();
            // Fleet campaigns meter nodes 0, 1, 2, … (see `spec`).
            let estimator =
                replay_nodes(spec.rule(), &rep.nodes, budget, |i| i as u64).map_err(|e| {
                    match FleetError::from(e) {
                        FleetError::Journal(what) => {
                            FleetError::Journal(format!("campaign {id}: {what}"))
                        }
                        other => other,
                    }
                })?;
            let rule_fired = estimator.stopped_at().is_some();
            let metered = rep.nodes.len() as u64;
            let state = if rep.finished || rule_fired || metered >= budget {
                if rule_fired {
                    CampaignState::Stopped
                } else {
                    CampaignState::Exhausted
                }
            } else {
                CampaignState::Live
            };
            if state == CampaignState::Live {
                self.register_lanes(id, &spec, metered.max(1) as usize)?;
                self.live.fetch_add(1, Ordering::Relaxed);
            }
            let runtime = CampaignRuntime {
                spec,
                estimator,
                state,
                next_slot: metered,
                resumed: metered,
                budget,
                ingest_final: None,
                error: None,
            };
            self.table(id)
                .lock()
                .expect("fleet table poisoned")
                .insert(id, runtime);
            self.campaigns.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(max) = max_id {
            self.next_id.store(max + 1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn table(&self, id: u64) -> &Mutex<BTreeMap<u64, CampaignRuntime>> {
        &self.tables[(id % self.cfg.shards as u64) as usize]
    }

    fn register_lanes(&self, id: u64, spec: &FleetCampaignSpec, slots: usize) -> Result<()> {
        let ingest_cfg = IngestConfig {
            lateness: spec.lateness,
            ring_capacity: spec.samples_per_node as usize,
        };
        self.plane
            .register(id, slots, T0, DT, &ingest_cfg)
            .map_err(FleetError::Telemetry)
    }

    /// The plane the fleet ingests through (for accounting queries).
    pub fn plane_stats(&self) -> PlaneStats {
        self.plane.stats()
    }

    /// One shard's plane accounting.
    pub fn shard_stats(&self, shard: usize) -> ShardStats {
        self.plane.shard_stats(shard)
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.cfg.shards
    }

    /// Campaigns currently held (any state).
    pub fn campaign_count(&self) -> u64 {
        self.campaigns.load(Ordering::Relaxed)
    }

    /// Campaigns still metering.
    pub fn live_count(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Creates a campaign and returns its id. The creation is journaled
    /// before the campaign becomes visible, so a crash can lose an
    /// unacknowledged creation but never acknowledge a lost one.
    pub fn create(&self, mut spec: FleetCampaignSpec) -> Result<u64> {
        spec.validate()?;
        if self.campaigns.load(Ordering::Relaxed) >= self.cfg.max_campaigns {
            return Err(FleetError::Capacity {
                max_campaigns: self.cfg.max_campaigns,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        if spec.name.is_empty() {
            spec.name = format!("campaign-{id}");
        }
        if let Some(journal) = &self.journal {
            journal.lock().expect("journal poisoned").record_created(
                id,
                spec.fingerprint(),
                &spec.encode(),
            )?;
        }
        self.register_lanes(id, &spec, 1)?;
        let budget = spec.budget();
        let estimator = SequentialEstimator::new(spec.rule()).map_err(FleetError::Telemetry)?;
        let runtime = CampaignRuntime {
            spec,
            estimator,
            state: CampaignState::Live,
            next_slot: 0,
            resumed: 0,
            budget,
            ingest_final: None,
            error: None,
        };
        self.table(id)
            .lock()
            .expect("fleet table poisoned")
            .insert(id, runtime);
        self.campaigns.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::Relaxed);
        self.wake.notify_all();
        Ok(id)
    }

    /// Deletes a campaign in any state. Returns `false` if unknown.
    pub fn delete(&self, id: u64) -> Result<bool> {
        let removed = {
            let mut table = self.table(id).lock().expect("fleet table poisoned");
            table.remove(&id)
        };
        let Some(runtime) = removed else {
            return Ok(false);
        };
        if runtime.state == CampaignState::Live {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        self.campaigns.fetch_sub(1, Ordering::Relaxed);
        self.plane.deregister(id);
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .expect("journal poisoned")
                .record_deleted(id)?;
        }
        Ok(true)
    }

    /// Snapshot of one campaign.
    pub fn status(&self, id: u64) -> Option<CampaignStatus> {
        let table = self.table(id).lock().expect("fleet table poisoned");
        table.get(&id).map(|rt| rt.status(id, &self.plane))
    }

    /// Visits every campaign runtime under its table lock, shard by
    /// shard — the allocation-free walk the leaderboard builds rows
    /// from without materializing [`CampaignStatus`] snapshots.
    pub(crate) fn for_each_runtime(&self, mut f: impl FnMut(u64, &CampaignRuntime)) {
        for table in &self.tables {
            let table = table.lock().expect("fleet table poisoned");
            for (id, rt) in table.iter() {
                f(*id, rt);
            }
        }
    }

    /// Snapshot of every campaign, ascending id order.
    pub fn list(&self) -> Vec<CampaignStatus> {
        let mut out = Vec::new();
        for table in &self.tables {
            let table = table.lock().expect("fleet table poisoned");
            out.extend(table.iter().map(|(id, rt)| rt.status(*id, &self.plane)));
        }
        out.sort_by_key(|s| s.id);
        out
    }

    /// Campaign counts by state — the bounded-cardinality figure the
    /// metrics page exports (4 series however large the fleet).
    pub fn state_counts(&self) -> [(CampaignState, u64); 4] {
        let mut counts = CampaignState::ALL.map(|s| (s, 0u64));
        for table in &self.tables {
            let table = table.lock().expect("fleet table poisoned");
            for rt in table.values() {
                let idx = CampaignState::ALL
                    .iter()
                    .position(|s| *s == rt.state)
                    .expect("state in ALL");
                counts[idx].1 += 1;
            }
        }
        counts
    }

    /// Advances every live campaign on `shard` by exactly one node.
    /// Returns the number of nodes metered. A campaign whose advance
    /// fails is marked `Failed` and skipped thereafter; the pass
    /// continues so one bad campaign cannot stall a shard.
    pub fn advance_shard(&self, shard: usize) -> u64 {
        let mut scratch: Vec<Sample> = Vec::new();
        let mut table = self.tables[shard].lock().expect("fleet table poisoned");
        let mut advanced = 0;
        for (&id, rt) in table.iter_mut() {
            if rt.state != CampaignState::Live {
                continue;
            }
            match self.advance_one(id, rt, &mut scratch) {
                Ok(()) => advanced += 1,
                Err(e) => self.finish(id, rt, CampaignState::Failed, Some(e.to_string())),
            }
        }
        advanced
    }

    /// Meters one node of one campaign: generate → offer → watermark →
    /// finalize → journal → estimate → maybe finish.
    fn advance_one(
        &self,
        id: u64,
        rt: &mut CampaignRuntime,
        scratch: &mut Vec<Sample>,
    ) -> Result<()> {
        let slot = rt.next_slot;
        self.plane
            .ensure_slots(id, slot as usize + 1)
            .map_err(FleetError::Telemetry)?;
        rt.spec.node_stream(slot, slot as usize, scratch);
        self.plane
            .offer(id, scratch)
            .map_err(FleetError::Telemetry)?;
        // End of this node's stream: finalize the jittered tail so the
        // lane watermark passes the stream end.
        self.plane.flush(id).map_err(FleetError::Telemetry)?;
        let end = f64::from(rt.spec.samples_per_node) * DT;
        let avg = self
            .plane
            .with_campaign(id, |c| {
                let ring = c.ring(slot as usize)?;
                debug_assert_eq!(ring.next_seq(), u64::from(rt.spec.samples_per_node));
                Some(ring.window_average(T0, T0 + end))
            })
            .flatten()
            .ok_or(FleetError::UnknownCampaign { id })?
            .map_err(FleetError::Telemetry)?;
        if let Some(journal) = &self.journal {
            journal
                .lock()
                .expect("journal poisoned")
                .record_node(id, slot, avg)?;
        }
        rt.next_slot += 1;
        let decision = rt.estimator.push(avg);
        if decision.stop {
            self.finish(id, rt, CampaignState::Stopped, None);
        } else if rt.next_slot >= rt.budget {
            self.finish(id, rt, CampaignState::Exhausted, None);
        }
        Ok(())
    }

    /// Transitions a live campaign out of `Live`: journal the
    /// completion, snapshot lane counters, release the lanes.
    fn finish(
        &self,
        id: u64,
        rt: &mut CampaignRuntime,
        state: CampaignState,
        error: Option<String>,
    ) {
        rt.state = state;
        rt.error = error;
        if state != CampaignState::Failed {
            if let Some(journal) = &self.journal {
                if let Err(e) = journal
                    .lock()
                    .expect("journal poisoned")
                    .record_finished(id)
                {
                    rt.state = CampaignState::Failed;
                    rt.error = Some(FleetError::from(e).to_string());
                }
            }
        }
        rt.ingest_final = self.plane.campaign_stats(id);
        self.plane.deregister(id);
        self.live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Drives every shard round-robin on the calling thread until no
    /// campaign is live. One full cycle over the shards is one
    /// scheduling round; fairness holds round by round.
    pub fn drive_until_idle(&self) {
        loop {
            let mut advanced = 0;
            for shard in 0..self.cfg.shards {
                advanced += self.advance_shard(shard);
            }
            if advanced == 0 {
                break;
            }
        }
    }

    /// Signals shutdown to any driver threads parked on
    /// [`Fleet::wait_for_work`].
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::Relaxed);
        self.wake.notify_all();
    }

    /// Whether [`Fleet::stop`] was called.
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Relaxed)
    }

    /// Parks until there is live work, shutdown, or `timeout`. Returns
    /// whether work may be available.
    pub fn wait_for_work(&self, timeout: Duration) -> bool {
        if self.stopping() {
            return false;
        }
        if self.live_count() > 0 {
            return true;
        }
        let guard = self.idle.lock().expect("idle lock poisoned");
        let _ = self
            .wake
            .wait_timeout(guard, timeout)
            .expect("idle lock poisoned");
        !self.stopping() && self.live_count() > 0
    }
}

/// A background thread driving a fleet until stopped: the serving
/// layer's companion, so campaign creation returns immediately and
/// clients watch progress by polling.
#[derive(Debug)]
pub struct FleetDriver {
    fleet: std::sync::Arc<Fleet>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FleetDriver {
    /// Spawns the driver. `pace` inserts a sleep after every full
    /// scheduling round — zero means full speed; a positive pace keeps
    /// campaigns observably in flight (useful for demos and smoke
    /// tests).
    pub fn spawn(fleet: std::sync::Arc<Fleet>, pace: Duration) -> Self {
        let worker = std::sync::Arc::clone(&fleet);
        let handle = std::thread::Builder::new()
            .name("fleet-driver".into())
            .spawn(move || {
                while !worker.stopping() {
                    if !worker.wait_for_work(Duration::from_millis(50)) {
                        continue;
                    }
                    for shard in 0..worker.shards() {
                        if worker.stopping() {
                            return;
                        }
                        worker.advance_shard(shard);
                    }
                    if !pace.is_zero() {
                        std::thread::sleep(pace);
                    }
                }
            })
            .expect("spawn fleet driver");
        FleetDriver {
            fleet,
            handle: Some(handle),
        }
    }

    /// Stops the fleet and joins the driver thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.fleet.stop();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FleetDriver {
    fn drop(&mut self) {
        self.shutdown();
    }
}
