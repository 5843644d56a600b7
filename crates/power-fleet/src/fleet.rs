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
//! stream, finalize the window average, journal the pair and feed the
//! campaign's
//! [`SequentialEstimator`](power_telemetry::SequentialEstimator). One
//! node per campaign per pass is the fairness contract: no campaign can
//! starve while another runs to census, because the scheduler is
//! lockstep round-robin by construction.
//!
//! Each campaign is a [`CampaignRuntime`] over its
//! [`FleetCampaignSpec`]: the one campaign state machine, which a live
//! campaign (`power_telemetry::live`) runs too. The fleet adds the
//! campaign table, the shared journal and the scheduler around it.
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
use power_telemetry::plane::{IngestPlane, PlaneConfig, PlaneStats, ShardStats};
use power_telemetry::runtime::{CampaignLog, CampaignRuntime};
use power_telemetry::{FleetJournal, IngestStats, Sample};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

pub use power_telemetry::runtime::CampaignState;

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

/// One fleet campaign's scheduler state.
pub(crate) type Runtime = CampaignRuntime<FleetCampaignSpec>;

fn status(id: u64, rt: &Runtime, plane: &IngestPlane) -> CampaignStatus {
    let estimator = rt.estimator();
    CampaignStatus {
        id,
        spec: rt.source().clone(),
        state: rt.state(),
        metered_nodes: estimator.count(),
        resumed_nodes: rt.resumed_nodes(),
        budget: rt.source().budget(),
        mean_node_w: (estimator.count() > 0).then(|| estimator.mean()),
        ci_node_w: estimator.ci().ok(),
        relative_accuracy: estimator.relative_accuracy().ok(),
        ingest: rt.ingest(id, plane),
        error: rt.error().map(|e| FleetError::from(e.clone()).to_string()),
    }
}

/// Prefixes a journal error with the campaign it concerns.
fn named(id: u64, e: impl Into<FleetError>) -> FleetError {
    match e.into() {
        FleetError::Journal(what) => FleetError::Journal(format!("campaign {id}: {what}")),
        other => other,
    }
}

/// A fleet of concurrently advancing measurement campaigns. See the
/// module docs for the scheduling and accounting contracts.
pub struct Fleet {
    cfg: FleetConfig,
    plane: IngestPlane,
    tables: Vec<Mutex<BTreeMap<u64, Runtime>>>,
    journal: Option<Mutex<Box<dyn FleetJournal>>>,
    next_id: AtomicU64,
    campaigns: AtomicU64,
    live: AtomicU64,
    /// Bumped after every change a leaderboard can show; see
    /// [`Fleet::version`].
    version: AtomicU64,
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
            version: AtomicU64::new(0),
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
            let spec = FleetCampaignSpec::decode(&rep.spec).map_err(|e| named(id, e))?;
            if spec.fingerprint() != rep.fingerprint {
                return Err(FleetError::Journal(format!(
                    "campaign {id}: journaled fingerprint {:#018x} does not match its spec \
                     ({:#018x}) — refusing to poison the estimator",
                    rep.fingerprint,
                    spec.fingerprint()
                )));
            }
            let runtime = CampaignRuntime::open(id, spec, Some(&rep), &self.plane, &mut self.log())
                .map_err(|e| named(id, e))?;
            if runtime.state() == CampaignState::Live {
                self.live.fetch_add(1, Ordering::Relaxed);
            }
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

    fn table(&self, id: u64) -> &Mutex<BTreeMap<u64, Runtime>> {
        &self.tables[(id % self.cfg.shards as u64) as usize]
    }

    /// Where campaign records go: the fleet's shared journal, if any.
    fn log(&self) -> CampaignLog<'_> {
        match &self.journal {
            Some(journal) => CampaignLog::Shared(journal),
            None => CampaignLog::None,
        }
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

    /// A counter that moves after every change a leaderboard can show:
    /// a [`Fleet::create`], a [`Fleet::delete`], and an
    /// [`Fleet::advance_shard`] pass that advanced or finished a live
    /// campaign. Reads and passes over a shard with no live campaign
    /// leave it where it is.
    ///
    /// The fleet is mutated, then the version is bumped (`Release`); a
    /// reader loads it (`Acquire`) before it ranks, so what it ranks is
    /// never older than the version it read. A response stamped with
    /// that version is current for as long as `version()` returns it.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Release);
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
        let runtime = CampaignRuntime::open(id, spec, None, &self.plane, &mut self.log())?;
        self.table(id)
            .lock()
            .expect("fleet table poisoned")
            .insert(id, runtime);
        self.campaigns.fetch_add(1, Ordering::Relaxed);
        self.live.fetch_add(1, Ordering::Relaxed);
        self.bump_version();
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
        if runtime.state() == CampaignState::Live {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        self.campaigns.fetch_sub(1, Ordering::Relaxed);
        self.bump_version();
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
        table.get(&id).map(|rt| status(id, rt, &self.plane))
    }

    /// Visits every campaign runtime under its table lock, shard by
    /// shard — the allocation-free walk the leaderboard builds rows
    /// from without materializing [`CampaignStatus`] snapshots.
    pub(crate) fn for_each_runtime(&self, mut f: impl FnMut(u64, &Runtime)) {
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
        self.for_each_runtime(|id, rt| out.push(status(id, rt, &self.plane)));
        out.sort_by_key(|s| s.id);
        out
    }

    /// Campaign counts by state — the bounded-cardinality figure the
    /// metrics page exports (4 series however large the fleet).
    pub fn state_counts(&self) -> [(CampaignState, u64); 4] {
        let mut counts = CampaignState::ALL.map(|s| (s, 0u64));
        self.for_each_runtime(|_, rt| {
            let (_, n) = counts
                .iter_mut()
                .find(|(s, _)| *s == rt.state())
                .expect("state in ALL");
            *n += 1;
        });
        counts
    }

    /// Advances every live campaign on `shard` by exactly one node.
    /// Returns the number of nodes metered. A campaign whose advance
    /// fails is marked `Failed` and skipped thereafter; the pass
    /// continues so one bad campaign cannot stall a shard. A pass that
    /// touched a live campaign bumps [`Fleet::version`].
    pub fn advance_shard(&self, shard: usize) -> u64 {
        let mut scratch: Vec<Sample> = Vec::new();
        let mut log = self.log();
        let mut table = self.tables[shard].lock().expect("fleet table poisoned");
        let mut advanced = 0;
        let mut touched = false;
        for (&id, rt) in table.iter_mut() {
            if rt.state() != CampaignState::Live {
                continue;
            }
            touched = true;
            match rt.advance(id, &self.plane, &mut log, &mut scratch) {
                Ok(()) => advanced += 1,
                Err(e) => rt.fail(id, &self.plane, e),
            }
            if rt.state() != CampaignState::Live {
                self.live.fetch_sub(1, Ordering::Relaxed);
            }
        }
        drop(table);
        if touched {
            self.bump_version();
        }
        advanced
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
