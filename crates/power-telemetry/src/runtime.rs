//! One campaign's state machine, whatever meters its nodes.
//!
//! [`CampaignRuntime`] meters one node at a time from its
//! [`CampaignSource`] through the campaign's lanes on an [`IngestPlane`],
//! journals each window average and lets the sequential stopping rule
//! ([`crate::online`]) decide; a resumed campaign replays its journaled
//! averages through [`replay_nodes`]. The fleet (`power_fleet`) holds one
//! per submission, and a live campaign ([`crate::live`]) drives one to its
//! end on a one-shard plane.
//!
//! Lifecycle: `Live` → (`Stopped` | `Exhausted` | `Failed`). A campaign
//! that leaves `Live` releases its lanes and keeps their final counters.

use crate::ingest::{IngestConfig, IngestStats, Sample};
use crate::journal::{CampaignReplay, FleetJournal};
use crate::online::{replay_nodes, SequentialEstimator, StoppingRule};
use crate::plane::IngestPlane;
use crate::ring::RingBuffer;
use crate::{Result, TelemetryError};
use std::sync::Mutex;

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

/// What a campaign runs. Its lanes start at time 0: sequence `k`
/// covers `[k·dt, (k + 1)·dt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The stopping rule.
    pub rule: StoppingRule,
    /// Most nodes the campaign may meter.
    pub budget: u64,
    /// Lane sample interval in seconds.
    pub dt: f64,
    /// Lateness bound and ring capacity of every lane.
    pub ingest: IngestConfig,
    /// The `[from, to)` window each node's average is taken over.
    pub window: (f64, f64),
}

/// What a campaign meters and who it is.
pub trait CampaignSource {
    /// The campaign's rule, budget, lane geometry and window.
    fn plan(&self) -> Plan;
    /// The node id metered in slot `slot` (so its journal records name).
    fn node_id(&self, slot: u64) -> u64;
    /// The fingerprint and creation payload a journal records.
    fn identity(&self) -> (u64, Vec<u8>);
    /// Fills `out` (cleared first) with slot `slot`'s samples, on lane
    /// `slot`, in arrival order.
    fn meter_node(&mut self, slot: u64, out: &mut Vec<Sample>) -> Result<()>;
    /// Sees slot `slot`'s finalized ring before it is averaged.
    fn finalized(&mut self, _slot: usize, _ring: &RingBuffer) -> Result<()> {
        Ok(())
    }
}

/// Where a campaign's records go, and when they are made durable.
pub enum CampaignLog<'a> {
    /// No journal: nothing outlives the process.
    None,
    /// A log many campaigns share, locked around each record. Node and
    /// completion records are never synced: losing one only rewinds a
    /// watermark, and re-metering reproduces it.
    Shared(&'a Mutex<Box<dyn FleetJournal>>),
    /// A log of one campaign: each node and completion record is synced
    /// before the campaign moves on, and a campaign resumed with its
    /// budget metered but no completion record gets one.
    Own(&'a mut dyn FleetJournal),
}

impl CampaignLog<'_> {
    fn append(
        &mut self,
        sync: bool,
        record: impl FnOnce(&mut dyn FleetJournal) -> Result<()>,
    ) -> Result<()> {
        match self {
            CampaignLog::None => Ok(()),
            CampaignLog::Shared(log) => record(&mut **log.lock().expect("journal poisoned")),
            CampaignLog::Own(log) => {
                record(&mut **log)?;
                if sync {
                    log.sync()?;
                }
                Ok(())
            }
        }
    }
}

/// One campaign's in-flight state. See the module docs.
#[derive(Debug)]
pub struct CampaignRuntime<S> {
    source: S,
    /// Fed one average per metered node, so its count is the next slot.
    estimator: SequentialEstimator,
    state: CampaignState,
    resumed: u64,
    /// Final lane counters, captured when the lanes are released.
    ingest_final: Option<(IngestStats, u64)>,
    error: Option<TelemetryError>,
}

impl<S: CampaignSource> CampaignRuntime<S> {
    /// Starts campaign `id`, or resumes it from `replay`, its journaled
    /// state, whose identity the caller has checked. A new campaign whose
    /// rule or lane geometry does not validate is refused before its
    /// creation is recorded. A resumed one replays its averages in the
    /// source's node order, and resumes done when the journal shows it
    /// finished, the rule fired or the budget metered.
    pub fn open(
        id: u64,
        source: S,
        replay: Option<&CampaignReplay>,
        plane: &IngestPlane,
        log: &mut CampaignLog<'_>,
    ) -> Result<Self> {
        let plan = source.plan();
        let (estimator, finished) = match replay {
            Some(rep) => {
                let estimator = replay_nodes(plan.rule, &rep.nodes, plan.budget, |i| {
                    source.node_id(i as u64)
                })?;
                (estimator, rep.finished)
            }
            None => {
                let estimator = SequentialEstimator::new(plan.rule)?;
                plan.ingest.validate()?;
                log.append(false, |j| {
                    let (fingerprint, created) = source.identity();
                    j.record_created(id, fingerprint, &created)
                })?;
                (estimator, false)
            }
        };
        let metered = estimator.count();
        let state = if estimator.stopped_at().is_some() {
            CampaignState::Stopped
        } else if finished || metered >= plan.budget {
            CampaignState::Exhausted
        } else {
            CampaignState::Live
        };
        if state == CampaignState::Live {
            plane.register(id, metered.max(1) as usize, 0.0, plan.dt, &plan.ingest)?;
        } else if state == CampaignState::Exhausted && !finished {
            if let CampaignLog::Own(_) = log {
                log.append(true, |j| j.record_finished(id))?;
            }
        }
        Ok(CampaignRuntime {
            source,
            estimator,
            state,
            resumed: metered,
            ingest_final: None,
            error: None,
        })
    }

    /// Meters one node of a live campaign: generate → offer → flush →
    /// finalize → journal → estimate, then finish on the rule's word or
    /// at the budget. On an error the campaign is left as it was; the
    /// caller fails it ([`CampaignRuntime::fail`]) or gives up.
    pub fn advance(
        &mut self,
        id: u64,
        plane: &IngestPlane,
        log: &mut CampaignLog<'_>,
        scratch: &mut Vec<Sample>,
    ) -> Result<()> {
        let slot = self.estimator.count();
        let plan = self.source.plan();
        plane.ensure_slots(id, slot as usize + 1)?;
        self.source.meter_node(slot, scratch)?;
        plane.offer(id, scratch)?;
        // End of this node's stream: finalize the jittered tail so the
        // lane watermark passes the stream end.
        plane.flush(id)?;
        let ((from, to), source) = (plan.window, &mut self.source);
        let avg = plane
            .with_campaign(id, |c| {
                let ring = c.ring(slot as usize).expect("slot ensured above");
                source.finalized(slot as usize, ring)?;
                ring.window_average(from, to)
            })
            .expect("a live campaign's lanes are registered")
            .map_err(|e| match e {
                // An all-dropped node is a campaign-level failure the
                // operator should see named.
                TelemetryError::EmptyWindow => TelemetryError::InvalidConfig {
                    field: "node",
                    reason: "a metered node delivered no usable window samples",
                },
                other => other,
            })?;
        let node = self.source.node_id(slot);
        log.append(true, |j| j.record_node(id, node, avg))?;
        if self.estimator.push(avg).stop {
            self.finish(id, plane, log, CampaignState::Stopped);
        } else if self.estimator.count() >= plan.budget {
            self.finish(id, plane, log, CampaignState::Exhausted);
        }
        Ok(())
    }

    /// Ends a live campaign as `Failed` with `error`.
    pub fn fail(&mut self, id: u64, plane: &IngestPlane, error: TelemetryError) {
        self.state = CampaignState::Failed;
        self.error = Some(error);
        self.release(id, plane);
    }

    /// Journals the completion, then releases the lanes. A journal that
    /// refuses the record fails the campaign.
    fn finish(
        &mut self,
        id: u64,
        plane: &IngestPlane,
        log: &mut CampaignLog<'_>,
        state: CampaignState,
    ) {
        self.state = state;
        if let Err(e) = log.append(true, |j| j.record_finished(id)) {
            self.state = CampaignState::Failed;
            self.error = Some(e);
        }
        self.release(id, plane);
    }

    fn release(&mut self, id: u64, plane: &IngestPlane) {
        self.ingest_final = plane.campaign_stats(id);
        plane.deregister(id);
    }

    /// The campaign's node source.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// The estimator, one average per metered node (resumed ones too).
    pub fn estimator(&self) -> &SequentialEstimator {
        &self.estimator
    }

    /// Lifecycle state.
    pub fn state(&self) -> CampaignState {
        self.state
    }

    /// Nodes replayed from the journal rather than metered here.
    pub fn resumed_nodes(&self) -> u64 {
        self.resumed
    }

    /// Lane counters plus offered samples: live while the lanes are
    /// registered, the final snapshot once released, `None` for a
    /// campaign resumed already done.
    pub fn ingest(&self, id: u64, plane: &IngestPlane) -> Option<(IngestStats, u64)> {
        self.ingest_final.or_else(|| plane.campaign_stats(id))
    }

    /// Why the campaign failed, when it did.
    pub fn error(&self) -> Option<&TelemetryError> {
        self.error.as_ref()
    }
}
