//! Durable campaign state: the one campaign journal contract.
//!
//! A [`FleetJournal`] is a log of campaign records tagged by campaign
//! id; one `replay` at open time reconstructs every campaign's creation
//! identity, finalized node averages in metering order, and completion
//! mark. Records are written by [`crate::runtime`]:
//! `power_fleet::Fleet` multiplexes thousands of campaigns onto one
//! log, and a live campaign ([`crate::live`]) records itself as a fleet
//! of one. A record lost to a crash is re-derived by
//! re-metering, which is safe because node averages are deterministic
//! functions of the campaign's identity; replayed nodes pass through
//! [`replay_nodes`](crate::online::replay_nodes). The file-backed
//! implementation is `power_archive::FleetWal`; [`MemJournal`] is the
//! in-process reference.

use crate::{Result, TelemetryError};
use std::collections::BTreeMap;

/// One campaign's durable state as reconstructed by `replay`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignReplay {
    /// Opaque creation payload: the encoded fleet spec, or a live
    /// campaign's population (8 little-endian bytes) and model revision
    /// (4).
    pub spec: Vec<u8>,
    /// Identity fingerprint recorded at creation, revalidated on resume.
    pub fingerprint: u64,
    /// `(node, finalized window average)` pairs in metering order.
    pub nodes: Vec<(u64, f64)>,
    /// Whether the campaign recorded completion (rule fired or budget
    /// exhausted).
    pub finished: bool,
}

/// Durable storage for campaign progress, many campaigns per log.
///
/// Implementations must apply records in order per campaign; `replay`
/// returns campaigns in ascending id order with deleted campaigns
/// omitted.
pub trait FleetJournal: Send {
    /// Reconstructs every surviving campaign's durable state.
    fn replay(&mut self) -> Result<BTreeMap<u64, CampaignReplay>>;

    /// Records a campaign's creation: identity plus creation payload.
    fn record_created(&mut self, id: u64, fingerprint: u64, spec: &[u8]) -> Result<()>;

    /// Appends one finalized `(node, window average)` pair.
    fn record_node(&mut self, id: u64, node: u64, average: f64) -> Result<()>;

    /// Marks the campaign finished (stopping rule fired or meter budget
    /// exhausted).
    fn record_finished(&mut self, id: u64) -> Result<()>;

    /// Removes the campaign from durable state; future replays must not
    /// return it. Like the other records, refused for an unknown id.
    fn record_deleted(&mut self, id: u64) -> Result<()>;

    /// Makes every record appended so far durable. Creation and deletion
    /// are durable on return by themselves; node and completion records
    /// are durable only once a later `sync` returns.
    fn sync(&mut self) -> Result<()>;
}

/// In-memory [`FleetJournal`]: the reference implementation for tests
/// and journal-less fleets that still want resume within one process.
#[derive(Debug, Clone, Default)]
pub struct MemJournal {
    campaigns: BTreeMap<u64, CampaignReplay>,
}

impl MemJournal {
    fn campaign(&mut self, id: u64) -> Result<&mut CampaignReplay> {
        self.campaigns
            .get_mut(&id)
            .ok_or_else(|| TelemetryError::Journal(format!("campaign {id} unknown to journal")))
    }
}

impl FleetJournal for MemJournal {
    fn replay(&mut self) -> Result<BTreeMap<u64, CampaignReplay>> {
        Ok(self.campaigns.clone())
    }

    fn record_created(&mut self, id: u64, fingerprint: u64, spec: &[u8]) -> Result<()> {
        if self.campaigns.contains_key(&id) {
            return Err(TelemetryError::Journal(format!(
                "campaign {id} already created"
            )));
        }
        self.campaigns.insert(
            id,
            CampaignReplay {
                spec: spec.to_vec(),
                fingerprint,
                nodes: Vec::new(),
                finished: false,
            },
        );
        Ok(())
    }

    fn record_node(&mut self, id: u64, node: u64, average: f64) -> Result<()> {
        self.campaign(id)?.nodes.push((node, average));
        Ok(())
    }

    fn record_finished(&mut self, id: u64) -> Result<()> {
        self.campaign(id)?.finished = true;
        Ok(())
    }

    fn record_deleted(&mut self, id: u64) -> Result<()> {
        self.campaign(id)?;
        self.campaigns.remove(&id);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}
