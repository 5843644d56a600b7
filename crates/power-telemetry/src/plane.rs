//! Partitioned ingest plane: many campaigns, one sample fabric.
//!
//! [`ingest::Collector`](crate::ingest::Collector) serves exactly one
//! campaign: one set of node lanes behind one consumer. A fleet that
//! meters hundreds of machines concurrently cannot funnel every
//! producer through that single watermark — the lock protecting the
//! lone collector becomes the plane-wide bottleneck the moment two
//! campaigns ingest at once.
//!
//! [`IngestPlane`] partitions the fabric instead. Campaigns are
//! assigned to one of `S` **shards** by `campaign_id mod S`; each shard
//! is an independently locked set of per-campaign collectors, so
//! producers feeding campaigns on different shards hand their batches
//! off in parallel and never contend. Within a shard the existing
//! watermark machinery applies unchanged, per campaign, per node lane:
//! bounded reordering, gap fill, duplicate suppression.
//!
//! Accounting is the plane's contract. Every shard counts `offered`
//! at hand-off and the lane counters classify each sample exactly once,
//! so per shard — and therefore plane-wide, as a sum of disjoint
//! shards —
//!
//! ```text
//! accepted + late_dropped + duplicates + pending == offered
//! ```
//!
//! holds at every instant ([`ShardStats::conserved`]). Retiring a
//! campaign folds its counters into the shard's `retired` bucket rather
//! than forgetting them, so the identity survives campaign churn: the
//! plane's lifetime totals never shrink.

use crate::ingest::{Collector, IngestConfig, IngestStats, Sample};
use crate::{Result, TelemetryError};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Plane-level configuration: only the shard count — lane geometry
/// (lateness, ring capacity, sample interval) is chosen per campaign at
/// [`IngestPlane::register`] time.
#[derive(Debug, Clone, Copy)]
pub struct PlaneConfig {
    /// Number of independently locked shards. More shards mean less
    /// producer contention; memory cost is one mutex + map per shard.
    pub shards: usize,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig { shards: 16 }
    }
}

impl PlaneConfig {
    /// Validates the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(TelemetryError::InvalidConfig {
                field: "shards",
                reason: "plane needs at least one shard",
            });
        }
        Ok(())
    }
}

/// One campaign's lane set plus its hand-off counter.
#[derive(Debug)]
struct Lane {
    collector: Collector,
    offered: u64,
}

/// A shard: independently locked slice of the plane.
#[derive(Debug, Default)]
struct Shard {
    lanes: BTreeMap<u64, Lane>,
    /// Counters of campaigns retired from this shard, folded in at
    /// deregistration so plane totals are monotone.
    retired: IngestStats,
    retired_offered: u64,
}

/// Snapshot of one shard's accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Campaigns currently registered on the shard.
    pub campaigns: u64,
    /// Samples handed off to this shard (including ones later dropped),
    /// live and retired campaigns alike.
    pub offered: u64,
    /// Samples still buffered ahead of a watermark.
    pub pending: u64,
    /// Classified samples (accepted / dropped / duplicate / …) summed
    /// over live and retired campaigns.
    pub ingest: IngestStats,
}

impl ShardStats {
    /// The shard conservation law: every offered sample is accepted,
    /// dropped, a duplicate, or still pending — exactly one of them.
    pub fn conserved(&self) -> bool {
        self.ingest.accepted + self.ingest.dropped() + self.ingest.duplicates + self.pending
            == self.offered
    }

    fn add(&mut self, other: &ShardStats) {
        self.campaigns += other.campaigns;
        self.offered += other.offered;
        self.pending += other.pending;
        self.ingest += other.ingest;
    }
}

/// Plane-wide totals: the sum of every shard's snapshot.
pub type PlaneStats = ShardStats;

/// A sharded, concurrently writable ingestion fabric for many
/// campaigns. See the module docs for the partitioning and accounting
/// contracts.
#[derive(Debug)]
pub struct IngestPlane {
    shards: Vec<Mutex<Shard>>,
}

impl IngestPlane {
    /// Creates an empty plane with `cfg.shards` shards.
    pub fn new(cfg: PlaneConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(IngestPlane {
            shards: (0..cfg.shards)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a campaign's lanes live on.
    pub fn shard_of(&self, campaign: u64) -> usize {
        (campaign % self.shards.len() as u64) as usize
    }

    fn shard(&self, campaign: u64) -> &Mutex<Shard> {
        &self.shards[self.shard_of(campaign)]
    }

    fn unknown() -> TelemetryError {
        TelemetryError::InvalidConfig {
            field: "campaign",
            reason: "campaign is not registered on the plane",
        }
    }

    /// Registers a campaign's lane set on its shard. `node_slots` lanes
    /// are allocated up front; [`IngestPlane::ensure_slots`] grows the
    /// set later so memory tracks metered nodes, not the population.
    pub fn register(
        &self,
        campaign: u64,
        node_slots: usize,
        t0: f64,
        dt: f64,
        cfg: &IngestConfig,
    ) -> Result<()> {
        let collector = Collector::new(node_slots, t0, dt, cfg)?;
        let mut shard = self.shard(campaign).lock().expect("plane shard poisoned");
        if shard.lanes.contains_key(&campaign) {
            return Err(TelemetryError::InvalidConfig {
                field: "campaign",
                reason: "campaign already registered on the plane",
            });
        }
        shard.lanes.insert(
            campaign,
            Lane {
                collector,
                offered: 0,
            },
        );
        Ok(())
    }

    /// Removes a campaign's lanes, folding its counters into the
    /// shard's retired bucket so plane totals are preserved. Pending
    /// samples are finalized first (a retired campaign can no longer be
    /// displaced). Returns whether the campaign was present.
    pub fn deregister(&self, campaign: u64) -> bool {
        let mut shard = self.shard(campaign).lock().expect("plane shard poisoned");
        match shard.lanes.remove(&campaign) {
            None => false,
            Some(mut lane) => {
                lane.collector.flush();
                shard.retired += lane.collector.stats();
                shard.retired_offered += lane.offered;
                true
            }
        }
    }

    /// Grows a campaign's lane set to at least `node_slots` lanes.
    pub fn ensure_slots(&self, campaign: u64, node_slots: usize) -> Result<()> {
        let mut shard = self.shard(campaign).lock().expect("plane shard poisoned");
        let lane = shard.lanes.get_mut(&campaign).ok_or_else(Self::unknown)?;
        lane.collector.ensure_node_slots(node_slots)
    }

    /// Hands a batch of samples for one campaign off to its shard: one
    /// lock acquisition per batch, however large. A sample counts as
    /// offered once the lane has classified it (accepted, late, or
    /// duplicate — all count); a sample naming a lane outside the
    /// campaign's slot set fails the batch *without* being counted, so
    /// the conservation law never sees an unclassified offer.
    pub fn offer(&self, campaign: u64, samples: &[Sample]) -> Result<()> {
        let mut shard = self.shard(campaign).lock().expect("plane shard poisoned");
        let lane = shard.lanes.get_mut(&campaign).ok_or_else(Self::unknown)?;
        for s in samples {
            lane.collector.ingest(*s)?;
            lane.offered += 1;
        }
        Ok(())
    }

    /// Finalizes every pending sample for one campaign (end of its
    /// current streams).
    pub fn flush(&self, campaign: u64) -> Result<()> {
        let mut shard = self.shard(campaign).lock().expect("plane shard poisoned");
        let lane = shard.lanes.get_mut(&campaign).ok_or_else(Self::unknown)?;
        lane.collector.flush();
        Ok(())
    }

    /// Runs a closure against one campaign's collector (read-only),
    /// e.g. to take window averages or watermarks. Returns `None` for
    /// an unregistered campaign.
    pub fn with_campaign<T>(&self, campaign: u64, f: impl FnOnce(&Collector) -> T) -> Option<T> {
        let shard = self.shard(campaign).lock().expect("plane shard poisoned");
        shard.lanes.get(&campaign).map(|lane| f(&lane.collector))
    }

    /// One campaign's watermark on lane `node`.
    pub fn watermark(&self, campaign: u64, node: usize) -> Option<u64> {
        self.with_campaign(campaign, |c| c.watermark(node))
            .flatten()
    }

    /// One campaign's classified-counter snapshot plus offered count.
    pub fn campaign_stats(&self, campaign: u64) -> Option<(IngestStats, u64)> {
        let shard = self.shard(campaign).lock().expect("plane shard poisoned");
        shard
            .lanes
            .get(&campaign)
            .map(|l| (l.collector.stats(), l.offered))
    }

    /// Snapshot of shard `index`'s accounting.
    pub fn shard_stats(&self, index: usize) -> ShardStats {
        let shard = self.shards[index].lock().expect("plane shard poisoned");
        let mut out = ShardStats {
            campaigns: shard.lanes.len() as u64,
            offered: shard.retired_offered,
            pending: 0,
            ingest: shard.retired,
        };
        for lane in shard.lanes.values() {
            out.offered += lane.offered;
            out.pending += lane.collector.pending();
            out.ingest += lane.collector.stats();
        }
        out
    }

    /// Plane-wide totals: the sum over all shards.
    pub fn stats(&self) -> PlaneStats {
        let mut total = PlaneStats::default();
        for i in 0..self.shards.len() {
            total.add(&self.shard_stats(i));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lateness: u64, ring: usize) -> IngestConfig {
        IngestConfig {
            lateness,
            ring_capacity: ring,
        }
    }

    fn sample(node: usize, seq: u64, watts: f64) -> Sample {
        Sample { node, seq, watts }
    }

    #[test]
    fn shards_partition_campaigns_and_conserve() {
        let plane = IngestPlane::new(PlaneConfig { shards: 4 }).unwrap();
        for id in 0..10u64 {
            plane.register(id, 2, 0.0, 1.0, &cfg(0, 8)).unwrap();
        }
        for id in 0..10u64 {
            let batch: Vec<Sample> = (0..8)
                .map(|k| sample((k % 2) as usize, k / 2, 100.0))
                .collect();
            plane.offer(id, &batch).unwrap();
        }
        // Duplicate + late traffic on one campaign.
        plane
            .offer(3, &[sample(0, 0, 5.0), sample(0, 0, 5.0)])
            .unwrap();
        let total = plane.stats();
        assert_eq!(total.campaigns, 10);
        assert_eq!(total.offered, 82);
        assert!(total.conserved(), "{total:?}");
        let mut sum = PlaneStats::default();
        for i in 0..plane.shard_count() {
            let s = plane.shard_stats(i);
            assert!(s.conserved(), "shard {i}: {s:?}");
            sum.add(&s);
        }
        assert_eq!(sum, total);
    }

    #[test]
    fn deregister_folds_counters_into_retired() {
        let plane = IngestPlane::new(PlaneConfig { shards: 2 }).unwrap();
        // Lateness 2 keeps seq 0 pending, so its repeat is a true
        // in-flight duplicate rather than a late drop.
        plane.register(7, 1, 0.0, 1.0, &cfg(2, 4)).unwrap();
        plane
            .offer(
                7,
                &[sample(0, 0, 1.0), sample(0, 1, 2.0), sample(0, 0, 9.0)],
            )
            .unwrap();
        let before = plane.stats();
        assert_eq!(before.offered, 3);
        assert!(plane.deregister(7));
        assert!(!plane.deregister(7));
        let after = plane.stats();
        assert_eq!(after.campaigns, 0);
        assert_eq!(after.offered, 3);
        assert_eq!(after.ingest.accepted, 2);
        assert_eq!(after.ingest.duplicates, 1);
        assert!(after.conserved(), "{after:?}");
        // Retired campaigns reject further traffic.
        assert!(plane.offer(7, &[sample(0, 2, 1.0)]).is_err());
    }

    #[test]
    fn pending_counts_toward_conservation_until_flush() {
        let plane = IngestPlane::new(PlaneConfig::default()).unwrap();
        plane.register(0, 1, 0.0, 1.0, &cfg(4, 16)).unwrap();
        // With lateness 4, the newest arrivals stay pending.
        let batch: Vec<Sample> = (0..6).map(|k| sample(0, k, 50.0)).collect();
        plane.offer(0, &batch).unwrap();
        let s = plane.stats();
        assert_eq!(s.offered, 6);
        assert!(s.pending > 0);
        assert!(s.conserved(), "{s:?}");
        plane.flush(0).unwrap();
        let s = plane.stats();
        assert_eq!(s.pending, 0);
        assert_eq!(s.ingest.accepted, 6);
        assert!(s.conserved(), "{s:?}");
    }

    #[test]
    fn lanes_grow_on_demand() {
        let plane = IngestPlane::new(PlaneConfig::default()).unwrap();
        plane.register(1, 1, 0.0, 1.0, &cfg(0, 4)).unwrap();
        assert!(plane.offer(1, &[sample(3, 0, 1.0)]).is_err());
        plane.ensure_slots(1, 4).unwrap();
        plane.offer(1, &[sample(3, 1, 1.0)]).unwrap();
        assert_eq!(plane.watermark(1, 3), Some(2));
    }
}
