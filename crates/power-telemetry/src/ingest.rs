//! Sample ingestion with watermarks and drop accounting.
//!
//! Collectors in a real campaign (one per PDU, per rack, per BMC poller)
//! deliver samples concurrently and not quite in order: SNMP retries,
//! buffered batches, and clock skew reorder them by a few sample
//! intervals. The ingestion layer accepts that disorder up to a
//! configurable *lateness bound*: a per-node watermark trails the newest
//! sequence number seen by `lateness` slots, samples behind it are
//! finalized into the node's [`RingBuffer`] in true order (gaps filled
//! with missing placeholders), and anything arriving later still is
//! dropped. Duplicate offers of a still-pending sequence number keep the
//! first arrival's value. Every such discard is *counted*, never silent:
//! `accepted + dropped + duplicates` equals the samples offered. The
//! paper's accuracy claims rest on knowing exactly what fraction of
//! samples made it.
//!
//! [`Collector::ingest`] is the only way a sample enters a ring: every
//! campaign, the fleet's and the live driver's, calls it through
//! [`IngestPlane`](crate::plane::IngestPlane), which adds sharding and
//! locking around it.

use crate::ring::RingBuffer;
use crate::{Result, TelemetryError};
use std::collections::BTreeMap;
use std::ops::AddAssign;

/// One power sample from one collector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Node slot index (position in the campaign's metered set).
    pub node: usize,
    /// Per-node sequence number (simulation step of the reading).
    pub seq: u64,
    /// Metered power in watts.
    pub watts: f64,
}

/// Ingestion tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestConfig {
    /// Reordering budget in sequence slots: the per-node watermark trails
    /// the newest sequence number seen by `lateness` slots, so a sample
    /// displaced *strictly less than* `lateness` behind the newest arrival
    /// is guaranteed accepted; displacement of `lateness` or more may fall
    /// behind the watermark and be dropped as late. `0` demands exact
    /// order.
    pub lateness: u64,
    /// Per-node ring capacity (samples retained for window queries).
    pub ring_capacity: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            lateness: 8,
            ring_capacity: 4096,
        }
    }
}

impl IngestConfig {
    /// Validates the knobs.
    pub fn validate(&self) -> Result<()> {
        if self.ring_capacity == 0 {
            return Err(TelemetryError::InvalidConfig {
                field: "ring_capacity",
                reason: "ring capacity must be at least 1",
            });
        }
        if self.lateness as usize >= self.ring_capacity {
            return Err(TelemetryError::InvalidConfig {
                field: "lateness",
                reason: "lateness bound must be smaller than the ring capacity",
            });
        }
        Ok(())
    }
}

/// Aggregate ingestion counters across all nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Samples finalized into rings.
    pub accepted: u64,
    /// Samples rejected for arriving behind the watermark.
    pub late_dropped: u64,
    /// Missing placeholders inserted for sequence gaps.
    pub gaps: u64,
    /// Accepted samples that arrived out of order (buffered before
    /// finalization).
    pub reordered: u64,
    /// Offers whose sequence number was already pending finalization; the
    /// first arrival's value is kept. (Duplicates arriving behind the
    /// watermark are counted in `late_dropped` instead.)
    pub duplicates: u64,
}

impl IngestStats {
    /// Samples lost to lateness. Duplicates are counted separately:
    /// discarding one loses no information.
    pub fn dropped(&self) -> u64 {
        self.late_dropped
    }
}

/// The one place counters are summed: `other` is destructured without
/// `..`, so a new counter does not compile until it is added here.
impl AddAssign for IngestStats {
    fn add_assign(&mut self, other: IngestStats) {
        let IngestStats {
            accepted,
            late_dropped,
            gaps,
            reordered,
            duplicates,
        } = other;
        self.accepted += accepted;
        self.late_dropped += late_dropped;
        self.gaps += gaps;
        self.reordered += reordered;
        self.duplicates += duplicates;
    }
}

impl std::fmt::Display for IngestStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} accepted ({} reordered), {} late-dropped, {} duplicates, {} gap slots",
            self.accepted, self.reordered, self.late_dropped, self.duplicates, self.gaps
        )
    }
}

/// Per-node reordering state in front of a ring.
#[derive(Debug)]
struct NodeIngest {
    ring: RingBuffer,
    /// Samples past the watermark, awaiting finalization, keyed by seq.
    pending: BTreeMap<u64, f64>,
    /// Highest sequence number seen so far, if any.
    max_seen: Option<u64>,
    lateness: u64,
    counts: IngestStats,
}

impl NodeIngest {
    fn new(t0: f64, dt: f64, capacity: usize, lateness: u64) -> Result<Self> {
        Ok(NodeIngest {
            ring: RingBuffer::new(t0, dt, capacity)?,
            pending: BTreeMap::new(),
            max_seen: None,
            lateness,
            counts: IngestStats::default(),
        })
    }

    /// The finalization boundary: everything below it is in the ring.
    fn watermark(&self) -> u64 {
        self.ring.next_seq()
    }

    fn offer(&mut self, seq: u64, watts: f64) {
        if seq < self.watermark() {
            self.counts.late_dropped += 1;
            return;
        }
        // In-order fast path: with no lateness allowance the watermark
        // tracks the newest arrival exactly, so the next in-sequence
        // sample finalizes immediately — skip the pending map entirely.
        // (`pending` is always drained between offers when lateness is
        // 0, so no buffered sample can be skipped past.)
        if self.lateness == 0 && seq == self.ring.next_seq() && self.pending.is_empty() {
            self.ring.push(watts);
            self.counts.accepted += 1;
            self.max_seen = Some(seq);
            return;
        }
        match self.pending.entry(seq) {
            // A duplicate of a still-pending sample: keep the first
            // arrival's value and count the discard, so
            // accepted + dropped + duplicates == offered.
            std::collections::btree_map::Entry::Occupied(_) => {
                self.counts.duplicates += 1;
                return;
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(watts);
            }
        }
        if self.max_seen.is_some_and(|m| seq < m) {
            self.counts.reordered += 1;
        }
        self.max_seen = Some(self.max_seen.map_or(seq, |m| m.max(seq)));
        // The watermark trails the newest arrival by `lateness` slots:
        // anything at least that old can no longer be displaced.
        let boundary = (self.max_seen.unwrap() + 1).saturating_sub(self.lateness);
        self.finalize_below(boundary);
    }

    /// Pushes every pending sample with `seq < boundary` into the ring in
    /// true order, inserting missing placeholders for gaps.
    fn finalize_below(&mut self, boundary: u64) {
        while let Some((&seq, &w)) = self.pending.first_key_value() {
            if seq >= boundary {
                break;
            }
            while self.ring.next_seq() < seq {
                self.ring.push_missing();
                self.counts.gaps += 1;
            }
            self.ring.push(w);
            self.counts.accepted += 1;
            self.pending.remove(&seq);
        }
    }

    /// Finalizes everything still pending (end of stream).
    fn flush(&mut self) {
        self.finalize_below(u64::MAX);
    }
}

/// The consumer side: one reordering stage + ring per node slot.
#[derive(Debug)]
pub struct Collector {
    nodes: Vec<NodeIngest>,
    /// Lane template, retained so [`Collector::add_node_slots`] can grow
    /// the slot set after construction.
    t0: f64,
    dt: f64,
    ring_capacity: usize,
    lateness: u64,
}

impl Collector {
    /// Creates a collector for `node_slots` nodes whose sample streams
    /// share origin `t0` and interval `dt`.
    pub fn new(node_slots: usize, t0: f64, dt: f64, cfg: &IngestConfig) -> Result<Self> {
        cfg.validate()?;
        if node_slots == 0 {
            return Err(TelemetryError::InvalidConfig {
                field: "node_slots",
                reason: "collector needs at least one node slot",
            });
        }
        let nodes = (0..node_slots)
            .map(|_| NodeIngest::new(t0, dt, cfg.ring_capacity, cfg.lateness))
            .collect::<Result<Vec<_>>>()?;
        Ok(Collector {
            nodes,
            t0,
            dt,
            ring_capacity: cfg.ring_capacity,
            lateness: cfg.lateness,
        })
    }

    /// Number of node slots.
    pub fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Grows the slot set to at least `node_slots` lanes, each fresh and
    /// empty. Existing lanes (and their counters) are untouched, so a
    /// long-lived campaign can allocate ring memory only for the nodes
    /// it actually meters. No-op if the collector is already that large.
    pub fn ensure_node_slots(&mut self, node_slots: usize) -> Result<()> {
        while self.nodes.len() < node_slots {
            self.nodes.push(NodeIngest::new(
                self.t0,
                self.dt,
                self.ring_capacity,
                self.lateness,
            )?);
        }
        Ok(())
    }

    /// Samples offered but still buffered ahead of a watermark (not yet
    /// finalized into a ring, hence in neither `accepted` nor any drop
    /// counter).
    pub fn pending(&self) -> u64 {
        self.nodes.iter().map(|n| n.pending.len() as u64).sum()
    }

    /// Ingests one sample. Unknown node slots are rejected.
    pub fn ingest(&mut self, s: Sample) -> Result<()> {
        let slot = self
            .nodes
            .get_mut(s.node)
            .ok_or(TelemetryError::InvalidConfig {
                field: "node",
                reason: "sample names a node slot outside the collector",
            })?;
        slot.offer(s.seq, s.watts);
        Ok(())
    }

    /// Finalizes all buffered samples; call once the stream has ended.
    pub fn flush(&mut self) {
        for n in &mut self.nodes {
            n.flush();
        }
    }

    /// The ring for node slot `node`.
    pub fn ring(&self, node: usize) -> Option<&RingBuffer> {
        self.nodes.get(node).map(|n| &n.ring)
    }

    /// Per-node watermark (first sequence number not yet finalized).
    pub fn watermark(&self, node: usize) -> Option<u64> {
        self.nodes.get(node).map(|n| n.watermark())
    }

    /// Aggregate counters across every node slot.
    pub fn stats(&self) -> IngestStats {
        let mut s = IngestStats::default();
        for n in &self.nodes {
            s += n.counts;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(lateness: u64) -> IngestConfig {
        IngestConfig {
            lateness,
            ring_capacity: 64,
        }
    }

    #[test]
    fn config_validation() {
        assert!(IngestConfig::default().validate().is_ok());
        assert!(IngestConfig {
            ring_capacity: 0,
            ..IngestConfig::default()
        }
        .validate()
        .is_err());
        assert!(IngestConfig {
            lateness: 4096,
            ..IngestConfig::default()
        }
        .validate()
        .is_err());
        assert!(Collector::new(0, 0.0, 1.0, &cfg(0)).is_err());
    }

    #[test]
    fn in_order_stream_is_accepted_verbatim() {
        let mut c = Collector::new(1, 0.0, 1.0, &cfg(4)).unwrap();
        for seq in 0..10 {
            c.ingest(Sample {
                node: 0,
                seq,
                watts: seq as f64,
            })
            .unwrap();
        }
        c.flush();
        let s = c.stats();
        assert_eq!(s.accepted, 10);
        assert_eq!(s.reordered, 0);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.gaps, 0);
        assert_eq!(c.ring(0).unwrap().window_average(0.0, 10.0).unwrap(), 4.5);
    }

    #[test]
    fn bounded_reordering_is_repaired() {
        let mut c = Collector::new(1, 0.0, 1.0, &cfg(3)).unwrap();
        // Swapped pairs: displacement 1, well inside lateness 3.
        for seq in [1u64, 0, 3, 2, 5, 4, 7, 6] {
            c.ingest(Sample {
                node: 0,
                seq,
                watts: seq as f64,
            })
            .unwrap();
        }
        c.flush();
        let s = c.stats();
        assert_eq!(s.accepted, 8);
        assert_eq!(s.late_dropped, 0);
        assert_eq!(s.gaps, 0);
        assert!(s.reordered > 0);
        let ring = c.ring(0).unwrap();
        // Repaired to true order: sample k holds value k.
        for k in 0..8 {
            assert_eq!(ring.get(k), Some(k as f64));
        }
    }

    #[test]
    fn samples_behind_the_watermark_are_dropped_and_counted() {
        let mut c = Collector::new(1, 0.0, 1.0, &cfg(2)).unwrap();
        for seq in 0..10 {
            c.ingest(Sample {
                node: 0,
                seq,
                watts: 1.0,
            })
            .unwrap();
        }
        // Watermark is now 8 (= 10 - lateness 2): seq 3 is far too late.
        c.ingest(Sample {
            node: 0,
            seq: 3,
            watts: 999.0,
        })
        .unwrap();
        c.flush();
        let s = c.stats();
        assert_eq!(s.accepted, 10);
        assert_eq!(s.late_dropped, 1);
        // The late duplicate did not overwrite the finalized value.
        assert_eq!(c.ring(0).unwrap().get(3), Some(1.0));
    }

    #[test]
    fn in_flight_duplicates_keep_first_value_and_are_counted() {
        let mut c = Collector::new(1, 0.0, 1.0, &cfg(4)).unwrap();
        for (seq, watts) in [(0u64, 10.0), (1, 20.0), (0, 999.0), (1, 999.0), (2, 30.0)] {
            c.ingest(Sample {
                node: 0,
                seq,
                watts,
            })
            .unwrap();
        }
        c.flush();
        let s = c.stats();
        assert_eq!(s.accepted, 3);
        assert_eq!(s.duplicates, 2);
        assert_eq!(s.dropped(), 0);
        // Accounting closes: accepted + dropped + duplicates == offered.
        assert_eq!(s.accepted + s.dropped() + s.duplicates, 5);
        // The first arrival's values survived finalization.
        let ring = c.ring(0).unwrap();
        assert_eq!(ring.get(0), Some(10.0));
        assert_eq!(ring.get(1), Some(20.0));
        assert_eq!(ring.get(2), Some(30.0));
    }

    #[test]
    fn gaps_are_filled_with_missing_placeholders() {
        let mut c = Collector::new(1, 0.0, 1.0, &cfg(0)).unwrap();
        for seq in [0u64, 1, 4, 5] {
            c.ingest(Sample {
                node: 0,
                seq,
                watts: 100.0,
            })
            .unwrap();
        }
        c.flush();
        let s = c.stats();
        assert_eq!(s.accepted, 4);
        assert_eq!(s.gaps, 2);
        let ring = c.ring(0).unwrap();
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.get(2), None);
        assert_eq!(ring.get(3), None);
        // Averages skip the gap slots.
        assert_eq!(ring.window_average(0.0, 6.0).unwrap(), 100.0);
    }

    #[test]
    fn flush_finalizes_the_tail_behind_the_lateness_bound() {
        let mut c = Collector::new(1, 0.0, 1.0, &cfg(5)).unwrap();
        for seq in 0..3 {
            c.ingest(Sample {
                node: 0,
                seq,
                watts: 7.0,
            })
            .unwrap();
        }
        // Nothing finalized yet: max_seen=2, watermark boundary is 0.
        assert_eq!(c.ring(0).unwrap().len(), 0);
        c.flush();
        assert_eq!(c.ring(0).unwrap().len(), 3);
        assert_eq!(c.stats().accepted, 3);
    }

    #[test]
    fn unknown_node_slot_is_rejected() {
        let mut c = Collector::new(2, 0.0, 1.0, &cfg(0)).unwrap();
        assert!(c
            .ingest(Sample {
                node: 2,
                seq: 0,
                watts: 1.0,
            })
            .is_err());
    }
}
