//! Archiving [`RunProducts`]: the blob codec and the
//! [`ArchiveTier`] implementation that makes an [`Archive`] the disk
//! tier beneath `power-sim`'s `TraceStore`.
//!
//! A product blob is self-describing: the originating request, sweep
//! geometry (`dt`, `steps`, `cluster_len`), and whichever of the three
//! products the sweep retained. Traces are stored as compressed
//! [`codec`](crate::codec) blocks (so they inherit the quantization
//! contract: decoded watts are within one quantum of the simulated
//! ones); per-node window averages are stored as raw `f64` bits, since
//! they are one value per node and feed variability statistics
//! directly.
//!
//! Entries whose retained subset covers the whole machine are flagged
//! [`FLAG_FULL_SWEEP`], so a fetch that misses its exact fingerprint
//! can still decode a full sweep under the same simulation key and
//! derive the answer — mirroring the in-memory store's subsumption.

use crate::archive::{Archive, ArchiveStats, FLAG_FULL_SWEEP};
use crate::codec::{
    self, decode_block, decode_watts_span_from, encode_block, peek_summary, span_prefix_len,
    CodecError, DEFAULT_QUANTUM,
};
use crate::query::{pruned_window_sum, BlockMeta};
use power_sim::engine::MeterScope;
use power_sim::store::{request_fingerprint, ArchiveTier, WindowAggregate};
use power_sim::trace::{err_outside_window, window_span};
use power_sim::{NodeTrace, ProductParts, ProductRequest, RunProducts, SystemTrace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const BLOB_VERSION: u8 = 1;
const MAX_BLOCK_SAMPLES: usize = 8192;

const HAS_SYSTEM: u8 = 1;
const HAS_AVERAGES: u8 = 1 << 1;
const HAS_SUBSET: u8 = 1 << 2;
const REQ_SYSTEM: u8 = 1 << 3;
const REQ_WINDOW: u8 = 1 << 4;

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Microsecond grid for a regular trace: the block codec wants integer
/// timestamps, the trace carries `(t0, dt)` in seconds.
fn grid_us(t0: f64, dt: f64, steps: usize) -> Vec<i64> {
    (0..steps)
        .map(|i| ((t0 + i as f64 * dt) * 1e6).round() as i64)
        .collect()
}

fn encode_series(
    buf: &mut Vec<u8>,
    watts: &[f64],
    t0: f64,
    dt: f64,
    quantum: f64,
) -> Result<(), CodecError> {
    let ts = grid_us(t0, dt, watts.len());
    let chunks: Vec<(&[i64], &[f64])> = ts
        .chunks(MAX_BLOCK_SAMPLES)
        .zip(watts.chunks(MAX_BLOCK_SAMPLES))
        .collect();
    codec::put_uvarint(buf, chunks.len() as u128);
    for (ts_chunk, w_chunk) in chunks {
        let block = encode_block(ts_chunk, w_chunk, quantum)?;
        codec::put_uvarint(buf, block.len() as u128);
        buf.extend_from_slice(&block);
    }
    Ok(())
}

fn decode_series(buf: &[u8], pos: &mut usize, expected: usize) -> Result<Vec<f64>, CodecError> {
    let nblocks = codec::get_uvarint(buf, pos)? as usize;
    let mut watts = Vec::with_capacity(expected);
    for _ in 0..nblocks {
        let len = codec::get_uvarint(buf, pos)? as usize;
        let end = pos.checked_add(len).ok_or(CodecError::Truncated)?;
        let bytes = buf.get(*pos..end).ok_or(CodecError::Truncated)?;
        *pos = end;
        let block = decode_block(bytes)?;
        watts.extend_from_slice(&block.watts);
    }
    if watts.len() != expected {
        return Err(CodecError::BadShape);
    }
    Ok(watts)
}

/// Serialize `products` into a self-describing blob, quantizing trace
/// samples against `quantum`.
pub fn encode_products(products: &RunProducts, quantum: f64) -> Result<Vec<u8>, CodecError> {
    let request = products.request();
    let mut flags = 0u8;
    if products.system_trace(MeterScope::Wall).is_some() {
        flags |= HAS_SYSTEM;
    }
    if products.node_averages(MeterScope::Wall).is_some() {
        flags |= HAS_AVERAGES;
    }
    if products.subset_trace(MeterScope::Wall).is_some() {
        flags |= HAS_SUBSET;
    }
    if request.system {
        flags |= REQ_SYSTEM;
    }
    if request.averages_window.is_some() {
        flags |= REQ_WINDOW;
    }

    let mut buf = Vec::new();
    buf.push(BLOB_VERSION);
    buf.push(flags);
    put_f64(&mut buf, products.dt());
    buf.extend_from_slice(&(products.steps() as u64).to_le_bytes());
    buf.extend_from_slice(&(products.cluster_len() as u64).to_le_bytes());
    if let Some((from, to)) = request.averages_window {
        put_f64(&mut buf, from);
        put_f64(&mut buf, to);
    }
    if let Some(ids) = &request.subset {
        codec::put_uvarint(&mut buf, ids.len() as u128);
        for &id in ids {
            codec::put_uvarint(&mut buf, id as u128);
        }
    }
    for scope in MeterScope::ALL {
        if let Some(trace) = products.system_trace(scope) {
            put_f64(&mut buf, trace.t0);
            put_f64(&mut buf, trace.dt);
            encode_series(&mut buf, &trace.watts, trace.t0, trace.dt, quantum)?;
        }
    }
    for scope in MeterScope::ALL {
        if let Some(averages) = products.node_averages(scope) {
            for &a in averages {
                put_f64(&mut buf, a);
            }
        }
    }
    for scope in MeterScope::ALL {
        if let Some(trace) = products.subset_trace(scope) {
            put_f64(&mut buf, trace.t0);
            put_f64(&mut buf, trace.dt);
            for row in &trace.samples {
                encode_series(&mut buf, row, trace.t0, trace.dt, quantum)?;
            }
        }
    }
    Ok(buf)
}

/// Decode a blob produced by [`encode_products`], re-validating the
/// sweep-shape invariants via [`RunProducts::from_parts`].
pub fn decode_products(blob: &[u8]) -> Result<RunProducts, CodecError> {
    let mut pos = 0usize;
    let version = *blob.first().ok_or(CodecError::Truncated)?;
    if version != BLOB_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let flags = *blob.get(1).ok_or(CodecError::Truncated)?;
    pos += 2;
    let dt = codec::get_f64(blob, &mut pos)?;
    let steps = codec::get_u64(blob, &mut pos)? as usize;
    let cluster_len = codec::get_u64(blob, &mut pos)? as usize;
    let averages_window = if flags & REQ_WINDOW != 0 {
        let from = codec::get_f64(blob, &mut pos)?;
        let to = codec::get_f64(blob, &mut pos)?;
        Some((from, to))
    } else {
        None
    };
    let subset_ids = if flags & HAS_SUBSET != 0 {
        let n = codec::get_uvarint(blob, &mut pos)? as usize;
        if n > steps.saturating_mul(cluster_len).saturating_add(1) {
            return Err(CodecError::BadShape);
        }
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(codec::get_uvarint(blob, &mut pos)? as usize);
        }
        Some(ids)
    } else {
        None
    };
    let request = ProductRequest {
        system: flags & REQ_SYSTEM != 0,
        averages_window,
        subset: subset_ids.clone(),
    };

    let system = if flags & HAS_SYSTEM != 0 {
        let mut traces = Vec::with_capacity(3);
        for _ in 0..3 {
            let t0 = codec::get_f64(blob, &mut pos)?;
            let trace_dt = codec::get_f64(blob, &mut pos)?;
            let watts = decode_series(blob, &mut pos, steps)?;
            traces.push(SystemTrace::new(t0, trace_dt, watts).map_err(|_| CodecError::BadShape)?);
        }
        let arr: [SystemTrace; 3] = traces.try_into().expect("three scopes");
        Some(arr)
    } else {
        None
    };
    let averages = if flags & HAS_AVERAGES != 0 {
        let mut per_scope = Vec::with_capacity(3);
        for _ in 0..3 {
            let mut values = Vec::with_capacity(cluster_len);
            for _ in 0..cluster_len {
                values.push(codec::get_f64(blob, &mut pos)?);
            }
            per_scope.push(values);
        }
        let arr: [Vec<f64>; 3] = per_scope.try_into().expect("three scopes");
        Some(arr)
    } else {
        None
    };
    let subset = if flags & HAS_SUBSET != 0 {
        let ids = subset_ids.expect("flagged above");
        let mut traces = Vec::with_capacity(3);
        for _ in 0..3 {
            let t0 = codec::get_f64(blob, &mut pos)?;
            let trace_dt = codec::get_f64(blob, &mut pos)?;
            let mut samples = Vec::with_capacity(ids.len());
            for _ in 0..ids.len() {
                samples.push(decode_series(blob, &mut pos, steps)?);
            }
            traces.push(
                NodeTrace::new(ids.clone(), t0, trace_dt, samples)
                    .map_err(|_| CodecError::BadShape)?,
            );
        }
        let arr: [NodeTrace; 3] = traces.try_into().expect("three scopes");
        Some(arr)
    } else {
        None
    };
    if pos != blob.len() {
        return Err(CodecError::Truncated);
    }

    RunProducts::from_parts(ProductParts {
        request,
        dt,
        steps,
        cluster_len,
        system,
        averages,
        subset,
    })
    .map_err(|_| CodecError::BadShape)
}

/// Location of one compressed block inside a blob payload.
#[derive(Debug, Clone, Copy)]
struct BlockLoc {
    /// Byte offset of the block within the blob payload.
    off: u64,
    /// Length of the block in bytes.
    len: u32,
    /// Bytes a span decode reads first: header and chunk directory
    /// ([`span_prefix_len`]).
    prefix_len: u32,
}

/// Index of one scope's system-trace series within a blob: per block,
/// the pruned scan's metadata and the block's byte location, in series
/// order.
#[derive(Debug)]
struct SeriesIndex {
    t0: f64,
    dt: f64,
    metas: Vec<BlockMeta>,
    locs: Vec<BlockLoc>,
}

/// Byte-level index of a blob's three system-trace series, cached so
/// repeated window queries touch only chunk directories and boundary
/// chunks via positioned segment reads — the blob is fully read (and
/// checksummed) exactly once, when the index is built.
#[derive(Debug)]
struct BlobIndex {
    fingerprint: u64,
    /// `(segment, offset, record_len)` the index was built against;
    /// revalidated before every use (supersede and compaction both
    /// relocate the record).
    location: (u32, u64, u64),
    steps: u64,
    /// One series per scope, in [`MeterScope::ALL`] order.
    series: [SeriesIndex; 3],
}

/// Walk a product blob and index its system-trace blocks: byte ranges,
/// per-block sample counts, and header sums. `None` when the blob has
/// no system traces or fails to parse.
fn index_blob(blob: &[u8]) -> Option<(u64, [SeriesIndex; 3])> {
    let mut pos = 0usize;
    if *blob.first()? != BLOB_VERSION {
        return None;
    }
    let flags = *blob.get(1)?;
    if flags & HAS_SYSTEM == 0 {
        return None;
    }
    pos += 2;
    let _dt = codec::get_f64(blob, &mut pos).ok()?;
    let steps = codec::get_u64(blob, &mut pos).ok()?;
    let _cluster_len = codec::get_u64(blob, &mut pos).ok()?;
    if flags & REQ_WINDOW != 0 {
        pos += 16;
    }
    if flags & HAS_SUBSET != 0 {
        let n = codec::get_uvarint(blob, &mut pos).ok()?;
        for _ in 0..n {
            codec::get_uvarint(blob, &mut pos).ok()?;
        }
    }
    let mut series = Vec::with_capacity(3);
    for _ in 0..3 {
        let t0 = codec::get_f64(blob, &mut pos).ok()?;
        let dt = codec::get_f64(blob, &mut pos).ok()?;
        let nblocks = codec::get_uvarint(blob, &mut pos).ok()? as usize;
        let mut metas = Vec::with_capacity(nblocks);
        let mut locs = Vec::with_capacity(nblocks);
        let mut first = 0u64;
        for _ in 0..nblocks {
            let len = codec::get_uvarint(blob, &mut pos).ok()? as usize;
            let end = pos.checked_add(len)?;
            let bytes = blob.get(pos..end)?;
            let summary = peek_summary(bytes).ok()?;
            metas.push(BlockMeta {
                first,
                count: summary.count,
                sum_watts: summary.sum_watts,
            });
            locs.push(BlockLoc {
                off: pos as u64,
                len: u32::try_from(len).ok()?,
                prefix_len: u32::try_from(span_prefix_len(bytes).ok()?).ok()?,
            });
            first += u64::from(summary.count);
            pos = end;
        }
        if first != steps {
            return None;
        }
        series.push(SeriesIndex {
            t0,
            dt,
            metas,
            locs,
        });
    }
    let arr: [SeriesIndex; 3] = series.try_into().expect("three scopes");
    Some((steps, arr))
}

/// An [`Archive`] of serialized [`RunProducts`], usable as the disk
/// tier beneath a `TraceStore` (see [`ArchiveTier`]).
pub struct ProductsArchive {
    archive: Archive,
    quantum: f64,
    index: Mutex<HashMap<u64, Arc<BlobIndex>>>,
}

impl ProductsArchive {
    /// Wrap `archive` with the default ~1 mW quantum.
    pub fn new(archive: Archive) -> Self {
        ProductsArchive::with_quantum(archive, DEFAULT_QUANTUM)
    }

    /// Wrap `archive`, quantizing trace samples against `quantum`.
    pub fn with_quantum(archive: Archive, quantum: f64) -> Self {
        ProductsArchive {
            archive,
            quantum,
            index: Mutex::new(HashMap::new()),
        }
    }

    /// The underlying blob archive.
    pub fn archive(&self) -> &Archive {
        &self.archive
    }

    /// Sizes and counters of the underlying archive.
    pub fn stats(&self) -> ArchiveStats {
        self.archive.stats()
    }

    /// A current block index for `key`'s archived system traces: the
    /// cached one if its record hasn't moved, else freshly built from a
    /// full (checksummed) read. `None` when no archived entry under
    /// `key` carries system traces, or on any read/parse failure.
    ///
    /// A thread that panicked while holding the cache lock may have left
    /// it half-updated: that query gets `None` (the caller falls back to
    /// the decoded path), the cache is dropped, and later queries
    /// rebuild it.
    fn current_index(&self, key: u64) -> Option<Arc<BlobIndex>> {
        let mut cache = match self.index.lock() {
            Ok(cache) => cache,
            Err(poisoned) => {
                poisoned.into_inner().clear();
                self.index.clear_poison();
                return None;
            }
        };
        if let Some(idx) = cache.get(&key) {
            if self.archive.entry_location(key, idx.fingerprint) == Some(idx.location) {
                return Some(Arc::clone(idx));
            }
            cache.remove(&key);
        }
        // Prefer a full sweep (stable under supersedes of narrower
        // requests), else any entry whose blob parses with system
        // traces.
        let mut entries = self.archive.entries_for_key(key);
        entries.sort_by_key(|e| (e.flags & FLAG_FULL_SWEEP == 0, e.fingerprint));
        for entry in entries {
            let location = self.archive.entry_location(key, entry.fingerprint)?;
            let blob = self.archive.get(key, entry.fingerprint).ok()??;
            let Some((steps, series)) = index_blob(&blob) else {
                continue;
            };
            let idx = Arc::new(BlobIndex {
                fingerprint: entry.fingerprint,
                location,
                steps,
                series,
            });
            cache.insert(key, Arc::clone(&idx));
            return Some(idx);
        }
        None
    }
}

impl ArchiveTier for ProductsArchive {
    fn fetch(&self, key: u64, request: &ProductRequest) -> Option<RunProducts> {
        let fingerprint = request_fingerprint(key, request);
        if let Ok(Some(blob)) = self.archive.get(key, fingerprint) {
            if let Ok(products) = decode_products(&blob) {
                return Some(products);
            }
        }
        // No exact blob: any archived full sweep under the same key can
        // derive window averages, system traces, and sub-subsets.
        for entry in self.archive.entries_for_key(key) {
            if entry.flags & FLAG_FULL_SWEEP == 0 || entry.fingerprint == fingerprint {
                continue;
            }
            let Ok(Some(blob)) = self.archive.get(key, entry.fingerprint) else {
                continue;
            };
            let Ok(full) = decode_products(&blob) else {
                continue;
            };
            if let Some(derived) = full.try_derive(request) {
                return Some(derived);
            }
        }
        None
    }

    fn store(&self, key: u64, request: &ProductRequest, products: &RunProducts) {
        let fingerprint = request_fingerprint(key, request);
        let flags = if products.covers_machine() {
            FLAG_FULL_SWEEP
        } else {
            0
        };
        // Best-effort by contract: an encode or I/O failure degrades the
        // tier to recompute-on-miss, it must never take the store down.
        if let Ok(blob) = encode_products(products, self.quantum) {
            let _ = self.archive.put(key, fingerprint, flags, &blob);
        }
    }

    fn warm(&self) -> Vec<(u64, RunProducts)> {
        self.archive
            .entries()
            .into_iter()
            .filter_map(|entry| {
                let blob = self.archive.get(entry.key, entry.fingerprint).ok()??;
                Some((entry.key, decode_products(&blob).ok()?))
            })
            .collect()
    }

    fn window_aggregate(
        &self,
        key: u64,
        scope: MeterScope,
        from: f64,
        to: f64,
    ) -> Option<power_sim::Result<WindowAggregate>> {
        let idx = self.current_index(key)?;
        let scope_i = MeterScope::ALL.iter().position(|s| *s == scope)?;
        let series = &idx.series[scope_i];
        if series.metas.is_empty() {
            return None;
        }
        let Some((lo, hi)) = window_span(series.t0, series.dt, idx.steps as usize, from, to) else {
            return Some(Err(err_outside_window()));
        };
        // A boundary block is read with positioned reads of its header
        // and chunk directory, then of at most two edge chunks; the
        // directory CRC and each chunk's CRC32 (verified by
        // `decode_watts_span_from`) guard against torn or relocated
        // bytes. Any failure degrades to `None` — the caller falls back
        // to the decoded path — never to an error.
        let pruned = pruned_window_sum(&series.metas, lo, hi, |k, s, e| {
            let loc = series.locs[k];
            let read = |off: usize, len: usize| {
                self.archive
                    .read_payload_range(key, idx.fingerprint, loc.off + off as u64, len)
                    .ok()
                    .flatten()
                    .ok_or(CodecError::Truncated)
            };
            let prefix = read(0, loc.prefix_len as usize)?;
            decode_watts_span_from(&prefix, loc.len as usize, s, e, read)
        })
        .ok()?;
        Some(Ok(WindowAggregate {
            average_w: pruned.weighted_sum / (hi - lo),
            energy_j: pruned.weighted_sum * series.dt,
            t0: series.t0,
            dt: series.dt,
            steps: idx.steps,
            blocks_total: pruned.blocks_total,
            blocks_decoded: pruned.blocks_decoded,
            blocks_skipped: pruned.blocks_skipped,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_sim::{Cluster, SimulationConfig, Simulator, SystemPreset, TraceStore};
    use power_workload::{Firestarter, LoadBalance, RunPhases};
    use std::sync::Arc;

    fn fixture() -> (Cluster, Firestarter, SimulationConfig) {
        let preset = SystemPreset::trace_presets()
            .into_iter()
            .find(|p| p.name == "L-CSC")
            .expect("L-CSC trace preset exists")
            .with_total_nodes(16);
        let cluster = Cluster::build(preset.cluster_spec).unwrap();
        let phases = RunPhases::core_only(2000.0).unwrap();
        let wl = Firestarter::new(phases);
        let mut cfg = SimulationConfig::one_hertz(17);
        cfg.dt = 5.0;
        (cluster, wl, cfg)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "power-archive-products-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn products_roundtrip_within_one_quantum() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let all: Vec<usize> = (0..cluster.len()).collect();
        let request = ProductRequest::with_averages(20.0, 200.0).and_subset(&all);
        let products = sim.run_products(&request).unwrap();

        let blob = encode_products(&products, DEFAULT_QUANTUM).unwrap();
        let decoded = decode_products(&blob).unwrap();
        assert_eq!(decoded.request(), products.request());
        assert_eq!(decoded.steps(), products.steps());
        assert_eq!(decoded.cluster_len(), products.cluster_len());
        assert!(decoded.covers_machine());
        for scope in MeterScope::ALL {
            // Averages are stored raw: bit-exact.
            assert_eq!(
                decoded.node_averages(scope).unwrap(),
                products.node_averages(scope).unwrap()
            );
            // Traces are quantized: within half a quantum, and exactly
            // the quantize() image of the original.
            let orig = products.system_trace(scope).unwrap();
            let back = decoded.system_trace(scope).unwrap();
            assert_eq!(back.watts.len(), orig.watts.len());
            for (o, b) in orig.watts.iter().zip(&back.watts) {
                assert_eq!(b.to_bits(), crate::quantize(*o, DEFAULT_QUANTUM).to_bits());
                assert!((o - b).abs() <= DEFAULT_QUANTUM);
            }
            let orig = products.subset_trace(scope).unwrap();
            let back = decoded.subset_trace(scope).unwrap();
            assert_eq!(back.node_ids, orig.node_ids);
            for (orow, brow) in orig.samples.iter().zip(&back.samples) {
                for (o, b) in orow.iter().zip(brow) {
                    assert!((o - b).abs() <= DEFAULT_QUANTUM);
                }
            }
        }

        // Compression: the blob must be far smaller than raw (t, w)
        // f64 pairs across the 3 scopes x (subset + system) series.
        let series = 3 * (cluster.len() + 1);
        let raw_bytes = series * products.steps() * 16;
        let ratio = raw_bytes as f64 / blob.len() as f64;
        assert!(ratio >= 4.0, "product blob compression {ratio:.2} < 4x");

        // Corrupting any single byte never panics and never decodes.
        let mut bad = blob.clone();
        for i in (0..bad.len()).step_by(97) {
            bad[i] ^= 0x20;
            let _ = decode_products(&bad);
            bad[i] ^= 0x20;
        }
        assert!(decode_products(&blob[..blob.len() - 3]).is_err());
    }

    #[test]
    fn tiered_store_serves_from_disk_across_restart() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let dir = tmpdir("tier");
        let request = ProductRequest::with_averages(20.0, 200.0);

        // Process 1: simulate once, write through.
        {
            let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
            let store = TraceStore::bounded(64).with_archive(Arc::clone(&tier) as _);
            store.products(&sim, &request).unwrap();
            let stats = store.stats();
            assert_eq!((stats.misses, stats.archive_writes), (1, 1));
            assert_eq!(tier.stats().entries, 1);
        }

        // Process 2 (fresh store over the same dir): served from the
        // archive, no recompute.
        let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
        let store = TraceStore::bounded(64).with_archive(Arc::clone(&tier) as _);
        let products = store.products(&sim, &request).unwrap();
        let stats = store.stats();
        assert_eq!((stats.misses, stats.hits, stats.archive_hits), (0, 1, 1));
        let fresh = sim.run_products(&request).unwrap();
        assert_eq!(
            products.node_averages(MeterScope::Wall).unwrap(),
            fresh.node_averages(MeterScope::Wall).unwrap()
        );

        // Process 3: warm-on-startup loads it before any request.
        let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
        let store = TraceStore::bounded(64).with_archive(tier as _);
        assert_eq!(store.warm_from_archive(), 1);
        store.products(&sim, &request).unwrap();
        let stats = store.stats();
        assert_eq!((stats.misses, stats.archive_hits, stats.hits), (0, 0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn window_aggregate_prunes_and_matches_decoded() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let dir = tmpdir("window");
        let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
        let request = ProductRequest::system_only();

        // Write through once, keep the unquantized reference trace.
        let reference = {
            let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
            let products = store.products(&sim, &request).unwrap();
            products.system_trace(MeterScope::Wall).unwrap().clone()
        };

        // A cold store answers windows via the pruned path — no
        // materialization, counters tick, and every answer tracks the
        // decoded reference within the quantization contract.
        let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
        let t_end = reference.t_end();
        for (from, to) in [
            (0.0, t_end),
            (12.5, 61.25),
            (0.0, 5.0),
            (t_end - 7.25, t_end + 100.0),
            (-50.0, 19.9),
        ] {
            let agg = store
                .window_aggregate(&sim, MeterScope::Wall, from, to)
                .expect("archived series answers")
                .expect("window overlaps");
            let want_avg = reference.window_average(from, to).unwrap();
            let want_energy = reference.window_energy(from, to).unwrap();
            assert!(
                (agg.average_w - want_avg).abs() <= DEFAULT_QUANTUM,
                "[{from},{to}): pruned {} vs decoded {want_avg}",
                agg.average_w
            );
            assert!(
                (agg.energy_j - want_energy).abs() <= DEFAULT_QUANTUM * t_end,
                "[{from},{to}): pruned energy {} vs decoded {want_energy}",
                agg.energy_j
            );
            assert!(agg.blocks_decoded <= 2, "{agg:?}");
            assert_eq!(agg.steps, reference.watts.len() as u64);
            assert!((agg.t_end() - t_end).abs() < 1e-9);
        }
        let stats = store.stats();
        assert_eq!(stats.archive_pruned_queries, 5);
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));

        // Semantic verdicts match the in-memory trace errors: empty
        // overlap and degenerate windows are Some(Err), not fallbacks.
        let err = store
            .window_aggregate(&sim, MeterScope::Wall, t_end + 10.0, t_end + 20.0)
            .unwrap()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            reference
                .window_average(t_end + 10.0, t_end + 20.0)
                .unwrap_err()
                .to_string()
        );
        assert!(store
            .window_aggregate(&sim, MeterScope::Wall, 5.0, 5.0)
            .unwrap()
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_boundary_block_degrades_to_decoded_path() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let dir = tmpdir("torn-scan");
        let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
        let request = ProductRequest::system_only();
        {
            let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
            store.products(&sim, &request).unwrap();
        }

        // Prime the block index with a healthy pruned query.
        let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
        assert!(store
            .window_aggregate(&sim, MeterScope::Wall, 12.5, 30.0)
            .unwrap()
            .is_ok());

        // Rot the segment bytes behind the archive's back. The cached
        // index still points at the old offsets; the boundary block's
        // own CRC32 catches the damage mid-scan.
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "seg"))
            .unwrap();
        let mut bytes = std::fs::read(&seg).unwrap();
        for b in bytes.iter_mut().skip(64) {
            *b ^= 0xA5;
        }
        std::fs::write(&seg, &bytes).unwrap();

        // Fractional window → boundary decode → CRC mismatch → the tier
        // declines (None) instead of erroring, and the store's decoded
        // path still serves the request by recomputing.
        assert!(store
            .window_aggregate(&sim, MeterScope::Wall, 12.5, 30.0)
            .is_none());
        let products = store.products(&sim, &request).unwrap();
        assert!(products.system_trace(MeterScope::Wall).is_some());
        let stats = store.stats();
        assert_eq!((stats.misses, stats.archive_pruned_queries), (1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_locks_fall_back_to_the_decoded_path() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let dir = tmpdir("poison");
        let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
        let request = ProductRequest::system_only();
        let reference = {
            let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
            let products = store.products(&sim, &request).unwrap();
            products.system_trace(MeterScope::Wall).unwrap().clone()
        };
        let (from, to) = (12.5, 61.25);
        let want = reference.window_average(from, to).unwrap();
        let decoded_average = |store: &TraceStore| {
            let products = store.products(&sim, &request).unwrap();
            let trace = products.system_trace(MeterScope::Wall).unwrap();
            trace.window_average(from, to).unwrap()
        };

        // A thread panics while holding the block-index cache: the next
        // window declines instead of panicking, and the decoded path
        // answers from the archive.
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _cache = tier.index.lock();
                    panic!("a query panicked while holding the index lock");
                })
                .join();
        });
        let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
        assert!(store
            .window_aggregate(&sim, MeterScope::Wall, from, to)
            .is_none());
        assert!((decoded_average(&store) - want).abs() <= DEFAULT_QUANTUM);
        assert_eq!(store.stats().archive_hits, 1);
        // The dropped cache is rebuilt: the pruned path answers again.
        let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
        let agg = store
            .window_aggregate(&sim, MeterScope::Wall, from, to)
            .unwrap()
            .unwrap();
        assert!((agg.average_w - want).abs() <= DEFAULT_QUANTUM);

        // A thread panics while holding the archive lock: the window
        // declines, the archive refuses reads and writes, and the decoded
        // path recomputes the exact answer.
        tier.archive().poison_for_test();
        let store = TraceStore::bounded(8).with_archive(Arc::clone(&tier) as _);
        assert!(store
            .window_aggregate(&sim, MeterScope::Wall, from, to)
            .is_none());
        assert_eq!(decoded_average(&store), want);
        let stats = store.stats();
        assert_eq!((stats.misses, stats.archive_hits), (1, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn archived_full_sweep_derives_other_requests() {
        let (cluster, wl, cfg) = fixture();
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).unwrap();
        let dir = tmpdir("derive");
        let all: Vec<usize> = (0..cluster.len()).collect();

        {
            let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
            let store = TraceStore::new().with_archive(tier as _);
            store
                .products(&sim, &ProductRequest::subset_only(&all))
                .unwrap();
        }

        // A different (derivable) request against a cold store: the
        // archived full sweep answers it without simulating.
        let tier = Arc::new(ProductsArchive::new(Archive::open(&dir).unwrap()));
        let store = TraceStore::new().with_archive(tier as _);
        let products = store
            .products(&sim, &ProductRequest::subset_only(&[3, 1]))
            .unwrap();
        let stats = store.stats();
        assert_eq!((stats.misses, stats.archive_hits), (0, 1));
        assert_eq!(
            products.subset_trace(MeterScope::Dc).unwrap().node_ids,
            vec![3, 1]
        );
        // Non-derivable under a different key still recomputes (sanity:
        // the subset [97] does not exist on this machine — validation
        // fires before any tier is consulted).
        assert!(store
            .products(&sim, &ProductRequest::subset_only(&[97]))
            .is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
