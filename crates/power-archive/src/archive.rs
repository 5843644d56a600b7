//! The archive engine: append-only segment files under a manifest.
//!
//! # Commit protocol
//!
//! A `put` is committed by exactly this sequence:
//!
//! 1. append the blob as a framed record to the current segment file;
//! 2. `fdatasync` the segment;
//! 3. append an `Add` record to `MANIFEST.log` naming the blob's
//!    `(key, fingerprint)` and its segment/offset/length;
//! 4. `fdatasync` the manifest.
//!
//! A blob exists if and only if its manifest record is durable, so a
//! crash at any point leaves either the old state or the new state —
//! never a half-entry. Recovery on open truncates torn tails from both
//! the manifest and the segments (bytes written but never committed),
//! deletes segment files no manifest record references (compaction or
//! pre-commit leftovers), and re-verifies the checksum of every
//! committed record before serving anything.
//!
//! # Key epoch
//!
//! The manifest's first record is its header: the manifest version and
//! the [`SIMULATION_KEY_EPOCH`] its entries' keys were computed under.
//! A store whose header differs — any store written under another key
//! scheme or manifest format — holds blobs filed under keys nothing
//! computes any more, so opening it retires it whole: a header-only
//! manifest is staged in `MANIFEST.tmp`, synced and renamed over
//! `MANIFEST.log`, no entry is replayed, and the recovery pass deletes
//! the now unreferenced segments. A crash before the rename retires the
//! store again on the next open; one after it leaves an empty store.
//! [`ArchiveStats::retired_keys`] counts the distinct keys dropped.
//!
//! # Compaction
//!
//! Superseding a `(key, fingerprint)` leaves the old record as dead
//! bytes. When dead bytes exceed [`ArchiveConfig::compact_dead_ratio`]
//! of the store (above a minimum size), the archive rewrites all live
//! records into a fresh segment, writes a fresh manifest to
//! `MANIFEST.tmp`, atomically renames it over `MANIFEST.log`, and
//! deletes the old segments. A crash anywhere in that sequence recovers
//! to either the old or the new layout.

use crate::record::{
    append_record, read_record_at, scan_records, sync_dir, truncate_to, RECORD_HEADER_LEN,
};
use power_sim::store::SIMULATION_KEY_EPOCH;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

const MANIFEST: &str = "MANIFEST.log";
const MANIFEST_TMP: &str = "MANIFEST.tmp";
const MANIFEST_VERSION: u32 = 2;

const OP_HEADER: u8 = 0;
const OP_ADD: u8 = 1;

/// Entry flag: the blob is a full-machine sweep that can derive
/// narrower requests (see `power_sim::store` subsumption).
pub const FLAG_FULL_SWEEP: u8 = 1;

/// Tuning and durability knobs for an [`Archive`].
#[derive(Debug, Clone, Copy)]
pub struct ArchiveConfig {
    /// Roll to a new segment file once the current one reaches this
    /// many bytes.
    pub segment_max_bytes: u64,
    /// Compact when dead bytes exceed this fraction of total bytes.
    pub compact_dead_ratio: f64,
    /// Never compact a store smaller than this many total bytes.
    pub compact_min_bytes: u64,
    /// Fsync on every commit (segment and manifest). Turning this off
    /// trades crash durability of the most recent puts for speed; the
    /// on-disk format stays recoverable either way.
    pub fsync: bool,
}

impl Default for ArchiveConfig {
    fn default() -> Self {
        ArchiveConfig {
            segment_max_bytes: 8 << 20,
            compact_dead_ratio: 0.5,
            compact_min_bytes: 1 << 20,
            fsync: true,
        }
    }
}

/// Counters and sizes describing an archive, for gauges and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Live `(key, fingerprint)` entries.
    pub entries: u64,
    /// Segment files on disk.
    pub segments: u64,
    /// Bytes of live (referenced) records, framing included.
    pub live_bytes: u64,
    /// Bytes of superseded records awaiting compaction.
    pub dead_bytes: u64,
    /// Blobs served by `get` since open.
    pub reads: u64,
    /// Blobs committed by `put` since open.
    pub writes: u64,
    /// Compactions run since open.
    pub compactions: u64,
    /// Torn tails truncated during the last open.
    pub recovered_truncations: u64,
    /// Distinct keys dropped at open because the store was written
    /// under another key epoch (see the module docs).
    pub retired_keys: u64,
}

/// Public description of one live entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryInfo {
    /// Simulation/cache key the blob belongs to.
    pub key: u64,
    /// Fingerprint distinguishing blobs under one key.
    pub fingerprint: u64,
    /// Entry flags (`FLAG_FULL_SWEEP`, …).
    pub flags: u8,
    /// Blob payload length in bytes (framing excluded).
    pub blob_len: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    flags: u8,
    segment: u32,
    offset: u64,
    record_len: u64,
}

#[derive(Debug)]
struct Segment {
    file: File,
    path: PathBuf,
    len: u64,
}

#[derive(Debug)]
struct Inner {
    manifest: File,
    manifest_len: u64,
    segments: BTreeMap<u32, Segment>,
    current: u32,
    entries: HashMap<(u64, u64), Entry>,
    live_bytes: u64,
    dead_bytes: u64,
}

/// A crash-safe on-disk blob store keyed by `(key, fingerprint)`.
#[derive(Debug)]
pub struct Archive {
    dir: PathBuf,
    config: ArchiveConfig,
    inner: Mutex<Inner>,
    reads: AtomicU64,
    writes: AtomicU64,
    compactions: AtomicU64,
    truncations: AtomicU64,
    retired_keys: u64,
}

fn segment_path(dir: &Path, id: u32) -> PathBuf {
    dir.join(format!("seg-{id:08}.seg"))
}

fn parse_segment_id(name: &str) -> Option<u32> {
    let id = name.strip_prefix("seg-")?.strip_suffix(".seg")?;
    if id.len() == 8 && id.bytes().all(|b| b.is_ascii_digit()) {
        id.parse().ok()
    } else {
        None
    }
}

fn corrupt(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn encode_add(key: u64, fingerprint: u64, entry: &Entry) -> Vec<u8> {
    let mut buf = Vec::with_capacity(38);
    buf.push(OP_ADD);
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.push(entry.flags);
    buf.extend_from_slice(&entry.segment.to_le_bytes());
    buf.extend_from_slice(&entry.offset.to_le_bytes());
    buf.extend_from_slice(&entry.record_len.to_le_bytes());
    buf
}

fn decode_add(payload: &[u8]) -> io::Result<(u64, u64, Entry)> {
    if payload.len() != 38 {
        return Err(corrupt(format!(
            "manifest add record has {} bytes, expected 38",
            payload.len()
        )));
    }
    let key = u64::from_le_bytes(payload[1..9].try_into().expect("8 bytes"));
    let fingerprint = u64::from_le_bytes(payload[9..17].try_into().expect("8 bytes"));
    let flags = payload[17];
    let segment = u32::from_le_bytes(payload[18..22].try_into().expect("4 bytes"));
    let offset = u64::from_le_bytes(payload[22..30].try_into().expect("8 bytes"));
    let record_len = u64::from_le_bytes(payload[30..38].try_into().expect("8 bytes"));
    Ok((
        key,
        fingerprint,
        Entry {
            flags,
            segment,
            offset,
            record_len,
        },
    ))
}

fn encode_header() -> Vec<u8> {
    let mut buf = Vec::with_capacity(9);
    buf.push(OP_HEADER);
    buf.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    buf.extend_from_slice(&SIMULATION_KEY_EPOCH.to_le_bytes());
    buf
}

/// Stages a manifest of the current header plus the `adds` records in
/// `MANIFEST.tmp`, syncs it, renames it over `MANIFEST.log` and syncs
/// the directory, so a crash leaves either the old manifest or the new
/// one. Returns the new manifest's length.
fn replace_manifest(dir: &Path, adds: impl IntoIterator<Item = Vec<u8>>) -> io::Result<u64> {
    let tmp_path = dir.join(MANIFEST_TMP);
    let mut tmp = File::options()
        .create(true)
        .truncate(true)
        .read(true)
        .write(true)
        .open(&tmp_path)?;
    let mut len = append_record(&mut tmp, 0, &encode_header(), false)?;
    for op in adds {
        len += append_record(&mut tmp, len, &op, false)?;
    }
    tmp.sync_data()?;
    fs::rename(&tmp_path, dir.join(MANIFEST))?;
    sync_dir(dir)?;
    Ok(len)
}

impl Archive {
    /// Open (or create) an archive in `dir` with default config,
    /// running recovery.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Archive> {
        Archive::open_with(dir, ArchiveConfig::default())
    }

    /// Open (or create) an archive in `dir`, running recovery:
    /// retire a store written under another key epoch, truncate torn
    /// tails, drop uncommitted segment files, and verify the checksum of
    /// every committed record.
    pub fn open_with(dir: impl AsRef<Path>, config: ArchiveConfig) -> io::Result<Archive> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut truncations = 0u64;

        // A MANIFEST.tmp is a compaction that never reached its rename;
        // the old manifest is still authoritative.
        let tmp = dir.join(MANIFEST_TMP);
        if tmp.exists() {
            fs::remove_file(&tmp)?;
        }

        // 1. Manifest: scan, truncate torn tail, check the header
        //    (retiring a store of another key epoch), replay ops.
        let manifest_path = dir.join(MANIFEST);
        let scan = scan_records(&manifest_path)?;
        if scan.torn {
            truncate_to(&manifest_path, scan.valid_len)?;
            truncations += 1;
        }
        let mut manifest_len = scan.valid_len;
        let mut retired_keys = 0u64;
        let ops = match scan.records.split_first() {
            None => &[][..],
            Some(((_, header), ops)) if *header == encode_header() => ops,
            Some(_) => {
                let keys: HashSet<u64> = scan
                    .records
                    .iter()
                    .filter(|(_, payload)| payload.first() == Some(&OP_ADD))
                    .filter_map(|(_, payload)| decode_add(payload).ok())
                    .map(|(key, _, _)| key)
                    .collect();
                retired_keys = keys.len() as u64;
                manifest_len = replace_manifest(&dir, [])?;
                &[][..]
            }
        };
        let mut entries: HashMap<(u64, u64), Entry> = HashMap::new();
        let mut live_bytes = 0u64;
        let mut dead_bytes = 0u64;
        for (i, (_, payload)) in ops.iter().enumerate() {
            let op = *payload
                .first()
                .ok_or_else(|| corrupt("empty manifest record".into()))?;
            match op {
                OP_ADD => {
                    let (key, fingerprint, entry) = decode_add(payload)?;
                    if let Some(old) = entries.insert((key, fingerprint), entry) {
                        dead_bytes += old.record_len;
                        live_bytes -= old.record_len;
                    }
                    live_bytes += entry.record_len;
                }
                other => {
                    return Err(corrupt(format!(
                        "unknown manifest op {other} at record {}",
                        i + 1
                    )))
                }
            }
        }

        // 2. Committed extent of each referenced segment.
        let mut extents: BTreeMap<u32, u64> = BTreeMap::new();
        for entry in entries.values() {
            let end = entry.offset + entry.record_len;
            let ext = extents.entry(entry.segment).or_insert(0);
            *ext = (*ext).max(end);
        }

        // 3. Walk segment files: truncate referenced ones to their
        //    committed extent, delete unreferenced leftovers.
        let mut on_disk: Vec<u32> = Vec::new();
        for dirent in fs::read_dir(&dir)? {
            let dirent = dirent?;
            if let Some(id) = dirent.file_name().to_str().and_then(parse_segment_id) {
                on_disk.push(id);
            }
        }
        let mut segments: BTreeMap<u32, Segment> = BTreeMap::new();
        for id in on_disk {
            let path = segment_path(&dir, id);
            if let Some(&extent) = extents.get(&id) {
                let file = File::options().read(true).write(true).open(&path)?;
                let len = file.metadata()?.len();
                if len < extent {
                    return Err(corrupt(format!(
                        "segment {id} is {len} bytes but the manifest commits {extent}"
                    )));
                }
                if len > extent {
                    file.set_len(extent)?;
                    file.sync_data()?;
                    truncations += 1;
                }
                segments.insert(
                    id,
                    Segment {
                        file,
                        path,
                        len: extent,
                    },
                );
            } else {
                fs::remove_file(&path)?;
            }
        }
        for id in extents.keys() {
            if !segments.contains_key(id) {
                return Err(corrupt(format!(
                    "manifest references missing segment file {id}"
                )));
            }
        }

        // 4. Verify every committed record's checksum before serving.
        for ((key, fingerprint), entry) in &entries {
            let segment = segments
                .get_mut(&entry.segment)
                .expect("verified referenced above");
            read_record_at(&mut segment.file, entry.offset, entry.record_len).map_err(|e| {
                corrupt(format!(
                    "entry ({key:#x},{fingerprint:#x}) failed verification: {e}"
                ))
            })?;
        }

        // 5. Ensure a current segment exists to append to.
        let current = match segments.keys().next_back() {
            Some(&id) => id,
            None => {
                let path = segment_path(&dir, 0);
                let file = File::options()
                    .create(true)
                    .truncate(true)
                    .read(true)
                    .write(true)
                    .open(&path)?;
                segments.insert(0, Segment { file, path, len: 0 });
                0
            }
        };

        let mut manifest = File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&manifest_path)?;
        if manifest_len == 0 {
            manifest_len += append_record(&mut manifest, 0, &encode_header(), config.fsync)?;
        }
        sync_dir(&dir)?;

        let archive = Archive {
            dir,
            config,
            inner: Mutex::new(Inner {
                manifest,
                manifest_len,
                segments,
                current,
                entries,
                live_bytes,
                dead_bytes,
            }),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            truncations: AtomicU64::new(truncations),
            retired_keys,
        };
        Ok(archive)
    }

    /// The directory this archive lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The archive's state, or an error when a thread panicked while
    /// holding it: the in-memory index may be half-updated, so the
    /// archive stops serving it rather than trust it. The window query
    /// path (`get`, `read_payload_range`, `entry_location`,
    /// `entries_for_key`), `put`, `compact` and the listings and
    /// statistics go through here, so a poisoned archive falls back to
    /// recomputing instead of panicking.
    fn state(&self) -> io::Result<MutexGuard<'_, Inner>> {
        self.inner
            .lock()
            .map_err(|_| io::Error::other("archive lock poisoned by a panicked thread"))
    }

    /// Commit `blob` under `(key, fingerprint)`, superseding any
    /// previous blob with the same identity. Durable once this returns
    /// (when `fsync` is on). May trigger a compaction.
    pub fn put(&self, key: u64, fingerprint: u64, flags: u8, blob: &[u8]) -> io::Result<()> {
        let mut inner = self.state()?;
        let inner = &mut *inner;

        // Roll to a fresh segment when the current one is full.
        let roll = inner
            .segments
            .get(&inner.current)
            .is_some_and(|s| s.len >= self.config.segment_max_bytes);
        if roll {
            let id = inner.current + 1;
            let path = segment_path(&self.dir, id);
            let file = File::options()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(&path)?;
            sync_dir(&self.dir)?;
            inner.segments.insert(id, Segment { file, path, len: 0 });
            inner.current = id;
        }

        // Commit protocol: segment record + fsync, then manifest
        // record + fsync.
        let current = inner.current;
        let segment = inner.segments.get_mut(&current).expect("current segment");
        let offset = segment.len;
        let record_len = append_record(&mut segment.file, offset, blob, self.config.fsync)?;
        segment.len += record_len;
        let entry = Entry {
            flags,
            segment: current,
            offset,
            record_len,
        };
        let op = encode_add(key, fingerprint, &entry);
        inner.manifest_len += append_record(
            &mut inner.manifest,
            inner.manifest_len,
            &op,
            self.config.fsync,
        )?;

        if let Some(old) = inner.entries.insert((key, fingerprint), entry) {
            inner.dead_bytes += old.record_len;
            inner.live_bytes -= old.record_len;
        }
        inner.live_bytes += record_len;
        self.writes.fetch_add(1, Ordering::Relaxed);

        let total = inner.live_bytes + inner.dead_bytes;
        if total >= self.config.compact_min_bytes
            && (inner.dead_bytes as f64) > self.config.compact_dead_ratio * (total as f64)
        {
            self.compact_locked(inner)?;
        }
        Ok(())
    }

    /// Fetch the blob committed under `(key, fingerprint)`, verifying
    /// its checksum. `Ok(None)` when no such entry exists.
    pub fn get(&self, key: u64, fingerprint: u64) -> io::Result<Option<Vec<u8>>> {
        let mut inner = self.state()?;
        let inner = &mut *inner;
        let Some(entry) = inner.entries.get(&(key, fingerprint)).copied() else {
            return Ok(None);
        };
        let segment = inner
            .segments
            .get_mut(&entry.segment)
            .expect("entry references live segment");
        let blob = read_record_at(&mut segment.file, entry.offset, entry.record_len)?;
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(Some(blob))
    }

    /// Stable location `(segment, offset, record_len)` of the record
    /// committed under `(key, fingerprint)`, or `None` when no such
    /// entry exists (or the archive lock is poisoned).
    ///
    /// The location changes whenever the entry is superseded by a new
    /// `put` or moved by compaction, so callers that cache byte offsets
    /// derived from a blob (block indexes for positioned reads) must
    /// revalidate their cache against this triple before every use.
    pub fn entry_location(&self, key: u64, fingerprint: u64) -> Option<(u32, u64, u64)> {
        let inner = self.state().ok()?;
        inner
            .entries
            .get(&(key, fingerprint))
            .map(|e| (e.segment, e.offset, e.record_len))
    }

    /// Read `len` bytes starting `payload_off` bytes into the payload
    /// of the record committed under `(key, fingerprint)`, via a
    /// positioned read of just that range — the rest of the record is
    /// never touched. `Ok(None)` when no such entry exists.
    ///
    /// Unlike [`Archive::get`], this does **not** verify the record's
    /// frame checksum (that would require reading the whole payload,
    /// defeating the point). Open-time recovery has already verified
    /// every committed record once; callers reading structured
    /// sub-ranges (compressed trace blocks carry their own CRC32) are
    /// expected to validate what they decode.
    pub fn read_payload_range(
        &self,
        key: u64,
        fingerprint: u64,
        payload_off: u64,
        len: usize,
    ) -> io::Result<Option<Vec<u8>>> {
        use std::io::{Read, Seek, SeekFrom};
        let mut inner = self.state()?;
        let inner = &mut *inner;
        let Some(entry) = inner.entries.get(&(key, fingerprint)).copied() else {
            return Ok(None);
        };
        let payload_len = entry.record_len - RECORD_HEADER_LEN;
        match payload_off.checked_add(len as u64) {
            Some(end) if end <= payload_len => {}
            _ => {
                return Err(corrupt(format!(
                    "range {payload_off}+{len} exceeds payload of {payload_len} bytes"
                )))
            }
        }
        let segment = inner
            .segments
            .get_mut(&entry.segment)
            .expect("entry references live segment");
        segment.file.seek(SeekFrom::Start(
            entry.offset + RECORD_HEADER_LEN + payload_off,
        ))?;
        let mut buf = vec![0u8; len];
        segment.file.read_exact(&mut buf)?;
        Ok(Some(buf))
    }

    /// All live entries, in unspecified order; none when the archive
    /// lock is poisoned.
    pub fn entries(&self) -> Vec<EntryInfo> {
        let Ok(inner) = self.state() else {
            return Vec::new();
        };
        inner
            .entries
            .iter()
            .map(|(&id, e)| entry_info(id, e))
            .collect()
    }

    /// Poisons the state lock the way a thread panicking mid-operation
    /// would.
    #[cfg(test)]
    pub(crate) fn poison_for_test(&self) {
        std::thread::scope(|s| {
            let _ = s
                .spawn(|| {
                    let _guard = self.inner.lock();
                    panic!("a writer panicked while holding the archive lock");
                })
                .join();
        });
    }

    /// Live entries under `key`, in unspecified order; none when the
    /// archive lock is poisoned.
    pub fn entries_for_key(&self, key: u64) -> Vec<EntryInfo> {
        let Ok(inner) = self.state() else {
            return Vec::new();
        };
        inner
            .entries
            .iter()
            .filter(|((k, _), _)| *k == key)
            .map(|(&id, e)| entry_info(id, e))
            .collect()
    }

    /// Number of live entries; 0 when the archive lock is poisoned.
    pub fn len(&self) -> usize {
        self.state().map_or(0, |inner| inner.entries.len())
    }

    /// True when the archive holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of sizes and counters. When the archive lock is
    /// poisoned the index-derived sizes read 0 — the archive no longer
    /// serves its index — while the operation counters stay live.
    pub fn stats(&self) -> ArchiveStats {
        let (entries, segments, live_bytes, dead_bytes) = match self.state() {
            Ok(inner) => (
                inner.entries.len() as u64,
                inner.segments.len() as u64,
                inner.live_bytes,
                inner.dead_bytes,
            ),
            Err(_) => (0, 0, 0, 0),
        };
        ArchiveStats {
            entries,
            segments,
            live_bytes,
            dead_bytes,
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            recovered_truncations: self.truncations.load(Ordering::Relaxed),
            retired_keys: self.retired_keys,
        }
    }

    /// Force a compaction regardless of the dead-byte ratio. Fails when
    /// the archive lock is poisoned: rewriting segments from a
    /// half-updated index could drop committed records.
    pub fn compact(&self) -> io::Result<()> {
        let mut inner = self.state()?;
        self.compact_locked(&mut inner)
    }

    /// Rewrite all live records into a fresh segment and swap in a
    /// fresh manifest atomically.
    fn compact_locked(&self, inner: &mut Inner) -> io::Result<()> {
        let new_id = inner.current + 1;
        let new_path = segment_path(&self.dir, new_id);
        let mut new_file = File::options()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&new_path)?;

        // Deterministic order keeps the rewrite reproducible.
        let mut ids: Vec<(u64, u64)> = inner.entries.keys().copied().collect();
        ids.sort_unstable();
        let mut new_entries: HashMap<(u64, u64), Entry> = HashMap::with_capacity(ids.len());
        let mut new_len = 0u64;
        for id in ids.iter() {
            let old = inner.entries[id];
            let segment = inner
                .segments
                .get_mut(&old.segment)
                .expect("live entry references live segment");
            let blob = read_record_at(&mut segment.file, old.offset, old.record_len)?;
            let record_len = append_record(&mut new_file, new_len, &blob, false)?;
            new_entries.insert(
                *id,
                Entry {
                    flags: old.flags,
                    segment: new_id,
                    offset: new_len,
                    record_len,
                },
            );
            new_len += record_len;
        }
        new_file.sync_data()?;

        // Fresh manifest, staged then renamed over the live one.
        let manifest_len = replace_manifest(
            &self.dir,
            ids.iter()
                .map(|id| encode_add(id.0, id.1, &new_entries[id])),
        )?;

        // Swap in-memory state and drop the old segment files.
        let old_segments = std::mem::take(&mut inner.segments);
        for (_, segment) in old_segments {
            drop(segment.file);
            fs::remove_file(&segment.path)?;
        }
        sync_dir(&self.dir)?;
        inner.segments.insert(
            new_id,
            Segment {
                file: new_file,
                path: new_path,
                len: new_len,
            },
        );
        inner.current = new_id;
        inner.entries = new_entries;
        inner.live_bytes = new_len;
        inner.dead_bytes = 0;
        inner.manifest = File::options()
            .read(true)
            .write(true)
            .open(self.dir.join(MANIFEST))?;
        inner.manifest_len = manifest_len;
        self.compactions.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn entry_info((key, fingerprint): (u64, u64), e: &Entry) -> EntryInfo {
    EntryInfo {
        key,
        fingerprint,
        flags: e.flags,
        blob_len: e.record_len - RECORD_HEADER_LEN,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("power-archive-engine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn blob(i: u64, len: usize) -> Vec<u8> {
        (0..len).map(|j| ((i as usize + j) % 251) as u8).collect()
    }

    #[test]
    fn put_get_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let archive = Archive::open(&dir).unwrap();
            for i in 0..20u64 {
                archive
                    .put(i, i * 7, 0, &blob(i, 100 + i as usize))
                    .unwrap();
            }
            assert_eq!(archive.len(), 20);
        }
        let archive = Archive::open(&dir).unwrap();
        assert_eq!(archive.len(), 20);
        assert_eq!(archive.stats().recovered_truncations, 0);
        for i in 0..20u64 {
            assert_eq!(
                archive.get(i, i * 7).unwrap().unwrap(),
                blob(i, 100 + i as usize)
            );
        }
        assert_eq!(archive.get(99, 99).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_segment_and_manifest_tails_truncate() {
        let dir = tmpdir("torn");
        {
            let archive = Archive::open(&dir).unwrap();
            for i in 0..5u64 {
                archive.put(i, 0, 0, &blob(i, 64)).unwrap();
            }
        }
        // Garbage on both tails, as an interrupted put would leave.
        use std::io::Write;
        let mut seg = File::options()
            .append(true)
            .open(segment_path(&dir, 0))
            .unwrap();
        seg.write_all(b"PAR1\x10\x00\x00\x00torn").unwrap();
        let mut man = File::options()
            .append(true)
            .open(dir.join(MANIFEST))
            .unwrap();
        man.write_all(&[0xAB; 7]).unwrap();
        drop((seg, man));

        let archive = Archive::open(&dir).unwrap();
        assert_eq!(archive.len(), 5);
        assert_eq!(archive.stats().recovered_truncations, 2);
        for i in 0..5u64 {
            assert_eq!(archive.get(i, 0).unwrap().unwrap(), blob(i, 64));
        }
        // The archive keeps working after recovery.
        archive.put(100, 0, 0, &blob(100, 64)).unwrap();
        drop(archive);
        let archive = Archive::open(&dir).unwrap();
        assert_eq!(archive.len(), 6);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_committed_record_fails_open() {
        let dir = tmpdir("rot");
        {
            let archive = Archive::open(&dir).unwrap();
            archive.put(1, 1, 0, &blob(1, 256)).unwrap();
            archive.put(2, 2, 0, &blob(2, 256)).unwrap();
        }
        // Flip a byte inside the first committed record's payload.
        let path = segment_path(&dir, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = Archive::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_roll_and_compaction_drop_superseded() {
        let dir = tmpdir("compact");
        let config = ArchiveConfig {
            segment_max_bytes: 4096,
            compact_dead_ratio: 0.5,
            compact_min_bytes: 4096,
            fsync: false,
        };
        let archive = Archive::open_with(&dir, config).unwrap();
        // Write the same keys over and over: almost everything dies.
        for round in 0..10u64 {
            for key in 0..8u64 {
                archive
                    .put(key, 42, 0, &blob(round * 8 + key, 512))
                    .unwrap();
            }
        }
        let stats = archive.stats();
        assert_eq!(stats.entries, 8);
        assert!(stats.compactions >= 1, "{stats:?}");
        assert!(
            stats.dead_bytes < stats.live_bytes,
            "compaction should keep dead bytes bounded: {stats:?}"
        );
        for key in 0..8u64 {
            assert_eq!(
                archive.get(key, 42).unwrap().unwrap(),
                blob(9 * 8 + key, 512)
            );
        }
        // Old segments are actually gone from disk.
        let seg_count = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                parse_segment_id(e.as_ref().unwrap().file_name().to_str().unwrap()).is_some()
            })
            .count();
        assert_eq!(seg_count as u64, archive.stats().segments);

        // And the compacted store reopens clean.
        drop(archive);
        let archive = Archive::open_with(&dir, config).unwrap();
        assert_eq!(archive.len(), 8);
        for key in 0..8u64 {
            assert_eq!(
                archive.get(key, 42).unwrap().unwrap(),
                blob(9 * 8 + key, 512)
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreferenced_segment_is_deleted_on_open() {
        let dir = tmpdir("leftover");
        {
            let archive = Archive::open(&dir).unwrap();
            archive.put(1, 1, 0, &blob(1, 64)).unwrap();
        }
        // A segment written by a crashed compaction, never committed.
        fs::write(segment_path(&dir, 7), b"leftover bytes").unwrap();
        fs::write(dir.join(MANIFEST_TMP), b"half a manifest").unwrap();
        let archive = Archive::open(&dir).unwrap();
        assert_eq!(archive.len(), 1);
        assert!(!segment_path(&dir, 7).exists());
        assert!(!dir.join(MANIFEST_TMP).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_of_another_key_epoch_is_retired_at_open() {
        // Headers earlier builds wrote: manifest version 1 (no epoch),
        // and the current version under the previous key epoch.
        let v1 = [&[OP_HEADER][..], &1u32.to_le_bytes()].concat();
        let stale_epoch = [
            &[OP_HEADER][..],
            &MANIFEST_VERSION.to_le_bytes(),
            &(SIMULATION_KEY_EPOCH - 1).to_le_bytes(),
        ]
        .concat();
        for (tag, old_header) in [("retire-v1", v1), ("retire-epoch", stale_epoch)] {
            let dir = tmpdir(tag);
            {
                let archive = Archive::open(&dir).unwrap();
                for i in 0..6u64 {
                    archive.put(i % 4, i, 0, &blob(i, 128)).unwrap();
                }
            }
            // Rewrite the manifest under the old header; leave a staged
            // manifest behind, as a retirement that crashed before its
            // rename would.
            let path = dir.join(MANIFEST);
            let ops = scan_records(&path).unwrap().records;
            let mut file = File::create(&path).unwrap();
            let mut len = append_record(&mut file, 0, &old_header, false).unwrap();
            for (_, op) in &ops[1..] {
                len += append_record(&mut file, len, op, false).unwrap();
            }
            drop(file);
            fs::write(dir.join(MANIFEST_TMP), b"staged").unwrap();

            let archive = Archive::open(&dir).unwrap();
            let stats = archive.stats();
            assert_eq!((stats.entries, stats.retired_keys), (0, 4), "{tag}");
            assert_eq!(archive.get(0, 0).unwrap(), None);
            let payloads: Vec<Vec<u8>> = scan_records(&path)
                .unwrap()
                .records
                .into_iter()
                .map(|(_, p)| p)
                .collect();
            assert_eq!(payloads, vec![encode_header()]);
            assert!(!dir.join(MANIFEST_TMP).exists());
            // The old segment is gone; a fresh empty one takes writes.
            let mut names: Vec<String> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            assert_eq!(names, [MANIFEST, "seg-00000000.seg"]);
            assert_eq!(fs::metadata(segment_path(&dir, 0)).unwrap().len(), 0);
            archive.put(9, 9, 0, &blob(9, 64)).unwrap();
            drop(archive);
            let archive = Archive::open(&dir).unwrap();
            assert_eq!((archive.len(), archive.stats().retired_keys), (1, 0));
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn positioned_reads_match_get_and_track_relocation() {
        let dir = tmpdir("ranges");
        let archive = Archive::open(&dir).unwrap();
        let payload = blob(3, 300);
        archive.put(9, 1, 0, &payload).unwrap();

        // Arbitrary interior range matches the slice of a full get.
        let range = archive.read_payload_range(9, 1, 50, 120).unwrap().unwrap();
        assert_eq!(range, payload[50..170]);
        // Whole payload, empty range, and the very last byte all work.
        assert_eq!(
            archive.read_payload_range(9, 1, 0, 300).unwrap().unwrap(),
            payload
        );
        assert_eq!(
            archive.read_payload_range(9, 1, 299, 1).unwrap().unwrap(),
            payload[299..]
        );
        assert!(archive.read_payload_range(9, 1, 300, 0).unwrap().is_some());
        // Out-of-bounds is an error, missing entry is None.
        assert!(archive.read_payload_range(9, 1, 300, 1).is_err());
        assert!(archive.read_payload_range(9, 1, 0, 301).is_err());
        assert!(archive.read_payload_range(9, 2, 0, 1).unwrap().is_none());

        // The location triple moves when compaction rewrites, and the
        // positioned read keeps resolving through the new location.
        let before = archive.entry_location(9, 1).unwrap();
        archive.put(10, 1, 0, &blob(4, 64)).unwrap();
        archive.compact().unwrap();
        let after = archive.entry_location(9, 1).unwrap();
        assert_ne!(before.0, after.0, "compaction rolls to a new segment");
        assert_eq!(
            archive.read_payload_range(9, 1, 50, 120).unwrap().unwrap(),
            payload[50..170]
        );
        assert!(archive.entry_location(9, 99).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flags_and_entry_listing() {
        let dir = tmpdir("flags");
        let archive = Archive::open(&dir).unwrap();
        archive.put(5, 10, FLAG_FULL_SWEEP, &blob(0, 32)).unwrap();
        archive.put(5, 11, 0, &blob(1, 48)).unwrap();
        archive.put(6, 12, 0, &blob(2, 16)).unwrap();
        let mut under_5 = archive.entries_for_key(5);
        under_5.sort_by_key(|e| e.fingerprint);
        assert_eq!(under_5.len(), 2);
        assert_eq!(under_5[0].flags, FLAG_FULL_SWEEP);
        assert_eq!(under_5[0].blob_len, 32);
        assert_eq!(under_5[1].flags, 0);
        assert_eq!(archive.entries().len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_lock_fails_queries_instead_of_panicking() {
        let dir = tmpdir("poison");
        let archive = Archive::open(&dir).unwrap();
        archive.put(3, 4, 0, &blob(3, 64)).unwrap();
        archive.poison_for_test();
        // Every call on the window-query path reports the poisoned lock
        // as a failure; none of them panics.
        assert!(archive.get(3, 4).is_err());
        assert!(archive.read_payload_range(3, 4, 0, 8).is_err());
        assert_eq!(archive.entry_location(3, 4), None);
        assert!(archive.entries_for_key(3).is_empty());
        assert!(archive.put(5, 6, 0, &blob(5, 64)).is_err());
        drop(archive);
        // The committed entry is intact for the next process.
        let reopened = Archive::open(&dir).unwrap();
        assert_eq!(reopened.get(3, 4).unwrap().unwrap(), blob(3, 64));
        assert_eq!(reopened.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn poisoned_lock_fails_listings_stats_and_compaction_without_panicking() {
        let dir = tmpdir("poison_admin");
        let archive = Archive::open(&dir).unwrap();
        archive.put(3, 4, 0, &blob(3, 64)).unwrap();
        archive.get(3, 4).unwrap().unwrap();
        assert_eq!(archive.entries().len(), 1);
        archive.poison_for_test();
        assert!(archive.entries().is_empty());
        assert_eq!(archive.len(), 0);
        assert!(archive.is_empty());
        let stats = archive.stats();
        assert_eq!(
            (
                stats.entries,
                stats.segments,
                stats.live_bytes,
                stats.dead_bytes
            ),
            (0, 0, 0, 0)
        );
        assert_eq!((stats.reads, stats.writes), (1, 1), "counters stay live");
        assert!(archive.compact().is_err());
        assert_eq!(archive.stats().compactions, 0);
        drop(archive);
        // The committed entry is intact for the next process.
        let reopened = Archive::open(&dir).unwrap();
        assert_eq!(reopened.get(3, 4).unwrap().unwrap(), blob(3, 64));
        assert_eq!(reopened.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
