//! Campaign write-ahead log: one durable file for many campaigns.
//!
//! [`FleetWal`] is the file-backed [`FleetJournal`]: one append-only
//! log whose records are tagged by campaign id, written by the one
//! campaign runtime (`power_telemetry::runtime`). A fleet multiplexes
//! thousands of campaigns onto it; a live campaign
//! (`power_telemetry::live`) is recorded in its own file as a fleet of
//! one, campaign 0. Reopening the file truncates any torn tail and
//! replays the durable prefix into the per-campaign state needed to
//! resume every in-flight campaign at its watermark.
//!
//! Record payloads (all little-endian, framed by `crate::record`):
//!
//! ```text
//! Created  op=1 | id u64 | fingerprint u64 | creation payload (non-empty)
//! Node     op=2 | id u64 | node u64        | average f64 bits
//! Finished op=3 | id u64
//! Deleted  op=4 | id u64
//! ```
//!
//! Fsync policy: `Created` and `Deleted` are always fsynced — their loss
//! would change which campaigns exist. `Node` and `Finished` appends are
//! fsynced only by [`FleetJournal::sync`], which a live campaign calls
//! after every node and the fleet never calls: losing a node record only
//! rewinds a watermark, and re-metering reproduces it (node averages are
//! deterministic), so the fleet's per-node append stays at memory speed.

use crate::record::{append_record, parent_dir, scan_records, sync_dir, truncate_to};
use power_telemetry::journal::{CampaignReplay, FleetJournal, MemJournal};
use power_telemetry::TelemetryError;
use std::collections::BTreeMap;
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};

const OP_CREATED: u8 = 1;
const OP_NODE: u8 = 2;
const OP_FINISHED: u8 = 3;
const OP_DELETED: u8 = 4;

/// A file-backed multiplexed [`FleetJournal`] with torn-tail recovery:
/// a [`MemJournal`] holding the durable state, plus the log it is
/// rebuilt from.
#[derive(Debug)]
pub struct FleetWal {
    path: PathBuf,
    file: File,
    offset: u64,
    state: MemJournal,
    recovered_truncation: bool,
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn journal_err(e: io::Error) -> TelemetryError {
    TelemetryError::Journal(format!("fleet wal: {e}"))
}

/// A record payload `op | id | a | b`, little-endian; Created keeps the
/// first 17 bytes, Finished and Deleted the first 9.
fn frame(op: u8, id: u64, a: u64, b: u64) -> [u8; 25] {
    let mut payload = [0u8; 25];
    payload[0] = op;
    payload[1..9].copy_from_slice(&id.to_le_bytes());
    payload[9..17].copy_from_slice(&a.to_le_bytes());
    payload[17..25].copy_from_slice(&b.to_le_bytes());
    payload
}

impl FleetWal {
    /// Opens (or creates) the log at `path`, truncating any torn tail
    /// left by an interrupted append and replaying the durable prefix
    /// into memory. A durable prefix that is not a well-formed log —
    /// CRC-valid records with an unknown op or an impossible sequence —
    /// is someone else's file, not a torn write: `open` fails with
    /// `InvalidData` and leaves it untouched.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let scan = scan_records(&path)?;
        let mut state = MemJournal::default();
        for (_, payload) in &scan.records {
            let field = |lo: usize| u64::from_le_bytes(payload[lo..lo + 8].try_into().expect("8"));
            let applied = match (payload.first(), payload.len()) {
                // 1 + id + fingerprint + a non-empty payload. A 17-byte
                // op=1 record is the Start of the retired single-campaign
                // log — reject the foreign file instead of replaying an
                // empty payload.
                (Some(&OP_CREATED), len) if len < 18 => {
                    return Err(corrupt("fleet wal Created record too short"))
                }
                (Some(&OP_CREATED), _) => state.record_created(field(1), field(9), &payload[17..]),
                (Some(&OP_NODE), 25) => {
                    let avg = f64::from_bits(field(17));
                    if !avg.is_finite() {
                        return Err(corrupt("fleet wal Node average not finite"));
                    }
                    state.record_node(field(1), field(9), avg)
                }
                (Some(&OP_FINISHED), 9) => state.record_finished(field(1)),
                (Some(&OP_DELETED), 9) => state.record_deleted(field(1)),
                (Some(&(OP_NODE | OP_FINISHED | OP_DELETED)), _) => {
                    return Err(corrupt("fleet wal record wrong length"))
                }
                _ => return Err(corrupt("unknown fleet wal record op")),
            };
            applied.map_err(|e| corrupt(&format!("fleet wal record out of sequence: {e}")))?;
        }
        // Only a well-formed log loses its torn tail.
        if scan.torn {
            truncate_to(&path, scan.valid_len)?;
        }
        let file = File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)?;
        sync_dir(parent_dir(&path))?;
        Ok(FleetWal {
            offset: scan.valid_len,
            file,
            path,
            state,
            recovered_truncation: scan.torn,
        })
    }

    /// Path of the backing log file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True when opening truncated a torn tail from a previous crash.
    pub fn recovered_truncation(&self) -> bool {
        self.recovered_truncation
    }

    /// Bytes of durable log.
    pub fn len_bytes(&self) -> u64 {
        self.offset
    }

    fn append(&mut self, payload: &[u8], fsync: bool) -> power_telemetry::Result<()> {
        let len =
            append_record(&mut self.file, self.offset, payload, fsync).map_err(journal_err)?;
        self.offset += len;
        Ok(())
    }
}

/// Each record is applied to the in-memory state first, which refuses
/// the ones that would not replay (a duplicate Created, a record for an
/// unknown campaign), so the log never holds a record it cannot reopen.
impl FleetJournal for FleetWal {
    fn replay(&mut self) -> power_telemetry::Result<BTreeMap<u64, CampaignReplay>> {
        self.state.replay()
    }

    fn record_created(
        &mut self,
        id: u64,
        fingerprint: u64,
        spec: &[u8],
    ) -> power_telemetry::Result<()> {
        if spec.is_empty() {
            return Err(TelemetryError::Journal(
                "refusing to record empty spec".into(),
            ));
        }
        self.state.record_created(id, fingerprint, spec)?;
        let payload = [&frame(OP_CREATED, id, fingerprint, 0)[..17], spec].concat();
        self.append(&payload, true)
    }

    fn record_node(&mut self, id: u64, node: u64, average: f64) -> power_telemetry::Result<()> {
        self.state.record_node(id, node, average)?;
        self.append(&frame(OP_NODE, id, node, average.to_bits()), false)
    }

    fn record_finished(&mut self, id: u64) -> power_telemetry::Result<()> {
        self.state.record_finished(id)?;
        self.append(&frame(OP_FINISHED, id, 0, 0)[..9], false)
    }

    fn record_deleted(&mut self, id: u64) -> power_telemetry::Result<()> {
        self.state.record_deleted(id)?;
        self.append(&frame(OP_DELETED, id, 0, 0)[..9], true)
    }

    fn sync(&mut self) -> power_telemetry::Result<()> {
        self.file.sync_data().map_err(journal_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_fleet::{Fleet, FleetCampaignSpec, FleetConfig, FleetError};
    use power_sim::{Cluster, SimulationConfig, Simulator, SystemPreset};
    use power_telemetry::{
        run_live_campaign_journaled, LiveCampaignConfig, LiveCampaignReport, LIVE_CAMPAIGN_ID,
    };
    use power_workload::{Firestarter, LoadBalance, RunPhases};
    use std::io::{Seek, SeekFrom, Write};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("power-archive-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec_bytes(name: &str, seed: u64) -> (Vec<u8>, u64) {
        let spec = FleetCampaignSpec {
            name: name.to_string(),
            seed,
            ..FleetCampaignSpec::default()
        };
        (spec.encode(), spec.fingerprint())
    }

    #[test]
    fn reopen_replays_multiplexed_campaigns() {
        let dir = tmpdir("reopen");
        let path = dir.join("fleet.wal");
        {
            let mut wal = FleetWal::open(&path).unwrap();
            for id in 0..3u64 {
                let (spec, fp) = spec_bytes(&format!("m-{id}"), id);
                wal.record_created(id, fp, &spec).unwrap();
            }
            // Interleaved node records across campaigns.
            for node in 0..4u64 {
                for id in 0..3u64 {
                    wal.record_node(id, node, 100.0 * (id + 1) as f64 + node as f64)
                        .unwrap();
                }
            }
            wal.record_finished(1).unwrap();
            wal.record_deleted(2).unwrap();
        }
        let mut wal = FleetWal::open(&path).unwrap();
        assert!(!wal.recovered_truncation());
        let replay = wal.replay().unwrap();
        assert_eq!(replay.len(), 2);
        assert!(!replay[&0].finished);
        assert!(replay[&1].finished);
        assert!(!replay.contains_key(&2));
        for id in 0..2u64 {
            let c = &replay[&id];
            let (spec, fp) = spec_bytes(&format!("m-{id}"), id);
            assert_eq!(c.spec, spec);
            assert_eq!(c.fingerprint, fp);
            assert_eq!(c.nodes.len(), 4);
            for (i, &(node, avg)) in c.nodes.iter().enumerate() {
                assert_eq!(node, i as u64);
                assert_eq!(avg, 100.0 * (id + 1) as f64 + i as f64);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmpdir("torn");
        let path = dir.join("fleet.wal");
        let durable_nodes;
        {
            let mut wal = FleetWal::open(&path).unwrap();
            let (spec, fp) = spec_bytes("torn", 7);
            wal.record_created(0, fp, &spec).unwrap();
            for node in 0..5u64 {
                wal.record_node(0, node, 200.0 + node as f64).unwrap();
            }
            durable_nodes = 5;
            // Simulate a torn append: garbage past the valid stream.
            let end = wal.len_bytes();
            wal.file.seek(SeekFrom::Start(end)).unwrap();
            wal.file.write_all(b"PAR1\x99\x00").unwrap();
            wal.file.sync_data().unwrap();
        }
        let mut wal = FleetWal::open(&path).unwrap();
        assert!(wal.recovered_truncation());
        let replay = wal.replay().unwrap();
        assert_eq!(replay[&0].nodes.len(), durable_nodes);
        // The log keeps accepting appends after recovery.
        wal.record_node(0, 5, 205.0).unwrap();
        drop(wal);
        let mut wal = FleetWal::open(&path).unwrap();
        assert!(!wal.recovered_truncation());
        assert_eq!(wal.replay().unwrap()[&0].nodes.len(), durable_nodes + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_files_are_rejected() {
        let dir = tmpdir("foreign");
        let write_records = |path: &Path, payloads: &[&[u8]]| {
            let mut file = File::create(path).unwrap();
            let mut offset = 0;
            for payload in payloads {
                offset += append_record(&mut file, offset, payload, false).unwrap();
            }
        };
        let refused_untouched = |path: &Path| {
            let before = std::fs::read(path).unwrap();
            let err = FleetWal::open(path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(std::fs::read(path).unwrap(), before);
        };

        // A log of the retired single-campaign format: a 17-byte op=1
        // Start (fingerprint 0xDEAD, population 64) parses as a Created
        // record with an empty payload and must be refused, as must the
        // 17-byte op=2 NodeDone (node 0, average 100 W) behind it.
        let single = dir.join("single.wal");
        let start = frame(OP_CREATED, 0xDEAD, 64, 0);
        let node = frame(OP_NODE, 0, 100f64.to_bits(), 0);
        write_records(&single, &[&start[..17], &node[..17]]);
        refused_untouched(&single);

        // CRC-valid garbage with an unknown op byte — refused untouched
        // even behind a torn tail.
        let garbage = dir.join("garbage.wal");
        write_records(&garbage, &[&[0x7F, 1, 2, 3]]);
        File::options()
            .append(true)
            .open(&garbage)
            .unwrap()
            .write_all(b"PAR1\x99")
            .unwrap();
        refused_untouched(&garbage);

        // Node record for a campaign that was never created.
        let orphan = dir.join("orphan.wal");
        write_records(&orphan, &[&frame(OP_NODE, 0, 0, 0)]);
        refused_untouched(&orphan);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ids_can_be_reused_after_deletion() {
        let dir = tmpdir("reuse");
        let path = dir.join("fleet.wal");
        {
            let mut wal = FleetWal::open(&path).unwrap();
            let (spec_a, fp_a) = spec_bytes("first", 1);
            wal.record_created(7, fp_a, &spec_a).unwrap();
            wal.record_node(7, 0, 111.0).unwrap();
            wal.record_deleted(7).unwrap();
            let (spec_b, fp_b) = spec_bytes("second", 2);
            wal.record_created(7, fp_b, &spec_b).unwrap();
            wal.record_node(7, 0, 222.0).unwrap();
        }
        let mut wal = FleetWal::open(&path).unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.len(), 1);
        assert_eq!(replay[&7].fingerprint, spec_bytes("second", 2).1);
        assert_eq!(replay[&7].nodes, vec![(0, 222.0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Runs the small L-CSC live campaign used by the resume tests
    /// (24 nodes, a 12-node budget the unreachable λ meters in full).
    fn run_live(journal: &mut FleetWal) -> power_telemetry::Result<LiveCampaignReport> {
        let preset = SystemPreset::trace_presets()
            .into_iter()
            .find(|p| p.name == "L-CSC")
            .expect("L-CSC trace preset exists")
            .with_total_nodes(24);
        let cluster = Cluster::build(preset.cluster_spec).unwrap();
        let wl = Firestarter::new(RunPhases::new(30.0, 300.0, 30.0).unwrap());
        let mut sim_cfg = SimulationConfig::one_hertz(17);
        sim_cfg.dt = 5.0;
        let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, sim_cfg).unwrap();
        let cfg = LiveCampaignConfig {
            lambda: 1e-6,
            max_nodes: 12,
            ..LiveCampaignConfig::table5(0.02, 0.03, power_meter::MeterModel::ideal())
        };
        run_live_campaign_journaled(&sim, &cfg, journal)
    }

    /// The acceptance property: a live campaign interrupted after `k`
    /// nodes and resumed from its log reports exactly what an
    /// uninterrupted run reports, and leaves identical node records.
    #[test]
    fn resumed_campaign_matches_uninterrupted() {
        let dir = tmpdir("resume");
        let full_path = dir.join("full.wal");
        let mut full_wal = FleetWal::open(&full_path).unwrap();
        let baseline = run_live(&mut full_wal).unwrap();
        assert_eq!(baseline.resumed_nodes, 0);
        assert_eq!(baseline.metered_nodes, 12);

        // Cut a copy after Created and the first k Node records — the
        // on-disk state after a crash k nodes in.
        let k = 5;
        let cut_path = dir.join("cut.wal");
        std::fs::copy(&full_path, &cut_path).unwrap();
        truncate_to(
            &cut_path,
            scan_records(&full_path).unwrap().records[1 + k].0,
        )
        .unwrap();

        let mut cut_wal = FleetWal::open(&cut_path).unwrap();
        assert_eq!(cut_wal.replay().unwrap()[&LIVE_CAMPAIGN_ID].nodes.len(), k);
        let resumed = run_live(&mut cut_wal).unwrap();
        assert_eq!(resumed.resumed_nodes, k as u64);
        assert_eq!(resumed.metered_nodes, baseline.metered_nodes);
        assert_eq!(resumed.stopped_at, baseline.stopped_at);
        assert_eq!(resumed.mean_node_w, baseline.mean_node_w);
        assert_eq!(resumed.relative_accuracy, baseline.relative_accuracy);
        // Both logs now hold identical records, read back from disk.
        drop((full_wal, cut_wal));
        let full = FleetWal::open(&full_path).unwrap().replay().unwrap();
        let cut = FleetWal::open(&cut_path).unwrap().replay().unwrap();
        assert_eq!(cut, full);
        assert_eq!(full[&LIVE_CAMPAIGN_ID].nodes.len(), 12);
        assert!(full[&LIVE_CAMPAIGN_ID].finished);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A live campaign and a fleet never share a log: each refuses the
    /// other's, and the refused log is left as it was.
    #[test]
    fn live_and_fleet_logs_refuse_each_other() {
        let dir = tmpdir("cross");
        let fleet_path = dir.join("fleet.wal");
        let mut wal = FleetWal::open(&fleet_path).unwrap();
        let (spec, fp) = spec_bytes("fleet", 3);
        wal.record_created(5, fp, &spec).unwrap();
        wal.record_node(5, 0, 300.0).unwrap();
        let before = std::fs::read(&fleet_path).unwrap();
        let err = run_live(&mut wal).unwrap_err();
        assert!(matches!(err, TelemetryError::Journal(_)), "{err}");
        drop(wal);
        assert_eq!(std::fs::read(&fleet_path).unwrap(), before);

        let live_path = dir.join("live_campaign.wal");
        run_live(&mut FleetWal::open(&live_path).unwrap()).unwrap();
        let live_log = Box::new(FleetWal::open(&live_path).unwrap());
        let err = Fleet::open(FleetConfig::default(), live_log).unwrap_err();
        assert!(
            matches!(&err, FleetError::Journal(what) if what.starts_with("campaign 0: spec decode")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
