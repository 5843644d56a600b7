//! Append-only record framing shared by segment files, the manifest,
//! and campaign WALs.
//!
//! Every record is `magic(4) | payload_len(u32 LE) | crc32(u32 LE) |
//! payload`. A file of records is valid up to the first frame that is
//! short, has the wrong magic, or fails its checksum; everything after
//! that point is a torn tail from an interrupted write and is truncated
//! on recovery.

use crate::codec::crc32;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

const RECORD_MAGIC: [u8; 4] = *b"PAR1";
/// Bytes of framing added to every payload.
pub const RECORD_HEADER_LEN: u64 = 12;
/// Sanity cap on a single record payload (1 GiB). A length field above
/// this is treated as corruption, not an allocation request.
const MAX_PAYLOAD: u32 = 1 << 30;

/// Append one framed record at `offset` (the caller's tracked end of
/// file), optionally fsyncing. Returns the framed record length.
pub fn append_record(file: &mut File, offset: u64, payload: &[u8], fsync: bool) -> io::Result<u64> {
    assert!(payload.len() <= MAX_PAYLOAD as usize, "record too large");
    let mut frame = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
    frame.extend_from_slice(&RECORD_MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    file.seek(SeekFrom::Start(offset))?;
    file.write_all(&frame)?;
    if fsync {
        file.sync_data()?;
    }
    Ok(frame.len() as u64)
}

/// Read and verify the framed record at `offset`, whose total framed
/// length is `len`. Checksum or framing failures are `InvalidData`.
pub fn read_record_at(file: &mut File, offset: u64, len: u64) -> io::Result<Vec<u8>> {
    let corrupt = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if len < RECORD_HEADER_LEN {
        return Err(corrupt("record shorter than its framing"));
    }
    file.seek(SeekFrom::Start(offset))?;
    let mut frame = vec![0u8; len as usize];
    file.read_exact(&mut frame)?;
    if frame[0..4] != RECORD_MAGIC {
        return Err(corrupt("bad record magic"));
    }
    let payload_len = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes")) as u64;
    if payload_len != len - RECORD_HEADER_LEN {
        return Err(corrupt("record length mismatch"));
    }
    let crc = u32::from_le_bytes(frame[8..12].try_into().expect("4 bytes"));
    let payload = frame.split_off(RECORD_HEADER_LEN as usize);
    if crc32(&payload) != crc {
        return Err(corrupt("record checksum mismatch"));
    }
    Ok(payload)
}

/// Result of scanning a record file from the start.
pub struct RecordScan {
    /// `(offset, payload)` of every valid record, in file order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// File length up to which the record stream is valid.
    pub valid_len: u64,
    /// True when bytes past `valid_len` existed (a torn tail).
    pub torn: bool,
}

/// Scan `path` from the beginning, collecting every intact record and
/// the offset at which the valid stream ends. A missing file scans as
/// empty. Never fails on corruption — corruption ends the scan.
pub fn scan_records(path: &Path) -> io::Result<RecordScan> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining < RECORD_HEADER_LEN as usize {
            break;
        }
        if bytes[pos..pos + 4] != RECORD_MAGIC {
            break;
        }
        let payload_len = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if payload_len > MAX_PAYLOAD {
            break;
        }
        let total = RECORD_HEADER_LEN as usize + payload_len as usize;
        if remaining < total {
            break;
        }
        let crc = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes"));
        let payload = &bytes[pos + 12..pos + total];
        if crc32(payload) != crc {
            break;
        }
        records.push((pos as u64, payload.to_vec()));
        pos += total;
    }
    Ok(RecordScan {
        records,
        valid_len: pos as u64,
        torn: pos < bytes.len(),
    })
}

/// Truncate `path` to `valid_len` bytes and fsync it.
pub fn truncate_to(path: &Path, valid_len: u64) -> io::Result<()> {
    let file = File::options().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()?;
    Ok(())
}

/// The directory whose fsync makes the creation of `path` durable: its
/// parent, or `.` for a bare file name (whose parent is the empty path,
/// which cannot be opened).
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    }
}

/// Fsync the directory itself so file creations/renames are durable.
/// No-op on platforms where directories cannot be opened as files.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    {
        let _ = dir;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("power-archive-record-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn append_scan_roundtrip_and_torn_tail() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("records.log");
        let mut file = File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut offset = 0u64;
        for i in 0u8..5 {
            let payload = vec![i; 10 + i as usize];
            offset += append_record(&mut file, offset, &payload, false).unwrap();
        }
        // Simulate a torn append: half a record of garbage at the tail.
        file.seek(SeekFrom::Start(offset)).unwrap();
        file.write_all(b"PAR1\xFF\xFF").unwrap();
        file.sync_data().unwrap();

        let scan = scan_records(&path).unwrap();
        assert_eq!(scan.records.len(), 5);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, offset);
        for (i, (_, payload)) in scan.records.iter().enumerate() {
            assert_eq!(payload, &vec![i as u8; 10 + i]);
        }
        truncate_to(&path, scan.valid_len).unwrap();
        let rescan = scan_records(&path).unwrap();
        assert_eq!(rescan.records.len(), 5);
        assert!(!rescan.torn);

        // Random access with verification.
        let (off3, payload3) = &scan.records[3];
        let read =
            read_record_at(&mut file, *off3, RECORD_HEADER_LEN + payload3.len() as u64).unwrap();
        assert_eq!(&read, payload3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bare_file_names_sync_the_current_directory() {
        assert_eq!(parent_dir(Path::new("fleet.wal")), Path::new("."));
        assert_eq!(parent_dir(Path::new("store/fleet.wal")), Path::new("store"));
        assert_eq!(parent_dir(Path::new("/tmp/fleet.wal")), Path::new("/tmp"));
        sync_dir(parent_dir(Path::new("fleet.wal"))).unwrap();
        // The empty parent itself cannot be opened.
        assert_eq!(sync_dir(Path::new("")).is_err(), cfg!(unix));
    }

    #[test]
    fn scan_missing_file_is_empty() {
        let scan = scan_records(Path::new("/nonexistent/records.log")).unwrap();
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(!scan.torn);
    }

    #[test]
    fn corrupt_interior_record_ends_scan() {
        let dir = tmpdir("corrupt");
        let path = dir.join("records.log");
        let mut file = File::options()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut offset = 0u64;
        let mut offsets = Vec::new();
        for i in 0u8..4 {
            offsets.push(offset);
            offset += append_record(&mut file, offset, &[i; 32], false).unwrap();
        }
        // Flip a payload byte in record 1: scan must stop before it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(offsets[1] + RECORD_HEADER_LEN + 3) as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_records(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn);
        assert_eq!(scan.valid_len, offsets[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
