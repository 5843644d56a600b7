//! Compressed trace-block codec.
//!
//! A *block* holds one run of `(timestamp, watts)` samples from a single
//! series. A block is laid out as:
//!
//! ```text
//! header     60 bytes: magic, version (3), count, quantum, t_first,
//!            t_last, min/max/sum summaries
//! directory  one 32-byte entry per 512-sample chunk, then a CRC32 over
//!            header + entries:
//!              delta offset u32 | chunk CRC32 u32 | first quanta i64 |
//!              exact quanta sum i128
//! timestamps first value in the header, then delta-of-delta zigzag
//!            varints — a regular grid costs one byte per sample
//! chunks     per chunk, first-order power deltas as zigzag varints,
//!            restarting at every chunk (its first value lives in the
//!            directory) — noise around an operating point costs two to
//!            three bytes per sample
//! trailer    CRC32 (IEEE) over everything before it
//! ```
//!
//! The header lets window scans skip whole blocks without touching the
//! body ([`peek_summary`]). The directory lets [`decode_watts_span`]
//! answer a boundary block from the header, the directory and at most
//! two 512-sample chunks: whole chunks contribute their stored integer
//! sums, values at chunk edges come from the stored first values, and
//! only a chunk the span starts or ends inside is fetched, CRC-checked
//! and decoded. The timestamp section and every other chunk stay
//! unread, so a span costs O(chunk), not O(block). [`decode_block`]
//! still verifies the trailing whole-block CRC and decodes everything.
//!
//! Version 3 is the only version read or written: any other version
//! byte is refused with [`CodecError::BadVersion`]. Blocks of earlier
//! versions were only ever filed under archive keys that nothing
//! computes any more, and the archive retires such stores when it opens
//! them (see [`crate::archive`]).
//!
//! # Quantization contract
//!
//! Encoding is lossy exactly once: every input watt value `w` is mapped
//! to `quantize(w, quantum)` and that value round-trips **bit-exactly**
//! through encode→decode, provided `w` is finite and `|w / quantum|`
//! rounds to at most 2^62. `quantize` is idempotent, so re-archiving a
//! decoded block is lossless. Block summaries are computed over the
//! *quantized* values with Neumaier-compensated summation — the same
//! accumulator `power_sim`'s prefix sums use — so a window aggregate
//! assembled from block summaries agrees with the in-memory prefix-sum
//! reference instead of drifting by O(n) rounding. Span sums
//! accumulate integer quanta exactly and dequantize once, so a span is
//! bit-identical to the same range summed over a full decode, whatever
//! chunks it crosses.

use power_sim::trace::Neumaier;
use std::fmt;

/// Default power quantum: 2^-10 W (~1 mW). A power of two, so scaling
/// by it is exact in binary floating point.
pub const DEFAULT_QUANTUM: f64 = 1.0 / 1024.0;

/// Largest quantized magnitude the codec accepts (inclusive): 2^62.
pub const MAX_QUANTA: i128 = 1 << 62;

const MAGIC: [u8; 4] = *b"PABK";
/// The one block version this codec writes and reads.
const VERSION: u8 = 3;
/// Fixed header length in bytes (magic through summaries).
pub const HEADER_LEN: usize = 60;
/// Trailing checksum length in bytes.
pub const TRAILER_LEN: usize = 4;
/// Samples per chunk of a block; the last chunk may be shorter.
pub const CHUNK_SAMPLES: u32 = 512;
/// Bytes per chunk-directory entry: delta offset (u32), chunk CRC32
/// (u32), first quantized value (i64), exact quanta sum (i128).
const DIR_ENTRY_LEN: usize = 32;

/// Errors from encoding or decoding a trace block.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The block does not start with the block magic.
    BadMagic,
    /// The block is not version 3, the only version this codec reads.
    BadVersion(u8),
    /// The byte slice ended before the declared content did.
    Truncated,
    /// The trailing CRC32 does not match the content.
    ChecksumMismatch,
    /// An input watt value was NaN or infinite.
    NonFinite(f64),
    /// An input watt value quantizes outside `±MAX_QUANTA`.
    OutOfRange(f64),
    /// The quantum is not a finite positive number.
    BadQuantum(f64),
    /// A varint ran past 19 bytes or past the buffer.
    BadVarint,
    /// A decoded timestamp does not fit in `i64`.
    BadTimestamp,
    /// Encode was called with no samples or mismatched slice lengths.
    BadShape,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a trace block (bad magic)"),
            CodecError::BadVersion(v) => write!(f, "unsupported block version {v}"),
            CodecError::Truncated => write!(f, "block truncated"),
            CodecError::ChecksumMismatch => write!(f, "block checksum mismatch"),
            CodecError::NonFinite(w) => write!(f, "non-finite watt value {w}"),
            CodecError::OutOfRange(w) => write!(f, "watt value {w} outside quantizable range"),
            CodecError::BadQuantum(q) => write!(f, "quantum {q} is not finite and positive"),
            CodecError::BadVarint => write!(f, "malformed varint"),
            CodecError::BadTimestamp => write!(f, "decoded timestamp overflows i64"),
            CodecError::BadShape => write!(f, "empty or mismatched sample slices"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Per-block summary, readable from the fixed header without decoding
/// the body. `min/max/sum` are over the quantized watt values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockSummary {
    /// Number of samples in the block.
    pub count: u32,
    /// Quantum the watt values were quantized against.
    pub quantum: f64,
    /// First timestamp in the block, microseconds.
    pub t_first_us: i64,
    /// Last timestamp in the block, microseconds.
    pub t_last_us: i64,
    /// Minimum quantized watt value.
    pub min_watts: f64,
    /// Maximum quantized watt value.
    pub max_watts: f64,
    /// Sequential sum of the quantized watt values.
    pub sum_watts: f64,
}

impl BlockSummary {
    /// True when the block's time span intersects `[from_us, to_us]`.
    pub fn overlaps(&self, from_us: i64, to_us: i64) -> bool {
        self.t_first_us <= to_us && self.t_last_us >= from_us
    }
}

/// A fully decoded block: timestamps, quantized watt values, and the
/// summary as stored on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedBlock {
    /// Sample timestamps, microseconds.
    pub timestamps_us: Vec<i64>,
    /// Quantized watt values (`quantize(input, quantum)` of each input).
    pub watts: Vec<f64>,
    /// The summary stored in the block header.
    pub summary: BlockSummary,
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven, std-only.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `tables[0]` is the classic byte-at-a-time
/// table; `tables[t][i]` advances a byte through `t` further zero
/// bytes, so eight input bytes fold in one step. The polynomial (and
/// therefore every stored checksum) is unchanged from the byte-wise
/// version — this is purely a throughput upgrade for scan, recovery,
/// and boundary-block verification on the pruned query path.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ c;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ u32::MAX
}

// ---------------------------------------------------------------------------
// Varints and zigzag.
// ---------------------------------------------------------------------------

pub(crate) fn put_uvarint(buf: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

pub(crate) fn get_uvarint(buf: &[u8], pos: &mut usize) -> Result<u128, CodecError> {
    let mut v: u128 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(CodecError::BadVarint)?;
        *pos += 1;
        if shift >= 128 || (shift == 126 && byte > 0x03) {
            return Err(CodecError::BadVarint);
        }
        v |= u128::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(crate) fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

pub(crate) fn unzigzag(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

pub(crate) fn put_ivarint(buf: &mut Vec<u8>, v: i128) {
    put_uvarint(buf, zigzag(v));
}

pub(crate) fn get_ivarint(buf: &[u8], pos: &mut usize) -> Result<i128, CodecError> {
    Ok(unzigzag(get_uvarint(buf, pos)?))
}

/// One- and two-byte fast paths for the decode hot loops: on a regular
/// sampling grid almost every delta-of-delta is zero (one byte), and
/// noisy power deltas usually fit fourteen bits (two bytes), so the
/// common cases never enter the multi-byte loop and stay in machine-word
/// arithmetic instead of `i128`.
#[inline(always)]
fn get_ivarint_fast(buf: &[u8], pos: &mut usize) -> Result<i128, CodecError> {
    if let Some([b0, b1]) = buf.get(*pos..*pos + 2) {
        let (b0, b1) = (*b0, *b1);
        if b0 < 0x80 {
            *pos += 1;
            let v = u32::from(b0);
            return Ok(i128::from((v >> 1) as i32 ^ -((v & 1) as i32)));
        }
        if b1 < 0x80 {
            *pos += 2;
            let v = u32::from(b0 & 0x7F) | (u32::from(b1) << 7);
            return Ok(i128::from((v >> 1) as i32 ^ -((v & 1) as i32)));
        }
    }
    get_ivarint(buf, pos)
}

// ---------------------------------------------------------------------------
// Fixed-width little-endian helpers.
// ---------------------------------------------------------------------------

pub(crate) fn get_u32(buf: &[u8], pos: &mut usize) -> Result<u32, CodecError> {
    let b: [u8; 4] = buf
        .get(*pos..*pos + 4)
        .ok_or(CodecError::Truncated)?
        .try_into()
        .expect("4-byte slice");
    *pos += 4;
    Ok(u32::from_le_bytes(b))
}

pub(crate) fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let b: [u8; 8] = buf
        .get(*pos..*pos + 8)
        .ok_or(CodecError::Truncated)?
        .try_into()
        .expect("8-byte slice");
    *pos += 8;
    Ok(u64::from_le_bytes(b))
}

pub(crate) fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, CodecError> {
    Ok(f64::from_bits(get_u64(buf, pos)?))
}

pub(crate) fn get_i64(buf: &[u8], pos: &mut usize) -> Result<i64, CodecError> {
    Ok(get_u64(buf, pos)? as i64)
}

// ---------------------------------------------------------------------------
// Quantization.
// ---------------------------------------------------------------------------

fn quantize_to_int(w: f64, quantum: f64) -> Result<i128, CodecError> {
    if !w.is_finite() {
        return Err(CodecError::NonFinite(w));
    }
    let scaled = w / quantum;
    if !scaled.is_finite() {
        return Err(CodecError::OutOfRange(w));
    }
    let rounded = scaled.round();
    if rounded.abs() > MAX_QUANTA as f64 {
        return Err(CodecError::OutOfRange(w));
    }
    Ok(rounded as i128)
}

fn dequantize(q: i128, quantum: f64) -> f64 {
    (q as f64) * quantum
}

/// Map `w` onto the fixed-point grid defined by `quantum`.
///
/// This is exactly the value a decoded block returns for input `w`:
/// `decode(encode([w])) == [quantize(w, quantum)]` bit-for-bit.
/// Idempotent for any encodable input. Callers must pass a finite `w`
/// within the encodable range and a finite positive `quantum`;
/// out-of-domain inputs return an unspecified (but non-UB) value.
pub fn quantize(w: f64, quantum: f64) -> f64 {
    match quantize_to_int(w, quantum) {
        Ok(q) => dequantize(q, quantum),
        Err(_) => f64::NAN,
    }
}

fn check_quantum(quantum: f64) -> Result<(), CodecError> {
    if !quantum.is_finite() || quantum <= 0.0 {
        return Err(CodecError::BadQuantum(quantum));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Block encode / decode.
// ---------------------------------------------------------------------------

/// Chunks in a block of `count` samples.
fn chunk_count(count: u32) -> usize {
    count.div_ceil(CHUNK_SAMPLES) as usize
}

/// Encode one block of samples. `timestamps_us` and `watts` must have
/// equal, non-zero length (at most `u32::MAX` samples).
pub fn encode_block(
    timestamps_us: &[i64],
    watts: &[f64],
    quantum: f64,
) -> Result<Vec<u8>, CodecError> {
    check_quantum(quantum)?;
    if timestamps_us.is_empty()
        || timestamps_us.len() != watts.len()
        || timestamps_us.len() > u32::MAX as usize
    {
        return Err(CodecError::BadShape);
    }

    let mut quanta = Vec::with_capacity(watts.len());
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    // Compensated, not naive: a pruned window query folds these stored
    // sums together in place of decoding, and must land within final-fold
    // rounding of the in-memory compensated prefix sums.
    let mut sum = Neumaier::new();
    for &w in watts {
        let q = quantize_to_int(w, quantum)?;
        let v = dequantize(q, quantum);
        min = min.min(v);
        max = max.max(v);
        sum.add(v);
        quanta.push(q);
    }
    let sum = sum.total();

    let count = timestamps_us.len() as u32;
    let dir_end = HEADER_LEN + chunk_count(count) * DIR_ENTRY_LEN;
    let mut buf = Vec::with_capacity(dir_end + watts.len() * 4 + 2 * TRAILER_LEN);
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.extend_from_slice(&[0u8; 3]); // reserved
    buf.extend_from_slice(&count.to_le_bytes());
    buf.extend_from_slice(&quantum.to_bits().to_le_bytes());
    buf.extend_from_slice(&timestamps_us[0].to_le_bytes());
    buf.extend_from_slice(&timestamps_us[timestamps_us.len() - 1].to_le_bytes());
    buf.extend_from_slice(&min.to_bits().to_le_bytes());
    buf.extend_from_slice(&max.to_bits().to_le_bytes());
    buf.extend_from_slice(&sum.to_bits().to_le_bytes());
    debug_assert_eq!(buf.len(), HEADER_LEN);
    // Directory and its CRC are filled in once the chunks are written.
    buf.resize(dir_end + 4, 0);

    // Timestamps: delta, then delta-of-delta.
    let mut prev_delta: i128 = 0;
    for i in 1..timestamps_us.len() {
        let delta = i128::from(timestamps_us[i]) - i128::from(timestamps_us[i - 1]);
        put_ivarint(&mut buf, delta - prev_delta);
        prev_delta = delta;
    }
    // Power: per chunk, first-order deltas from the chunk's first value.
    for (c, chunk) in quanta.chunks(CHUNK_SAMPLES as usize).enumerate() {
        let off = u32::try_from(buf.len()).map_err(|_| CodecError::BadShape)?;
        for pair in chunk.windows(2) {
            put_ivarint(&mut buf, pair[1] - pair[0]);
        }
        let crc = crc32(&buf[off as usize..]);
        let entry = HEADER_LEN + c * DIR_ENTRY_LEN;
        buf[entry..entry + 4].copy_from_slice(&off.to_le_bytes());
        buf[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
        // |quanta| <= 2^62, so the first value fits i64.
        buf[entry + 8..entry + 16].copy_from_slice(&(chunk[0] as i64).to_le_bytes());
        let chunk_sum: i128 = chunk.iter().sum();
        buf[entry + 16..entry + 32].copy_from_slice(&chunk_sum.to_le_bytes());
    }
    let dir_crc = crc32(&buf[..dir_end]);
    buf[dir_end..dir_end + 4].copy_from_slice(&dir_crc.to_le_bytes());

    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

fn parse_header(bytes: &[u8]) -> Result<BlockSummary, CodecError> {
    if bytes.len() < HEADER_LEN + TRAILER_LEN {
        return Err(CodecError::Truncated);
    }
    if bytes[0..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(CodecError::BadVersion(bytes[4]));
    }
    let mut pos = 8usize;
    let count = get_u32(bytes, &mut pos)?;
    let quantum = get_f64(bytes, &mut pos)?;
    let t_first_us = get_i64(bytes, &mut pos)?;
    let t_last_us = get_i64(bytes, &mut pos)?;
    let min_watts = get_f64(bytes, &mut pos)?;
    let max_watts = get_f64(bytes, &mut pos)?;
    let sum_watts = get_f64(bytes, &mut pos)?;
    if count == 0 {
        return Err(CodecError::BadShape);
    }
    Ok(BlockSummary {
        count,
        quantum,
        t_first_us,
        t_last_us,
        min_watts,
        max_watts,
        sum_watts,
    })
}

/// Read a block's summary from its fixed header without decoding the
/// body. Validates magic, version, and length, but not the checksum —
/// use [`decode_block`] (or the archive's open-time verify) for that.
pub fn peek_summary(bytes: &[u8]) -> Result<BlockSummary, CodecError> {
    parse_header(bytes)
}

/// How many bytes from the front of a block [`decode_watts_span_from`]
/// needs as its `prefix`: the header, the chunk directory and the
/// directory CRC. `header` must hold at least the block's first
/// `HEADER_LEN + TRAILER_LEN` bytes.
pub fn span_prefix_len(header: &[u8]) -> Result<usize, CodecError> {
    let summary = parse_header(header)?;
    Ok(HEADER_LEN + chunk_count(summary.count) * DIR_ENTRY_LEN + 4)
}

/// One chunk of a block, as its directory describes it.
struct Chunk {
    /// The chunk's first quantized value.
    first: i128,
    /// Exact quanta sum over the chunk.
    sum: i128,
    /// Byte range of the chunk's deltas within the block.
    start: usize,
    end: usize,
    /// CRC32 of those bytes.
    crc: u32,
}

/// The verified front of a block: what every span decode reads first.
struct Directory<'a> {
    count: u32,
    quantum: f64,
    /// Start of the bytes after the directory (the timestamp section).
    data_start: usize,
    /// End of the chunk bytes: the block length minus the trailer.
    data_end: usize,
    /// The raw directory entries, covered by the directory CRC.
    entries: &'a [u8],
}

impl<'a> Directory<'a> {
    /// Parse and verify the front of a block of `block_len` bytes:
    /// `prefix` must hold the header and directory (see
    /// [`span_prefix_len`]) and is checked against the directory CRC.
    fn verify(prefix: &'a [u8], block_len: usize) -> Result<Self, CodecError> {
        let summary = parse_header(prefix)?;
        check_quantum(summary.quantum)?;
        let count = summary.count;
        let data_end = block_len
            .checked_sub(TRAILER_LEN)
            .ok_or(CodecError::Truncated)?;
        let dir_end = HEADER_LEN + chunk_count(count) * DIR_ENTRY_LEN;
        let mut pos = dir_end;
        let stored = get_u32(prefix, &mut pos)?;
        if crc32(&prefix[..dir_end]) != stored {
            return Err(CodecError::ChecksumMismatch);
        }
        Ok(Directory {
            count,
            quantum: summary.quantum,
            data_start: pos,
            data_end,
            entries: &prefix[HEADER_LEN..dir_end],
        })
    }

    /// Samples in chunk `c`.
    fn samples_in(&self, c: u32) -> u32 {
        (self.count - c * CHUNK_SAMPLES).min(CHUNK_SAMPLES)
    }

    /// Chunk `c` (which must exist), with its byte range checked to lie
    /// after the directory and before the trailer.
    fn chunk(&self, c: u32) -> Result<Chunk, CodecError> {
        let at = c as usize * DIR_ENTRY_LEN;
        let entry = &self.entries[at..at + DIR_ENTRY_LEN];
        let word = |i: usize| u32::from_le_bytes(entry[i..i + 4].try_into().expect("4 bytes"));
        let start = word(0) as usize;
        let end = match self.entries.get(at + DIR_ENTRY_LEN..at + DIR_ENTRY_LEN + 4) {
            Some(next) => u32::from_le_bytes(next.try_into().expect("4 bytes")) as usize,
            None => self.data_end,
        };
        if start < self.data_start || start > end || end > self.data_end {
            return Err(CodecError::Truncated);
        }
        Ok(Chunk {
            first: i128::from(i64::from_le_bytes(
                entry[8..16].try_into().expect("8 bytes"),
            )),
            sum: i128::from_le_bytes(entry[16..32].try_into().expect("16 bytes")),
            start,
            end,
            crc: word(4),
        })
    }
}

/// Decode a block, verifying its CRC32 first. The block is also
/// checked for internal consistency: its directory CRC, and each
/// chunk's stored first value, byte range and quanta sum against what
/// its deltas decode to.
pub fn decode_block(bytes: &[u8]) -> Result<DecodedBlock, CodecError> {
    let summary = parse_header(bytes)?;
    let body = &bytes[..bytes.len() - TRAILER_LEN];
    let mut pos = bytes.len() - TRAILER_LEN;
    let stored_crc = get_u32(bytes, &mut pos)?;
    if crc32(body) != stored_crc {
        return Err(CodecError::ChecksumMismatch);
    }
    let dir = Directory::verify(bytes, bytes.len())?;

    let count = summary.count as usize;
    let mut pos = dir.data_start;

    let mut timestamps_us = Vec::with_capacity(count);
    timestamps_us.push(summary.t_first_us);
    let mut prev_t = i128::from(summary.t_first_us);
    let mut prev_delta: i128 = 0;
    for _ in 1..count {
        let dod = get_ivarint_fast(body, &mut pos)?;
        prev_delta += dod;
        prev_t += prev_delta;
        let t = i64::try_from(prev_t).map_err(|_| CodecError::BadTimestamp)?;
        timestamps_us.push(t);
    }

    let mut watts = Vec::with_capacity(count);
    for c in 0..chunk_count(summary.count) as u32 {
        let chunk = dir.chunk(c)?;
        if chunk.start != pos {
            return Err(CodecError::Truncated);
        }
        let deltas = &body[..chunk.end];
        let mut q = chunk.first;
        let mut sum = q;
        watts.push(dequantize(q, summary.quantum));
        for _ in 1..dir.samples_in(c) {
            q += get_ivarint_fast(deltas, &mut pos)?;
            sum += q;
            watts.push(dequantize(q, summary.quantum));
        }
        if pos != chunk.end {
            return Err(CodecError::Truncated);
        }
        if sum != chunk.sum {
            return Err(CodecError::ChecksumMismatch);
        }
    }
    if pos != body.len() {
        return Err(CodecError::Truncated);
    }
    Ok(DecodedBlock {
        timestamps_us,
        watts,
        summary,
    })
}

/// The pieces of a boundary block a pruned window scan needs: the
/// compensated sum over a local sample range plus the sample values at
/// the range edges (for fractional edge weighting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WattsSpan {
    /// Sum of the quantized watts at local indices `[start, end)`,
    /// accumulated exactly over the integer quanta and rounded once.
    pub sum: f64,
    /// The quantized watt value at local index `start`, when `start`
    /// is in bounds.
    pub value_at_start: Option<f64>,
    /// The quantized watt value at local index `end`, when `end` is in
    /// bounds (one past the summed range).
    pub value_at_end: Option<f64>,
}

/// Decode only the power values a window boundary needs from one block:
/// the sum over local indices `[start, end)` and the values at `start`
/// and `end`. See [`decode_watts_span_from`] for what is read and
/// verified; here the whole block is in memory.
///
/// Requires `start <= end <= count`.
pub fn decode_watts_span(bytes: &[u8], start: u32, end: u32) -> Result<WattsSpan, CodecError> {
    decode_watts_span_from(bytes, bytes.len(), start, end, |_, _| {
        Err::<&[u8], _>(CodecError::Truncated)
    })
}

/// The span decode behind [`decode_watts_span`], for a block of
/// `block_len` bytes that need not be in memory: `prefix` holds its
/// first [`span_prefix_len`] bytes, and `fetch(offset, len)` returns the
/// block's bytes `[offset, offset + len)` for any chunk the span needs
/// beyond the prefix.
///
/// The prefix is verified first, against the directory CRC. Whole
/// chunks inside the span contribute their stored integer quanta sums;
/// values at chunk edges come from the directory; at most two chunks —
/// the ones `start` and `end` fall inside — are fetched, checked against
/// their CRC32 and decoded up to the last index needed. The sum is
/// accumulated over integer quanta and dequantized once, so it does not
/// depend on where the chunk edges fall.
///
/// Requires `start <= end <= count`.
pub fn decode_watts_span_from<B: AsRef<[u8]>>(
    prefix: &[u8],
    block_len: usize,
    start: u32,
    end: u32,
    mut fetch: impl FnMut(usize, usize) -> Result<B, CodecError>,
) -> Result<WattsSpan, CodecError> {
    let dir = Directory::verify(prefix, block_len)?;
    if start > end || end > dir.count {
        return Err(CodecError::BadShape);
    }
    let mut span = WattsSpan {
        sum: 0.0,
        value_at_start: None,
        value_at_end: None,
    };
    // A span starting at (or past) the last sample carries no values.
    if start >= dir.count {
        return Ok(span);
    }
    let quantum = dir.quantum;
    let has_end_value = end < dir.count;
    // Last sample the span needs: the one at `end`, or the last summed.
    let last = if has_end_value { end } else { end - 1 };
    let first_chunk = start / CHUNK_SAMPLES;
    // Every sample is an integer multiple of the quantum, so the span
    // sum accumulates quanta exactly and rounds once at the end.
    let mut sum_quanta: i128 = 0;
    for c in first_chunk..=last / CHUNK_SAMPLES {
        let chunk = dir.chunk(c)?;
        let c0 = c * CHUNK_SAMPLES;
        let len = dir.samples_in(c);
        // The span's local range within this chunk, and which edge
        // values the chunk holds.
        let a = start.max(c0) - c0;
        let b = end.min(c0 + len) - c0;
        let holds_start = c == first_chunk;
        let holds_end = has_end_value && end < c0 + len;
        let whole = a == 0 && b == len;
        let needs_deltas = (b > a && !whole) || (holds_start && a > 0) || (holds_end && b > 0);
        if !needs_deltas {
            // Whole chunk, or edges on the chunk's first sample: the
            // directory answers.
            if b > a {
                sum_quanta += chunk.sum;
            }
            let first = Some(dequantize(chunk.first, quantum));
            if holds_start {
                span.value_at_start = first;
            }
            if holds_end {
                span.value_at_end = first;
            }
            continue;
        }
        let fetched;
        let deltas: &[u8] = if chunk.end <= prefix.len() {
            &prefix[chunk.start..chunk.end]
        } else {
            fetched = fetch(chunk.start, chunk.end - chunk.start)?;
            fetched.as_ref()
        };
        if deltas.len() != chunk.end - chunk.start {
            return Err(CodecError::Truncated);
        }
        if crc32(deltas) != chunk.crc {
            return Err(CodecError::ChecksumMismatch);
        }
        // Roll up to `a` without touching the accumulator, sum the
        // in-span samples, then (when asked) one more delta for the
        // sample at `end`. Stops at the last index needed.
        let mut pos = 0usize;
        let mut q = chunk.first;
        for _ in 0..a {
            q += get_ivarint_fast(deltas, &mut pos)?;
        }
        if holds_start {
            span.value_at_start = Some(dequantize(q, quantum));
        }
        if b > a {
            sum_quanta += q;
            for _ in a + 1..b {
                q += get_ivarint_fast(deltas, &mut pos)?;
                sum_quanta += q;
            }
        }
        if holds_end {
            if b > a {
                q += get_ivarint_fast(deltas, &mut pos)?;
            }
            span.value_at_end = Some(dequantize(q, quantum));
        }
    }
    span.sum = sum_quanta as f64 * quantum;
    Ok(span)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ts: &[i64], watts: &[f64], quantum: f64) -> DecodedBlock {
        let bytes = encode_block(ts, watts, quantum).expect("encode");
        decode_block(&bytes).expect("decode")
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varint_roundtrip_extremes() {
        let mut buf = Vec::new();
        let values = [
            0i128,
            1,
            -1,
            i128::from(i64::MAX),
            i128::from(i64::MIN),
            MAX_QUANTA,
            -MAX_QUANTA,
        ];
        for &v in &values {
            buf.clear();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn regular_grid_roundtrips_bit_exactly() {
        let ts: Vec<i64> = (0..1000).map(|i| i * 1_000_000).collect();
        let watts: Vec<f64> = (0..1000).map(|i| 350.0 + (i as f64 * 0.37).sin()).collect();
        let out = roundtrip(&ts, &watts, DEFAULT_QUANTUM);
        assert_eq!(out.timestamps_us, ts);
        for (w, d) in watts.iter().zip(&out.watts) {
            assert_eq!(d.to_bits(), quantize(*w, DEFAULT_QUANTUM).to_bits());
        }
    }

    #[test]
    fn quantize_is_idempotent_and_kills_negative_zero() {
        let q = DEFAULT_QUANTUM;
        for w in [0.0, -0.0, 1.0, -353.125, 1e12, -1e12, 3.000_48] {
            let once = quantize(w, q);
            assert_eq!(once.to_bits(), quantize(once, q).to_bits());
        }
        assert_eq!(quantize(-0.0, q).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn summary_matches_recomputation() {
        let ts: Vec<i64> = (0..257).map(|i| 7 + i * 250_000).collect();
        let watts: Vec<f64> = (0..257).map(|i| 100.0 + ((i * 31) % 17) as f64).collect();
        let bytes = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
        let peek = peek_summary(&bytes).unwrap();
        let out = decode_block(&bytes).unwrap();
        assert_eq!(peek, out.summary);
        let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut sum = Neumaier::new();
        for &v in &out.watts {
            min = min.min(v);
            max = max.max(v);
            sum.add(v);
        }
        assert_eq!(peek.min_watts.to_bits(), min.to_bits());
        assert_eq!(peek.max_watts.to_bits(), max.to_bits());
        assert_eq!(peek.sum_watts.to_bits(), sum.total().to_bits());
        assert_eq!(peek.t_first_us, ts[0]);
        assert_eq!(peek.t_last_us, *ts.last().unwrap());
        assert!(peek.overlaps(1_000_000, 2_000_000));
        assert!(!peek.overlaps(i64::MIN, 0));
    }

    fn restamp_crc(bytes: &mut [u8]) {
        let body_len = bytes.len() - TRAILER_LEN;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
    }

    #[test]
    fn other_block_versions_are_refused() {
        // Only version 3 is read: a block whose version byte says
        // anything else is refused by every entry point, even with a
        // trailing CRC that matches.
        let ts: Vec<i64> = (0..600).map(|i| i * 1_000_000).collect();
        let watts: Vec<f64> = (0..600).map(|i| 200.0 + f64::from(i % 37) * 0.25).collect();
        let good = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
        assert_eq!(good[4], VERSION);
        for version in [0u8, 1, 2, 4, u8::MAX] {
            let mut bytes = good.clone();
            bytes[4] = version;
            restamp_crc(&mut bytes);
            let refused = CodecError::BadVersion(version);
            assert_eq!(decode_block(&bytes).unwrap_err(), refused);
            assert_eq!(peek_summary(&bytes).unwrap_err(), refused);
            assert_eq!(span_prefix_len(&bytes).unwrap_err(), refused);
            assert_eq!(decode_watts_span(&bytes, 0, 600).unwrap_err(), refused);
        }
    }

    /// Reference span over a full decode, in exact integer quanta.
    fn reference_span(watts: &[f64], start: usize, end: usize) -> WattsSpan {
        let quanta: i128 = watts[start..end]
            .iter()
            .map(|w| (w / DEFAULT_QUANTUM) as i128)
            .sum();
        WattsSpan {
            sum: quanta as f64 * DEFAULT_QUANTUM,
            value_at_start: watts.get(start).copied(),
            value_at_end: watts.get(end).copied(),
        }
    }

    #[test]
    fn spans_match_full_decode_at_chunk_edges() {
        // Blocks shorter than, equal to, and just past one chunk, a
        // last chunk of a single sample, and a partial last chunk; every
        // pair of edge-adjacent indices, point queries included.
        for n in [1u32, 2, 511, 512, 513, 1024, 1031] {
            let ts: Vec<i64> = (0..i64::from(n)).map(|i| i * 250_000).collect();
            let watts: Vec<f64> = (0..n)
                .map(|i| 180.0 + f64::from((i * 29) % 71) * 0.375 - f64::from(i % 5) * 11.0)
                .collect();
            let bytes = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
            let full = decode_block(&bytes).unwrap().watts;
            let mut marks: Vec<u32> = [0, 1, 2, 255, 510, 511, 512, 513, 514, 1023, 1024, 1025]
                .into_iter()
                .chain([n - 1, n])
                .filter(|&i| i <= n)
                .collect();
            marks.sort_unstable();
            marks.dedup();
            for &s in &marks {
                for &e in marks.iter().filter(|&&e| e >= s) {
                    let span = decode_watts_span(&bytes, s, e).unwrap();
                    let want = reference_span(&full, s as usize, e as usize);
                    assert_eq!(span.sum.to_bits(), want.sum.to_bits(), "n={n} [{s},{e})");
                    assert_eq!(span, want, "n={n} [{s},{e})");
                }
            }
        }
    }

    #[test]
    fn span_reads_only_the_prefix_and_its_edge_chunks() {
        // 8,192 HPL-like samples: a span on chunk edges needs no chunk
        // at all, a span inside chunks fetches exactly the two edge
        // chunks, and nothing before the chunks (the timestamps) is read.
        let n = 8192u32;
        let ts: Vec<i64> = (0..i64::from(n)).map(|i| i * 1_000_000).collect();
        let watts: Vec<f64> = (0..n).map(|i| 350.0 + f64::from(i % 97) * 0.05).collect();
        let bytes = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
        let prefix_len = span_prefix_len(&bytes[..HEADER_LEN + TRAILER_LEN]).unwrap();
        assert_eq!(prefix_len, HEADER_LEN + 16 * DIR_ENTRY_LEN + 4);
        let ts_end = prefix_len + (n as usize - 1);
        for (s, e, want_fetches) in [(2048, 6144, 0), (0, n, 0), (2047, 6145, 2), (700, 900, 1)] {
            let mut fetched = Vec::new();
            let span =
                decode_watts_span_from(&bytes[..prefix_len], bytes.len(), s, e, |off, len| {
                    fetched.push((off, len));
                    Ok::<_, CodecError>(&bytes[off..off + len])
                })
                .unwrap();
            assert_eq!(span, decode_watts_span(&bytes, s, e).unwrap());
            assert_eq!(fetched.len(), want_fetches, "[{s},{e}): {fetched:?}");
            assert!(fetched.iter().all(|&(off, _)| off >= ts_end), "{fetched:?}");
        }
    }

    #[test]
    fn span_checks_every_byte_it_reads_and_ignores_the_rest() {
        let n = 2000u32;
        let ts: Vec<i64> = (0..i64::from(n)).map(|i| 5 + i * 1_000_000).collect();
        let watts: Vec<f64> = (0..n)
            .map(|i| 240.0 + f64::from((i * 7) % 31) * 0.5)
            .collect();
        let good = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
        // [700, 1500) starts in chunk 1 and ends in chunk 2.
        let (s, e) = (700, 1500);
        let want = decode_watts_span(&good, s, e).unwrap();
        let prefix_len = span_prefix_len(&good).unwrap();
        let dir = Directory::verify(&good[..prefix_len], good.len()).unwrap();
        let (c1, c2) = (dir.chunk(1).unwrap(), dir.chunk(2).unwrap());
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            let got = decode_watts_span(&bad, s, e);
            let read = i < prefix_len || (c1.start..c2.end).contains(&i);
            if i < 12 {
                // Magic, version and count are validated before the
                // directory CRC can be located.
                assert!(got.is_err(), "flip at header byte {i} accepted");
            } else if read {
                assert_eq!(got, Err(CodecError::ChecksumMismatch), "flip at byte {i}");
            } else {
                assert_eq!(got, Ok(want), "flip at unread byte {i}");
            }
        }
    }

    #[test]
    fn single_sample_block_roundtrips_with_finite_summary() {
        // Degenerate block: one sample, no timestamp varints, one power
        // varint. The summary must carry the sample itself — never the
        // ±INFINITY fold seeds.
        let bytes = encode_block(&[42_000_000], &[137.5], DEFAULT_QUANTUM).unwrap();
        let peek = peek_summary(&bytes).unwrap();
        assert_eq!(peek.count, 1);
        assert!(peek.min_watts.is_finite() && peek.max_watts.is_finite());
        assert_eq!(peek.min_watts, 137.5);
        assert_eq!(peek.max_watts, 137.5);
        assert_eq!(peek.sum_watts, 137.5);
        assert_eq!(peek.t_first_us, peek.t_last_us);
        let out = decode_block(&bytes).unwrap();
        assert_eq!(out.timestamps_us, vec![42_000_000]);
        assert_eq!(out.watts, vec![137.5]);
        let span = decode_watts_span(&bytes, 0, 1).unwrap();
        assert_eq!(span.sum, 137.5);
        assert_eq!(span.value_at_start, Some(137.5));
        assert_eq!(span.value_at_end, None);
    }

    #[test]
    fn watts_span_matches_full_decode() {
        let ts: Vec<i64> = (0..999).map(|i| 3 + i * 500_000).collect();
        let watts: Vec<f64> = (0..999)
            .map(|i| 250.0 + ((i * 37) % 113) as f64 * 0.125)
            .collect();
        let bytes = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
        let full = decode_block(&bytes).unwrap();
        for (start, end) in [(0u32, 999u32), (0, 1), (998, 999), (17, 530), (250, 250)] {
            let span = decode_watts_span(&bytes, start, end).unwrap();
            let mut want = Neumaier::new();
            for &v in &full.watts[start as usize..end as usize] {
                want.add(v);
            }
            assert_eq!(
                span.sum.to_bits(),
                want.total().to_bits(),
                "[{start},{end})"
            );
            assert_eq!(span.value_at_start, Some(full.watts[start as usize]));
            let expect_end = full.watts.get(end as usize).copied();
            assert_eq!(span.value_at_end, expect_end);
        }
        // Out-of-range requests are rejected, corrupt bytes are caught.
        assert_eq!(
            decode_watts_span(&bytes, 5, 1000),
            Err(CodecError::BadShape)
        );
        assert_eq!(decode_watts_span(&bytes, 7, 3), Err(CodecError::BadShape));
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 5] ^= 0x20;
        assert_eq!(
            decode_watts_span(&bad, 0, 10),
            Err(CodecError::ChecksumMismatch)
        );
    }

    #[test]
    fn corruption_is_detected() {
        let ts: Vec<i64> = (0..64).map(|i| i * 1_000_000).collect();
        let watts = vec![250.0; 64];
        let good = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            // Any single-bit-pair flip must be rejected, never panic.
            assert!(decode_block(&bad).is_err(), "flip at byte {i} accepted");
        }
        assert!(decode_block(&good[..good.len() - 1]).is_err());
        assert!(decode_block(&[]).is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            encode_block(&[0], &[f64::NAN], DEFAULT_QUANTUM),
            Err(CodecError::NonFinite(w)) if w.is_nan()
        ));
        assert!(matches!(
            encode_block(&[0], &[1e300], DEFAULT_QUANTUM),
            Err(CodecError::OutOfRange(_))
        ));
        assert_eq!(
            encode_block(&[0], &[1.0], 0.0),
            Err(CodecError::BadQuantum(0.0))
        );
        assert_eq!(
            encode_block(&[], &[], DEFAULT_QUANTUM),
            Err(CodecError::BadShape)
        );
        assert_eq!(
            encode_block(&[0, 1], &[1.0], DEFAULT_QUANTUM),
            Err(CodecError::BadShape)
        );
    }

    #[test]
    fn compression_on_noisy_plateau_beats_4x() {
        // A synthetic HPL-like plateau: ~350 W with ~1% Gaussian-ish
        // noise (deterministic LCG here), regular 1 s grid.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let n = 100_000usize;
        let ts: Vec<i64> = (0..n as i64).map(|i| i * 1_000_000).collect();
        let watts: Vec<f64> = (0..n)
            .map(|_| {
                let u: f64 = next();
                let v: f64 = next();
                // Box-Muller for a normal-ish sample.
                let z = (-2.0 * u.max(1e-12).ln()).sqrt() * (2.0 * std::f64::consts::PI * v).cos();
                350.0 + 3.5 * z
            })
            .collect();
        let bytes = encode_block(&ts, &watts, DEFAULT_QUANTUM).unwrap();
        let raw = n * 16;
        let ratio = raw as f64 / bytes.len() as f64;
        assert!(ratio >= 4.0, "compression ratio {ratio:.2} < 4x");
    }
}
