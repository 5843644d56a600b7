//! # power-archive — crash-safe on-disk trace & campaign store
//!
//! A std-only embedded storage engine for the expensive artifacts of the
//! reproduction pipeline: full-sweep [`power_sim::RunProducts`], per-node
//! power traces, and campaign progress. Everything in-process memory
//! holds (the `TraceStore` LRU, a campaign's ingested samples) is lost on
//! restart; this crate makes those artifacts durable.
//!
//! Three layers, bottom to top:
//!
//! * [`codec`] — compressed trace blocks: timestamp delta-of-delta +
//!   zigzag/varint power deltas against a fixed-point quantization, with
//!   per-block CRC32 and min/max/sum summaries so window scans can skip
//!   blocks without decoding them, and a CRC'd directory of 512-sample
//!   chunks (exact sums, first values, chunk CRCs) so a window boundary
//!   decodes one chunk instead of the whole block.
//! * [`archive`] — append-only segment files under a manifest with a
//!   write-ahead commit protocol (segment append → fsync → manifest
//!   record → fsync), recovery that truncates torn tails and verifies
//!   every committed checksum on open, and size-triggered compaction
//!   that rewrites live blocks and drops superseded sweeps.
//! * [`products`] / [`fleet`] — the integration layer: a
//!   [`power_sim::store::ArchiveTier`] implementation making the archive
//!   a second tier beneath the in-memory `TraceStore` (memory LRU → disk
//!   archive → recompute), and the one campaign write-ahead log
//!   ([`FleetWal`]) implementing `power_telemetry`'s `FleetJournal`, so
//!   a killed fleet resumes every in-flight campaign at its watermark
//!   and an interrupted live campaign, journaled as a fleet of one,
//!   resumes at its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod archive;
pub mod codec;
pub mod fleet;
pub mod products;
pub mod query;
mod record;

pub use archive::{Archive, ArchiveConfig, ArchiveStats, EntryInfo, FLAG_FULL_SWEEP};
pub use codec::{
    crc32, decode_block, decode_watts_span, encode_block, peek_summary, quantize, BlockSummary,
    CodecError, DecodedBlock, WattsSpan, DEFAULT_QUANTUM,
};
pub use fleet::FleetWal;
pub use products::ProductsArchive;
pub use query::{pruned_window_sum, BlockMeta, PrunedWindow};
