//! Storage-layer benchmarks with enforced budgets, on a ~1M-sample
//! archive of simulated HPL node traces (16 nodes x 65536 one-second
//! samples):
//!
//! * **compression**: the encoded archive must be at least 4x smaller
//!   than raw `(timestamp, watts)` f64 pairs;
//! * **scan**: sequentially reading and decoding every block (checksum
//!   verification included) must sustain at least 100 MB/s of decoded
//!   logical data;
//! * **recovery**: a cold `Archive::open` of the full archive — which
//!   replays the manifest and verifies every committed record's CRC —
//!   must finish in under one second;
//! * **pruned window query (cold)**: answering a window average for one
//!   node straight off the archive — block summaries from an index of
//!   positioned header reads, then, per boundary block, positioned reads
//!   of its chunk directory and at most two 512-sample chunks — must
//!   finish in at most 100 µs;
//! * **pruned scan throughput**: window queries spanning the whole
//!   archive must sustain at least 2x the decode-everything scan
//!   baseline (472 MB/s when the budget was set), since interior blocks
//!   are answered from their 60-byte header summaries;
//! * **boundary span**: the median `decode_watts_span(block, 2048, 6144)`
//!   on an in-memory 8,192-sample HPL block must take at most 2 µs. Both
//!   ends fall on 512-sample chunk edges, so the chunk directory's exact
//!   sums answer the span and no chunk's deltas are decoded: this budget
//!   covers the directory path only. On a 2-vCPU Xeon, alternating runs
//!   measured 0.56–0.63 µs here against 32–43 µs for the version-2
//!   codec, which checksummed and decoded the whole block;
//! * **unaligned boundary span** (recorded, no budget): the same block
//!   and call over `[2100, 6100)`, whose ends fall inside chunks, so two
//!   edge chunks are checksummed and their deltas decoded up to each
//!   end — the cost a real window's boundary block pays. Four runs on
//!   a 2-vCPU Xeon measured 6.2–6.5 µs for it against 0.65–0.70 µs
//!   aligned.
//!
//! Every figure, and every budget with its verdict, lands in
//! `BENCH_archive.json` via [`power_bench::report`].

use criterion::{criterion_group, BenchmarkId, Criterion};
use power_archive::codec::{decode_watts_span_from, span_prefix_len, HEADER_LEN, TRAILER_LEN};
use power_archive::{
    decode_block, decode_watts_span, encode_block, peek_summary, pruned_window_sum, Archive,
    ArchiveConfig, BlockMeta, CodecError, WattsSpan, DEFAULT_QUANTUM,
};
use power_bench::report::{self, Direction};
use power_sim::trace::window_span;
use power_sim::SystemTrace;
use power_sim::{Cluster, ProductRequest, SimulationConfig, Simulator, SystemPreset};
use power_workload::{Firestarter, LoadBalance, RunPhases};
use std::hint::black_box;
use std::time::{Duration, Instant};

const NODES: usize = 16;
const BLOCK_SAMPLES: usize = 8192;
/// Raw cost of one sample: an f64 timestamp and an f64 power reading.
const RAW_BYTES_PER_SAMPLE: usize = 16;
/// Pruned-scan floor: 2x the 472 MB/s decode-everything scan measured
/// when this budget was introduced.
const PRUNED_MIN_MBPS: f64 = 944.0;
/// Ceiling on the median boundary span over one 8,192-sample block.
const BOUNDARY_SPAN_MAX_US: f64 = 2.0;
/// Timed repetitions behind the boundary-span median.
const SPAN_REPS: usize = 401;

/// One node's blocks as a pruned scan sees them: summaries lifted from
/// 64-byte positioned header reads (the body bytes are never touched),
/// and per block its `(fingerprint, length, span prefix length)`.
struct NodeIndex {
    metas: Vec<BlockMeta>,
    blocks: Vec<(u64, usize, usize)>,
}

fn node_index(archive: &Archive, node: usize, list: &[(u64, u64)]) -> NodeIndex {
    let mut metas = Vec::with_capacity(list.len());
    let mut blocks = Vec::with_capacity(list.len());
    let mut first = 0u64;
    for &(fingerprint, len) in list {
        let header = archive
            .read_payload_range(node as u64, fingerprint, 0, HEADER_LEN + TRAILER_LEN)
            .expect("header read")
            .expect("entry exists");
        let summary = peek_summary(&header).expect("header parses");
        metas.push(BlockMeta {
            first,
            count: summary.count,
            sum_watts: summary.sum_watts,
        });
        let len = len as usize;
        let prefix_len = span_prefix_len(&header).expect("header parses");
        blocks.push((fingerprint, len, prefix_len));
        first += u64::from(summary.count);
    }
    NodeIndex { metas, blocks }
}

/// Boundary-block decode for the pruned scan: positioned reads of the
/// block's chunk directory and of the chunks `[s, e)` needs, as the
/// products tier does.
fn boundary_span(
    archive: &Archive,
    node: usize,
    index: &NodeIndex,
    k: usize,
    s: u32,
    e: u32,
) -> Result<WattsSpan, CodecError> {
    let (fingerprint, len, prefix_len) = index.blocks[k];
    let read = |off: usize, len: usize| {
        archive
            .read_payload_range(node as u64, fingerprint, off as u64, len)
            .expect("block read")
            .ok_or(CodecError::Truncated)
    };
    let prefix = read(0, prefix_len)?;
    decode_watts_span_from(&prefix, len, s, e, read)
}

/// Simulated HPL traces: ramp up, long core plateau, ramp down, with
/// the engine's per-node and machine-wide noise — 65536 one-second
/// samples per node so 16 nodes give a ~1M-sample archive.
fn hpl_traces() -> Vec<Vec<f64>> {
    let preset = SystemPreset::trace_presets()
        .into_iter()
        .find(|p| p.name == "L-CSC")
        .expect("L-CSC trace preset exists")
        .with_total_nodes(NODES);
    let cluster = Cluster::build(preset.cluster_spec).expect("cluster");
    let phases = RunPhases::new(600.0, 64_336.0, 600.0).expect("phases");
    let wl = Firestarter::new(phases);
    let cfg = SimulationConfig::one_hertz(2015);
    let sim = Simulator::new(&cluster, &wl, LoadBalance::Balanced, cfg).expect("simulator");
    let all: Vec<usize> = (0..NODES).collect();
    let products = sim
        .run_products(&ProductRequest::subset_only(&all))
        .expect("subset sweep");
    let trace = products
        .subset_trace(power_sim::engine::MeterScope::Wall)
        .expect("wall subset trace");
    trace.samples.clone()
}

/// Chunk one node's series into encoded blocks on the 1 Hz grid.
fn encode_node(node: usize, watts: &[f64]) -> Vec<Vec<u8>> {
    let mut blobs = Vec::new();
    for (chunk_idx, chunk) in watts.chunks(BLOCK_SAMPLES).enumerate() {
        let t0 = (node * watts.len() + chunk_idx * BLOCK_SAMPLES) as i64;
        let timestamps: Vec<i64> = (0..chunk.len())
            .map(|i| (t0 + i as i64) * 1_000_000)
            .collect();
        blobs.push(encode_block(&timestamps, chunk, DEFAULT_QUANTUM).expect("encode"));
    }
    blobs
}

fn bench_archive(c: &mut Criterion) {
    let traces = hpl_traces();
    let total_samples: usize = traces.iter().map(Vec::len).sum();
    assert!(
        total_samples >= 1_000_000,
        "the workload must produce a ~1M-sample archive, got {total_samples}"
    );
    let raw_bytes = total_samples * RAW_BYTES_PER_SAMPLE;

    // Build the on-disk archive once: one entry per (node, block).
    let dir = std::env::temp_dir().join(format!("power-bench-archive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ArchiveConfig {
        fsync: false, // measured budgets are read-side; see scan/open
        ..ArchiveConfig::default()
    };
    let archive = Archive::open_with(&dir, config).expect("open archive");
    let mut encoded_bytes = 0usize;
    for (node, watts) in traces.iter().enumerate() {
        for (chunk_idx, blob) in encode_node(node, watts).into_iter().enumerate() {
            encoded_bytes += blob.len();
            archive
                .put(node as u64, chunk_idx as u64, 0, &blob)
                .expect("put block");
        }
    }
    let entries = archive.entries();
    drop(archive);
    let ratio = raw_bytes as f64 / encoded_bytes as f64;

    let mut best_scan_mbps = 0.0f64;
    let mut best_open = Duration::MAX;
    let mut group = c.benchmark_group("archive");
    group.sample_size(3);

    group.bench_function(BenchmarkId::new("encode", "hpl_node"), |b| {
        b.iter(|| black_box(encode_node(0, &traces[0]).len()))
    });

    // Sequential scan: read + checksum-verify + decode every block.
    let scan_archive = Archive::open_with(&dir, config).expect("reopen for scan");
    group.bench_function(BenchmarkId::new("scan", "1M_samples"), |b| {
        b.iter(|| {
            let started = Instant::now();
            let mut samples = 0usize;
            for entry in &entries {
                let blob = scan_archive
                    .get(entry.key, entry.fingerprint)
                    .expect("read block")
                    .expect("block exists");
                let decoded = decode_block(&blob).expect("decode block");
                samples += decoded.watts.len();
            }
            assert_eq!(samples, total_samples, "scan covered every sample");
            let logical_mb = (samples * RAW_BYTES_PER_SAMPLE) as f64 / 1e6;
            best_scan_mbps = best_scan_mbps.max(logical_mb / started.elapsed().as_secs_f64());
            black_box(samples)
        })
    });
    drop(scan_archive);

    // Cold-start recovery: manifest replay + CRC verification of every
    // committed record.
    group.bench_function(BenchmarkId::new("open", "1M_samples"), |b| {
        b.iter(|| {
            let started = Instant::now();
            let reopened = Archive::open_with(&dir, config).expect("cold open");
            best_open = best_open.min(started.elapsed());
            black_box(reopened.len())
        })
    });

    // Pruned window queries (query-from-compressed): interior blocks
    // answered from header summaries, at most two boundary blocks
    // decoded. `by_node` maps a node to its blocks in grid order.
    let query_archive = Archive::open_with(&dir, config).expect("reopen for queries");
    let mut by_node: Vec<Vec<(u64, u64)>> = vec![Vec::new(); NODES];
    for entry in &entries {
        by_node[entry.key as usize].push((entry.fingerprint, entry.blob_len));
    }
    for list in &mut by_node {
        list.sort_unstable();
    }
    let steps = traces[0].len();
    let references: Vec<SystemTrace> = traces
        .iter()
        .map(|w| SystemTrace::new(0.0, 1.0, w.clone()).expect("trace"))
        .collect();

    // Cold query: the block summary index is resident (the products
    // tier keeps a revalidated per-key index in memory), but no sample
    // data is — the two boundary blocks are read from disk and decoded
    // on every query, with no materialized trace and no LRU entry.
    let indexed: Vec<NodeIndex> = (0..NODES)
        .map(|n| node_index(&query_archive, n, &by_node[n]))
        .collect();
    let mut best_query = Duration::MAX;
    let (query_from, query_to) = (10_000.5, 40_000.25);
    group.bench_function(BenchmarkId::new("pruned_window", "cold_query"), |b| {
        let mut node = 0usize;
        b.iter(|| {
            let started = Instant::now();
            let (lo, hi) =
                window_span(0.0, 1.0, steps, query_from, query_to).expect("window overlaps");
            let pruned = pruned_window_sum(&indexed[node].metas, lo, hi, |k, s, e| {
                boundary_span(&query_archive, node, &indexed[node], k, s, e)
            })
            .expect("blocks decode");
            let average = pruned.weighted_sum / (hi - lo);
            best_query = best_query.min(started.elapsed());
            let want = references[node]
                .window_average(query_from, query_to)
                .expect("reference");
            assert!(
                (average - want).abs() <= DEFAULT_QUANTUM,
                "pruned {average} vs decoded {want}"
            );
            assert!(pruned.blocks_decoded <= 2, "{pruned:?}");
            node = (node + 1) % NODES;
            black_box(average)
        })
    });

    // Throughput: whole-archive window queries against a cached block
    // index (the steady state of the products tier), measured as
    // logical bytes covered per second.
    let mut best_pruned_mbps = 0.0f64;
    group.bench_function(BenchmarkId::new("pruned_window", "throughput"), |b| {
        b.iter(|| {
            let started = Instant::now();
            let mut covered = 0usize;
            for (node, index) in indexed.iter().enumerate() {
                let (lo, hi) = window_span(0.0, 1.0, steps, 0.25, steps as f64 - 0.25)
                    .expect("window overlaps");
                let pruned = pruned_window_sum(&index.metas, lo, hi, |k, s, e| {
                    boundary_span(&query_archive, node, index, k, s, e)
                })
                .expect("blocks decode");
                covered += steps;
                black_box(pruned.weighted_sum);
            }
            let logical_mb = (covered * RAW_BYTES_PER_SAMPLE) as f64 / 1e6;
            best_pruned_mbps = best_pruned_mbps.max(logical_mb / started.elapsed().as_secs_f64());
            black_box(covered)
        })
    });
    drop(query_archive);
    group.finish();

    // Boundary spans: one in-memory block on the core plateau, timed call
    // by call, once with both ends on chunk edges and once inside chunks.
    let block = &encode_node(0, &traces[0])[1];
    let span_median_us = |s: u32, e: u32| {
        let mut span_us: Vec<f64> = (0..SPAN_REPS)
            .map(|_| {
                let started = Instant::now();
                black_box(decode_watts_span(black_box(block), s, e)).expect("span decodes");
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        span_us.sort_by(f64::total_cmp);
        span_us[SPAN_REPS / 2]
    };
    let boundary_span_us = span_median_us(2048, 6144);
    let boundary_span_unaligned_us = span_median_us(2100, 6100);

    println!(
        "archive: {total_samples} samples, {encoded_bytes} bytes encoded ({ratio:.2}x vs raw), \
         scan {best_scan_mbps:.0} MB/s, cold open {:.1} ms, \
         pruned cold query {:.1} us, pruned scan {best_pruned_mbps:.0} MB/s, \
         boundary span {boundary_span_us:.2} us aligned, \
         {boundary_span_unaligned_us:.2} us unaligned",
        best_open.as_secs_f64() * 1e3,
        best_query.as_secs_f64() * 1e6,
    );
    report::metric("samples", total_samples as f64);
    report::metric("encoded_bytes", encoded_bytes as f64);
    report::budget("compression_ratio", ratio, Direction::AtLeast, 4.0);
    report::budget("scan_mb_per_s", best_scan_mbps, Direction::AtLeast, 100.0);
    report::budget(
        "cold_open_ms",
        best_open.as_secs_f64() * 1e3,
        Direction::AtMost,
        1_000.0,
    );
    report::budget(
        "pruned_cold_query_us",
        best_query.as_secs_f64() * 1e6,
        Direction::AtMost,
        100.0,
    );
    report::budget(
        "pruned_scan_mb_per_s",
        best_pruned_mbps,
        Direction::AtLeast,
        PRUNED_MIN_MBPS,
    );
    report::budget(
        "boundary_span_us",
        boundary_span_us,
        Direction::AtMost,
        BOUNDARY_SPAN_MAX_US,
    );
    report::metric("boundary_span_unaligned_us", boundary_span_unaligned_us);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

criterion_group!(benches, bench_archive);
power_bench::bench_main!("archive", benches);
