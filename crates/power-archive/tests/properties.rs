//! Codec properties: any finite series — constant, monotone,
//! adversarial alternating-sign deltas, or noisy — encodes and decodes
//! bit-exactly under the quantization contract, the stored summary is
//! bitwise identical to one recomputed from the quantized values, and
//! any single corrupted byte is detected rather than decoded.

use power_archive::codec::CHUNK_SAMPLES;
use power_archive::{
    decode_block, decode_watts_span, encode_block, peek_summary, pruned_window_sum, quantize,
    BlockMeta, PrunedWindow, DEFAULT_QUANTUM,
};
use power_sim::trace::window_span;
use power_sim::SystemTrace;
use proptest::prelude::*;

/// Build one of the four series shapes from generated parameters.
fn series(mode: u8, len: usize, base: f64, step: f64, noise: &[f64]) -> Vec<f64> {
    (0..len)
        .map(|i| match mode {
            0 => base,
            1 => base + step * i as f64,
            // Worst case for delta coding: the sign of every power
            // delta flips, so zigzag sees a large value each sample.
            2 => {
                base + if i % 2 == 0 {
                    step * 997.0
                } else {
                    -step * 997.0
                }
            }
            _ => base + noise[i % noise.len()],
        })
        .collect()
}

/// The archived block length: an 8,192-sample series block.
const BLOCK_LEN: usize = 8192;

/// The fixture series: 8,705 samples at 1 Hz, two blocks of 8,192 and
/// 513.
fn fixture_series() -> Vec<f64> {
    (0..8705)
        .map(|i| quantize(200.0 + ((i * 13) % 37) as f64 * 0.25, DEFAULT_QUANTUM))
        .collect()
}

/// Encodes `watts` (1 Hz grid from t = 0) into blocks of `block_len`
/// samples.
fn encode_blocks(watts: &[f64], block_len: usize) -> Vec<Vec<u8>> {
    watts
        .chunks(block_len)
        .enumerate()
        .map(|(b, chunk)| {
            let ts: Vec<i64> = (0..chunk.len())
                .map(|i| ((b * block_len + i) as i64) * 1_000_000)
                .collect();
            encode_block(&ts, chunk, DEFAULT_QUANTUM).unwrap()
        })
        .collect()
}

/// The pruned scan over `blocks` for the fractional span `[lo, hi]`,
/// with block metadata read from the block headers.
fn pruned(blocks: &[Vec<u8>], lo: f64, hi: f64) -> PrunedWindow {
    let mut first = 0u64;
    let metas: Vec<BlockMeta> = blocks
        .iter()
        .map(|bytes| {
            let summary = peek_summary(bytes).unwrap();
            let meta = BlockMeta {
                first,
                count: summary.count,
                sum_watts: summary.sum_watts,
            };
            first += u64::from(summary.count);
            meta
        })
        .collect();
    pruned_window_sum(&metas, lo, hi, |k, s, e| {
        decode_watts_span(&blocks[k], s, e)
    })
    .expect("blocks decode")
}

/// Pruned window answers over the fixture series in blocks of 8,192 are
/// pinned bit for bit: edges on every 512-sample chunk boundary, just
/// before and just after it, and widths from half a sample to the whole
/// series. The digest was recorded when the codec still read the
/// version-2 encoding of these blocks, and both encodings gave it, so it
/// carries that equality forward without the version-2 decoder.
#[test]
fn pruned_window_answers_are_pinned() {
    let watts = fixture_series();
    let n = watts.len();
    let trace = SystemTrace::new(0.0, 1.0, watts.clone()).unwrap();
    let blocks = encode_blocks(&watts, BLOCK_LEN);
    let (mut digest, mut windows) = (0xcbf2_9ce4_8422_2325u64, 0);
    for k in 0..=17 {
        for offset in [-0.75, 0.0, 0.25] {
            for width in [0.5, 3.0, 700.0, 9000.0] {
                let from = f64::from(k * CHUNK_SAMPLES) + offset;
                let to = from + width;
                if trace.window_average(from, to).is_err() {
                    continue;
                }
                let (lo, hi) = window_span(0.0, 1.0, n, from, to).expect("average implies overlap");
                let bits = pruned(&blocks, lo, hi).weighted_sum.to_bits();
                digest = (digest ^ bits).wrapping_mul(0x0000_0100_0000_01B3);
                windows += 1;
            }
        }
    }
    assert_eq!(windows, 215);
    assert_eq!(digest, 14_091_021_743_003_185_511);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn any_finite_series_round_trips_bit_exactly(
        mode in 0u8..4,
        len in 1usize..400,
        base in -400_000.0..400_000.0f64,
        step in -250.0..250.0f64,
        noise in prop::collection::vec(-50_000.0..50_000.0f64, 1..64),
        t0 in -1_000_000_000i64..1_000_000_000i64,
        dt in -5_000_000i64..5_000_000i64,
        jitter in prop::collection::vec(-1_000i64..1_000i64, 1..64),
    ) {
        let watts = series(mode, len, base, step, &noise);
        let timestamps: Vec<i64> = (0..len)
            .map(|i| t0 + dt * i as i64 + jitter[i % jitter.len()])
            .collect();
        let blob = encode_block(&timestamps, &watts, DEFAULT_QUANTUM).expect("finite series encodes");
        let decoded = decode_block(&blob).expect("own output decodes");

        // Timestamps are lossless; watts land exactly on the
        // quantization image, which is itself a fixed point.
        prop_assert_eq!(&decoded.timestamps_us, &timestamps);
        prop_assert_eq!(decoded.watts.len(), watts.len());
        for (&got, &w) in decoded.watts.iter().zip(&watts) {
            let q = quantize(w, DEFAULT_QUANTUM);
            prop_assert_eq!(got.to_bits(), q.to_bits());
            prop_assert_eq!(quantize(q, DEFAULT_QUANTUM).to_bits(), q.to_bits());
            prop_assert!((q - w).abs() <= DEFAULT_QUANTUM);
        }

        // The stored summary matches a recomputation from the
        // quantized values, bit for bit (Neumaier-compensated sum in
        // sequential order, matching the encoder as of codec v2).
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut acc = power_sim::trace::Neumaier::new();
        for &q in &decoded.watts {
            min = min.min(q);
            max = max.max(q);
            acc.add(q);
        }
        let sum = acc.total();
        let s = decoded.summary;
        prop_assert_eq!(s.count as usize, len);
        prop_assert_eq!(s.quantum.to_bits(), DEFAULT_QUANTUM.to_bits());
        prop_assert_eq!(s.t_first_us, timestamps[0]);
        prop_assert_eq!(s.t_last_us, timestamps[len - 1]);
        prop_assert_eq!(s.min_watts.to_bits(), min.to_bits());
        prop_assert_eq!(s.max_watts.to_bits(), max.to_bits());
        prop_assert_eq!(s.sum_watts.to_bits(), sum.to_bits());

        // The header-only fast path agrees with the full decode.
        prop_assert_eq!(peek_summary(&blob).expect("peek"), s);
    }

    #[test]
    fn any_single_corrupted_byte_is_detected(
        len in 1usize..128,
        base in 0.0..10_000.0f64,
        step in -10.0..10.0f64,
        at_fraction in 0.0..1.0f64,
        mask in 1u8..=255,
    ) {
        let watts: Vec<f64> = (0..len).map(|i| base + step * i as f64).collect();
        let timestamps: Vec<i64> = (0..len as i64).map(|i| i * 1_000_000).collect();
        let mut blob = encode_block(&timestamps, &watts, DEFAULT_QUANTUM).expect("encodes");
        let at = ((at_fraction * blob.len() as f64) as usize).min(blob.len() - 1);
        blob[at] ^= mask;
        prop_assert!(
            decode_block(&blob).is_err(),
            "flipping byte {} with mask {:#x} went undetected", at, mask
        );
    }

    /// The pruned-scan window aggregate agrees with the in-memory
    /// prefix-sum reference for windows swept across every block-edge
    /// and chunk-edge alignment — whole blocks, fractional edges landing
    /// exactly on, just before, and just after block and 512-sample
    /// chunk boundaries — for block sizes from single samples through
    /// lengths around one chunk (511, 512, 513, 1,031) to 8,192-sample
    /// blocks.
    #[test]
    fn pruned_window_agrees_across_any_block_alignment(
        small_len in 1usize..=96,
        pick in 0usize..12,
        edge_on_chunk in prop::bool::ANY,
        edge_mult in 0usize..=17,
        from_off in -1.5f64..1.5,
        exact_edge in 0u8..2,
        width_log2 in -3.0f64..12.0,
    ) {
        const AROUND_CHUNKS: [usize; 6] = [1, 511, 512, 513, 1031, BLOCK_LEN];
        let block_len = if pick < AROUND_CHUNKS.len() {
            small_len
        } else {
            AROUND_CHUNKS[pick - AROUND_CHUNKS.len()]
        };
        let watts = fixture_series();
        let n = watts.len();
        let trace = SystemTrace::new(0.0, 1.0, watts.clone()).unwrap();
        let blocks = encode_blocks(&watts, block_len);

        let unit = if edge_on_chunk { CHUNK_SAMPLES as usize } else { block_len };
        let edge = (edge_mult * unit).min(n) as f64;
        let from = if exact_edge == 1 { edge } else { edge + from_off };
        let to = from + width_log2.exp2();
        if let Ok(reference) = trace.window_average(from, to) {
            let (lo, hi) = window_span(0.0, 1.0, n, from, to).expect("average implies overlap");
            let pw = pruned(&blocks, lo, hi);
            let got = pw.weighted_sum / (hi - lo);
            prop_assert!(
                (got - reference).abs() <= 1e-9 * (1.0 + reference.abs()),
                "window [{}, {}) blocks of {}: pruned {} vs reference {}",
                from, to, block_len, got, reference
            );
            prop_assert!(pw.blocks_decoded <= 2, "{:?}", pw);
        }
    }
}
