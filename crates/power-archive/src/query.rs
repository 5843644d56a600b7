//! Pruned-scan window aggregation over compressed block summaries.
//!
//! A window aggregate over a regularly sampled series needs the weighted
//! sample sum `cum(hi) - cum(lo)` for the fractional index span
//! `[lo, hi]` produced by [`power_sim::trace::window_span`]. When the
//! series lives on disk as compressed blocks, that sum decomposes into
//!
//! * the stored `sum_watts` of every block whose samples fall entirely
//!   inside `[⌊lo⌋, ⌊hi⌋)` — read from the 60-byte header, body never
//!   decoded;
//! * at most two *boundary* blocks, each answered from its chunk
//!   directory plus at most two 512-sample chunks
//!   ([`crate::codec::decode_watts_span`]): the partial-range sum and
//!   the edge sample values;
//! * fractional edge corrections `-v[⌊lo⌋]·frac(lo) + v[⌊hi⌋]·frac(hi)`.
//!
//! Every term folds through the same Neumaier accumulator the in-memory
//! prefix sums use, so the pruned answer tracks the decode-everything
//! reference to final-fold rounding — the block summaries themselves are
//! compensated as of codec version 2. Cost is O(blocks touched), not
//! O(samples), and blocks outside the window are never read at all.
//!
//! [`pruned_window_sum`] is deliberately storage-agnostic: callers
//! supply per-block metadata (first sample index, count, stored sum) and
//! a closure that decodes one boundary span. `power-archive`'s products
//! tier drives it with positioned segment reads of chunk directories and
//! chunks; the benchmark drives it straight off raw block records.

use crate::codec::WattsSpan;
use power_sim::trace::Neumaier;

/// Per-block metadata a pruned scan needs, typically lifted from block
/// headers once and cached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockMeta {
    /// Index of the block's first sample within the whole series.
    pub first: u64,
    /// Number of samples in the block.
    pub count: u32,
    /// The block's stored (compensated) sum of quantized watt values.
    pub sum_watts: f64,
}

/// Result of a pruned window scan over one series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedWindow {
    /// The weighted sample sum `cum(hi) - cum(lo)`.
    pub weighted_sum: f64,
    /// Blocks in the series.
    pub blocks_total: u64,
    /// Boundary blocks whose bodies were (partially) decoded.
    pub blocks_decoded: u64,
    /// Blocks answered from their header summary or never touched.
    pub blocks_skipped: u64,
}

/// Computes the weighted sample sum for the fractional span `[lo, hi]`
/// (in sample coordinates, `lo < hi`, as produced by
/// [`power_sim::trace::window_span`]) over a series stored as the blocks
/// described by `metas`.
///
/// `metas` must be contiguous and ordered: `metas[0].first == 0` and
/// each block starts where the previous ended. `span(k, start, end)`
/// must return the decoded [`WattsSpan`] for local indices
/// `[start, end)` of block `k`; it is called for at most two blocks.
pub fn pruned_window_sum<E>(
    metas: &[BlockMeta],
    lo: f64,
    hi: f64,
    mut span: impl FnMut(usize, u32, u32) -> Result<WattsSpan, E>,
) -> Result<PrunedWindow, E> {
    debug_assert!(!metas.is_empty() && lo < hi);
    debug_assert!(metas[0].first == 0);
    debug_assert!(metas
        .windows(2)
        .all(|w| w[1].first == w[0].first + u64::from(w[0].count)));

    let ia = lo.floor() as u64;
    let fa = lo - ia as f64;
    let ib = hi.floor() as u64;
    let fb = hi - ib as f64;
    let need_va = fa > 0.0;
    let need_vb = fb > 0.0; // implies ib < steps, since hi <= steps
                            // Last sample index any visited block must contain: the last full
                            // sample of the span, or the sample holding the upper edge value.
    let target_last = if need_vb { ib } else { ib - 1 };

    let mut acc = Neumaier::new();
    let mut va = 0.0;
    let mut vb = 0.0;
    let mut decoded = 0u64;

    let start_k = metas.partition_point(|m| m.first + u64::from(m.count) <= ia);
    for (k, meta) in metas.iter().enumerate().skip(start_k) {
        if meta.first > target_last {
            break;
        }
        let s0 = meta.first;
        let s1 = s0 + u64::from(meta.count);
        let ls = (ia.max(s0) - s0) as u32;
        let le = (ib.min(s1) - s0) as u32;
        let has_va = need_va && ia >= s0 && ia < s1;
        let has_vb = need_vb && ib >= s0 && ib < s1;
        if ls == 0 && le == meta.count {
            // Whole block inside the span: the header sum stands in for
            // the body. Only the lower edge value can still force a
            // (point) decode, when the span starts exactly at sample s0
            // with a fractional offset.
            acc.add(meta.sum_watts);
            if has_va {
                va = span(k, 0, 0)?.value_at_start.unwrap_or(0.0);
                decoded += 1;
            }
            continue;
        }
        let w = span(k, ls, le)?;
        acc.add(w.sum);
        if has_va {
            va = w.value_at_start.unwrap_or(0.0);
        }
        if has_vb {
            vb = w.value_at_end.unwrap_or(0.0);
        }
        decoded += 1;
    }

    let mut weighted = Neumaier::new();
    weighted.add(acc.total());
    weighted.add(-va * fa);
    weighted.add(vb * fb);
    Ok(PrunedWindow {
        weighted_sum: weighted.total(),
        blocks_total: metas.len() as u64,
        blocks_decoded: decoded,
        blocks_skipped: metas.len() as u64 - decoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_watts_span, encode_block, peek_summary, DEFAULT_QUANTUM};
    use power_sim::trace::window_span;
    use power_sim::SystemTrace;

    /// Encodes `watts` into blocks of `block_len` samples on a 1 Hz grid
    /// and returns (block bytes, metas).
    fn build_blocks(watts: &[f64], block_len: usize) -> (Vec<Vec<u8>>, Vec<BlockMeta>) {
        let mut blocks = Vec::new();
        let mut metas = Vec::new();
        let mut first = 0u64;
        for chunk in watts.chunks(block_len) {
            let ts: Vec<i64> = (0..chunk.len() as i64)
                .map(|i| (first as i64 + i) * 1_000_000)
                .collect();
            let bytes = encode_block(&ts, chunk, DEFAULT_QUANTUM).unwrap();
            let summary = peek_summary(&bytes).unwrap();
            metas.push(BlockMeta {
                first,
                count: summary.count,
                sum_watts: summary.sum_watts,
            });
            blocks.push(bytes);
            first += chunk.len() as u64;
        }
        (blocks, metas)
    }

    fn pruned_average(blocks: &[Vec<u8>], metas: &[BlockMeta], from: f64, to: f64) -> PrunedWindow {
        let steps: u64 = metas.iter().map(|m| u64::from(m.count)).sum();
        let (lo, hi) = window_span(0.0, 1.0, steps as usize, from, to).expect("overlap");
        pruned_window_sum(metas, lo, hi, |k, s, e| decode_watts_span(&blocks[k], s, e))
            .expect("decode")
    }

    #[test]
    fn pruned_matches_prefix_sum_reference_across_boundaries() {
        // 10 blocks of 50 quantized samples; sweep windows across every
        // block-edge alignment, including fractional edges.
        let watts: Vec<f64> = (0..500)
            .map(|i| crate::codec::quantize(310.0 + ((i * 7) % 23) as f64 * 0.5, DEFAULT_QUANTUM))
            .collect();
        let (blocks, metas) = build_blocks(&watts, 50);
        let trace = SystemTrace::new(0.0, 1.0, watts.clone()).unwrap();
        for edge in (0..=500).step_by(50) {
            for (from, to) in [
                (edge as f64 - 10.25, edge as f64 + 10.75),
                (edge as f64, edge as f64 + 50.0),
                (edge as f64 - 0.5, edge as f64 + 0.5),
                (0.0, edge as f64 + 0.125),
            ] {
                let reference = match trace.window_average(from, to) {
                    Ok(r) => r,
                    Err(_) => continue, // zero-measure overlap
                };
                let pw = pruned_average(&blocks, &metas, from, to);
                let (lo, hi) = window_span(0.0, 1.0, 500, from, to).unwrap();
                let got = pw.weighted_sum / (hi - lo);
                assert!(
                    (got - reference).abs() <= 1e-9 * (1.0 + reference.abs()),
                    "window [{from},{to}): pruned {got} vs reference {reference}"
                );
                assert!(pw.blocks_decoded <= 2, "{pw:?} for [{from},{to})");
            }
        }
    }

    #[test]
    fn million_sample_adversarial_magnitudes_agree_with_prefix_sums() {
        // ≥ 1M samples alternating huge and tiny grid-exact values:
        // every value is a multiple of the quantum, so quantization is
        // lossless and the comparison isolates summation precision.
        // Naive block sums lose the tiny values entirely (2^20 W vs
        // 2^-10 W is past f64's 52-bit mantissa when accumulated
        // naively against a large running sum); the compensated sums on
        // both sides must agree to ULP scale.
        let n = 1_048_576usize;
        let watts: Vec<f64> = (0..n)
            .map(|i| match i % 4 {
                0 => 1_048_576.0,
                1 => DEFAULT_QUANTUM,
                2 => 524_288.5,
                _ => 3.0 * DEFAULT_QUANTUM,
            })
            .collect();
        let (blocks, metas) = build_blocks(&watts, 8192);
        let trace = SystemTrace::new(0.0, 1.0, watts.clone()).unwrap();

        let abs_total: f64 = watts.iter().map(|v| v.abs()).sum();
        for (from, to) in [
            (0.0, n as f64),
            (100.25, 1_000_000.75),
            (8191.5, 8192.5),
            (123_456.0, 654_321.0),
            (0.5, 1.5),
        ] {
            let pw = pruned_average(&blocks, &metas, from, to);
            let (lo, hi) = window_span(0.0, 1.0, n, from, to).unwrap();
            let got = pw.weighted_sum / (hi - lo);
            let reference = trace.window_average(from, to).unwrap();
            // ULP-scaled bound: both sides carry rounding proportional
            // to the magnitude of the prefix sums they subtract, not to
            // the (possibly tiny) window average itself.
            let tol = 16.0 * f64::EPSILON * (abs_total / (hi - lo) + reference.abs());
            assert!(
                (got - reference).abs() <= tol,
                "window [{from},{to}): pruned {got} vs reference {reference} (tol {tol:e})"
            );
        }
    }

    #[test]
    fn full_span_decodes_nothing() {
        let watts: Vec<f64> = (0..400).map(|i| 250.0 + (i % 13) as f64).collect();
        let (blocks, metas) = build_blocks(&watts, 100);
        let pw = pruned_average(&blocks, &metas, 0.0, 400.0);
        assert_eq!(pw.blocks_decoded, 0);
        assert_eq!(pw.blocks_skipped, 4);
        let trace = SystemTrace::new(0.0, 1.0, watts).unwrap();
        let reference = trace.window_average(0.0, 400.0).unwrap();
        assert!((pw.weighted_sum / 400.0 - reference).abs() <= 1e-9 * (1.0 + reference.abs()));
    }

    #[test]
    fn window_inside_one_sample() {
        let watts: Vec<f64> = (0..100).map(|i| 100.0 + i as f64).collect();
        let (blocks, metas) = build_blocks(&watts, 10);
        // [37.25, 37.75) covers half of sample 37 only.
        let pw = pruned_average(&blocks, &metas, 37.25, 37.75);
        let avg = pw.weighted_sum / 0.5;
        assert!((avg - 137.0).abs() < 1e-12, "got {avg}");
        assert_eq!(pw.blocks_decoded, 1);
    }
}
