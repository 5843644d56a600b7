//! Property-based tests: the streaming path must agree with the batch
//! trace machinery whatever the sample values, arrival order, lateness
//! bound or window placement.

use proptest::prelude::*;

use power_sim::SystemTrace;
use power_telemetry::ingest::{Collector, IngestConfig, Sample};
use power_telemetry::ring::RingBuffer;
use power_telemetry::TelemetryError;
use rand::{Rng, SeedableRng};

/// Deterministic in-place jitter within blocks of `lateness` samples —
/// the maximum disorder the ingestion watermark repairs losslessly.
fn block_jitter(samples: &mut [Sample], lateness: u64, seed: u64) {
    let block = lateness.max(1) as usize;
    if block < 2 {
        return;
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for chunk in samples.chunks_mut(block) {
        for i in (1..chunk.len()).rev() {
            let j = rng.random_range(0..=i);
            chunk.swap(i, j);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Ring sliding-window averages agree with `SystemTrace::window_average`
    /// within 1e-9 relative, for random series, origins, sample intervals
    /// and window placements, including windows clipped at either edge.
    #[test]
    fn ring_agrees_with_trace_window_average(
        values in prop::collection::vec(5.0..2000.0f64, 2..200),
        t0 in -50.0..50.0f64,
        dt in 0.05..20.0f64,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
        overhang in prop::bool::ANY,
    ) {
        let n = values.len();
        let trace = SystemTrace::new(t0, dt, values.clone()).unwrap();
        let mut ring = RingBuffer::new(t0, dt, n).unwrap();
        for &v in &values {
            ring.push(v);
        }
        let t_end = t0 + n as f64 * dt;
        // Random window inside the trace, optionally pushed past the
        // edges so clipping is exercised on both sides.
        let (mut from, mut to) = if a < b {
            (t0 + a * (t_end - t0), t0 + b * (t_end - t0))
        } else {
            (t0 + b * (t_end - t0), t0 + a * (t_end - t0))
        };
        if overhang {
            from -= 2.0 * dt;
            to += 2.0 * dt;
        }
        prop_assume!(to - from > 1e-9 * dt);
        let want = trace.window_average(from, to).unwrap();
        let got = ring.window_average(from, to).unwrap();
        prop_assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "ring {got} vs trace {want} over [{from}, {to})"
        );
        // Energy agrees with average x clipped duration.
        let lo = from.max(t0);
        let hi = to.min(t_end);
        let e = ring.window_energy(from, to).unwrap();
        prop_assert!(
            (e - want * (hi - lo)).abs() <= 1e-6 * e.abs().max(1.0),
            "energy {e} vs {}", want * (hi - lo)
        );
    }

    /// Ingesting a block-jittered stream under a sufficient lateness
    /// bound is lossless: the ring holds the true-order series and every
    /// window average matches the batch trace.
    #[test]
    fn jittered_ingestion_is_lossless_and_matches_trace(
        values in prop::collection::vec(5.0..2000.0f64, 4..160),
        lateness in 0u64..12,
        jitter_seed in 0u64..1000,
        a in 0.0..1.0f64,
        b in 0.0..1.0f64,
    ) {
        let n = values.len();
        let dt = 1.0;
        let trace = SystemTrace::new(0.0, dt, values.clone()).unwrap();
        let mut samples: Vec<Sample> = values
            .iter()
            .enumerate()
            .map(|(k, &v)| Sample { node: 0, seq: k as u64, watts: v })
            .collect();
        block_jitter(&mut samples, lateness, jitter_seed);
        let cfg = IngestConfig {
            lateness,
            ring_capacity: n + lateness as usize + 2,
        };
        let mut c = Collector::new(1, 0.0, dt, &cfg).unwrap();
        for s in samples {
            c.ingest(s).unwrap();
        }
        c.flush();
        let stats = c.stats();
        prop_assert_eq!(stats.accepted, n as u64);
        prop_assert_eq!(stats.dropped(), 0);
        prop_assert_eq!(stats.gaps, 0);
        let ring = c.ring(0).unwrap();
        for (k, &v) in values.iter().enumerate() {
            prop_assert_eq!(ring.get(k as u64), Some(v));
        }
        let (from, to) = if a < b {
            (a * n as f64, b * n as f64)
        } else {
            (b * n as f64, a * n as f64)
        };
        prop_assume!(to - from > 1e-9);
        let want = trace.window_average(from, to).unwrap();
        let got = ring.window_average(from, to).unwrap();
        prop_assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "ring {got} vs trace {want}"
        );
    }

    /// Once the ring evicts, queries clamp to the retained horizon and
    /// agree with the batch average over exactly that suffix.
    #[test]
    fn evicted_ring_matches_trace_over_retained_suffix(
        values in prop::collection::vec(5.0..2000.0f64, 20..120),
        capacity in 4usize..16,
    ) {
        let n = values.len();
        prop_assume!(capacity < n);
        let trace = SystemTrace::new(0.0, 1.0, values.clone()).unwrap();
        let mut ring = RingBuffer::new(0.0, 1.0, capacity).unwrap();
        for &v in &values {
            ring.push(v);
        }
        let start = (n - capacity) as f64;
        // A query over the whole stream silently clamps to the suffix.
        let want = trace.window_average(start, n as f64).unwrap();
        let got = ring.window_average(0.0, n as f64).unwrap();
        prop_assert!((got - want).abs() <= 1e-9 * want.abs().max(1.0));
        // A query entirely inside the evicted prefix names the horizon.
        prop_assert_eq!(
            ring.window_average(0.0, start - 1.0),
            Err(TelemetryError::Evicted { oldest_retained: (n - capacity) as u64 })
        );
    }
}
