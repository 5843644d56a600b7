//! Property-based tests for the metering layer.

use proptest::prelude::*;

use power_meter::device::{IntegratingMeter, MeterModel, SamplingMeter, WindowMoments};
use power_meter::faults::{FaultyMeter, MeterFault};
use power_meter::reading::Reading;
use power_stats::rng::seeded;
use proptest::TestCaseError;
use rand::Rng;

fn arb_model() -> impl Strategy<Value = MeterModel> {
    (0.0..0.05f64, 0.0..0.02f64, 0.0..5.0f64, 0.5..10.0f64).prop_map(
        |(class, noise, quant, interval)| MeterModel {
            accuracy_class: class,
            noise_sigma: noise,
            quantization_w: quant,
            sample_interval_s: interval,
        },
    )
}

/// The walk as a division per instant: instant `j` at
/// `max(from, t0) + (j + ½)·interval`, reading index `(t − t0)/dt`, until
/// an instant reaches the window's end or the series'.
fn reference_walk(
    len: usize,
    t0: f64,
    dt: f64,
    from: f64,
    to: f64,
    interval: f64,
) -> Vec<(usize, f64)> {
    let t_last = to.min(t0 + len as f64 * dt);
    let window_start = from.max(t0);
    let mut out = vec![];
    for j in 0.. {
        let t = window_start + (j as f64 + 0.5) * interval;
        let idx = ((t - t0) / dt) as usize;
        if t < t_last && idx < len {
            out.push((idx, t));
        } else {
            break;
        }
    }
    out
}

fn random_series(seed: u64, len: usize) -> Vec<f64> {
    let mut rng = seeded(seed);
    (0..len)
        .map(|_| 100.0 + 400.0 * rng.random::<f64>())
        .collect()
}

/// A meter of the given sampling interval (the walk reads nothing else).
fn meter_at(interval: f64) -> SamplingMeter {
    let model = MeterModel {
        sample_interval_s: interval,
        ..MeterModel::pdu_grade()
    };
    model.instantiate(&mut seeded(1)).unwrap()
}

/// Asserts the meter's walk expands to the reference walk's instants bit
/// for bit, in runs of one index each, and that its moments equal the
/// reference's: `n` and `min w` exactly, and `sum` and `sum_sq` bit for
/// bit against `k·w` and `k·w²` added once per run, in run order.
fn assert_walk_matches(
    series: &[f64],
    (t0, dt, from, to): (f64, f64, f64, f64),
    interval: f64,
) -> Result<(), TestCaseError> {
    let want = reference_walk(series.len(), t0, dt, from, to, interval);
    let mut walk = meter_at(interval)
        .sample_walk(series.len(), t0, dt, from, to)
        .unwrap();
    let moments = walk.clone().moments(series);
    let (mut got, mut runs) = (vec![], vec![]);
    // Stop one past the reference's length, so a runaway walk fails
    // instead of filling memory.
    while let Some((index, first, count)) = walk.next() {
        prop_assert!(count > 0);
        prop_assert_eq!(first, got.len());
        runs.push((index, count));
        let take = count.min(want.len() + 1 - got.len());
        got.extend((first..first + take).map(|j| (index, walk.instant(j))));
        if got.len() > want.len() {
            break;
        }
    }
    let bits = |v: &[(usize, f64)]| v.iter().map(|&(i, t)| (i, t.to_bits())).collect::<Vec<_>>();
    prop_assert_eq!(
        bits(&got),
        bits(&want),
        "{} {} {} {} {}",
        t0,
        dt,
        from,
        to,
        interval
    );
    // The reference's instants grouped by index: the runs, maximal.
    let mut groups: Vec<(usize, usize)> = vec![];
    for &(idx, _) in &want {
        match groups.last_mut() {
            Some((last, k)) if *last == idx => *k += 1,
            _ => groups.push((idx, 1)),
        }
    }
    prop_assert_eq!(runs, groups.clone());
    let mut oracle = WindowMoments {
        n: want.len(),
        sum: 0.0,
        sum_sq: 0.0,
        min_w: f64::INFINITY,
    };
    for (idx, k) in groups {
        let (w, k) = (series[idx], k as f64);
        oracle.sum += k * w;
        oracle.sum_sq += k * (w * w);
        oracle.min_w = oracle.min_w.min(w);
    }
    prop_assert_eq!(moments.n, oracle.n);
    prop_assert_eq!(moments.sum.to_bits(), oracle.sum.to_bits());
    prop_assert_eq!(moments.sum_sq.to_bits(), oracle.sum_sq.to_bits());
    prop_assert_eq!(moments.min_w.to_bits(), oracle.min_w.to_bits());
    Ok(())
}

#[test]
fn sample_walk_matches_division_per_instant_on_degenerate_steps() {
    // Steps no trace has still walk the reference's instants and end:
    // NaN, infinite and huge steps read index 0 for the whole window, and
    // zero, subnormal and negative steps leave it empty.
    let series: Vec<f64> = (0..50).map(|i| 200.0 + i as f64).collect();
    for dt in [f64::NAN, f64::INFINITY, 0.0, 1e-300, 5e-324, 1e300, -1.0] {
        for (t0, from, to) in [
            (0.0, 0.0, 40.0),
            (3.0, 1.0, 7.5),
            (1e6, 1e6 + 2.0, 1e6 + 30.0),
        ] {
            assert_walk_matches(&series, (t0, dt, from, to), 0.7).unwrap();
        }
    }
}

#[test]
fn sample_walk_matches_division_per_instant_on_decimal_steps() {
    // Decimal intervals and steps whose instants fall on run boundaries
    // in exact arithmetic: rounding puts them a float either side, where
    // a run's end from the formula is one instant off until the walk
    // corrects it with the division.
    let series: Vec<f64> = (0..400).map(|i| 150.0 + (i % 17) as f64).collect();
    for interval in [0.1, 0.2, 0.3, 0.7] {
        for dt in [0.1, 0.2, 0.3, 0.6, 0.7, 1.1] {
            for t0 in [0.0, 0.1, 3.3, 1e6 + 0.1] {
                for half_steps in 0..4 {
                    let from = t0 + 0.5 * interval * f64::from(half_steps);
                    let window = (t0, dt, from, from + 40.0);
                    assert_walk_matches(&series, window, interval).unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sample_walk_matches_division_per_instant(
        interval in 0.05..60.0f64,
        t0_kind in 0u32..3,
        t0_frac in 0.0..1.0f64,
        step_kind in 0u32..4,
        ratio in 0.0..1.0f64,
        len in 1usize..400,
        start in -0.2..1.1f64,
        width in 0.001..1.3f64,
        seed in 0u64..1_000,
    ) {
        // t0 at 0, small, or near 1e6; the trace step below, equal to, a
        // multiple of, or an arbitrary ratio of the meter interval; the
        // window may start before t0 and end past the series.
        let t0 = [0.0, 10.0 * t0_frac, 1e6 + 1000.0 * t0_frac][t0_kind as usize];
        let dt = match step_kind {
            0 => interval * (0.02 + 0.98 * ratio),
            1 => interval,
            2 => interval * (2.0 + (7.0 * ratio).floor()),
            _ => interval * (1.0 + 19.0 * ratio),
        };
        let series = random_series(seed, len);
        let span = len as f64 * dt;
        let from = t0 + start * span;
        assert_walk_matches(&series, (t0, dt, from, from + width * span), interval)?;
    }

    #[test]
    fn sample_walk_matches_division_per_instant_on_the_grid(
        exponent in -3i32..4,
        steps in 1u32..9,
        t0_kind in 0u32..3,
        offset in 0u32..40,
        len in 1usize..200,
        width in 0.001..1.3f64,
        seed in 0u64..1_000,
    ) {
        // Dyadic intervals and steps that are exact multiples of them, so
        // instants land exactly on the floats where the index moves on.
        let interval = 2f64.powi(exponent);
        let dt = interval * f64::from(steps);
        let t0 = [0.0, 3.0, 1e6][t0_kind as usize];
        let from = t0 + (f64::from(offset) + 0.5) * interval;
        let span = len as f64 * dt;
        assert_walk_matches(&random_series(seed, len), (t0, dt, from, from + width * span), interval)?;
    }

    #[test]
    fn reading_bounded_by_class_and_noise(model in arb_model(), w in 10.0..5000.0f64, seed in 0u64..500) {
        let mut rng = seeded(seed);
        let meter = model.instantiate(&mut rng).unwrap();
        prop_assert!((meter.gain() - 1.0).abs() <= model.accuracy_class + 1e-12);
        let series = vec![w; 600];
        let r = meter.measure(&mut rng, &series, 0.0, 1.0, 0.0, 600.0).unwrap();
        // Systematic + noise (many samples) + quantization bound.
        let bound = w * model.accuracy_class
            + w * model.noise_sigma * 6.0 / (r.samples as f64).sqrt()
            + model.quantization_w;
        prop_assert!(
            (r.average_w - w).abs() <= bound + 1e-9,
            "avg {} vs true {w}, bound {bound}",
            r.average_w
        );
        prop_assert!(r.samples >= 1);
        // Energy is average times duration.
        prop_assert!((r.energy_j - r.average_w * r.duration_s()).abs() < 1e-6 * r.energy_j.abs().max(1.0));
    }

    #[test]
    fn integrating_meter_window_additivity(
        w1 in 10.0..1000.0f64,
        w2 in 10.0..1000.0f64,
        split in 0.1..0.9f64,
    ) {
        let m = IntegratingMeter::ideal();
        let series: Vec<f64> = (0..100).map(|i| if i < 50 { w1 } else { w2 }).collect();
        let cut = split * 100.0;
        let whole = m.measure(&series, 0.0, 1.0, 0.0, 100.0).unwrap();
        let a = m.measure(&series, 0.0, 1.0, 0.0, cut).unwrap();
        let b = m.measure(&series, 0.0, 1.0, cut, 100.0).unwrap();
        // Energies add exactly across a window split.
        prop_assert!((a.energy_j + b.energy_j - whole.energy_j).abs() < 1e-6);
    }

    #[test]
    fn drift_bias_scales_with_window(rate in -0.02..0.02f64, hours in 1.0..20.0f64, seed in 0u64..100) {
        prop_assume!(rate.abs() > 1e-4);
        let mut rng = seeded(seed);
        let meter = MeterModel::ideal().instantiate(&mut rng).unwrap();
        let faulty = FaultyMeter::new(meter, MeterFault::Drift { rate_per_hour: rate }).unwrap();
        let n = (hours * 3600.0) as usize;
        let series = vec![500.0; n];
        let r = faulty
            .measure(&mut rng, &series, 0.0, 1.0, 0.0, n as f64)
            .unwrap();
        let bias = r.average_w / 500.0 - 1.0;
        let expected = rate * hours / 2.0;
        prop_assert!(
            (bias - expected).abs() < 0.1 * expected.abs() + 1e-4,
            "bias {bias} vs expected {expected}"
        );
    }

    #[test]
    fn dropped_samples_unbiased_on_flat_load(prob in 0.0..0.9f64, seed in 0u64..100) {
        let mut rng = seeded(seed);
        let meter = MeterModel::ideal().instantiate(&mut rng).unwrap();
        let faulty = FaultyMeter::new(meter, MeterFault::DropSamples { prob }).unwrap();
        let series = vec![321.0; 2000];
        if let Ok(r) = faulty.measure(&mut rng, &series, 0.0, 1.0, 0.0, 2000.0) {
            prop_assert!((r.average_w - 321.0).abs() < 1e-9);
            prop_assert!(r.samples <= 2000);
        }
    }

    #[test]
    fn reading_sum_is_commutative(a in 1.0..1000.0f64, b in 1.0..1000.0f64) {
        let mk = |w: f64| Reading {
            t_start: 0.0,
            t_end: 10.0,
            average_w: w,
            energy_j: w * 10.0,
            samples: 10,
        };
        let x = Reading::sum(&[mk(a), mk(b)]).unwrap();
        let y = Reading::sum(&[mk(b), mk(a)]).unwrap();
        prop_assert!((x.average_w - y.average_w).abs() < 1e-12);
        prop_assert!((x.average_w - (a + b)).abs() < 1e-12);
    }
}
