//! I/O-phase workload model.
//!
//! The HPC I/O variability literature (see PAPERS.md) shows that
//! checkpoint/analysis codes alternate compute bursts with I/O stalls
//! whose durations are *heavy-tailed*: most stalls are short, but a
//! shared parallel file system under interference occasionally holds a
//! job for many times the median. Power-wise that means utilization
//! square-waves between a compute plateau and a near-idle stall floor,
//! with the stall widths drawn from a Pareto-like tail — a very
//! different stress on the full-core-phase rule than HPL's smooth
//! decline: a 20% window can land on an unlucky run of long stalls and
//! misread the average by the whole compute-to-stall swing.
//!
//! The model divides the core phase into fixed *cycles*. Each cycle is a
//! compute burst followed by one stall whose duration is a bounded
//! Pareto draw, deterministic per `(node, cycle)` — no RNG state, so two
//! simulations of the same machine agree bit-for-bit regardless of
//! evaluation order.

use crate::phase::RunPhases;
use crate::Workload;
use power_stats::hash::Fnv1a;

/// An I/O-coupled run alternating compute and heavy-tailed I/O stalls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoPhase {
    phases: RunPhases,
    /// Utilization during compute bursts.
    compute_level: f64,
    /// Utilization during an I/O stall (CPU mostly waiting on the file
    /// system).
    stall_level: f64,
    /// Length of one compute+stall cycle in seconds.
    cycle_s: f64,
    /// Mean fraction of a cycle spent stalled (sets the Pareto scale).
    mean_stall_frac: f64,
    /// Pareto tail index of the stall duration (1 < alpha <= 3; lower is
    /// heavier-tailed).
    tail_alpha: f64,
    /// Whole-machine useful flops of the run (compute phases only).
    total_flops: f64,
}

/// SplitMix64-style hash of `(node, cycle)` folded to a uniform in
/// `[0, 1)` — the deterministic stand-in for an RNG draw.
fn hash01(node: usize, cycle: u64) -> f64 {
    let mut z = (node as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cycle)
        .wrapping_add(0x1234_5678_9ABC_DEF1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // 53-bit mantissa fill.
    (z >> 11) as f64 / (1u64 << 53) as f64
}

impl IoPhase {
    /// Creates an I/O-phase run with representative defaults: 4-minute
    /// cycles, a quarter of each cycle stalled on average, tail index 1.6.
    pub fn new(phases: RunPhases, total_flops: f64) -> Option<Self> {
        if !(total_flops >= 0.0 && total_flops.is_finite()) {
            return None;
        }
        Some(IoPhase {
            phases,
            compute_level: 0.94,
            stall_level: 0.12,
            cycle_s: 240.0,
            mean_stall_frac: 0.25,
            tail_alpha: 1.6,
            total_flops,
        })
    }

    /// Overrides the cycle length (clamped to at least 1 s).
    pub fn with_cycle_s(mut self, cycle_s: f64) -> Self {
        self.cycle_s = cycle_s.max(1.0);
        self
    }

    /// Stall duration of cycle `k` on `node`, in seconds.
    ///
    /// Bounded Pareto: `d = x_m * (1 - u)^(-1/alpha)` capped at 90% of
    /// the cycle, with the scale `x_m` chosen so the *uncapped* mean is
    /// `mean_stall_frac * cycle_s`.
    pub fn stall_duration(&self, node: usize, cycle: u64) -> f64 {
        let mean = self.mean_stall_frac * self.cycle_s;
        let x_m = mean * (self.tail_alpha - 1.0) / self.tail_alpha;
        let u = hash01(node, cycle);
        let d = x_m * (1.0 - u).powf(-1.0 / self.tail_alpha);
        d.min(0.9 * self.cycle_s)
    }

    /// Mean core-phase utilization (numerical quadrature over one node).
    pub fn mean_core_utilization(&self) -> f64 {
        let steps = 20_000;
        let mut acc = 0.0;
        for i in 0..steps {
            let t = self.phases.core_start() + (i as f64 + 0.5) / steps as f64 * self.phases.core();
            acc += self.utilization(0, t);
        }
        acc / steps as f64
    }
}

impl Workload for IoPhase {
    fn name(&self) -> &str {
        "I/O-phase"
    }

    fn phases(&self) -> RunPhases {
        self.phases
    }

    fn utilization(&self, node: usize, t: f64) -> f64 {
        if !self.phases.in_run(t) {
            return 0.0;
        }
        if !self.phases.in_core(t) {
            return 0.10;
        }
        // Per-node stagger so the machine's stalls do not align (each node
        // writes its checkpoint shard when its own burst finishes).
        let offset = hash01(node, u64::MAX) * self.cycle_s;
        let ts = t - self.phases.core_start() + offset;
        let cycle = (ts / self.cycle_s) as u64;
        let pos = ts - cycle as f64 * self.cycle_s;
        let stall = self.stall_duration(node, cycle);
        if pos > self.cycle_s - stall {
            self.stall_level
        } else {
            self.compute_level
        }
    }

    fn total_flops(&self) -> f64 {
        self.total_flops
    }

    fn fingerprint(&self, h: &mut Fnv1a) {
        let IoPhase {
            phases,
            compute_level,
            stall_level,
            cycle_s,
            mean_stall_frac,
            tail_alpha,
            total_flops,
        } = self;
        h.write_str("io_phase");
        phases.fingerprint(h);
        h.write_f64(*compute_level);
        h.write_f64(*stall_level);
        h.write_f64(*cycle_s);
        h.write_f64(*mean_stall_frac);
        h.write_f64(*tail_alpha);
        h.write_f64(*total_flops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> RunPhases {
        RunPhases::new(120.0, 4.0 * 3600.0, 120.0).unwrap()
    }

    fn wl() -> IoPhase {
        IoPhase::new(phases(), 1.0e15).unwrap()
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = wl();
        crate::assert_fingerprints_distinct(&[
            &base,
            &IoPhase {
                phases: RunPhases::core_only(3600.0).unwrap(),
                ..base
            },
            &IoPhase {
                compute_level: 0.9,
                ..base
            },
            &IoPhase {
                stall_level: 0.15,
                ..base
            },
            &IoPhase {
                cycle_s: 250.0,
                ..base
            },
            &IoPhase {
                mean_stall_frac: 0.3,
                ..base
            },
            &IoPhase {
                tail_alpha: 1.7,
                ..base
            },
            &IoPhase {
                total_flops: 2.0e15,
                ..base
            },
        ]);
    }

    #[test]
    fn utilization_square_waves_between_levels() {
        let w = wl();
        let mut compute = 0usize;
        let mut stalled = 0usize;
        for i in 0..20_000 {
            let t = 120.0 + i as f64 * (4.0 * 3600.0) / 20_000.0;
            let u = w.utilization(0, t);
            assert!(u == 0.94 || u == 0.12, "u = {u} at t = {t}");
            if u == 0.94 {
                compute += 1;
            } else {
                stalled += 1;
            }
        }
        // Both levels occur, with compute dominating.
        assert!(compute > stalled, "{compute} vs {stalled}");
        assert!(stalled > 1000, "only {stalled} stall samples");
    }

    #[test]
    fn stall_durations_are_heavy_tailed() {
        let w = wl();
        let n = 20_000u64;
        let durations: Vec<f64> = (0..n).map(|k| w.stall_duration(7, k)).collect();
        let mean = durations.iter().sum::<f64>() / n as f64;
        let median = {
            let mut d = durations.clone();
            d.sort_by(|a, b| a.partial_cmp(b).unwrap());
            d[d.len() / 2]
        };
        // Heavy tail: the mean well exceeds the median, and the max hits
        // the 90%-of-cycle cap.
        assert!(mean > 1.3 * median, "mean {mean} vs median {median}");
        let max = durations.iter().cloned().fold(0.0, f64::max);
        assert!((max - 0.9 * 240.0).abs() < 1e-9, "max = {max}");
        // The cap costs some of the uncapped mean but stays in the right
        // regime (mean stall fraction 0.25 of a 240 s cycle = 60 s).
        assert!(mean > 30.0 && mean < 60.0, "mean = {mean}");
    }

    #[test]
    fn deterministic_and_node_staggered() {
        let w = wl();
        for i in 0..200 {
            let t = 500.0 + i as f64 * 61.3;
            assert_eq!(w.utilization(3, t), w.utilization(3, t));
        }
        // Different nodes disagree somewhere (staggered stalls).
        let disagreements = (0..500)
            .filter(|&i| {
                let t = 120.0 + i as f64 * 23.7;
                w.utilization(0, t) != w.utilization(1, t)
            })
            .count();
        assert!(disagreements > 10, "only {disagreements} disagreements");
    }

    #[test]
    fn short_windows_misread_the_mean() {
        // A window shorter than a few cycles can land entirely in compute
        // or catch a long stall: segment averages spread far more than the
        // full-core mean. This is the workload's methodology point.
        let w = wl();
        let mean = w.mean_core_utilization();
        assert!(mean > 0.6 && mean < 0.9, "mean = {mean}");
        let window = 120.0; // half a cycle
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for k in 0..100 {
            let a = 120.0 + k as f64 * 140.0;
            let steps = 200;
            let avg = (0..steps)
                .map(|i| w.utilization(0, a + (i as f64 + 0.5) / steps as f64 * window))
                .sum::<f64>()
                / steps as f64;
            lo = lo.min(avg);
            hi = hi.max(avg);
        }
        assert!(hi - lo > 0.3, "window spread = {}", hi - lo);
    }

    #[test]
    fn idle_outside_run_and_flops_recorded() {
        let w = wl();
        assert_eq!(w.utilization(0, -5.0), 0.0);
        assert_eq!(w.utilization(0, 60.0), 0.10);
        assert_eq!(w.utilization(0, 4.0 * 3600.0 + 180.0), 0.10);
        assert_eq!(w.utilization(0, 1e9), 0.0);
        assert_eq!(w.total_flops(), 1.0e15);
        assert!(IoPhase::new(phases(), f64::NAN).is_none());
        assert!(IoPhase::new(phases(), -1.0).is_none());
    }
}
