//! Graph500-style BFS workload model.
//!
//! The paper's list of power-measuring benchmarks includes the Green
//! Graph 500, whose breadth-first-search workload is nothing like HPL:
//! each BFS sweeps through frontier levels whose sizes grow explosively
//! and collapse, so compute utilization *oscillates* through the whole
//! core phase instead of holding a plateau. This is the strongest case
//! for the paper's full-core-phase rule — a 20% window does not even see
//! a representative mix of levels unless it happens to align with whole
//! BFS iterations.
//!
//! The model runs `iterations` identical BFS sweeps across the core
//! phase. Within a sweep, normalized time `s in [0, 1)` maps to a
//! frontier-size bump `sin(pi s)^shape` (small frontier at the roots,
//! explosive middle levels, collapsing tail), with short communication
//! lulls between levels.

use crate::phase::RunPhases;
use crate::Workload;
use power_stats::hash::Fnv1a;

/// A Graph500 BFS run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Graph500 {
    phases: RunPhases,
    /// Number of BFS iterations across the core phase (the benchmark runs
    /// 64 search keys).
    iterations: u32,
    /// Peak utilization at the largest frontier level.
    peak: f64,
    /// Utilization floor during root/tail levels and communication lulls.
    floor: f64,
    /// Sharpness of the frontier bump (higher = spikier).
    shape: f64,
    /// Number of levels per sweep (sets the lull frequency).
    levels: u32,
    /// Fraction of each level spent in the communication lull.
    lull_frac: f64,
    /// Traversed edges per second at peak, machine-wide (for TEPS-style
    /// metrics; not flops).
    edges_per_second: f64,
}

impl Graph500 {
    /// Creates a BFS run with Graph500-like defaults: 64 iterations,
    /// spiky frontiers, 20% communication lulls.
    pub fn new(phases: RunPhases) -> Self {
        Graph500 {
            phases,
            iterations: 64,
            peak: 0.95,
            floor: 0.18,
            shape: 2.5,
            levels: 12,
            lull_frac: 0.2,
            edges_per_second: 0.0,
        }
    }

    /// Overrides the iteration count (clamped to at least 1).
    pub fn with_iterations(mut self, iterations: u32) -> Self {
        self.iterations = iterations.max(1);
        self
    }

    /// The frontier-bump envelope at within-sweep progress `s in [0, 1)`.
    pub fn frontier_bump(&self, s: f64) -> f64 {
        let s = s.clamp(0.0, 1.0);
        (std::f64::consts::PI * s).sin().powf(self.shape)
    }

    /// Mean core-phase utilization (numerical quadrature).
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

impl Workload for Graph500 {
    fn name(&self) -> &str {
        "Graph500 BFS"
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
        let tau = self.phases.core_progress(t);
        // Which sweep, and where inside it.
        let sweep_pos = (tau * self.iterations as f64).fract();
        let bump = self.frontier_bump(sweep_pos);
        // Communication lull at the end of each level.
        let level_pos = (sweep_pos * self.levels as f64).fract();
        let in_lull = level_pos > 1.0 - self.lull_frac;
        let mut u = self.floor + (self.peak - self.floor) * bump;
        if in_lull {
            // All-to-all exchange: compute units mostly idle.
            u = self.floor + 0.25 * (u - self.floor);
        }
        // Slight per-node stagger (partition imbalance within a level).
        let stagger = 0.02 * ((node as f64 * 2.399_963 + sweep_pos * 40.0).sin());
        (u + stagger).clamp(0.0, 1.0)
    }

    fn total_flops(&self) -> f64 {
        // Graph traversal is not flop-counted; TEPS is tracked separately.
        let _ = self.edges_per_second;
        0.0
    }

    fn fingerprint(&self, h: &mut Fnv1a) {
        let Graph500 {
            phases,
            iterations,
            peak,
            floor,
            shape,
            levels,
            lull_frac,
            edges_per_second,
        } = self;
        h.write_str("graph500");
        phases.fingerprint(h);
        h.write_u64(u64::from(*iterations));
        h.write_f64(*peak);
        h.write_f64(*floor);
        h.write_f64(*shape);
        h.write_u64(u64::from(*levels));
        h.write_f64(*lull_frac);
        h.write_f64(*edges_per_second);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpl::{Hpl, HplVariant};

    fn phases() -> RunPhases {
        RunPhases::new(120.0, 3600.0, 120.0).unwrap()
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = Graph500::new(phases());
        crate::assert_fingerprints_distinct(&[
            &base,
            &Graph500 {
                phases: RunPhases::core_only(3600.0).unwrap(),
                ..base
            },
            &Graph500 {
                iterations: 63,
                ..base
            },
            &Graph500 { peak: 0.9, ..base },
            &Graph500 { floor: 0.2, ..base },
            &Graph500 { shape: 2.0, ..base },
            &Graph500 { levels: 13, ..base },
            &Graph500 {
                lull_frac: 0.25,
                ..base
            },
            &Graph500 {
                edges_per_second: 1.0e9,
                ..base
            },
        ]);
    }

    fn segment_mean(wl: &dyn Workload, from: f64, to: f64) -> f64 {
        let p = wl.phases();
        let (a, b) = p.core_segment(from, to);
        let steps = 6000;
        (0..steps)
            .map(|i| wl.utilization(3, a + (i as f64 + 0.5) / steps as f64 * (b - a)))
            .sum::<f64>()
            / steps as f64
    }

    #[test]
    fn utilization_in_range_and_oscillating() {
        let g = Graph500::new(phases());
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for i in 0..5000 {
            let u = g.utilization(0, 120.0 + i as f64 * 0.72);
            assert!((0.0..=1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        // Strong oscillation: the range spans most of floor..peak.
        assert!(hi - lo > 0.5, "range = {}", hi - lo);
    }

    #[test]
    fn sweeps_are_periodic() {
        let g = Graph500::new(phases()).with_iterations(8);
        let period = 3600.0 / 8.0;
        // Floating-point rounding can flip a sample across a level/lull
        // boundary, so allow a couple of boundary hits out of 50 probes.
        let mut mismatches = 0;
        for k in 0..50 {
            let t = 200.0 + k as f64 * 7.3;
            let a = g.utilization(0, t);
            let b = g.utilization(0, t + period);
            if (a - b).abs() > 1e-6 {
                mismatches += 1;
            }
        }
        assert!(mismatches <= 2, "{mismatches} aperiodic probes");
    }

    #[test]
    fn frontier_bump_shape() {
        let g = Graph500::new(phases());
        assert!(g.frontier_bump(0.0) < 1e-12);
        assert!(g.frontier_bump(1.0) < 1e-12);
        assert!((g.frontier_bump(0.5) - 1.0).abs() < 1e-12);
        assert!(g.frontier_bump(0.25) < g.frontier_bump(0.4));
    }

    #[test]
    fn whole_sweep_segments_are_representative() {
        // Segments aligned to whole sweeps agree with the core mean even
        // though instantaneous power oscillates wildly: it is *within*
        // sweeps that short windows go wrong.
        let g = Graph500::new(phases()).with_iterations(20);
        let mean = g.mean_core_utilization();
        // [0, 0.2] covers exactly 4 sweeps.
        let first = segment_mean(&g, 0.0, 0.2);
        assert!((first - mean).abs() / mean < 0.02, "{first} vs {mean}");
        // A window a tenth of one sweep long can be far off.
        let tiny = segment_mean(&g, 0.5, 0.5 + 0.1 / 20.0);
        assert!(
            (tiny - mean).abs() / mean > 0.2,
            "tiny window {tiny} vs mean {mean}"
        );
    }

    #[test]
    fn burstier_than_hpl_cpu() {
        // Sample-to-sample variability dwarfs a CPU HPL run's.
        let g = Graph500::new(phases());
        let hpl = Hpl::new(HplVariant::CpuMainMemory, phases(), 1e15).unwrap();
        let spread = |wl: &dyn Workload| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for i in 0..2000 {
                let u = wl.utilization(0, 500.0 + i as f64 * 1.1);
                lo = lo.min(u);
                hi = hi.max(u);
            }
            hi - lo
        };
        assert!(spread(&g) > 5.0 * spread(&hpl));
    }

    #[test]
    fn idle_outside_run() {
        let g = Graph500::new(phases());
        assert_eq!(g.utilization(0, -1.0), 0.0);
        assert_eq!(g.utilization(0, 60.0), 0.10);
        assert_eq!(g.utilization(0, 3800.0), 0.10);
        assert_eq!(g.utilization(0, 1e7), 0.0);
        assert_eq!(g.total_flops(), 0.0);
    }
}
