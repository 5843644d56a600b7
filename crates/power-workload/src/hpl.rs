//! High-Performance Linpack (HPL) load model.
//!
//! HPL factorizes a dense `N x N` matrix; as the factorization proceeds the
//! trailing matrix shrinks and with it the amount of exploitable
//! parallelism. The paper observes two regimes:
//!
//! * **CPU main-memory runs** (Colosse, Sequoia): `N` fills main memory,
//!   runs last 7–28 hours, and DGEMM efficiency barely depends on the
//!   trailing-matrix size until the very end — segment power averages agree
//!   to 0.25–3.5% (Table 2);
//! * **GPU in-core runs** (Piz Daint, L-CSC): the matrix must fit in GPU
//!   memory, runs finish in ~1.5 h, and the GPUs hold full efficiency only
//!   while the trailing matrix still saturates them, after which throughput
//!   collapses; the paper measures >20% difference between the first-20%
//!   and last-20% segment averages — the exploit behind "optimal interval"
//!   gaming.
//!
//! The model captures both regimes with a **plateau-and-decline envelope**
//! over normalized core-phase time `tau`:
//!
//! ```text
//! u(tau) = peak                                   for tau <= plateau_frac
//! u(tau) = peak * (1 - (1-end_frac) * sigma^kappa) otherwise,
//!          sigma = (tau - plateau_frac) / (1 - plateau_frac)
//! ```
//!
//! CPU runs use `plateau_frac = 0` with a gentle high-`kappa` decline (the
//! drop concentrates in the tail); GPU in-core runs use a long plateau with
//! a near-linear collapse to a small `end_frac`. A short warm-up ramp at
//! the start of the core phase reproduces the "not flat at the very
//! beginning" behaviour that motivates the middle-80% rule, and a
//! deterministic per-node "panel ripple" gives traces their jagged texture.

use crate::phase::RunPhases;
use crate::Workload;
use power_stats::hash::Fnv1a;
use std::sync::OnceLock;

/// Which HPL regime to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HplVariant {
    /// Matrix fills main memory; long, flat run (traditional CPU systems).
    CpuMainMemory,
    /// Matrix fits in accelerator memory; short, sloped run (GPU systems).
    GpuInCore,
}

/// Tunable parameters of the HPL utilization envelope.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HplShape {
    /// Peak utilization reached after warm-up.
    pub peak: f64,
    /// Fraction of the core phase spent at full efficiency before the
    /// trailing-matrix decline begins.
    pub plateau_frac: f64,
    /// Utilization at the very end of the run, as a fraction of `peak`.
    pub end_frac: f64,
    /// Curvature of the decline: 1 = linear collapse (GPU in-core),
    /// large = drop concentrated in the tail (CPU main-memory).
    pub kappa: f64,
    /// Warm-up ramp length as a fraction of the core phase.
    pub warmup_frac: f64,
    /// Utilization during setup/teardown.
    pub idle: f64,
    /// Amplitude of the deterministic per-step "jaggedness" (panel
    /// factorization vs update alternation), as a utilization fraction.
    pub ripple: f64,
    /// Number of panel steps across the run (sets the ripple frequency).
    pub panel_steps: f64,
}

impl HplShape {
    /// Feeds every envelope parameter into `h` (see
    /// [`Workload::fingerprint`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let HplShape {
            peak,
            plateau_frac,
            end_frac,
            kappa,
            warmup_frac,
            idle,
            ripple,
            panel_steps,
        } = *self;
        for v in [
            peak,
            plateau_frac,
            end_frac,
            kappa,
            warmup_frac,
            idle,
            ripple,
            panel_steps,
        ] {
            h.write_f64(v);
        }
    }

    /// Default shape for the given variant, tuned against the paper's
    /// Table 2 segment ratios (per-system presets in `power-sim::systems`
    /// refine these further).
    pub fn for_variant(variant: HplVariant) -> Self {
        match variant {
            HplVariant::CpuMainMemory => HplShape {
                peak: 0.97,
                plateau_frac: 0.0,
                end_frac: 0.91,
                kappa: 3.0,
                warmup_frac: 0.01,
                idle: 0.08,
                ripple: 0.004,
                panel_steps: 240.0,
            },
            HplVariant::GpuInCore => HplShape {
                peak: 0.99,
                plateau_frac: 0.55,
                end_frac: 0.12,
                kappa: 1.0,
                warmup_frac: 0.02,
                idle: 0.10,
                ripple: 0.025,
                panel_steps: 120.0,
            },
        }
    }
}

/// An HPL run: variant, phase timing, and total flop count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hpl {
    variant: HplVariant,
    phases: RunPhases,
    shape: HplShape,
    total_flops: f64,
}

/// Error constructing an [`Hpl`] model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HplError(&'static str);

impl std::fmt::Display for HplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid HPL model: {}", self.0)
    }
}

impl std::error::Error for HplError {}

impl Hpl {
    /// Creates an HPL model with the default shape for `variant`.
    pub fn new(variant: HplVariant, phases: RunPhases, total_flops: f64) -> Result<Self, HplError> {
        Hpl::with_shape(variant, phases, total_flops, HplShape::for_variant(variant))
    }

    /// Creates an HPL model with a custom shape.
    pub fn with_shape(
        variant: HplVariant,
        phases: RunPhases,
        total_flops: f64,
        shape: HplShape,
    ) -> Result<Self, HplError> {
        if !(total_flops.is_finite() && total_flops >= 0.0) {
            return Err(HplError("total_flops must be non-negative and finite"));
        }
        if !(shape.peak > 0.0 && shape.peak <= 1.0) {
            return Err(HplError("peak must lie in (0, 1]"));
        }
        if !(0.0..1.0).contains(&shape.plateau_frac) {
            return Err(HplError("plateau_frac must lie in [0, 1)"));
        }
        if !(0.0..=1.0).contains(&shape.end_frac) {
            return Err(HplError("end_frac must lie in [0, 1]"));
        }
        if !(shape.kappa > 0.0 && shape.kappa.is_finite()) {
            return Err(HplError("kappa must be positive"));
        }
        if !(0.0..=0.5).contains(&shape.warmup_frac) {
            return Err(HplError("warmup_frac must lie in [0, 0.5]"));
        }
        if !(0.0..=1.0).contains(&shape.idle) {
            return Err(HplError("idle must lie in [0, 1]"));
        }
        if !(0.0..=0.2).contains(&shape.ripple) {
            return Err(HplError("ripple must lie in [0, 0.2]"));
        }
        Ok(Hpl {
            variant,
            phases,
            shape,
            total_flops,
        })
    }

    /// Convenience: derive the flop count from a square matrix dimension,
    /// `2/3 n^3 + 2 n^2`.
    pub fn flops_for_matrix(n: f64) -> f64 {
        2.0 / 3.0 * n * n * n + 2.0 * n * n
    }

    /// The model's variant.
    pub fn variant(&self) -> HplVariant {
        self.variant
    }

    /// The shape parameters in use.
    pub fn shape(&self) -> &HplShape {
        &self.shape
    }

    /// Remaining trailing-matrix dimension fraction at normalized core
    /// progress `tau` under a constant-rate work model (work is the
    /// integral of the squared remaining dimension). Exposed for analyses
    /// that reason about the trailing matrix directly.
    pub fn remaining_dimension(tau: f64) -> f64 {
        (1.0 - tau.clamp(0.0, 1.0)).cbrt()
    }

    /// Mean utilization over the whole core phase (numerical quadrature of
    /// the deterministic envelope; ripple integrates to ~0).
    pub fn mean_core_utilization(&self) -> f64 {
        let steps = 10_000;
        let mut acc = 0.0;
        for i in 0..steps {
            let tau = (i as f64 + 0.5) / steps as f64;
            acc += self.envelope(tau);
        }
        acc / steps as f64
    }

    /// Mean of the envelope over normalized core progress `[from, to]`.
    pub fn mean_envelope(&self, from: f64, to: f64) -> f64 {
        let steps = 4_000;
        let mut acc = 0.0;
        for i in 0..steps {
            let tau = from + (i as f64 + 0.5) / steps as f64 * (to - from);
            acc += self.envelope(tau);
        }
        acc / steps as f64
    }

    /// The smooth utilization envelope at normalized core progress `tau`
    /// (no ripple).
    pub fn envelope(&self, tau: f64) -> f64 {
        let s = &self.shape;
        let tau = tau.clamp(0.0, 1.0);
        let decline = if tau <= s.plateau_frac {
            1.0
        } else {
            let sigma = (tau - s.plateau_frac) / (1.0 - s.plateau_frac);
            1.0 - (1.0 - s.end_frac) * sigma.powf(s.kappa)
        };
        let base = s.peak * decline;
        // Warm-up ramp: utilization rises from ~85% of target over the
        // first `warmup_frac` of the core phase.
        if s.warmup_frac > 0.0 && tau < s.warmup_frac {
            base * (0.85 + 0.15 * (tau / s.warmup_frac))
        } else {
            base
        }
    }
}

/// Phase step of the panel ripple from one node to the next: the golden
/// angle, so that the machine-level sum stays jagged but bounded.
const RIPPLE_DEPHASE: f64 = 2.399_963;

/// Nodes per row of the dephasing tables: node `n` is `hi·256 + lo`.
const DEPHASE_LO: usize = 256;
/// Rows of the high-part table; nodes beyond `DEPHASE_HI · 256` compute
/// their high part with the same expression the table holds.
const DEPHASE_HI: usize = 1024;

/// `(sin, cos)` of `k · RIPPLE_DEPHASE` for `k = lo`, and of
/// `k · 256 · RIPPLE_DEPHASE` for `k = hi`.
struct DephaseTables {
    lo: [(f64, f64); DEPHASE_LO],
    hi: [(f64, f64); DEPHASE_HI],
}

fn dephase_tables() -> &'static DephaseTables {
    static TABLES: OnceLock<DephaseTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = DephaseTables {
            lo: [(0.0, 0.0); DEPHASE_LO],
            hi: [(0.0, 0.0); DEPHASE_HI],
        };
        for (k, e) in t.lo.iter_mut().enumerate() {
            *e = (k as f64 * RIPPLE_DEPHASE).sin_cos();
        }
        for (k, e) in t.hi.iter_mut().enumerate() {
            *e = dephase_hi(k);
        }
        t
    })
}

fn dephase_hi(hi: usize) -> (f64, f64) {
    ((hi * DEPHASE_LO) as f64 * RIPPLE_DEPHASE).sin_cos()
}

/// `(sin, cos)` of node `node`'s ripple dephasing, by angle addition over
/// the tables: no trigonometric call per node.
fn node_dephase(node: usize) -> (f64, f64) {
    let t = dephase_tables();
    let (sl, cl) = t.lo[node % DEPHASE_LO];
    let hi = node / DEPHASE_LO;
    let (sh, ch) = t.hi.get(hi).copied().unwrap_or_else(|| dephase_hi(hi));
    (sh * cl + ch * sl, ch * cl - sh * sl)
}

/// The node-independent part of [`Hpl`]'s utilization at one instant.
#[derive(Debug, Clone, Copy)]
enum HplAt {
    /// Outside the core phase: every node sits at this level.
    Flat(f64),
    /// Inside the core phase: the smooth envelope plus, when the shape has
    /// ripple, `(sin, cos)` of the node-independent ripple phase.
    Core {
        envelope: f64,
        ripple: f64,
        ripple_sin_cos: (f64, f64),
    },
}

impl HplAt {
    fn node(self, node: usize) -> f64 {
        match self {
            HplAt::Flat(u) => u,
            HplAt::Core {
                envelope,
                ripple,
                ripple_sin_cos: (sa, ca),
            } => {
                let mut u = envelope;
                // Deterministic panel/update ripple, dephased per node:
                // sin(phase + node·RIPPLE_DEPHASE) by angle addition.
                if ripple > 0.0 {
                    let (sb, cb) = node_dephase(node);
                    u += ripple * (sa * cb + ca * sb);
                }
                u.clamp(0.0, 1.0)
            }
        }
    }
}

impl Hpl {
    /// Everything about the utilization at `t` that does not depend on the
    /// node — the `powf` envelope and the ripple phase's one `sin_cos`.
    fn at(&self, t: f64) -> HplAt {
        if !self.phases.in_run(t) {
            return HplAt::Flat(0.0);
        }
        if !self.phases.in_core(t) {
            return HplAt::Flat(self.shape.idle);
        }
        let tau = self.phases.core_progress(t);
        HplAt::Core {
            envelope: self.envelope(tau),
            ripple: self.shape.ripple,
            ripple_sin_cos: (tau * self.shape.panel_steps * std::f64::consts::TAU).sin_cos(),
        }
    }
}

impl Workload for Hpl {
    fn name(&self) -> &str {
        match self.variant {
            HplVariant::CpuMainMemory => "HPL (CPU, main memory)",
            HplVariant::GpuInCore => "HPL (GPU, in-core)",
        }
    }

    fn phases(&self) -> RunPhases {
        self.phases
    }

    fn utilization(&self, node: usize, t: f64) -> f64 {
        self.at(t).node(node)
    }

    /// `(sin, cos)` of the node's ripple dephasing.
    fn lane_term(&self, node: usize) -> [f64; 2] {
        let (sb, cb) = node_dephase(node);
        [sb, cb]
    }

    fn utilizations(&self, t: f64, nodes: &[usize], terms: &[[f64; 2]], out: &mut [f64]) {
        debug_assert_eq!(nodes.len(), out.len());
        debug_assert_eq!(terms.len(), out.len());
        match self.at(t) {
            HplAt::Flat(u) => out.fill(u),
            // `HplAt::node` with the dephasing read from the lane's term.
            // Without ripple the term is multiplied by zero, which adds
            // `±0` to a non-negative envelope and leaves its bits alone.
            HplAt::Core {
                envelope,
                ripple,
                ripple_sin_cos: (sa, ca),
            } => {
                for (u, &[sb, cb]) in out.iter_mut().zip(terms) {
                    *u = (envelope + ripple * (sa * cb + ca * sb)).clamp(0.0, 1.0);
                }
            }
        }
    }

    fn total_flops(&self) -> f64 {
        self.total_flops
    }

    fn fingerprint(&self, h: &mut Fnv1a) {
        let Hpl {
            variant,
            phases,
            shape,
            total_flops,
        } = self;
        h.write_str("hpl");
        h.write(&[match variant {
            HplVariant::CpuMainMemory => 0,
            HplVariant::GpuInCore => 1,
        }]);
        phases.fingerprint(h);
        shape.fingerprint(h);
        h.write_f64(*total_flops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phases() -> RunPhases {
        RunPhases::new(300.0, 5400.0, 300.0).unwrap()
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let base = Hpl::new(HplVariant::GpuInCore, phases(), 1.0e15).unwrap();
        let with = |shape: HplShape| Hpl { shape, ..base };
        let s = base.shape;
        crate::assert_fingerprints_distinct(&[
            &base,
            &Hpl {
                variant: HplVariant::CpuMainMemory,
                ..base
            },
            &Hpl {
                phases: RunPhases::core_only(5400.0).unwrap(),
                ..base
            },
            &Hpl {
                total_flops: 2.0e15,
                ..base
            },
            &with(HplShape { peak: 0.98, ..s }),
            &with(HplShape {
                plateau_frac: 0.5,
                ..s
            }),
            &with(HplShape { end_frac: 0.2, ..s }),
            &with(HplShape { kappa: 1.5, ..s }),
            &with(HplShape {
                warmup_frac: 0.03,
                ..s
            }),
            &with(HplShape { idle: 0.2, ..s }),
            &with(HplShape { ripple: 0.03, ..s }),
            &with(HplShape {
                panel_steps: 121.0,
                ..s
            }),
        ]);
    }

    fn segment_mean(hpl: &Hpl, from: f64, to: f64) -> f64 {
        let p = hpl.phases();
        let (a, b) = p.core_segment(from, to);
        let steps = 4000;
        let mut acc = 0.0;
        for i in 0..steps {
            let t = a + (i as f64 + 0.5) / steps as f64 * (b - a);
            acc += hpl.utilization(7, t);
        }
        acc / steps as f64
    }

    #[test]
    fn cpu_run_is_flat() {
        let hpl = Hpl::new(HplVariant::CpuMainMemory, phases(), 1e18).unwrap();
        let first = segment_mean(&hpl, 0.0, 0.2);
        let last = segment_mean(&hpl, 0.8, 1.0);
        let full = segment_mean(&hpl, 0.0, 1.0);
        // Default CPU shape lands between Colosse (0.25% power delta) and
        // Sequoia (~3.5%); per-system presets tune kappa/end_frac further.
        assert!(
            (first - last).abs() / full < 0.08,
            "first={first} last={last}"
        );
        assert!(first / full > 0.97 && last / full > 0.9);
    }

    #[test]
    fn gpu_run_drops_hard() {
        let hpl = Hpl::new(HplVariant::GpuInCore, phases(), 1e18).unwrap();
        let first = segment_mean(&hpl, 0.0, 0.2);
        let last = segment_mean(&hpl, 0.8, 1.0);
        // Utilization collapses in the tail so that *power* (which adds a
        // static floor) still lands in the paper's >20% regime.
        assert!((first - last) / first > 0.4, "first={first} last={last}");
        // And the drop accelerates: the last 10% is the worst.
        let tail = segment_mean(&hpl, 0.9, 1.0);
        let mid = segment_mean(&hpl, 0.45, 0.55);
        assert!(tail < mid);
    }

    #[test]
    fn plateau_is_flat_then_declines() {
        let hpl = Hpl::new(HplVariant::GpuInCore, phases(), 0.0).unwrap();
        let s = hpl.shape();
        // On the plateau (after warm-up) the envelope is exactly peak.
        assert_eq!(hpl.envelope(0.3), s.peak);
        assert_eq!(hpl.envelope(s.plateau_frac), s.peak);
        // After the plateau it declines monotonically to peak * end_frac.
        let mut prev = s.peak + 1e-12;
        for i in 0..=100 {
            let tau = s.plateau_frac + (1.0 - s.plateau_frac) * i as f64 / 100.0;
            let e = hpl.envelope(tau);
            assert!(e <= prev + 1e-12, "not decreasing at tau={tau}");
            prev = e;
        }
        assert!((hpl.envelope(1.0) - s.peak * s.end_frac).abs() < 1e-12);
    }

    #[test]
    fn warmup_ramp_starts_low() {
        let hpl = Hpl::new(HplVariant::GpuInCore, phases(), 0.0).unwrap();
        assert!(hpl.envelope(0.0) < hpl.envelope(0.05));
        assert!((hpl.envelope(0.0) - 0.85 * hpl.shape().peak).abs() < 1e-12);
    }

    #[test]
    fn remaining_dimension_endpoints() {
        assert_eq!(Hpl::remaining_dimension(0.0), 1.0);
        assert_eq!(Hpl::remaining_dimension(1.0), 0.0);
        let m = Hpl::remaining_dimension(0.875);
        assert!((m - 0.5).abs() < 1e-12); // (1 - 7/8)^(1/3) = 1/2
    }

    #[test]
    fn idle_outside_core() {
        let hpl = Hpl::new(HplVariant::CpuMainMemory, phases(), 0.0).unwrap();
        assert_eq!(hpl.utilization(0, -5.0), 0.0);
        assert_eq!(hpl.utilization(0, 150.0), hpl.shape().idle);
        assert_eq!(hpl.utilization(0, 5850.0), hpl.shape().idle);
        assert_eq!(hpl.utilization(0, 1e9), 0.0);
    }

    #[test]
    fn ripple_dephased_across_nodes() {
        let hpl = Hpl::new(HplVariant::GpuInCore, phases(), 0.0).unwrap();
        let t = phases().core_start() + 2000.0;
        let u0 = hpl.utilization(0, t);
        let u1 = hpl.utilization(1, t);
        assert!((u0 - u1).abs() > 1e-6, "nodes should be dephased");
        // But the envelope dominates: both within ripple of each other.
        assert!((u0 - u1).abs() <= 2.0 * hpl.shape().ripple + 1e-12);
    }

    #[test]
    fn table_dephasing_matches_direct_sin_cos() {
        // Angle addition over the two tables agrees with a direct
        // sin_cos of n·RIPPLE_DEPHASE to rounding, below, across and
        // beyond the high table.
        for node in (0..300).chain([255, 256, 257, 65_535, 98_303, 262_143, 262_144, 1_000_003]) {
            let (s, c) = node_dephase(node);
            let (ws, wc) = (node as f64 * RIPPLE_DEPHASE).sin_cos();
            let tol = 1e-15 * (node as f64 * RIPPLE_DEPHASE).max(1.0);
            assert!(
                (s - ws).abs() <= tol && (c - wc).abs() <= tol,
                "node {node}"
            );
        }
    }

    #[test]
    fn flops_helper() {
        let f = Hpl::flops_for_matrix(1000.0);
        assert!((f - (2.0 / 3.0 * 1e9 + 2e6)).abs() < 1.0);
    }

    #[test]
    fn mean_envelope_matches_analytic_linear_case() {
        // plateau 0.5, end 0.2, kappa 1: mean = 0.5 + 0.5 * (1 + 0.2)/2 * peak.
        let mut s = HplShape::for_variant(HplVariant::GpuInCore);
        s.plateau_frac = 0.5;
        s.end_frac = 0.2;
        s.kappa = 1.0;
        s.warmup_frac = 0.0;
        s.peak = 1.0;
        let hpl = Hpl::with_shape(HplVariant::GpuInCore, phases(), 0.0, s).unwrap();
        let want = 0.5 + 0.5 * 0.6;
        assert!((hpl.mean_core_utilization() - want).abs() < 1e-3);
        // Last-20% mean: 1 - 0.8 * mean(sigma over [0.8,1]) with
        // sigma = (tau-0.5)/0.5 -> mean sigma = 0.8.
        assert!((hpl.mean_envelope(0.8, 1.0) - (1.0 - 0.8 * 0.8)).abs() < 1e-3);
    }

    #[test]
    fn rejects_bad_shapes() {
        let p = phases();
        let bad = |f: fn(&mut HplShape)| {
            let mut s = HplShape::for_variant(HplVariant::GpuInCore);
            f(&mut s);
            Hpl::with_shape(HplVariant::GpuInCore, p, 0.0, s).is_err()
        };
        assert!(bad(|s| s.peak = 1.5));
        assert!(bad(|s| s.plateau_frac = 1.0));
        assert!(bad(|s| s.end_frac = -0.1));
        assert!(bad(|s| s.kappa = 0.0));
        assert!(bad(|s| s.warmup_frac = 0.9));
        assert!(bad(|s| s.ripple = 0.5));
        assert!(Hpl::new(HplVariant::GpuInCore, p, f64::NAN).is_err());
        assert!(Hpl::new(HplVariant::GpuInCore, p, -1.0).is_err());
    }

    #[test]
    fn mean_core_utilization_in_range() {
        for v in [HplVariant::CpuMainMemory, HplVariant::GpuInCore] {
            let hpl = Hpl::new(v, phases(), 0.0).unwrap();
            let m = hpl.mean_core_utilization();
            let s = hpl.shape();
            assert!(m > s.peak * s.end_frac && m < s.peak, "{v:?}: {m}");
        }
    }
}
