//! Deterministic random-number utilities.
//!
//! Every stochastic routine in this workspace takes an explicit RNG so that
//! experiments are reproducible from a single seed. This module provides:
//!
//! * [`seeded`] — a `StdRng` from a `u64` seed;
//! * [`derive_seed`] — SplitMix64-style seed derivation, so parallel workers
//!   and per-node generators get decorrelated, *stable* streams regardless
//!   of thread scheduling;
//! * [`ziggurat`] — a from-scratch Marsaglia & Tsang (2000) ziggurat
//!   sampler for unit normals, the workspace's one normal sampler (it
//!   deliberately avoids external distribution crates): about 99% of its
//!   draws cost one 64-bit word, one table lookup and one multiply, with
//!   no `ln` or `sqrt`, and it keeps no state between draws;
//! * [`normal_draw`] — one `N(mean, sd)` variate from the ziggurat.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

/// Creates a deterministic [`StdRng`] from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from `(root, stream)` using the SplitMix64 finalizer.
///
/// Deriving per-worker seeds this way (instead of `root + i`) avoids the
/// correlated low-bit streams that naive sequential seeds can produce.
pub fn derive_seed(root: u64, stream: u64) -> u64 {
    let mut z = root ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates a decorrelated child RNG for worker/stream `stream`.
pub fn substream(root: u64, stream: u64) -> StdRng {
    seeded(derive_seed(root, stream))
}

/// Draws one `N(mean, sd)` variate: `mean + sd·`[`ziggurat`].
pub fn normal_draw<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * ziggurat(rng)
}

/// Layers of the [`ziggurat`].
const ZIG_LAYERS: usize = 256;
/// Right edge of the ziggurat's base layer (Marsaglia & Tsang 2000,
/// 256 layers); beyond it lies the tail.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every ziggurat layer (the base layer's includes the tail),
/// under the unnormalised density `exp(-x²/2)`.
const ZIG_V: f64 = 0.004_928_673_233_99;

/// The ziggurat's layer edges and acceptance ratios.
struct ZigTables {
    /// `x[i]` is the right edge of layer `i`'s rectangle; `x[0]` is the
    /// base layer's virtual width `V / f(R)`, `x[1] = R`, `x[256] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// `x[i + 1] / x[i]`: a draw with `|u|` below it lies inside the
    /// layer above's rectangle, so it is under the curve.
    ratio: [f64; ZIG_LAYERS],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let f = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIG_LAYERS + 1];
        x[0] = ZIG_V / f(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            // Layer i - 1 spans heights f(x[i-1])..f(x[i]) with area V.
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + f(x[i - 1])).ln())
                .max(0.0)
                .sqrt();
        }
        let mut ratio = [0.0; ZIG_LAYERS];
        for (i, r) in ratio.iter_mut().enumerate() {
            *r = x[i + 1] / x[i];
        }
        ZigTables { x, ratio }
    })
}

/// Draws one standard-normal variate with the Marsaglia & Tsang (2000)
/// ziggurat over 256 layers, in Doornik's (2005) form.
///
/// One 64-bit word picks the layer (low 8 bits) and a uniform
/// `u ∈ [-1, 1)` (high 53 bits); `u · x[i]` is accepted outright when it
/// falls inside the next layer's rectangle, which is about 99% of draws.
/// That path is all this function holds, so it inlines into the caller's
/// loop. The rest go on in a cold function: the wedge test (two
/// `exp`) or, from the base layer, Marsaglia's tail method beyond `R` (two
/// `ln`). Stateless, so a stream of draws depends only on the RNG.
#[inline(always)]
pub fn ziggurat<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = zig_tables();
    let (i, u, x) = zig_candidate(t, rng.next_u64());
    if u.abs() < t.ratio[i] {
        return x;
    }
    ziggurat_rejected(rng, t, i, u, x)
}

/// Layer `i`, uniform `u` and candidate `x = u · x[i]` of one 64-bit word.
#[inline(always)]
fn zig_candidate(t: &ZigTables, bits: u64) -> (usize, f64, f64) {
    let i = (bits & 0xFF) as usize;
    let u = (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0;
    (i, u, u * t.x[i])
}

/// The rest of a [`ziggurat`] draw whose first word `(i, u, x)` fell
/// outside the next layer's rectangle: the tail or wedge test, then fresh
/// words until one is accepted, consuming the stream as one loop over
/// both paths would.
#[cold]
#[inline(never)]
fn ziggurat_rejected<R: Rng + ?Sized>(
    rng: &mut R,
    t: &ZigTables,
    mut i: usize,
    mut u: f64,
    mut x: f64,
) -> f64 {
    loop {
        if i == 0 {
            // The tail beyond R: x = -ln(U1)/R, accepted when
            // -2 ln(U2) > x² (U in (0, 1], so ln is finite).
            loop {
                let tx = (1.0 - rng.random::<f64>()).ln() / ZIG_R;
                let ty = (1.0 - rng.random::<f64>()).ln();
                if -2.0 * ty >= tx * tx {
                    return if u < 0.0 { tx - ZIG_R } else { ZIG_R - tx };
                }
            }
        }
        // The wedge between layer i's rectangle and the curve: a height
        // uniform in [f(x[i+1]), f(x[i])], relative to f(x), below 1.
        let (xi, xn) = (t.x[i], t.x[i + 1]);
        let f0 = (-0.5 * (xi * xi - x * x)).exp();
        let f1 = (-0.5 * (xn * xn - x * x)).exp();
        if f1 + rng.random::<f64>() * (f0 - f1) < 1.0 {
            return x;
        }
        (i, u, x) = zig_candidate(t, rng.next_u64());
        if u.abs() < t.ratio[i] {
            return x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::Summary;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(42);
        let mut b = seeded(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn derive_seed_decorrelates_streams() {
        // Adjacent streams must produce very different seeds.
        let s0 = derive_seed(7, 0);
        let s1 = derive_seed(7, 1);
        assert_ne!(s0, s1);
        assert!((s0 ^ s1).count_ones() > 16, "seeds too similar");
        // And be stable.
        assert_eq!(derive_seed(7, 1), s1);
    }

    #[test]
    fn ziggurat_tables_close_the_curve() {
        let t = zig_tables();
        // Layer edges fall monotonically from the base to the peak, and
        // the top layer's rectangle has the common area V.
        assert!(t.x.windows(2).all(|w| w[0] > w[1]), "edges not decreasing");
        let top = t.x[ZIG_LAYERS - 1];
        let top_area = top * (1.0 - (-0.5 * top * top).exp());
        assert!((top_area / ZIG_V - 1.0).abs() < 1e-6, "top area {top_area}");
    }

    #[test]
    fn ziggurat_moments() {
        let mut rng = seeded(4321);
        let n = 400_000;
        let s: Summary = (0..n).map(|_| ziggurat(&mut rng)).collect();
        // Standard errors at n = 400k: mean 0.0016, variance 0.0022,
        // skewness 0.0039, excess kurtosis 0.0077; bounds are ~4-5 SE.
        assert!(s.mean().abs() < 0.007, "mean = {}", s.mean());
        let var = s.sample_variance().unwrap();
        assert!((var - 1.0).abs() < 0.01, "var = {var}");
        let skew = s.skewness().unwrap();
        assert!(skew.abs() < 0.02, "skew = {skew}");
        let kurt = s.excess_kurtosis().unwrap();
        assert!(kurt.abs() < 0.04, "excess kurtosis = {kurt}");
    }

    #[test]
    fn ziggurat_passes_kolmogorov_smirnov() {
        use crate::normal::standard_cdf;
        let mut rng = seeded(2000);
        let n = 200_000;
        let mut xs: Vec<f64> = (0..n).map(|_| ziggurat(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = standard_cdf(x);
                (f - i as f64 / n as f64).max((i + 1) as f64 / n as f64 - f)
            })
            .fold(0.0, f64::max);
        // The KS critical value at alpha = 0.001 is 1.949 / sqrt(n).
        let critical = 1.949 / (n as f64).sqrt();
        assert!(d < critical, "D = {d}, critical {critical}");
    }

    #[test]
    fn ziggurat_tails_match_the_normal() {
        // Draws beyond R come from the tail branch, those between the
        // rectangles from the wedges: both must carry the right mass.
        use crate::normal::standard_cdf;
        let mut rng = seeded(77);
        let n = 2_000_000;
        let (mut beyond_2, mut beyond_r) = (0usize, 0usize);
        for _ in 0..n {
            let z = ziggurat(&mut rng).abs();
            beyond_2 += usize::from(z > 2.0);
            beyond_r += usize::from(z > ZIG_R);
        }
        let p2 = 2.0 * (1.0 - standard_cdf(2.0));
        let pr = 2.0 * (1.0 - standard_cdf(ZIG_R));
        let got2 = beyond_2 as f64 / n as f64;
        let gotr = beyond_r as f64 / n as f64;
        // 5 binomial standard errors each.
        assert!(
            (got2 - p2).abs() < 5.0 * (p2 / n as f64).sqrt(),
            "P(|z|>2) {got2} vs {p2}"
        );
        assert!(
            (gotr - pr).abs() < 5.0 * (pr / n as f64).sqrt(),
            "P(|z|>R) {gotr} vs {pr}"
        );
    }

    #[test]
    fn ziggurat_stream_is_pinned() {
        // 200,000 draws per seed folded bit for bit, then the generator's
        // next word: both the values and the words each draw consumed are
        // pinned. Some draws must come from the tail, so the tail branch's
        // draws are pinned too.
        use crate::hash::Fnv1a;
        let pinned: [(u64, u64); 3] = [
            (1, 0x87bc7f33467a4677),
            (0x5EED, 0x50b0bb6a12f9d03f),
            (u64::MAX, 0xa2df03717cc54325),
        ];
        let (mut tail, mut wrong) = (0usize, Vec::new());
        for (seed, digest) in pinned {
            let mut rng = seeded(seed);
            let mut h = Fnv1a::default();
            for _ in 0..200_000 {
                let z = ziggurat(&mut rng);
                tail += usize::from(z.abs() > ZIG_R);
                h.write_u64(z.to_bits());
            }
            h.write_u64(rng.random::<u64>());
            let got = h.finish();
            if got != digest {
                wrong.push(format!("({seed:#x}, {got:#018x})"));
            }
        }
        assert!(wrong.is_empty(), "digests moved: {}", wrong.join(", "));
        assert!(tail > 0, "no draw reached the tail");
    }

    #[test]
    fn scaled_draws() {
        let mut rng = seeded(5);
        let s: Summary = (0..50_000)
            .map(|_| normal_draw(&mut rng, 400.0, 8.0))
            .collect();
        assert!((s.mean() - 400.0).abs() < 0.3);
        assert!((s.sample_std_dev().unwrap() - 8.0).abs() < 0.2);
    }
}
