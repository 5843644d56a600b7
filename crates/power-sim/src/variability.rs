//! Manufacturing variability.
//!
//! The paper attributes inter-node power spread to several physical causes:
//! process variation (leakage differences between "identical" ASICs),
//! vendor-programmed voltage IDs compensating for that variation, fans, and
//! temperature. This module samples the per-ASIC / per-node quantities once
//! per machine build:
//!
//! * a **leakage factor** — log-normal multiplier on leakage power;
//! * a **VID bin** — discrete voltage class derived from ASIC quality
//!   (worse silicon is assigned a higher VID, i.e. a higher voltage, and
//!   the paper observes those parts "drain more power and are less
//!   efficient");
//! * a **node efficiency multiplier** — residual node-to-node spread from
//!   everything the explicit sub-models don't capture (VRM efficiency
//!   spread, assembly differences), applied to total node power.

use power_stats::hash::Fnv1a;
use power_stats::rng::StandardNormal;
use rand::Rng;

use crate::{Result, SimError};

/// Parameters of the manufacturing-spread distributions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariabilityModel {
    /// Log-scale sigma of the leakage factor (log-normal around 1).
    pub leakage_sigma: f64,
    /// Sigma of the node-level multiplicative spread (normal around 1,
    /// truncated at ±4 sigma).
    pub node_sigma: f64,
    /// Number of VID bins the vendor programs (>= 1).
    pub vid_bins: u8,
    /// Correlation in `[0, 1]` between the ASIC-quality axis that drives
    /// leakage and the one that drives the VID assignment.
    pub vid_leakage_corr: f64,
}

impl VariabilityModel {
    /// Feeds every field into `h` (see [`crate::store::simulation_key`]).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let VariabilityModel {
            leakage_sigma,
            node_sigma,
            vid_bins,
            vid_leakage_corr,
        } = *self;
        h.write_f64(leakage_sigma);
        h.write_f64(node_sigma);
        h.write(&[vid_bins]);
        h.write_f64(vid_leakage_corr);
    }

    /// A model with no variability at all (every ASIC nominal, VID bin 0).
    pub fn none() -> Self {
        VariabilityModel {
            leakage_sigma: 0.0,
            node_sigma: 0.0,
            vid_bins: 1,
            vid_leakage_corr: 0.0,
        }
    }

    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if !(self.leakage_sigma >= 0.0 && self.leakage_sigma < 1.0) {
            return Err(SimError::InvalidConfig {
                field: "leakage_sigma",
                reason: "must lie in [0, 1)",
            });
        }
        if !(self.node_sigma >= 0.0 && self.node_sigma < 0.5) {
            return Err(SimError::InvalidConfig {
                field: "node_sigma",
                reason: "must lie in [0, 0.5)",
            });
        }
        if self.vid_bins == 0 {
            return Err(SimError::InvalidConfig {
                field: "vid_bins",
                reason: "at least one VID bin is required",
            });
        }
        if !(0.0..=1.0).contains(&self.vid_leakage_corr) {
            return Err(SimError::InvalidConfig {
                field: "vid_leakage_corr",
                reason: "must lie in [0, 1]",
            });
        }
        Ok(())
    }

    /// Samples the manufacturing outcome for one ASIC.
    pub fn sample_asic<R: Rng + ?Sized>(&self, rng: &mut R) -> AsicSample {
        let mut gauss = StandardNormal::new();
        // Quality axis 1 drives leakage; axis 2 (partially correlated)
        // drives the VID assignment.
        let q1 = gauss.sample(rng).clamp(-4.0, 4.0);
        let q_ind = gauss.sample(rng).clamp(-4.0, 4.0);
        let rho = self.vid_leakage_corr;
        let q2 = rho * q1 + (1.0 - rho * rho).sqrt() * q_ind;
        let leakage_factor = (self.leakage_sigma * q1).exp();
        // Map q2 quantile-wise onto bins: Phi(q2) * bins, clamped.
        let p = power_stats::normal::standard_cdf(q2);
        let bin = ((p * self.vid_bins as f64) as u8).min(self.vid_bins - 1);
        AsicSample {
            leakage_factor,
            vid_bin: bin,
        }
    }

    /// Samples the residual node-level multiplier.
    pub fn sample_node_multiplier<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let z = StandardNormal::new().sample(rng).clamp(-4.0, 4.0);
        (1.0 + self.node_sigma * z).max(0.1)
    }

    /// Samples the manufacturing outcome of device `index` from the
    /// machine stream rooted at `seed`, independent of evaluation order.
    ///
    /// Each device gets its own substream, so population builders can
    /// draw devices in any order (or in parallel) and still agree
    /// bit-for-bit — the discipline `power-accel` relies on for its
    /// binned GPU populations.
    pub fn sample_asic_at(&self, seed: u64, index: u64) -> AsicSample {
        let mut rng = power_stats::rng::substream(seed, index);
        self.sample_asic(&mut rng)
    }

    /// Samples the residual multiplier of device `index` from the machine
    /// stream rooted at `seed` (order-independent, like
    /// [`VariabilityModel::sample_asic_at`] but a disjoint substream).
    pub fn sample_node_multiplier_at(&self, seed: u64, index: u64) -> f64 {
        // Fixed stream-separation constant keeps the multiplier draws
        // disjoint from the ASIC draws under the same machine seed.
        let mut rng = power_stats::rng::substream(seed ^ 0x5EED_0011_D0D0_CAFE, index);
        self.sample_node_multiplier(&mut rng)
    }
}

/// The sampled manufacturing outcome of one ASIC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsicSample {
    /// Multiplier on nominal leakage power (log-normal around 1).
    pub leakage_factor: f64,
    /// Assigned voltage-ID bin, `0 ..= vid_bins - 1` (higher = higher
    /// programmed voltage).
    pub vid_bin: u8,
}

impl AsicSample {
    /// A perfectly nominal ASIC.
    pub fn nominal() -> Self {
        AsicSample {
            leakage_factor: 1.0,
            vid_bin: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::seeded;
    use power_stats::summary::Summary;

    fn model() -> VariabilityModel {
        VariabilityModel {
            leakage_sigma: 0.15,
            node_sigma: 0.02,
            vid_bins: 6,
            vid_leakage_corr: 0.7,
        }
    }

    #[test]
    fn validation_catches_bad_ranges() {
        assert!(model().validate().is_ok());
        let mut m = model();
        m.leakage_sigma = 1.5;
        assert!(m.validate().is_err());
        let mut m = model();
        m.node_sigma = 0.9;
        assert!(m.validate().is_err());
        let mut m = model();
        m.vid_bins = 0;
        assert!(m.validate().is_err());
        let mut m = model();
        m.vid_leakage_corr = -0.1;
        assert!(m.validate().is_err());
    }

    #[test]
    fn none_model_is_degenerate() {
        let m = VariabilityModel::none();
        let mut rng = seeded(1);
        for _ in 0..100 {
            let a = m.sample_asic(&mut rng);
            assert_eq!(a.leakage_factor, 1.0);
            assert_eq!(a.vid_bin, 0);
            assert_eq!(m.sample_node_multiplier(&mut rng), 1.0);
        }
    }

    #[test]
    fn leakage_factor_lognormal_moments() {
        let m = model();
        let mut rng = seeded(2);
        let s: Summary = (0..50_000)
            .map(|_| m.sample_asic(&mut rng).leakage_factor.ln())
            .collect();
        assert!(s.mean().abs() < 0.005, "log-mean = {}", s.mean());
        assert!(
            (s.sample_std_dev().unwrap() - 0.15).abs() < 0.01,
            "log-sd = {}",
            s.sample_std_dev().unwrap()
        );
    }

    #[test]
    fn vid_bins_roughly_uniform() {
        let m = model();
        let mut rng = seeded(3);
        let mut counts = [0usize; 6];
        let n = 60_000;
        for _ in 0..n {
            counts[m.sample_asic(&mut rng).vid_bin as usize] += 1;
        }
        for (bin, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!((frac - 1.0 / 6.0).abs() < 0.02, "bin {bin}: frac = {frac}");
        }
    }

    #[test]
    fn vid_correlates_with_leakage() {
        let m = model();
        let mut rng = seeded(4);
        // Mean leakage factor per VID bin should increase with the bin.
        let mut sums = [0.0f64; 6];
        let mut counts = [0usize; 6];
        for _ in 0..60_000 {
            let a = m.sample_asic(&mut rng);
            sums[a.vid_bin as usize] += a.leakage_factor;
            counts[a.vid_bin as usize] += 1;
        }
        let means: Vec<f64> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| s / c as f64)
            .collect();
        assert!(
            means[5] > means[0] * 1.1,
            "top bin {} vs bottom {}",
            means[5],
            means[0]
        );
        // Monotone by trend (allow small wobble).
        for w in means.windows(2) {
            assert!(w[1] > w[0] - 0.02, "means = {means:?}");
        }
    }

    #[test]
    fn node_multiplier_moments() {
        let m = model();
        let mut rng = seeded(5);
        let s: Summary = (0..50_000)
            .map(|_| m.sample_node_multiplier(&mut rng))
            .collect();
        assert!((s.mean() - 1.0).abs() < 0.002);
        assert!((s.sample_std_dev().unwrap() - 0.02).abs() < 0.002);
        assert!(s.min() > 0.1);
    }

    #[test]
    fn uncorrelated_vid_when_rho_zero() {
        let mut m = model();
        m.vid_leakage_corr = 0.0;
        let mut rng = seeded(6);
        let mut sums = [0.0f64; 6];
        let mut counts = [0usize; 6];
        for _ in 0..60_000 {
            let a = m.sample_asic(&mut rng);
            sums[a.vid_bin as usize] += a.leakage_factor.ln();
            counts[a.vid_bin as usize] += 1;
        }
        for (bin, (&s, &c)) in sums.iter().zip(&counts).enumerate() {
            let mean = s / c as f64;
            assert!(mean.abs() < 0.01, "bin {bin} log-mean = {mean}");
        }
    }

    #[test]
    fn nominal_asic() {
        let a = AsicSample::nominal();
        assert_eq!(a.leakage_factor, 1.0);
        assert_eq!(a.vid_bin, 0);
    }

    #[test]
    fn indexed_draws_are_order_independent() {
        let m = model();
        let forward: Vec<AsicSample> = (0..64).map(|i| m.sample_asic_at(42, i)).collect();
        let backward: Vec<AsicSample> = (0..64).rev().map(|i| m.sample_asic_at(42, i)).collect();
        for (i, s) in forward.iter().enumerate() {
            assert_eq!(*s, backward[63 - i]);
        }
        // Distinct devices and distinct seeds differ.
        assert_ne!(
            m.sample_asic_at(42, 0).leakage_factor,
            m.sample_asic_at(42, 1).leakage_factor
        );
        assert_ne!(
            m.sample_asic_at(42, 0).leakage_factor,
            m.sample_asic_at(43, 0).leakage_factor
        );
        // ASIC and multiplier streams are disjoint: the multiplier is not
        // a replay of the same underlying draw.
        let mult = m.sample_node_multiplier_at(42, 0);
        assert!((0.5..1.5).contains(&mult));
        assert_ne!(mult, m.sample_node_multiplier_at(42, 1));
    }
}
