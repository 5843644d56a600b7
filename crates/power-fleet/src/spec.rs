//! Campaign specifications: what one leaderboard submission measures.
//!
//! A fleet campaign is the online Table 5 machinery pointed at a
//! *synthetic submission*: a machine of `population` exchangeable nodes
//! whose true per-node powers are drawn from a Gaussian population
//! (`mean_node_w`, coefficient of variation `cv`), metered through a
//! relative-noise sampling meter. Node truths and meter noise come from
//! per-`(seed, node)` substreams, so a node's finalized window average
//! is a pure function of the spec — re-metering after a crash
//! reproduces the lost average bit-for-bit, which is what makes
//! journal-replay resume sound (the same argument as
//! `power_telemetry::live`).
//!
//! Because the synthetic population is exchangeable, the metering order
//! is simply node `0, 1, 2, …`: a random permutation would change no
//! distributional statement, and the identity order keeps the journal's
//! "nodes arrive in selection order" invariant trivial to check.

use crate::{FleetError, Result};
use power_method::Methodology;
use power_stats::hash::fnv1a;
use power_stats::rng::{substream, ziggurat};
use power_telemetry::online::{CiQuantile, CvAssumption, StoppingRule};
use power_telemetry::runtime::{CampaignSource, Plan};
use power_telemetry::{IngestConfig, Sample};
use rand::Rng;

/// Substream tags: decorrelate the three random surfaces of a campaign.
const STREAM_TRUTH: u64 = 0x464C_5431; // "FLT1"
const STREAM_NOISE: u64 = 0x464C_5432;
const STREAM_JITTER: u64 = 0x464C_5433;

/// Specification of one fleet campaign (one leaderboard submission).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCampaignSpec {
    /// Submission name shown on the leaderboard.
    pub name: String,
    /// Machine size `N` (the finite population of the stopping rule).
    pub population: u64,
    /// True mean node power in watts.
    pub mean_node_w: f64,
    /// True node-to-node coefficient of variation (the paper's Table 4
    /// quantity driving Table 5 sample sizes).
    pub cv: f64,
    /// Relative per-sample meter noise (sigma as a fraction of truth).
    pub noise_sigma: f64,
    /// Stopping-rule confidence, e.g. `0.95`.
    pub confidence: f64,
    /// Target relative accuracy λ, e.g. `0.02`.
    pub lambda: f64,
    /// Critical-value family for the rule and the reported CI.
    pub quantile: CiQuantile,
    /// `true`: drive the rule with the empirical spread (Eq. 1–2 on the
    /// observed node averages); `false`: plan with the declared `cv`
    /// (Eq. 5, the Table 5 entry point).
    pub empirical_cv: bool,
    /// Methodology tag carried onto the leaderboard.
    pub level: Methodology,
    /// `true` when the submission's machine ran under an accelerator
    /// power cap (`power_accel`-style governors). Carried onto the
    /// leaderboard so capped submissions — whose power spread has been
    /// converted into runtime spread — are distinguishable from
    /// uncapped ones when comparing CI widths.
    pub power_capped: bool,
    /// Samples metered per node before its window average finalizes.
    pub samples_per_node: u32,
    /// Rmax contribution per node in GFLOPS (fixes the submission's
    /// efficiency scale: `gflops_per_node * population / power`).
    pub gflops_per_node: f64,
    /// Arrival-jitter bound: samples may arrive displaced by strictly
    /// less than this many slots (0 = in order). Exercises the plane's
    /// reordering watermark.
    pub lateness: u64,
    /// Meter budget: most nodes the campaign may meter (0 = the whole
    /// population, i.e. census as worst case).
    pub max_nodes: u64,
    /// Root seed for truth, noise and jitter substreams.
    pub seed: u64,
}

impl Default for FleetCampaignSpec {
    fn default() -> Self {
        FleetCampaignSpec {
            name: String::new(),
            population: 128,
            mean_node_w: 400.0,
            cv: 0.04,
            noise_sigma: 0.01,
            confidence: 0.95,
            lambda: 0.02,
            quantile: CiQuantile::Normal,
            empirical_cv: false,
            level: Methodology::Level2,
            power_capped: false,
            samples_per_node: 64,
            gflops_per_node: 50.0,
            lateness: 0,
            max_nodes: 0,
            seed: 0,
        }
    }
}

impl FleetCampaignSpec {
    /// The sequential stopping rule this spec drives.
    pub fn rule(&self) -> StoppingRule {
        StoppingRule {
            confidence: self.confidence,
            lambda: self.lambda,
            population: self.population,
            quantile: self.quantile,
            cv: if self.empirical_cv {
                CvAssumption::Empirical
            } else {
                CvAssumption::Planned(self.cv)
            },
            min_nodes: 2,
        }
    }

    /// Effective meter budget: `max_nodes` clamped into `1..=population`
    /// (0 means census).
    pub fn budget(&self) -> u64 {
        if self.max_nodes == 0 {
            self.population
        } else {
            self.max_nodes.min(self.population)
        }
    }

    /// Total machine Rmax in GFLOPS.
    pub fn rmax_gflops(&self) -> f64 {
        self.gflops_per_node * self.population as f64
    }

    /// Validates every field (the stopping rule's own constraints are
    /// checked where the estimator is built).
    pub fn validate(&self) -> Result<()> {
        let bad = |field: &'static str, reason: &'static str| {
            Err(FleetError::InvalidSpec { field, reason })
        };
        if self.name.len() > 120 {
            return bad("name", "must be at most 120 bytes");
        }
        if self.population < 2 {
            return bad("population", "need at least two nodes to estimate spread");
        }
        if !(self.mean_node_w > 0.0 && self.mean_node_w.is_finite()) {
            return bad("mean_node_w", "must be positive and finite");
        }
        if !(self.cv >= 0.0 && self.cv < 1.0) {
            return bad("cv", "must be in [0, 1)");
        }
        if !(self.noise_sigma >= 0.0 && self.noise_sigma < 1.0) {
            return bad("noise_sigma", "must be in [0, 1)");
        }
        if self.samples_per_node == 0 {
            return bad("samples_per_node", "need at least one sample per node");
        }
        if self.lateness >= u64::from(self.samples_per_node) {
            return bad("lateness", "jitter bound must be below samples_per_node");
        }
        if !(self.gflops_per_node > 0.0 && self.gflops_per_node.is_finite()) {
            return bad("gflops_per_node", "must be positive and finite");
        }
        // Delegate confidence/lambda/quantile constraints to the rule;
        // a config violation there is still a bad *spec*, not a fleet
        // runtime failure.
        self.rule().validate().map_err(|e| match e {
            power_telemetry::TelemetryError::InvalidConfig { field, reason } => {
                FleetError::InvalidSpec { field, reason }
            }
            other => FleetError::Telemetry(other),
        })?;
        Ok(())
    }

    /// FNV-1a fingerprint of the spec's `Debug` rendering, binding a
    /// journal to one campaign identity.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(format!("{self:?}").as_bytes())
    }

    /// Serializes the spec to the journal wire format (version-tagged,
    /// little-endian, self-contained — no external codec).
    ///
    /// Writes version 2, the only version [`FleetCampaignSpec::decode`]
    /// accepts: the fixed fields, the name, then one `power_capped` byte.
    /// A version-1 record (no `power_capped` byte) could never resume:
    /// its journal's [`FleetCampaignSpec::fingerprint`] was hashed from a
    /// `Debug` rendering without that field, so no decoded spec matches.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(93 + self.name.len());
        out.push(2u8); // version
        out.push(match self.quantile {
            CiQuantile::Normal => 0,
            CiQuantile::StudentT => 1,
        });
        out.push(u8::from(self.empirical_cv));
        out.push(match self.level {
            Methodology::Level1 => 1,
            Methodology::Level2 => 2,
            Methodology::Level3 => 3,
            Methodology::Revised => 4,
        });
        out.extend_from_slice(&self.samples_per_node.to_le_bytes());
        for v in [self.population, self.lateness, self.max_nodes, self.seed] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for v in [
            self.mean_node_w,
            self.cv,
            self.noise_sigma,
            self.confidence,
            self.lambda,
            self.gflops_per_node,
        ] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.push(u8::from(self.power_capped));
        out
    }

    /// Inverse of [`FleetCampaignSpec::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let corrupt = |reason: &'static str| FleetError::Journal(format!("spec decode: {reason}"));
        let fixed = 4 + 4 + 4 * 8 + 6 * 8 + 2;
        if bytes.len() < fixed {
            return Err(corrupt("record too short"));
        }
        if bytes[0] != 2 {
            return Err(corrupt("unknown spec version"));
        }
        let quantile = match bytes[1] {
            0 => CiQuantile::Normal,
            1 => CiQuantile::StudentT,
            _ => return Err(corrupt("unknown quantile tag")),
        };
        let empirical_cv = match bytes[2] {
            0 => false,
            1 => true,
            _ => return Err(corrupt("unknown cv-assumption tag")),
        };
        let level = match bytes[3] {
            1 => Methodology::Level1,
            2 => Methodology::Level2,
            3 => Methodology::Level3,
            4 => Methodology::Revised,
            _ => return Err(corrupt("unknown methodology tag")),
        };
        let u32_at = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().expect("4 bytes"));
        let u64_at = |o: usize| u64::from_le_bytes(bytes[o..o + 8].try_into().expect("8 bytes"));
        let f64_at = |o: usize| f64::from_bits(u64_at(o));
        let samples_per_node = u32_at(4);
        let population = u64_at(8);
        let lateness = u64_at(16);
        let max_nodes = u64_at(24);
        let seed = u64_at(32);
        let mean_node_w = f64_at(40);
        let cv = f64_at(48);
        let noise_sigma = f64_at(56);
        let confidence = f64_at(64);
        let lambda = f64_at(72);
        let gflops_per_node = f64_at(80);
        let name_len = u16::from_le_bytes(bytes[88..90].try_into().expect("2 bytes")) as usize;
        if bytes.len() != fixed + name_len + 1 {
            return Err(corrupt("name length disagrees with record length"));
        }
        let name = std::str::from_utf8(&bytes[90..90 + name_len])
            .map_err(|_| corrupt("name is not UTF-8"))?
            .to_string();
        let power_capped = match bytes[90 + name_len] {
            0 => false,
            1 => true,
            _ => return Err(corrupt("unknown power-capped tag")),
        };
        let spec = FleetCampaignSpec {
            name,
            population,
            mean_node_w,
            cv,
            noise_sigma,
            confidence,
            lambda,
            quantile,
            empirical_cv,
            level,
            power_capped,
            samples_per_node,
            gflops_per_node,
            lateness,
            max_nodes,
            seed,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The node's true power draw: one Gaussian population draw from
    /// the node's own substream, floored away from zero so a heavy-CV
    /// tail cannot produce a nonphysical draw.
    pub fn node_truth_w(&self, node: u64) -> f64 {
        let mut rng = substream(self.seed ^ STREAM_TRUTH, node);
        let g = ziggurat(&mut rng);
        (self.mean_node_w * (1.0 + self.cv * g)).max(self.mean_node_w * 0.05)
    }

    /// Generates node `node`'s full metered stream into `out` (cleared
    /// first): `samples_per_node` noisy samples for lane `slot`, in
    /// arrival order. With `lateness > 0` each disjoint block of
    /// `lateness` consecutive sequence numbers is rotated by a
    /// seed-derived amount, so every sample's displacement is strictly
    /// below the bound and the plane's watermark must reorder but never
    /// drop.
    pub fn node_stream(&self, node: u64, slot: usize, out: &mut Vec<Sample>) {
        out.clear();
        let n = self.samples_per_node as usize;
        out.reserve(n);
        let truth = self.node_truth_w(node);
        let mut rng = substream(self.seed ^ STREAM_NOISE, node);
        for seq in 0..n as u64 {
            let watts = truth * (1.0 + self.noise_sigma * ziggurat(&mut rng));
            out.push(Sample {
                node: slot,
                seq,
                watts,
            });
        }
        if self.lateness > 1 {
            let block = self.lateness as usize;
            let mut jitter = substream(self.seed ^ STREAM_JITTER, node);
            for chunk in out.chunks_mut(block) {
                let by = jitter.random_range(0..chunk.len());
                chunk.rotate_left(by);
            }
        }
    }
}

/// A fleet campaign meters nodes `0, 1, 2, …` (see the module docs),
/// one sample a second, each node's average taken over its whole stream.
impl CampaignSource for FleetCampaignSpec {
    fn plan(&self) -> Plan {
        Plan {
            rule: self.rule(),
            budget: self.budget(),
            dt: 1.0,
            ingest: IngestConfig {
                lateness: self.lateness,
                ring_capacity: self.samples_per_node as usize,
            },
            window: (0.0, f64::from(self.samples_per_node)),
        }
    }

    fn node_id(&self, slot: u64) -> u64 {
        slot
    }

    fn identity(&self) -> (u64, Vec<u8>) {
        (self.fingerprint(), self.encode())
    }

    fn meter_node(&mut self, slot: u64, out: &mut Vec<Sample>) -> power_telemetry::Result<()> {
        self.node_stream(slot, slot as usize, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        FleetCampaignSpec::default().validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_fields() {
        for (field, spec) in [
            (
                "population",
                FleetCampaignSpec {
                    population: 1,
                    ..Default::default()
                },
            ),
            (
                "lateness",
                FleetCampaignSpec {
                    lateness: 64,
                    ..Default::default()
                },
            ),
            (
                "noise_sigma",
                FleetCampaignSpec {
                    noise_sigma: 1.5,
                    ..Default::default()
                },
            ),
            (
                "mean_node_w",
                FleetCampaignSpec {
                    mean_node_w: f64::NAN,
                    ..Default::default()
                },
            ),
        ] {
            let err = spec.validate().unwrap_err();
            match err {
                FleetError::InvalidSpec { field: f, .. } => assert_eq!(f, field),
                other => panic!("expected InvalidSpec({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn node_streams_are_deterministic_and_jitter_bounded() {
        let spec = FleetCampaignSpec {
            lateness: 4,
            samples_per_node: 32,
            ..Default::default()
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        spec.node_stream(7, 3, &mut a);
        spec.node_stream(7, 3, &mut b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 32);
        for (pos, s) in a.iter().enumerate() {
            assert_eq!(s.node, 3);
            let displacement = (pos as i64 - s.seq as i64).unsigned_abs();
            assert!(displacement < 4, "seq {} at position {pos}", s.seq);
        }
        // Every sequence number appears exactly once.
        let mut seqs: Vec<u64> = a.iter().map(|s| s.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn truths_follow_the_declared_population() {
        let spec = FleetCampaignSpec {
            population: 4096,
            ..Default::default()
        };
        let s: power_stats::Summary = (0..4096).map(|n| spec.node_truth_w(n)).collect();
        assert!((s.mean() - 400.0).abs() < 2.0, "mean {}", s.mean());
        let cv = s.sample_variance().unwrap().sqrt() / s.mean();
        assert!((cv - 0.04).abs() < 0.005, "cv {cv}");
    }

    #[test]
    fn encode_decode_roundtrips() {
        let spec = FleetCampaignSpec {
            name: "frontier-π".to_string(),
            population: 9_408,
            mean_node_w: 12_733.25,
            cv: 0.061,
            noise_sigma: 0.004,
            confidence: 0.99,
            lambda: 0.01,
            quantile: CiQuantile::StudentT,
            empirical_cv: true,
            level: Methodology::Revised,
            power_capped: true,
            samples_per_node: 600,
            gflops_per_node: 180_000.0,
            lateness: 7,
            max_nodes: 941,
            seed: 0xDEAD_BEEF,
        };
        let decoded = FleetCampaignSpec::decode(&spec.encode()).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(decoded.fingerprint(), spec.fingerprint());
        // Truncated and version-bumped records are refused.
        assert!(FleetCampaignSpec::decode(&spec.encode()[..40]).is_err());
        let mut bad = spec.encode();
        bad[0] = 9;
        assert!(FleetCampaignSpec::decode(&bad).is_err());
    }

    #[test]
    fn decode_refuses_version_one_records() {
        // Version 1 was the same layout minus the trailing power_capped
        // byte; such a record is refused, with or without that byte.
        let mut v1 = FleetCampaignSpec::default().encode();
        v1[0] = 1;
        assert!(FleetCampaignSpec::decode(&v1).is_err());
        v1.pop();
        assert!(FleetCampaignSpec::decode(&v1).is_err());
        // A version-2 record with a garbage cap tag is refused.
        let mut bad = FleetCampaignSpec::default().encode();
        *bad.last_mut().unwrap() = 7;
        assert!(FleetCampaignSpec::decode(&bad).is_err());
    }

    #[test]
    fn fingerprint_tracks_every_field() {
        let a = FleetCampaignSpec::default();
        let mut b = a.clone();
        b.seed = 1;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.level = Methodology::Level3;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.power_capped = true;
        assert_ne!(a.fingerprint(), d.fingerprint());
    }
}
