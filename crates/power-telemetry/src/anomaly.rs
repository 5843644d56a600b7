//! Streaming detectors for the meter-fault taxonomy.
//!
//! `power_meter::faults` can inject three undramatic failure modes —
//! gain drift, stuck registers, dropped samples. Offline they are easy
//! to find; a live campaign has to notice them *while metering*, because
//! a drifting node silently biases the fleet mean the stopping rule is
//! converging on. Each detector is O(1) per sample:
//!
//! * **drift** — two adjacent windows of `drift_window` samples over a
//!   small internal [`RingBuffer`]; the relative slope between their
//!   means, extrapolated to an hour, is compared against a threshold
//!   (with hysteresis so a borderline node fires once, not per sample);
//! * **stuck** — run length of consecutive samples within a tolerance of
//!   each other; a frozen register repeats its last value exactly;
//! * **gap** — run length of missing placeholders the ingestion
//!   watermark finalized; meters that drop samples leave these behind.

use crate::ring::RingBuffer;
use crate::{Result, TelemetryError};

/// What kind of anomaly fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnomalyKind {
    /// Windowed mean slope exceeded the drift threshold.
    Drift {
        /// Estimated relative drift per hour at the moment of firing.
        slope_per_hour: f64,
    },
    /// A register repeated the same value too many times.
    Stuck {
        /// Length of the equal-value run when the detector fired.
        run_len: u64,
    },
    /// Too many consecutive samples never arrived.
    Gap {
        /// Length of the missing run when the detector fired.
        missing: u64,
    },
}

/// One detector firing, locatable in node, sequence and time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyEvent {
    /// Node slot the event belongs to.
    pub node: usize,
    /// Sequence number of the sample that triggered it.
    pub seq: u64,
    /// Start time of that sample's slot, in seconds.
    pub t: f64,
    /// The anomaly.
    pub kind: AnomalyKind,
}

/// Detector thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Samples per half-window of the drift slope estimator.
    pub drift_window: usize,
    /// Relative drift per hour that fires the drift detector.
    pub drift_threshold_per_hour: f64,
    /// Consecutive near-equal samples that fire the stuck detector.
    pub stuck_run: u64,
    /// Two samples within this many watts count as "equal" for the
    /// stuck detector (0.0 demands bit-exact repetition).
    pub stuck_tolerance_w: f64,
    /// Consecutive missing samples that fire the gap detector.
    pub gap_threshold: u64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            drift_window: 600,
            drift_threshold_per_hour: 0.02,
            stuck_run: 30,
            stuck_tolerance_w: 0.0,
            gap_threshold: 10,
        }
    }
}

impl DetectorConfig {
    /// Validates the thresholds.
    pub fn validate(&self) -> Result<()> {
        if self.drift_window < 2 {
            return Err(TelemetryError::InvalidConfig {
                field: "drift_window",
                reason: "drift half-window needs at least 2 samples",
            });
        }
        if !(self.drift_threshold_per_hour > 0.0 && self.drift_threshold_per_hour.is_finite()) {
            return Err(TelemetryError::InvalidConfig {
                field: "drift_threshold_per_hour",
                reason: "drift threshold must be positive and finite",
            });
        }
        if self.stuck_run < 2 {
            return Err(TelemetryError::InvalidConfig {
                field: "stuck_run",
                reason: "stuck run length must be at least 2",
            });
        }
        if !(self.stuck_tolerance_w >= 0.0 && self.stuck_tolerance_w.is_finite()) {
            return Err(TelemetryError::InvalidConfig {
                field: "stuck_tolerance_w",
                reason: "stuck tolerance must be non-negative and finite",
            });
        }
        if self.gap_threshold == 0 {
            return Err(TelemetryError::InvalidConfig {
                field: "gap_threshold",
                reason: "gap threshold must be at least 1",
            });
        }
        Ok(())
    }
}

/// Per-node streaming state.
#[derive(Debug, Clone)]
struct NodeDetector {
    cfg: DetectorConfig,
    /// Recent-history ring for the drift slope; holds exactly the two
    /// half-windows the slope compares.
    recent: RingBuffer,
    last_value: Option<f64>,
    stuck_run: u64,
    stuck_fired: bool,
    missing_run: u64,
    gap_fired: bool,
    drift_armed: bool,
    seq: u64,
}

impl NodeDetector {
    fn new(t0: f64, dt: f64, cfg: DetectorConfig) -> Result<Self> {
        Ok(NodeDetector {
            cfg,
            recent: RingBuffer::new(t0, dt, 2 * cfg.drift_window)?,
            last_value: None,
            stuck_run: 1,
            stuck_fired: false,
            missing_run: 0,
            gap_fired: false,
            drift_armed: true,
            seq: 0,
        })
    }

    fn observe(&mut self, watts: f64, out: &mut Vec<AnomalyEvent>, node: usize) {
        let seq = self.seq;
        self.seq += 1;
        let t = self.recent.t0() + seq as f64 * self.recent.dt();
        // Gap run ends on any delivered sample.
        self.missing_run = 0;
        self.gap_fired = false;
        // Stuck: run length of near-equal values, firing once per run.
        match self.last_value {
            Some(prev) if (watts - prev).abs() <= self.cfg.stuck_tolerance_w => {
                self.stuck_run += 1;
                if self.stuck_run >= self.cfg.stuck_run && !self.stuck_fired {
                    self.stuck_fired = true;
                    out.push(AnomalyEvent {
                        node,
                        seq,
                        t,
                        kind: AnomalyKind::Stuck {
                            run_len: self.stuck_run,
                        },
                    });
                }
            }
            _ => {
                self.stuck_run = 1;
                self.stuck_fired = false;
            }
        }
        self.last_value = Some(watts);
        // Drift: slope between the two retained half-windows.
        self.recent.push(watts);
        let w = self.cfg.drift_window;
        if self.recent.len() == 2 * w {
            let dt = self.recent.dt();
            let hi = self.recent.t_end();
            let mid = hi - w as f64 * dt;
            let lo = self.recent.t_start();
            if let (Ok(older), Ok(newer)) = (
                self.recent.window_average(lo, mid),
                self.recent.window_average(mid, hi),
            ) {
                let scale = 0.5 * (older.abs() + newer.abs());
                if scale > 0.0 {
                    let slope_per_hour = (newer - older) / (w as f64 * dt) * 3600.0 / scale;
                    let thr = self.cfg.drift_threshold_per_hour;
                    if slope_per_hour.abs() >= thr {
                        if self.drift_armed {
                            self.drift_armed = false;
                            out.push(AnomalyEvent {
                                node,
                                seq,
                                t,
                                kind: AnomalyKind::Drift { slope_per_hour },
                            });
                        }
                    } else if slope_per_hour.abs() < 0.5 * thr {
                        // Hysteresis: re-arm only once clearly below.
                        self.drift_armed = true;
                    }
                }
            }
        }
    }

    fn observe_missing(&mut self, out: &mut Vec<AnomalyEvent>, node: usize) {
        let seq = self.seq;
        self.seq += 1;
        let t = self.recent.t0() + seq as f64 * self.recent.dt();
        self.recent.push_missing();
        self.missing_run += 1;
        if self.missing_run >= self.cfg.gap_threshold && !self.gap_fired {
            self.gap_fired = true;
            out.push(AnomalyEvent {
                node,
                seq,
                t,
                kind: AnomalyKind::Gap {
                    missing: self.missing_run,
                },
            });
        }
        // A hole also breaks any equal-value run.
        self.last_value = None;
        self.stuck_run = 1;
        self.stuck_fired = false;
    }
}

/// Streaming anomaly detection across a fleet of node slots.
#[derive(Debug, Clone)]
pub struct AnomalyMonitor {
    nodes: Vec<NodeDetector>,
    events: Vec<AnomalyEvent>,
}

impl AnomalyMonitor {
    /// Creates detectors for `node_slots` nodes whose streams share
    /// origin `t0` and interval `dt`.
    pub fn new(node_slots: usize, t0: f64, dt: f64, cfg: DetectorConfig) -> Result<Self> {
        cfg.validate()?;
        if node_slots == 0 {
            return Err(TelemetryError::InvalidConfig {
                field: "node_slots",
                reason: "monitor needs at least one node slot",
            });
        }
        let nodes = (0..node_slots)
            .map(|_| NodeDetector::new(t0, dt, cfg))
            .collect::<Result<Vec<_>>>()?;
        Ok(AnomalyMonitor {
            nodes,
            events: Vec::new(),
        })
    }

    /// Feeds one delivered sample for `node` (samples must be fed in
    /// finalized sequence order, e.g. by replaying an ingestion ring).
    pub fn observe(&mut self, node: usize, watts: f64) -> Result<()> {
        let events = &mut self.events;
        self.nodes
            .get_mut(node)
            .ok_or(TelemetryError::InvalidConfig {
                field: "node",
                reason: "observation names a node slot outside the monitor",
            })?
            .observe(watts, events, node);
        Ok(())
    }

    /// Feeds one missing-sample placeholder for `node`.
    pub fn observe_missing(&mut self, node: usize) -> Result<()> {
        let events = &mut self.events;
        self.nodes
            .get_mut(node)
            .ok_or(TelemetryError::InvalidConfig {
                field: "node",
                reason: "observation names a node slot outside the monitor",
            })?
            .observe_missing(events, node);
        Ok(())
    }

    /// Every event fired so far, in firing order.
    pub fn events(&self) -> &[AnomalyEvent] {
        &self.events
    }

    /// Number of events of each kind: `(drift, stuck, gap)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for e in &self.events {
            match e.kind {
                AnomalyKind::Drift { .. } => c.0 += 1,
                AnomalyKind::Stuck { .. } => c.1 += 1,
                AnomalyKind::Gap { .. } => c.2 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use power_stats::rng::{seeded, ziggurat};

    // Drift half-window of 600 samples: at 1% sample noise the slope
    // estimator's noise floor is ~0.0035/hr, leaving the 0.02/hr
    // threshold at ~6 sigma — no false fires on clean streams.
    fn cfg() -> DetectorConfig {
        DetectorConfig {
            drift_window: 600,
            drift_threshold_per_hour: 0.02,
            stuck_run: 10,
            stuck_tolerance_w: 0.0,
            gap_threshold: 5,
        }
    }

    #[test]
    fn config_validation() {
        assert!(DetectorConfig::default().validate().is_ok());
        assert!(DetectorConfig {
            drift_window: 1,
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(DetectorConfig {
            drift_threshold_per_hour: 0.0,
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(DetectorConfig {
            stuck_run: 1,
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(DetectorConfig {
            gap_threshold: 0,
            ..cfg()
        }
        .validate()
        .is_err());
        assert!(AnomalyMonitor::new(0, 0.0, 1.0, cfg()).is_err());
    }

    #[test]
    fn clean_noisy_stream_fires_nothing() {
        let mut m = AnomalyMonitor::new(1, 0.0, 1.0, cfg()).unwrap();
        let mut rng = seeded(11);
        for _ in 0..2000 {
            m.observe(0, 400.0 * (1.0 + 0.01 * ziggurat(&mut rng)))
                .unwrap();
        }
        assert_eq!(m.events(), &[], "false positives: {:?}", m.events());
    }

    #[test]
    fn stuck_register_fires_once_per_run() {
        let mut m = AnomalyMonitor::new(1, 0.0, 1.0, cfg()).unwrap();
        let mut rng = seeded(12);
        for _ in 0..50 {
            m.observe(0, 400.0 + ziggurat(&mut rng)).unwrap();
        }
        for _ in 0..40 {
            m.observe(0, 412.5).unwrap();
        }
        let (drift, stuck, gap) = m.counts();
        assert_eq!((drift, stuck, gap), (0, 1, 0), "{:?}", m.events());
        let e = m.events()[0];
        assert_eq!(e.node, 0);
        assert!(matches!(e.kind, AnomalyKind::Stuck { run_len: 10 }));
        // The run began at seq 50; firing lands at its 10th member.
        assert_eq!(e.seq, 59);
        // A fresh value then a second freeze fires again.
        m.observe(0, 390.0).unwrap();
        for _ in 0..15 {
            m.observe(0, 390.0).unwrap();
        }
        assert_eq!(m.counts().1, 2);
    }

    #[test]
    fn watermark_gaps_fire_once_per_hole() {
        let mut m = AnomalyMonitor::new(2, 0.0, 1.0, cfg()).unwrap();
        let mut rng = seeded(13);
        for _ in 0..20 {
            m.observe(1, 400.0 + ziggurat(&mut rng)).unwrap();
        }
        for _ in 0..8 {
            m.observe_missing(1).unwrap();
        }
        for _ in 0..20 {
            m.observe(1, 400.0 + ziggurat(&mut rng)).unwrap();
        }
        let (drift, stuck, gap) = m.counts();
        assert_eq!((drift, stuck, gap), (0, 0, 1), "{:?}", m.events());
        let e = m.events()[0];
        assert_eq!(e.node, 1);
        assert!(matches!(e.kind, AnomalyKind::Gap { missing: 5 }));
        assert_eq!(e.seq, 24);
        // Short holes below the threshold stay quiet.
        for _ in 0..3 {
            m.observe_missing(1).unwrap();
        }
        m.observe(1, 400.0).unwrap();
        assert_eq!(m.counts().2, 1);
    }

    #[test]
    fn drift_fires_on_ramp_with_hysteresis() {
        let mut m = AnomalyMonitor::new(1, 0.0, 1.0, cfg()).unwrap();
        let mut rng = seeded(14);
        // Flat lead-in, then a 10%/hour ramp: unambiguous for the
        // detector's 2x600 s slope window.
        for _ in 0..600 {
            m.observe(0, 400.0 * (1.0 + 0.002 * ziggurat(&mut rng)))
                .unwrap();
        }
        for k in 0..2400 {
            let drifted = 400.0 * (1.0 + 0.10 * (k as f64 / 3600.0));
            m.observe(0, drifted * (1.0 + 0.002 * ziggurat(&mut rng)))
                .unwrap();
        }
        let (drift, stuck, gap) = m.counts();
        assert!(drift >= 1, "drift never fired: {:?}", m.counts());
        assert_eq!((stuck, gap), (0, 0));
        // Hysteresis keeps a steady ramp from firing every sample.
        assert!(drift <= 3, "drift fired {drift} times");
        let e = m
            .events()
            .iter()
            .find(|e| matches!(e.kind, AnomalyKind::Drift { .. }))
            .unwrap();
        if let AnomalyKind::Drift { slope_per_hour } = e.kind {
            assert!(
                (0.02..0.5).contains(&slope_per_hour),
                "slope {slope_per_hour}"
            );
        }
    }

    #[test]
    fn unknown_node_is_rejected() {
        let mut m = AnomalyMonitor::new(1, 0.0, 1.0, cfg()).unwrap();
        assert!(m.observe(1, 400.0).is_err());
        assert!(m.observe_missing(7).is_err());
    }
}
