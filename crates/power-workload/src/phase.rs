//! Run phase structure.
//!
//! The EE HPC WG methodology measures performance over the *core phase* of a
//! benchmark — the period of actual computation, excluding setup and
//! teardown. Level 1 further restricts power measurement to a window inside
//! the "middle 80%" of the core phase. All of those rules need a precise
//! notion of where the phases lie in time, which this type provides.

use power_stats::hash::Fnv1a;

/// Durations (seconds) of the three phases of one benchmark run.
///
/// Time zero is the start of the setup phase; the core phase spans
/// `[core_start, core_end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPhases {
    setup: f64,
    core: f64,
    teardown: f64,
}

/// Error constructing [`RunPhases`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseError(&'static str);

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid run phases: {}", self.0)
    }
}

impl std::error::Error for PhaseError {}

impl RunPhases {
    /// Creates a phase structure; the core phase must be positive, setup
    /// and teardown non-negative, and all finite.
    pub fn new(setup: f64, core: f64, teardown: f64) -> Result<Self, PhaseError> {
        if !(setup.is_finite() && core.is_finite() && teardown.is_finite()) {
            return Err(PhaseError("durations must be finite"));
        }
        if setup < 0.0 || teardown < 0.0 {
            return Err(PhaseError("setup/teardown must be non-negative"));
        }
        if core <= 0.0 {
            return Err(PhaseError("core phase must be positive"));
        }
        Ok(RunPhases {
            setup,
            core,
            teardown,
        })
    }

    /// Feeds the three durations into `h` (see
    /// [`Workload::fingerprint`](crate::Workload::fingerprint)).
    pub fn fingerprint(&self, h: &mut Fnv1a) {
        let RunPhases {
            setup,
            core,
            teardown,
        } = *self;
        h.write_f64(setup);
        h.write_f64(core);
        h.write_f64(teardown);
    }

    /// A run that is all core phase (no setup/teardown).
    pub fn core_only(core: f64) -> Result<Self, PhaseError> {
        RunPhases::new(0.0, core, 0.0)
    }

    /// Setup duration in seconds.
    pub fn setup(&self) -> f64 {
        self.setup
    }

    /// Core-phase duration in seconds.
    pub fn core(&self) -> f64 {
        self.core
    }

    /// Teardown duration in seconds.
    pub fn teardown(&self) -> f64 {
        self.teardown
    }

    /// Time at which the core phase begins.
    pub fn core_start(&self) -> f64 {
        self.setup
    }

    /// Time at which the core phase ends.
    pub fn core_end(&self) -> f64 {
        self.setup + self.core
    }

    /// Total run duration.
    pub fn total(&self) -> f64 {
        self.setup + self.core + self.teardown
    }

    /// Whether time `t` lies in the core phase.
    pub fn in_core(&self, t: f64) -> bool {
        t >= self.core_start() && t < self.core_end()
    }

    /// Whether time `t` lies anywhere within the run.
    pub fn in_run(&self, t: f64) -> bool {
        t >= 0.0 && t < self.total()
    }

    /// Normalized core-phase progress `tau in [0, 1]` at time `t`,
    /// clamped outside the core phase.
    pub fn core_progress(&self, t: f64) -> f64 {
        ((t - self.core_start()) / self.core).clamp(0.0, 1.0)
    }

    /// The "middle 80%" of the core phase — the sub-interval
    /// `[start + 10%, end - 10%)` within which Level 1 allows its
    /// measurement window to be placed.
    pub fn core_middle_80(&self) -> (f64, f64) {
        (
            self.core_start() + 0.1 * self.core,
            self.core_end() - 0.1 * self.core,
        )
    }

    /// The sub-interval of the core phase covering normalized progress
    /// `[from, to]` (both in `[0, 1]`). Used for "first 20%" / "last 20%"
    /// segment averages in the paper's Table 2.
    pub fn core_segment(&self, from: f64, to: f64) -> (f64, f64) {
        let f = from.clamp(0.0, 1.0);
        let t = to.clamp(f, 1.0);
        (
            self.core_start() + f * self.core,
            self.core_start() + t * self.core,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_geometry() {
        let p = RunPhases::new(100.0, 1000.0, 50.0).unwrap();
        assert_eq!(p.core_start(), 100.0);
        assert_eq!(p.core_end(), 1100.0);
        assert_eq!(p.total(), 1150.0);
        assert!(p.in_core(100.0));
        assert!(p.in_core(1099.9));
        assert!(!p.in_core(99.9));
        assert!(!p.in_core(1100.0));
        assert!(p.in_run(0.0));
        assert!(!p.in_run(1150.0));
        assert!(!p.in_run(-1.0));
    }

    #[test]
    fn progress_clamps() {
        let p = RunPhases::new(10.0, 100.0, 10.0).unwrap();
        assert_eq!(p.core_progress(0.0), 0.0);
        assert_eq!(p.core_progress(10.0), 0.0);
        assert!((p.core_progress(60.0) - 0.5).abs() < 1e-12);
        assert_eq!(p.core_progress(110.0), 1.0);
        assert_eq!(p.core_progress(500.0), 1.0);
    }

    #[test]
    fn middle_80_excludes_ends() {
        let p = RunPhases::new(0.0, 1000.0, 0.0).unwrap();
        let (a, b) = p.core_middle_80();
        assert_eq!(a, 100.0);
        assert_eq!(b, 900.0);
    }

    #[test]
    fn segments_for_table2() {
        let p = RunPhases::new(50.0, 1000.0, 50.0).unwrap();
        let (a, b) = p.core_segment(0.0, 0.2);
        assert_eq!((a, b), (50.0, 250.0));
        let (a, b) = p.core_segment(0.8, 1.0);
        assert_eq!((a, b), (850.0, 1050.0));
        // Degenerate/clamped input.
        let (a, b) = p.core_segment(0.9, 0.1);
        assert_eq!(a, b);
        let (a, b) = p.core_segment(-1.0, 2.0);
        assert_eq!((a, b), (50.0, 1050.0));
    }

    #[test]
    fn core_only_constructor() {
        let p = RunPhases::core_only(3600.0).unwrap();
        assert_eq!(p.setup(), 0.0);
        assert_eq!(p.core_start(), 0.0);
        assert_eq!(p.total(), 3600.0);
    }

    #[test]
    fn rejects_invalid_durations() {
        assert!(RunPhases::new(-1.0, 100.0, 0.0).is_err());
        assert!(RunPhases::new(0.0, 0.0, 0.0).is_err());
        assert!(RunPhases::new(0.0, -5.0, 0.0).is_err());
        assert!(RunPhases::new(0.0, f64::NAN, 0.0).is_err());
        assert!(RunPhases::new(0.0, 100.0, f64::INFINITY).is_err());
    }
}
