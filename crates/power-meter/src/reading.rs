//! Meter readings.

/// What one instrument reports for one measurement window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Start of the window (seconds).
    pub t_start: f64,
    /// End of the window (seconds).
    pub t_end: f64,
    /// Average power over the window in watts.
    pub average_w: f64,
    /// Integrated energy over the window in joules.
    pub energy_j: f64,
    /// Number of raw samples behind the reading (0 for a purely
    /// integrating meter).
    pub samples: usize,
}

impl Reading {
    /// Window duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.t_end - self.t_start
    }

    /// Combines readings from meters covering *disjoint* loads over the
    /// same window (e.g. one meter per PDU): powers and energies add.
    pub fn sum(readings: &[Reading]) -> Option<Reading> {
        let first = readings.first()?;
        let mut total = *first;
        for r in &readings[1..] {
            total.average_w += r.average_w;
            total.energy_j += r.energy_j;
            total.samples = total.samples.min(r.samples);
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reading(avg: f64) -> Reading {
        Reading {
            t_start: 0.0,
            t_end: 60.0,
            average_w: avg,
            energy_j: avg * 60.0,
            samples: 60,
        }
    }

    #[test]
    fn duration() {
        assert_eq!(reading(100.0).duration_s(), 60.0);
    }

    #[test]
    fn sum_adds_power_and_energy() {
        let total = Reading::sum(&[reading(100.0), reading(250.0)]).unwrap();
        assert_eq!(total.average_w, 350.0);
        assert_eq!(total.energy_j, 350.0 * 60.0);
        assert_eq!(total.samples, 60);
    }

    #[test]
    fn sum_of_empty_is_none() {
        assert!(Reading::sum(&[]).is_none());
    }
}
