//! Results of one run: metrics, correctness ledger, report lines, and the
//! final JSON line.

/// The end-to-end metrics every untraced run reports, `(name, unit)`, in
/// the order of `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_ms", "ms"), ("job_cpu_s", "s")];

/// One named, unit-tagged number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// Operations attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations and invariants checked.
    pub attempted: u64,
    /// Those that failed or returned a wrong answer.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; records `what` when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Correctness ledger.
    pub checks: Checks,
    /// Metrics for the final JSON line, in print order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (printed before the JSON line).
    pub lines: Vec<String>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Adds the [`END_TO_END`] metrics, values in that order.
    pub fn end_to_end(&mut self, values: [f64; 3]) {
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            self.metric(name, value, unit);
        }
    }

    /// Adds a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// The final JSON line. A non-finite metric makes the run incorrect
    /// and is printed as `-1` so the line stays valid JSON.
    pub fn json_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.checks.failed == 0 && finite && self.checks.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.attempted.max(1),
            self.checks.failed + u64::from(!finite),
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let mut o = Outcome::default();
        o.checks.check(true, String::new);
        o.metric("setup_s", 0.5, "s");
        o.metric("job_s", 1.25, "s");
        let line = o.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"job_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        assert!(mini_json::Json::parse(&line).is_ok());
    }

    #[test]
    fn failures_and_nan_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.checks.check(false, || "wrong".into());
        o.metric("x", f64::NAN, "ms");
        let json = mini_json::Json::parse(&o.json_line()).unwrap();
        assert_eq!(json.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(json.get("failed").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(o.checks.error_ratio(), 1.0);
    }
}
