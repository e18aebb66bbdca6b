//! What a run prints: a readable table of every metric with its unit and
//! sample count, then one JSON result line.

use iot_oracle::Violation;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How many samples the value summarises.
    pub samples: u64,
    /// What the samples are, e.g. `passes` or `experiments`.
    pub of: &'static str,
}

impl Metric {
    /// A metric over `samples` samples of kind `of`.
    pub fn new(
        name: &'static str,
        unit: &'static str,
        value: f64,
        samples: u64,
        of: &'static str,
    ) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            of,
        }
    }
}

/// Result of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (experiments, or models for `infer`).
    pub attempted: u64,
    /// Operations that failed (quarantined or abandoned experiments,
    /// failed models, or every operation of a run whose checks failed).
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub violations: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Workload-specific metrics, printed but not in the result line.
    pub extra: Vec<Metric>,
    /// Context lines printed above the table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records oracle violations under a label.
    pub fn violated(&mut self, what: &str, found: Vec<Violation>) {
        for v in found {
            self.violations.push(format!(
                "{what}: {} {}/{}/{}: {}",
                v.invariant, v.table, v.row, v.field, v.detail
            ));
        }
    }

    /// Whether every output check passed and every metric is a number.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
            && self.attempted > 0
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Prints the readable report, then the result line last.
    pub fn print(&self, title: &str) {
        println!("{title}");
        for note in &self.notes {
            println!("  {note}");
        }
        for m in self.metrics.iter().chain(&self.extra) {
            println!(
                "  {:<34} {:>16} {:<6} ({} {})",
                m.name,
                format_value(m.value),
                m.unit,
                m.samples,
                m.of
            );
        }
        println!(
            "  operations: {} attempted, {} failed (share {})",
            self.attempted,
            self.failed,
            if self.attempted > 0 {
                self.failed as f64 / self.attempted as f64
            } else {
                0.0
            }
        );
        for v in &self.violations {
            println!("  CHECK FAILED: {v}");
        }
        println!("{}", self.result_line());
    }

    /// The JSON result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn format_value(v: f64) -> String {
    if v != 0.0 && v.abs() < 0.01 {
        format!("{v:.6e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_full_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metrics
            .push(Metric::new("setup_s", "s", 0.000123456789, 9, "set-ups"));
        let line = o.result_line();
        let parsed = iot_core::json::Json::parse(&line).expect("valid JSON");
        assert_eq!(parsed.get("correct").and_then(|j| j.as_bool()), Some(true));
        let v = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .and_then(|m| m.get("value"));
        assert_eq!(v.and_then(|v| v.as_f64()), Some(0.000123456789));
    }

    #[test]
    fn violations_and_non_numbers_make_a_run_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(o.correct());
        o.metrics.push(Metric::new("x", "s", f64::NAN, 1, "runs"));
        assert!(!o.correct());
        assert!(o.result_line().contains("\"value\": 0"));
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.violated(
            "pass 1",
            vec![Violation::new("law", "t", "r", "f", "detail")],
        );
        assert!(!o.correct());
    }
}
