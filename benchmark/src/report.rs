//! One run's result: the metrics, the count of operations attempted and
//! failed, and the three ways it is written out.

use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// The value reported for the run.
    pub value: f64,
    /// Spread of the samples behind `value`, when there are several.
    pub summary: Option<Summary>,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why each failed operation failed.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one attempted operation and, on `Err`, its failure.
    pub fn attempt<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        outcome
            .map_err(|e| {
                self.failed += 1;
                self.errors.push(e);
            })
            .ok()
    }

    /// Adds a metric whose value is the median of `samples`.
    pub fn median(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        if let Some(s) = Summary::of(samples) {
            self.metrics.push(Metric { name, unit, value: s.median, summary: Some(s) });
        }
    }

    /// Adds a single-valued metric.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value, summary: None });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// metric's value and unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
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

    /// A human-readable table of every metric with its spread.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<30} {:>10} {:>14} {:>14} {:>14} {:>14} {:>6}\n",
            "metric", "unit", "value", "median", "q1", "q3", "n"
        );
        for m in &self.metrics {
            let (median, q1, q3, n) = match m.summary {
                Some(s) => (fmt(s.median), fmt(s.q1), fmt(s.q3), s.n.to_string()),
                None => (String::new(), String::new(), String::new(), "1".to_owned()),
            };
            out.push_str(&format!(
                "{:<30} {:>10} {:>14} {median:>14} {q1:>14} {q3:>14} {n:>6}\n",
                m.name,
                m.unit,
                fmt(m.value)
            ));
        }
        out
    }

    /// One JSON line per metric, for `results.jsonl`.
    pub fn records(&self, workload: &str, seed: u64, trace: bool) -> String {
        self.metrics
            .iter()
            .map(|m| {
                let (median, q1, q3, n) = match m.summary {
                    Some(s) => (s.median, s.q1, s.q3, s.n),
                    None => (m.value, m.value, m.value, 1),
                };
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"metric\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {n}}}\n",
                    u8::from(trace),
                    m.name,
                    m.unit,
                    json_number(m.value),
                    json_number(median),
                    json_number(q1),
                    json_number(q3),
                )
            })
            .collect()
    }
}

fn fmt(v: f64) -> String {
    format!("{v:.6}")
}

/// A JSON number with every digit of `v` (`null` if not finite).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_four_keys() {
        let mut r = Report::default();
        assert_eq!(r.attempt(Ok::<_, String>(1)), Some(1));
        assert_eq!(r.attempt::<()>(Err("boom".to_owned())), None);
        r.median("cold_s", "s", &[2.0, 1.0, 3.0]);
        r.value("front_hv", "hv", 0.125);
        assert!(!r.correct());
        assert_eq!(
            r.to_json(),
            "{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {\"cold_s\": {\"value\": 2, \"unit\": \"s\"}, \"front_hv\": {\"value\": 0.125, \"unit\": \"hv\"}}}"
        );
        assert_eq!(json_number(f64::NAN), "null");
    }
}
