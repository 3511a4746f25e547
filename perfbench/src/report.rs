//! Sample summaries, metric records and the result line.

use std::fmt::Write as _;
use std::time::Duration;

/// Latency samples in nanoseconds, kept whole so quantiles are exact.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<u64>);

impl Samples {
    /// Records one duration.
    pub fn push(&mut self, d: Duration) {
        self.0.push(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one value in nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns);
    }

    /// Appends every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// The samples from index `from` on, as a set of their own.
    pub fn since(&self, from: usize) -> Samples {
        Samples(self.0.get(from..).unwrap_or_default().to_vec())
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True without samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The `q`-quantile in microseconds, or `None` when fewer than ten
    /// samples lie beyond it (the quantile would rest on too few).
    pub fn quantile_us(&mut self, q: f64) -> Option<f64> {
        let n = self.0.len();
        let beyond = ((1.0 - q) * n as f64).floor() as usize;
        if n == 0 || beyond < 10 {
            return None;
        }
        self.0.sort_unstable();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(self.0[rank - 1] as f64 / 1e3)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// The value; `None` when the quantile is withheld for lack of
    /// samples or the layer was not observed in this workload.
    pub value: Option<f64>,
    /// Samples (or events) behind the value.
    pub samples: u64,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in insertion order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn add(&mut self, name: &str, unit: &'static str, value: Option<f64>, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    /// Adds a quantile metric from samples.
    pub fn quantile(&mut self, name: &str, s: &mut Samples, q: f64) {
        let v = s.quantile_us(q);
        self.add(name, "us", v, s.len() as u64);
    }

    /// Looks a metric value up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .and_then(|m| m.value)
    }

    /// Prints one human-readable line per metric.
    pub fn print(&self, prefix: &str) {
        for m in &self.metrics {
            match m.value {
                Some(v) => println!(
                    "{prefix} {:<40} {:>14.4} {:<6} (n={})",
                    m.name, v, m.unit, m.samples
                ),
                None => println!(
                    "{prefix} {:<40} {:>14} {:<6} (n={}: too few samples or not observed)",
                    m.name, "-", m.unit, m.samples
                ),
            }
        }
    }

    /// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
    /// Metrics without a value are written as 0 so the key set is fixed.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = m.value.unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_need_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=999u64 {
            s.push_ns(i * 1000);
        }
        assert!(s.quantile_us(0.99).is_none());
        assert_eq!(s.quantile_us(0.5), Some(500.0));
        s.push_ns(1_000_000);
        assert_eq!(s.quantile_us(0.99), Some(990.0));
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut r = Report::default();
        r.add("ops_per_s", "ops/s", Some(1.5), 3);
        r.add("x", "us", None, 0);
        let line = r.result_line(true, 3, 0);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3"));
        assert!(line.contains("\"ops_per_s\": {\"value\": 1.5, \"unit\": \"ops/s\"}"));
        assert!(line.contains("\"x\": {\"value\": 0, \"unit\": \"us\"}"));
    }
}
