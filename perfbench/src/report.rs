//! The result of one benchmark run and its printed form.

use crate::catalog::{self, Metric};
use crate::stats;
use std::collections::BTreeMap;

/// Metrics, operation counts and provenance of one run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed their check, errored or timed out.
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    provenance: Vec<(String, String)>,
}

impl Report {
    /// Count one checked operation.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a metric value.
    ///
    /// # Panics
    /// If `name` is not in the catalog: emitted names must match it.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = lookup(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.metrics.insert(m.name, value);
    }

    /// Record a provenance entry; `json` is a JSON value.
    pub fn note(&mut self, key: &str, json: String) {
        self.provenance.push((key.to_string(), json));
    }

    /// Record the end-to-end verdict metrics of a closed loop that
    /// completed `latencies` (seconds each) in `wall` seconds, with the
    /// sample count, how many samples lie beyond the tail, the highest
    /// tail the count supports, and the latency quantiles.
    pub fn verdicts(&mut self, latencies: &[f64], wall: f64) {
        let n = latencies.len();
        let (p50, tail) = if n == 0 {
            (0.0, 0.0)
        } else {
            (
                stats::median(latencies),
                stats::percentile(latencies, stats::TAIL_P),
            )
        };
        self.set("verdict_p50_s", p50);
        self.set("verdict_tail_s", tail);
        self.set("verdicts_per_s", n as f64 / wall);
        self.note("tail_percentile", stats::TAIL_P.to_string());
        self.note("samples", n.to_string());
        self.note(
            "samples_beyond_tail",
            stats::samples_beyond(n, stats::TAIL_P).to_string(),
        );
        self.note(
            "highest_supported_tail",
            stats::tail_percentile(n).map_or("null".into(), |t| t.to_string()),
        );
        if n > 0 {
            let q: Vec<String> = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0]
                .iter()
                .map(|&p| format!("\"p{p}\": {}", stats::percentile(latencies, p)))
                .collect();
            self.note("latency_s", format!("{{{}}}", q.join(", ")));
        }
    }

    /// Set every per-layer metric not yet recorded to 0: the workload
    /// does not run that layer.
    pub fn zero_rest(&mut self) {
        for m in catalog::PER_LAYER {
            self.metrics.entry(m.name).or_insert(0.0);
        }
    }

    /// The printed result: provenance and one line per metric, then the
    /// final JSON line with exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    ///
    /// # Panics
    /// If the recorded metrics are not exactly the mode's catalog, or a
    /// value is not finite.
    pub fn render(&self, trace: bool) -> String {
        let want = catalog::for_trace(trace);
        let names: Vec<&str> = self.metrics.keys().copied().collect();
        let mut expected: Vec<&str> = want.iter().map(|m| m.name).collect();
        expected.sort_unstable();
        assert_eq!(names, expected, "emitted metrics must match the catalog");
        let mut out = String::new();
        let prov: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        out.push_str(&format!("{{\"provenance\": {{{}}}}}\n", prov.join(", ")));
        let mut fields = Vec::with_capacity(want.len());
        for m in want {
            let v = self.metrics[m.name];
            assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
            out.push_str(&format!(
                "{:<30} {:>22} {:<6} ({} is better) {}\n",
                m.name,
                fmt(v),
                m.unit,
                m.better,
                m.note
            ));
            fields.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt(v),
                m.unit
            ));
        }
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.attempted > 0 && self.failed == 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ));
        out
    }
}

fn lookup(name: &str) -> Option<&'static Metric> {
    catalog::END_TO_END
        .iter()
        .chain(catalog::PER_LAYER)
        .find(|m| m.name == name)
}

/// A JSON number with all its digits (shortest round-trip form).
fn fmt(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_prints_exactly_the_catalog_and_counts_failures() {
        let mut r = Report::default();
        for m in catalog::END_TO_END {
            r.set(m.name, 1.25);
        }
        r.attempt(true);
        r.attempt(false);
        let out = r.render(false);
        let last = out.lines().last().expect("a result line");
        assert!(last
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        for m in catalog::END_TO_END {
            assert!(last.contains(&format!(
                "\"{}\": {{\"value\": 1.25, \"unit\": \"{}\"}}",
                m.name, m.unit
            )));
        }
    }

    #[test]
    #[should_panic(expected = "must match the catalog")]
    fn render_rejects_a_missing_metric() {
        let mut r = Report::default();
        r.set("setup_s", 1.0);
        r.render(false);
    }
}
