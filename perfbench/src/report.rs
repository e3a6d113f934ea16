//! What one run reports: attempt counts, correctness checks, metrics, and
//! the final JSON line.

use std::fmt::Write as _;

use crate::stats::{median, quantiles};

/// One named metric value.
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// A workload run's outcome.
#[derive(Default)]
pub struct Report {
    /// Requests or records attempted in the measured window.
    pub attempted: u64,
    /// Attempts that ended in a decode error, refusal or missing response.
    pub failed: u64,
    /// `(check name, passed, detail)`.
    pub checks: Vec<(&'static str, bool, String)>,
    /// The metrics this run prints.
    pub metrics: Vec<Metric>,
    /// Human-readable context lines (input sizes, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// Records a correctness check.
    pub fn check(&mut self, name: &'static str, passed: bool, detail: String) {
        self.checks.push((name, passed, detail));
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records the end-to-end metrics. `latency_windows_ms` holds the
    /// latencies of consecutive slices of the measured window; each
    /// latency quantile is the median over slices of the slice's quantile,
    /// so a few seconds in which the machine ran slow or fast do not move
    /// it. Latency is summarised by its median and p90; p99 (over all
    /// samples) is printed but not bounded, because a tail of ~10 samples
    /// that one arrival burst or machine stall can fill varies by far more
    /// between runs than any useful bound.
    pub fn end_to_end(
        &mut self,
        records_per_s: f64,
        latency_windows_ms: &[Vec<f64>],
        setup_s: f64,
        peak_rss_mb: f64,
    ) {
        let windows: Vec<&Vec<f64>> = latency_windows_ms
            .iter()
            .filter(|w| !w.is_empty())
            .collect();
        let mut all: Vec<f64> = windows.iter().flat_map(|w| w.iter().copied()).collect();
        let [p99] = quantiles(&mut all, [0.99]);
        let per_window: Vec<[f64; 2]> = windows
            .iter()
            .map(|w| quantiles(&mut w.to_vec(), [0.5, 0.9]))
            .collect();
        let fewest = windows.iter().map(|w| w.len()).min().unwrap_or(0);
        self.note(format!(
            "latency: {} samples in {} slices (fewest {fewest}); p99 {p99:.3} ms over all samples",
            all.len(),
            windows.len()
        ));
        self.note(format!(
            "latency slices p50/p90 ms: {}",
            per_window
                .iter()
                .map(|[a, b]| format!("{a:.1}/{b:.1}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        self.metric("records_per_s", records_per_s, "1/s");
        self.metric(
            "latency_ms.p50",
            median(&per_window.iter().map(|q| q[0]).collect::<Vec<_>>()),
            "ms",
        );
        self.metric(
            "latency_ms.p90",
            median(&per_window.iter().map(|q| q[1]).collect::<Vec<_>>()),
            "ms",
        );
        self.metric("setup_s", setup_s, "s");
        self.metric("peak_rss_mb", peak_rss_mb, "MB");
    }

    /// Records a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// The human-readable lines followed by the one-line JSON result.
    pub fn render(&self, workload: &str) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "# {workload}: {n}");
        }
        let _ = writeln!(
            out,
            "# {workload}: attempted {} failed {} failed_frac {:.6}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "# {workload}: check {name}: {verdict} ({detail})");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{workload} {} = {} {}", m.name, m.value, m.unit);
        }
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
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

/// A finite JSON number with all its digits (non-finite values, which no
/// metric should produce, print as `0`).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_line_is_the_json_result() {
        let mut r = Report {
            attempted: 4,
            failed: 1,
            ..Report::default()
        };
        r.metric("latency_ms.p50", 1.25, "ms");
        r.check("violations", true, "0".to_string());
        let text = r.render("w");
        let last = text.lines().last().expect("a result line");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \
             \"metrics\": {\"latency_ms.p50\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check("digest", false, "differs".to_string());
        assert!(r
            .render("w")
            .lines()
            .last()
            .unwrap()
            .contains("\"correct\": false"));
    }
}
