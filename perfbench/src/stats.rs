//! Small numeric helpers, the result record, and process-memory probes.

use std::fmt::Write as _;

/// Median of `xs` (mean of the two middle values for even lengths);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Smallest of `xs`; `0.0` for an empty slice.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Geometric mean of positive `xs`; `0.0` for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One reported metric: name, value, unit and how many samples it was
/// reduced from.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (context that is
    /// not a declared metric, such as the fail ratio or sample sizes).
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed correctness check: the run reports
    /// `correct: false` and exits non-zero.
    pub fn mismatch(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("MISMATCH: {what}"));
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            // Non-finite values are not JSON; they only arise from an
            // empty measurement, which `validate` already flagged.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, v, m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// Flags non-finite values as a failed run.
    pub fn validate(&mut self) {
        let bad: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !m.value.is_finite())
            .map(|m| m.name.clone())
            .collect();
        for name in bad {
            self.mismatch(format!("metric {name} is not a finite number"));
        }
    }
}

/// A `/proc/self/status` field in kB (`VmRSS`, `VmHWM`, …).
pub fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Resets the peak-RSS watermark (`VmHWM`) to the current RSS, so the
/// next read covers only what follows. Where the kernel does not allow
/// it, the watermark also covers input generation.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Microseconds in a duration, as a float.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
