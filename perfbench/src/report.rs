//! Percentiles, host provenance, and the output format: `# name: value`
//! report lines for people, then one JSON line for the harness.

use std::collections::BTreeMap;
use std::process::Command;

/// The `q`-quantile (0..=1) of `samples` by linear interpolation; `NaN`
/// when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Named samples, one list per stage or probe (microseconds, or bytes
/// for sizes); a name with no samples has median 0.
#[derive(Default)]
pub struct Stages(BTreeMap<String, Vec<f64>>);

impl Stages {
    pub fn push(&mut self, name: &str, us: f64) {
        self.0.entry(name.to_string()).or_default().push(us);
    }

    pub fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

/// A metric table in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn print_lines(&self) {
        for (name, value, unit) in &self.0 {
            println!("# {name}: {value} {unit}");
        }
    }

    /// The harness's result line. A value that could not be measured
    /// (no samples) is written as 0 and must already have been counted
    /// as a failure by the caller.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// Host and build provenance, printed with every result.
pub fn provenance() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string());
    // only the checkout's own repository: git would otherwise search
    // the parent directories
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("rustc", rustc),
        ("git_commit", commit),
    ]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
