//! Order statistics, the host fingerprint, and the JSON the benchmark
//! prints.

use std::fmt::Write as _;

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The mean of the middle fifth of `xs`, the samples between its 40th
/// and 60th percentiles (0 when empty). Like the median it ignores up
/// to two fifths of outlying runs on either side, which a shared host's
/// stalls produce. Unlike the median, it does not jump between two
/// values when the samples are quantized, as wall times on the engine's
/// 50 ms sampler tick are.
pub fn middle_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let trim = 2 * v.len() / 5;
    mean(&v[trim..v.len() - trim])
}

/// The mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The largest of `xs` (0 when empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// First and third quartiles, by the method Python's
/// `statistics.quantiles(xs, n=4)` uses by default ("exclusive").
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The machine a result came from.
#[derive(Debug)]
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub l2: String,
    pub l3: String,
}

impl Host {
    pub fn probe() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut host = Host {
            nproc,
            cpu,
            l2: "unknown".into(),
            l3: "unknown".into(),
        };
        for index in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
            let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
            let (Some(level), Some(size)) = (read("level"), read("size")) else {
                continue;
            };
            match level.trim() {
                "2" => host.l2 = size.trim().to_string(),
                "3" => host.l3 = size.trim().to_string(),
                _ => {}
            }
        }
        host
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": {}, \"l2\": {}, \"l3\": {}}}",
            self.nproc,
            quote(&self.cpu),
            quote(&self.l2),
            quote(&self.l3)
        )
    }
}

/// The machine's `(steal, total)` CPU time so far, in clock ticks, from
/// `/proc/stat`. On a virtual machine, time stolen by the hypervisor
/// slows every thread of a run without showing in the run itself.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The share of CPU time stolen between two `cpu_ticks` readings (%).
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| 100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit `f64` holds; non-finite values, which
/// JSON cannot carry, print as 0.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// One reported metric: its per-run samples and unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    /// The reported value: the mean of the middle fifth of the samples.
    pub fn value(&self) -> f64 {
        middle_mean(&self.samples)
    }
}

/// The `"metrics"` object of the result line: each metric's value.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(&m.name),
                num(m.value()),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Each metric's sample count, quartiles, median and value, for the
/// detail line that precedes the result.
pub fn spread_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let (q1, q3) = quartiles(&m.samples);
            format!(
                "{}: {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"value\": {}, \
                 \"unit\": {}}}",
                quote(&m.name),
                m.samples.len(),
                num(q1),
                num(median(&m.samples)),
                num(q3),
                num(m.value()),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn middle_mean_keeps_the_middle_fifth() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(middle_mean(&xs), 5.5);
        assert_eq!(middle_mean(&[9.0, 1.0, 2.0, 3.0, 100.0]), 3.0);
        assert_eq!(middle_mean(&[0.5, 0.25, 0.5, 0.25]), 0.375);
        assert_eq!(middle_mean(&[7.0]), 7.0);
        assert_eq!(middle_mean(&[]), 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(num(2.0), "2.0");
        assert_eq!(num(f64::NAN), "0.0");
    }
}
