//! Sample statistics, process counters and the metric sink every workload
//! and probe reports through.

use std::fmt::Write as _;

/// Nearest-rank percentile of an ascending-sorted slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n >= 1` samples. Integer
/// arithmetic in tenths of a percent: `0.999 * 10_000` is not `9990` in
/// floating point, and the ten-samples-beyond rule sits exactly there.
fn rank(n: usize, p: f64) -> usize {
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n)
}

/// The percentiles a tail is reported at, lowest first.
pub const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten samples
/// beyond it among `n` samples; `None` when even the median has fewer.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rfind(|p| beyond(n, *p) >= 10)
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric samples are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Percentile `p` of `samples` taken slice by slice, then the median of the
/// slice values. `samples` are `(offset into the window, value)` pairs. A
/// burst of interference from the sandbox's other tenants spoils the slices
/// it lands in, not the median of the slices. Slices are as short as
/// `min_slice` allows while each still holds `per_slice` samples on
/// average, so the percentile keeps its ten samples beyond it.
pub fn sliced_percentile(
    samples: &[(u64, u64)],
    window: u64,
    min_slice: u64,
    per_slice: usize,
    p: f64,
) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let by_count = (samples.len() / per_slice.max(1)).max(1) as u64;
    let slices = by_count.min((window / min_slice.max(1)).max(1));
    let width = window.div_ceil(slices).max(1);
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices as usize];
    for &(at, v) in samples {
        buckets[((at / width) as usize).min(slices as usize - 1)].push(v);
    }
    let per: Vec<f64> = buckets
        .iter_mut()
        .filter(|b| !b.is_empty())
        .map(|b| {
            b.sort_unstable();
            percentile_sorted(b, p) as f64
        })
        .collect();
    median_f64(&per)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time consumed so far by every thread of this process, in
/// nanoseconds (`/proc/self/task/*/schedstat`, first field). Threads that
/// have already exited are not counted, so take both readings while the
/// threads of interest are alive.
pub fn process_cpu_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Sample count behind a timing, `None` for a derived or counted value.
    pub samples: Option<usize>,
    /// Counted by the program and identical on every run of the same seed.
    pub exact: bool,
}

/// Everything a run reports: the metrics plus the operation tally.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons the outputs were judged wrong; empty = correct.
    pub problems: Vec<String>,
    /// Extra lines for the reader (check tallies, caveats), not metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn timing(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples: Some(samples),
            exact: false,
        });
    }

    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples: None,
            exact: false,
        });
    }

    /// A count made by the program (or a ratio of two), the same on every
    /// run of one seed.
    pub fn exact(&mut self, name: &'static str, value: f64) {
        self.metrics.push(Metric {
            name,
            unit: "count",
            value,
            samples: None,
            exact: true,
        });
    }

    pub fn problem(&mut self, what: String) {
        self.problems.push(what);
    }

    pub fn note(&mut self, what: String) {
        self.notes.push(what);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The `name unit value [samples]` lines, one per metric.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = write!(out, "{} {} {}", m.name, m.unit, fmt_value(m.value));
            if let Some(n) = m.samples {
                let _ = write!(out, " [n={n}]");
            } else if m.exact {
                let _ = write!(out, " [exact]");
            }
            out.push('\n');
        }
        for n in &self.notes {
            let _ = writeln!(out, "# {n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "# WRONG: {p}");
        }
        out
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A float as measured, with all its digits, in a form JSON accepts.
fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 100.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[7], 99.9), 7);
        // Nearest rank never interpolates: p50 of four samples is the 2nd.
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 50.0), 20);
        assert_eq!(percentile_sorted(&[10, 20, 30, 40], 51.0), 30);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(9_999), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn sliced_percentile_shrugs_off_one_bad_slice() {
        // Ten one-second slices of 1000 samples at value 100; one slice is
        // entirely disturbed. The whole-window p99 would see the spike.
        let mut s = Vec::new();
        for slice in 0..10u64 {
            for i in 0..1000u64 {
                let v = if slice == 3 { 10_000 } else { 100 };
                s.push((slice * 1_000 + i, v));
            }
        }
        assert_eq!(sliced_percentile(&s, 10_000, 1_000, 1000, 99.0), 100.0);
        // Too few samples for ten slices: falls back to fewer, wider ones.
        assert_eq!(
            sliced_percentile(&s[..500], 10_000, 1_000, 1000, 50.0),
            100.0
        );
    }

    #[test]
    fn json_has_the_contract_keys() {
        let mut r = Report {
            attempted: 5,
            ..Report::default()
        };
        r.timing("a.b_us", "us", 1.5, 10);
        r.exact("c_msgs", 16.0);
        let j = r.json();
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {")
        );
        assert!(j.contains("\"a.b_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(j.contains("\"c_msgs\": {\"value\": 16, \"unit\": \"count\"}"));
        assert!(r.human().contains("c_msgs count 16 [exact]"));
    }
}
