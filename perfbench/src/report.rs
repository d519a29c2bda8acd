//! Metric records and the JSON result line.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What measuring one workload produced.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Vec<Metric>,
    /// Client commands submitted, over every run.
    pub attempted: u64,
    /// Commands that did not commit, plus every command of a run that
    /// failed a check.
    pub failed: u64,
    /// Check failures, one line each (empty: every check passed).
    pub failures: Vec<String>,
}

/// Whether `name` is a well-formed metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The smallest value of a sample (infinite when empty).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The results of every workload of one invocation.
#[derive(Default)]
pub struct Summary {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    checks_failed: bool,
}

impl Summary {
    /// Adds one workload's result; `prefix` namespaces its metrics when
    /// several workloads share the line.
    pub fn absorb(&mut self, prefix: Option<&str>, result: RunResult) {
        self.checks_failed |= !result.failures.is_empty();
        self.attempted += result.attempted;
        self.failed += result.failed;
        for mut m in result.metrics {
            if let Some(p) = prefix {
                m.name = format!("{p}.{}", m.name);
            }
            assert!(valid_name(&m.name), "malformed metric name {:?}", m.name);
            assert!(m.value.is_finite(), "{} is not a number", m.name);
            self.metrics.push(m);
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            !self.checks_failed, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints every digit f64 holds, and a `.0` on integers.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two timevals, then 14 longs of
    // which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct RUsage {
        times: [i64; 4],
        maxrss_kib: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` matches the C layout and outlives the call.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage.maxrss_kib as f64 / 1024.0
}
