//! The in-repo benchmark harness.
//!
//! Replaces `criterion` under the hermetic-build policy with the subset
//! the workspace needs: per-benchmark warmup, a fixed number of timed
//! samples with auto-calibrated iterations per sample, and median /
//! p95 / min reporting (plus bytes-per-second throughput when the group
//! declares a payload size).
//!
//! Results print as fixed-width rows and, when `JACT_BENCH_JSON` is set
//! to a directory, are also written as `BENCH_<harness>.json` via the
//! hand-rolled [`crate::json`] writer — the machine-readable record the
//! figure scripts and CI diffs consume.
//!
//! Set `JACT_QUICK=1` to collapse warmup and sample counts to smoke-test
//! size (used by the experiment smoke tests).

use crate::json::Json;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// One benchmark's summary statistics, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Record {
    /// `group/name` label.
    pub id: String,
    /// Iterations per timed sample (auto-calibrated).
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Minimum observed time per iteration.
    pub min_ns: f64,
    /// Median time per iteration.
    pub median_ns: f64,
    /// 95th-percentile time per iteration.
    pub p95_ns: f64,
    /// Mean time per iteration.
    pub mean_ns: f64,
    /// Payload bytes processed per iteration (when declared).
    pub bytes: Option<u64>,
}

impl Record {
    /// Throughput in MiB/s at the median, when a payload size is set.
    pub fn mib_per_s(&self) -> Option<f64> {
        self.bytes
            .map(|b| b as f64 / (1024.0 * 1024.0) / (self.median_ns * 1e-9))
    }

    fn to_json(&self) -> Json {
        let mut j = Json::obj()
            .field("id", self.id.as_str())
            .field("iters_per_sample", self.iters_per_sample)
            .field("samples", self.samples)
            .field("min_ns", self.min_ns)
            .field("median_ns", self.median_ns)
            .field("p95_ns", self.p95_ns)
            .field("mean_ns", self.mean_ns);
        if let Some(b) = self.bytes {
            j = j
                .field("bytes", b)
                .field("mib_per_s", self.mib_per_s().unwrap_or(f64::NAN));
        }
        j
    }
}

/// Harness configuration; the defaults mirror the former criterion setup.
#[derive(Debug, Clone)]
pub struct Config {
    /// Timed samples collected per benchmark.
    pub sample_size: usize,
    /// Wall-clock spent warming up before calibration.
    pub warmup: Duration,
    /// Target wall-clock per timed sample (sets iterations per sample).
    pub target_sample_time: Duration,
}

impl Default for Config {
    fn default() -> Self {
        if crate::quick_mode() {
            Config {
                sample_size: 3,
                warmup: Duration::from_millis(5),
                target_sample_time: Duration::from_millis(2),
            }
        } else {
            Config {
                sample_size: 30,
                warmup: Duration::from_millis(300),
                target_sample_time: Duration::from_millis(20),
            }
        }
    }
}

/// The top-level harness: owns config and collects every record so
/// `finish()` can emit the JSON result store.
pub struct Harness {
    name: String,
    config: Config,
    records: Vec<Record>,
}

impl Harness {
    /// Creates a harness named after the bench target (used in the JSON
    /// file name: `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        Harness {
            name: name.into(),
            config: Config::default(),
            records: Vec::new(),
        }
    }

    /// Overrides the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        if !crate::quick_mode() {
            self.config.sample_size = n.max(2);
        }
        self
    }

    /// Opens a named benchmark group.
    pub fn group(&mut self, name: impl Into<String>) -> Group<'_> {
        let name = name.into();
        eprintln!("\n== {} ==", name);
        eprintln!(
            "{:<28} {:>12} {:>12} {:>12} {:>12}",
            "benchmark", "median", "p95", "min", "throughput"
        );
        Group {
            harness: self,
            name,
            bytes: None,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        let mut g = self.group("misc");
        g.bench_function(name, f);
    }

    /// Prints the footer and writes `BENCH_<name>.json` when
    /// `JACT_BENCH_JSON` names an output directory.
    pub fn finish(self) {
        eprintln!("\n{} benchmarks complete ({} records)", self.name, self.records.len());
        let json = Json::obj()
            .field("harness", self.name.as_str())
            .field("sample_size", self.config.sample_size)
            .field(
                "results",
                Json::Arr(self.records.iter().map(Record::to_json).collect()),
            );
        crate::out::archive_bench_json(&self.name, &json);
    }
}

/// A benchmark group; mirrors the old criterion group API surface.
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    bytes: Option<u64>,
}

impl Group<'_> {
    /// Declares the payload size one iteration processes, enabling
    /// throughput reporting.
    pub fn throughput_bytes(&mut self, bytes: u64) {
        self.bytes = Some(bytes);
    }

    /// Times `f` (one call = one iteration) and records the statistics.
    pub fn bench_function<T>(&mut self, name: &str, mut f: impl FnMut() -> T) {
        let cfg = self.harness.config.clone();

        // Warmup: run until the warmup budget elapses, counting calls so
        // the iteration cost estimate falls out for free.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < cfg.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let est_ns = warm_start.elapsed().as_nanos() as f64 / warm_iters as f64;

        // Calibrate iterations per sample toward the target sample time.
        let iters = ((cfg.target_sample_time.as_nanos() as f64 / est_ns.max(1.0)).ceil()
            as u64)
            .clamp(1, 1_000_000_000);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(cfg.sample_size);
        for _ in 0..cfg.sample_size {
            let t0 = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let rec = Record {
            id: format!("{}/{}", self.name, name),
            iters_per_sample: iters,
            samples: per_iter_ns.len(),
            min_ns: per_iter_ns[0],
            median_ns: percentile(&per_iter_ns, 50.0),
            p95_ns: percentile(&per_iter_ns, 95.0),
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len() as f64,
            bytes: self.bytes,
        };
        let tput = rec
            .mib_per_s()
            .map(|t| format!("{t:>9.1} MiB/s"))
            .unwrap_or_else(|| "-".to_string());
        eprintln!(
            "{:<28} {:>12} {:>12} {:>12} {:>12}",
            name,
            fmt_ns(rec.median_ns),
            fmt_ns(rec.p95_ns),
            fmt_ns(rec.min_ns),
            tput
        );
        self.harness.records.push(rec);
    }

    /// Ends the group (purely cosmetic; mirrors the old API).
    pub fn finish(self) {}
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints_and_median() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert!((percentile(&xs, 50.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bench_produces_sane_record() {
        std::env::set_var("JACT_QUICK", "1");
        let mut h = Harness::new("selftest");
        let mut g = h.group("g");
        g.throughput_bytes(1024);
        let mut acc = 0u64;
        g.bench_function("spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(black_box(i));
            }
            acc
        });
        g.finish();
        let r = &h.records[0];
        assert_eq!(r.id, "g/spin");
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
        assert!(r.mib_per_s().unwrap() > 0.0);
    }

    #[test]
    fn format_scales() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000.0), "2.50 ms");
    }
}
