//! `ledger`: the end-to-end and per-layer time ledger for training
//! offload, `jact-infer` and `jact-serve`.  See README.md beside this
//! package for every workload and metric; `BENCHMARK.json` at the
//! repository root is the contract this binary is run under.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--log <file>]
//! ledger --summarize <log>
//! ledger --agree <log-a> <log-b>
//! ```

#![forbid(unsafe_code)]

mod agree;
mod infer;
mod probes;
mod serve;
mod stats;
mod trace;
mod train;

use jact_obs::json::Json;
use std::process::ExitCode;

/// Worker threads every workload runs with (`nproc` on the reference
/// machine); results that depend on threads are stated with this count.
const THREADS: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "train_resnet_jact",
    "train_vgg_raw",
    "infer_vgg_jact",
    "serve_offload",
];

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("raw_mb_per_s", "MB/s"),
    ("compression_ratio", "ratio"),
    ("quality_err", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, from the traced run and the replay
/// probes.  A workload that does not touch a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("dnn.forward_ms", "ms"),
    ("dnn.backward_ms", "ms"),
    ("dnn.loss_ms", "ms"),
    ("dnn.optim_ms", "ms"),
    ("dnn.conv_fwd_ms", "ms"),
    ("dnn.conv_bwd_ms", "ms"),
    ("dnn.nonconv_ms", "ms"),
    ("tensor.matmul_ms", "ms"),
    ("tensor.matmul_gflops", "GFLOP/s"),
    ("tensor.im2col_ms", "ms"),
    ("tensor.col2im_ms", "ms"),
    ("tensor.transpose_ms", "ms"),
    ("core.offload.save_ms", "ms"),
    ("core.offload.load_ms", "ms"),
    ("core.offload.clear_ms", "ms"),
    ("core.offload.saves", "count"),
    ("core.offload.loads", "count"),
    ("core.offload.raw_bytes", "B"),
    ("core.offload.wire_bytes", "B"),
    ("core.offload.unattributed_ms", "ms"),
    ("codec.compress_ms", "ms"),
    ("codec.decompress_ms", "ms"),
    ("wire.serialize_ms", "ms"),
    ("wire.deserialize_ms", "ms"),
    ("wire.crc32_ms", "ms"),
    ("core.fault.deliver_ms", "ms"),
    ("infer.frame.encode_ms", "ms"),
    ("infer.frame.decode_ms", "ms"),
    ("infer.server.ingress_ms", "ms"),
    ("infer.server.advance_ms", "ms"),
    ("infer.server.egress_ms", "ms"),
    ("infer.engine.batch_ms", "ms"),
    ("infer.engine.forward_ms", "ms"),
    ("infer.boundary_ms", "ms"),
    ("infer.batcher.cycle_us", "us"),
    ("infer.batch_fill", "ratio"),
    ("infer.boundary_bytes_in", "B"),
    ("infer.boundary_bytes_out", "B"),
    ("infer.shed", "count"),
    ("serve.frame.encode_ms", "ms"),
    ("serve.frame.decode_ms", "ms"),
    ("serve.server.ingress_ms", "ms"),
    ("serve.server.advance_ms", "ms"),
    ("serve.server.egress_ms", "ms"),
    ("serve.save_ms", "ms"),
    ("serve.load_miss_ms", "ms"),
    ("serve.load_hit_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.retry_share", "ratio"),
    ("serve.saves", "count"),
    ("serve.loads", "count"),
    ("serve.degraded", "count"),
    ("serve.rejected", "count"),
    ("pool.hit_ratio", "ratio"),
    ("pool.misses_per_op", "count"),
    ("pool.take_give_ns", "ns"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("failed_share", "ratio"),
    ("threads", "count"),
];

/// How much to run.
pub struct Plan {
    /// Timed seconds (`--seconds`).
    pub seconds: f64,
    /// Smoke sizes: a couple of ops of everything, every check.
    pub quick: bool,
}

impl Plan {
    /// How often set-up is repeated; `setup_s` is the median.
    pub fn setups(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }

    /// Repetitions of each replay probe (the median is reported).
    pub fn probe_reps(&self) -> usize {
        if self.quick {
            1
        } else {
            3
        }
    }
}

/// Named output checks; any failure makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks(Vec<(&'static str, bool)>);

impl Checks {
    fn all_pass(&self) -> bool {
        self.0.iter().all(|(_, ok)| *ok)
    }
}

/// What an untraced run measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of each set-up repeat.
    pub setup_s: Vec<f64>,
    /// Wall time of each timed op.
    pub op_ms: Vec<f64>,
    /// Wall time of the timed part.
    pub wall_s: f64,
    /// Uncompressed f32 bytes across the compression boundary, both
    /// directions, during the timed part.
    pub raw_bytes: u64,
    pub compression_ratio: f64,
    pub quality_err: f64,
    /// Timed ops that ended in an error, degraded, zero-filled or shed.
    pub failed: u64,
    checks: Checks,
}

impl Timed {
    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.0.push((name, ok));
    }
}

/// What a traced run measured.
#[derive(Debug, Default)]
pub struct Traced {
    values: Vec<(&'static str, f64)>,
    pub spans: Vec<trace::Span>,
    /// Ops of the traced loop that failed.
    pub failed: u64,
    checks: Checks,
}

impl Traced {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.push((name, value));
    }

    pub fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.0.push((name, ok));
    }

    fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// A run's result: the last line of standard output, as JSON.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .fold(Json::obj(), |obj, (name, value, unit)| {
                obj.field(
                    name,
                    Json::obj().field("value", *value).field("unit", *unit),
                )
            });
        Json::obj()
            .field("correct", self.correct)
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field("metrics", metrics)
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_checks(checks: &Checks) {
    for (name, ok) in &checks.0 {
        println!("check {name:<40} {}", if *ok { "pass" } else { "FAIL" });
    }
}

fn run_timed(workload: &str, seed: u64, plan: &Plan) -> Result<Outcome, String> {
    let t = match workload {
        "train_resnet_jact" => train::run(&train::RESNET_JACT, seed, plan),
        "train_vgg_raw" => train::run(&train::VGG_RAW, seed, plan),
        "infer_vgg_jact" => infer::run(seed, plan),
        "serve_offload" => serve::run(seed, plan),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }?;
    let ops = stats::sorted(t.op_ms.clone());
    let (tail, tail_pct) = stats::tail_sorted(&ops);
    println!(
        "ops {} in {:.3} s; op_ms_p90 is p{tail_pct:.1} of {} samples; setup repeats {:?}",
        ops.len(),
        t.wall_s,
        ops.len(),
        t.setup_s
    );
    print_checks(&t.checks);
    let values = [
        stats::median(&t.setup_s),
        stats::median_sorted(&ops),
        tail,
        ops.len() as f64 / t.wall_s,
        t.raw_bytes as f64 / 1e6 / t.wall_s,
        t.compression_ratio,
        t.quality_err,
        peak_rss_mb(),
    ];
    Ok(Outcome {
        correct: t.checks.all_pass() && values.iter().all(|v| v.is_finite() && *v > 0.0),
        attempted: ops.len() as u64,
        failed: t.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (*name, v, *unit))
            .collect(),
    })
}

fn run_traced(
    workload: &str,
    seed: u64,
    plan: &Plan,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    let mut t = match workload {
        "train_resnet_jact" => train::run_traced(&train::RESNET_JACT, seed, plan),
        "train_vgg_raw" => train::run_traced(&train::VGG_RAW, seed, plan),
        "infer_vgg_jact" => infer::run_traced(seed, plan),
        "serve_offload" => serve::run_traced(seed, plan),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }?;
    let ops = t.spans.iter().filter(|s| s.parent.is_none()).count() as u64;
    t.set("trace.ops", ops as f64);
    t.set("trace.spans", t.spans.len() as f64);
    t.set("failed_share", t.failed as f64 / ops.max(1) as f64);
    t.set("threads", THREADS as f64);
    let residual = t.get("trace.residual_share");
    t.check("trace_residual_within_2_percent", residual <= 0.02);
    print_checks(&t.checks);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("ledger_trace_{workload}.json"));
    std::fs::write(&path, trace::to_json(workload, seed, &t.spans).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("trace {} spans -> {}", t.spans.len(), path.display());

    Ok(Outcome {
        correct: t.checks.all_pass(),
        attempted: ops.max(1),
        failed: t.failed,
        metrics: PER_LAYER
            .iter()
            .map(|(name, unit)| (*name, t.get(name), *unit))
            .collect(),
    })
}

/// Runs one workload at [`THREADS`] threads with `jact-obs` inactive.
pub fn run(
    workload: &str,
    seed: u64,
    plan: &Plan,
    trace: bool,
    out_dir: &std::path::Path,
) -> Result<Outcome, String> {
    jact_par::with_threads(THREADS, || {
        if trace {
            run_traced(workload, seed, plan, out_dir)
        } else {
            run_timed(workload, seed, plan)
        }
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    log: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        out: None,
        log: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            a.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => a.workload = value.clone(),
            "--seed" => a.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 600.0) {
                    return Err(bad("outside 0..=600"));
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("not 0 or 1")),
                }
            }
            "--out" => a.out = Some(value.clone()),
            "--log" => a.log = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(a)
}

/// Trace files go beside the executable (inside the build directory)
/// unless `--out` names another place.
fn default_out_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("ledger_out")))
        .unwrap_or_else(|| "ledger_out".into())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--agree") if argv.len() == 3 => agree::agree(&argv[1], &argv[2]),
        Some("--summarize") if argv.len() == 2 => agree::summarize(&argv[1]).map(|()| true),
        _ => parse_args(&argv).and_then(|a| {
            let plan = Plan {
                seconds: a.seconds,
                quick: a.quick,
            };
            let out_dir = a.out.map_or_else(default_out_dir, Into::into);
            let outcome = run(&a.workload, a.seed, &plan, a.trace, &out_dir)?;
            for (name, value, unit) in &outcome.metrics {
                println!("{name:<32} {value:>16.6} {unit}");
            }
            let line = outcome.to_json().to_string();
            if let Some(log) = &a.log {
                agree::append_log(log, &a.workload, a.seed, a.trace, &line)?;
            }
            println!("{line}");
            Ok(outcome.correct)
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A couple of ops of every workload, untraced and traced, with every
    /// output check: what `--quick` runs.
    #[test]
    fn quick_smoke_of_every_workload() {
        let plan = Plan {
            seconds: 0.0,
            quick: true,
        };
        for workload in WORKLOADS {
            for trace in [false, true] {
                let outcome = run(workload, 1, &plan, trace, &default_out_dir())
                    .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(
                    outcome.correct,
                    "{workload} trace={trace}: an output check failed"
                );
                assert_eq!(outcome.failed, 0, "{workload} trace={trace}");
                assert!(outcome.attempted >= 1);
                let expected = if trace {
                    PER_LAYER.len()
                } else {
                    END_TO_END.len()
                };
                assert_eq!(outcome.metrics.len(), expected);
                assert!(
                    outcome.metrics.iter().all(|(_, v, _)| v.is_finite()),
                    "{workload}"
                );
            }
        }
    }

    #[test]
    fn rejects_malformed_arguments() {
        let args = |a: &[&str]| parse_args(&a.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert!(args(&[
            "--workload",
            "serve_offload",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1"
        ])
        .is_ok());
        assert!(args(&["--seed", "7"]).is_err(), "workload is required");
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "-1"]).is_err());
        assert!(args(&["--workload", "x", "--seed"]).is_err());
        assert!(run(
            "no_such_workload",
            1,
            &Plan {
                seconds: 0.0,
                quick: true
            },
            false,
            &default_out_dir()
        )
        .is_err());
    }
}
