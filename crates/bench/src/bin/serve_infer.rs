//! Inference-daemon load driver: the `BENCH_infer.json` experiment.
//!
//! Drives the `jact-infer` dynamic-batching daemon over the compression
//! matrix {uncompressed, zvc, jpeg-act} × max-batch {1, 8, 64} (quick
//! mode trims the batch axis to {1, 8}) with seeded integer-lattice
//! request streams, and reports per cell:
//!
//! * **requests/s** — wall-clock daemon throughput, the headline the
//!   `bench_check` 1 request/s floor gates;
//! * **p50 / p95 per-request latency in virtual ticks** — the
//!   queue+batch scheduling cost, deterministic across hosts;
//! * boundary byte funnels (what each codec saves at the stage
//!   boundaries) and the daemon's admission counters.
//!
//! A second section prices the split-inference deployment: the engine's
//! measured per-stage boundary bytes are converted into PCIe transfer
//! microseconds on the Titan V link model, naming the cheapest split
//! point and the speedup compression buys at the first boundary.
//!
//! Results print as a JSON document; when `JACT_BENCH_JSON=<dir>` is set
//! the same document is archived as `BENCH_infer.json` (the
//! `scripts/verify.sh` smoke step does this).  Everything except the
//! requests/s fields is virtual-tick deterministic.

use jact_bench::json::Json;
use jact_gpusim::config::GpuConfig;
use jact_infer::{
    run_session, split_report, BoundaryMode, Engine, InferConfig, PendingRequest, SessionConfig,
};
use std::time::Instant;

/// The compression matrix under test.
const MODES: [BoundaryMode; 3] =
    [BoundaryMode::Uncompressed, BoundaryMode::Zvc, BoundaryMode::JpegAct];

/// The served model: the cheapest registry CNN, so the bench exercises
/// batching and boundary machinery rather than raw conv throughput.
const MODEL: &str = "mini-vgg";

fn session_cfg(boundary: BoundaryMode, max_batch: usize, quick: bool) -> SessionConfig {
    let mut cfg = SessionConfig::default();
    cfg.server.model = MODEL.to_string();
    cfg.server.boundary = boundary;
    cfg.server.max_batch = max_batch;
    cfg.server.max_wait_ticks = 2;
    cfg.clients = if quick { 2 } else { 4 };
    // Enough pressure to fill the largest batch at least twice.
    cfg.requests_per_client = if quick {
        4
    } else {
        (max_batch as u64 / 2).max(8)
    };
    cfg.issue_every_ticks = 1;
    cfg
}

fn matrix_point(boundary: BoundaryMode, max_batch: usize, quick: bool) -> Json {
    let cfg = session_cfg(boundary, max_batch, quick);
    let start = Instant::now();
    let report = run_session(&cfg).expect("registry model builds");
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    Json::obj()
        .field("codec", boundary.name())
        .field("max_batch", max_batch as f64)
        .field("sent", report.sent as f64)
        .field("completed", report.completed as f64)
        .field("degraded", report.degraded as f64)
        .field("rejected", report.rejected as f64)
        .field("ticks", report.ticks as f64)
        .field("batches", report.counters.batches as f64)
        .field("requests_per_s", report.completed as f64 / secs)
        .field("latency_p50_ticks", report.latency_percentile(50) as f64)
        .field("latency_p95_ticks", report.latency_percentile(95) as f64)
        .field(
            "latency_mean_ticks",
            if report.completed > 0 {
                report.counters.latency_ticks_total as f64 / report.completed as f64
            } else {
                0.0
            },
        )
}

/// One split-inference pricing per codec: run a representative batch
/// through a fresh engine and convert its measured per-stage boundary
/// bytes into Titan V PCIe transfer times.
fn split_point(boundary: BoundaryMode, quick: bool) -> Json {
    let cfg = InferConfig {
        model: MODEL.to_string(),
        boundary,
        ..InferConfig::default()
    };
    let mut engine = Engine::new(&cfg).expect("registry model builds");
    let plane = cfg.request_plane();
    let samples = if quick { 2 } else { 4 };
    let batch: Vec<PendingRequest> = (0..samples)
        .map(|i| PendingRequest {
            client: i,
            seq: 0,
            c: cfg.in_channels as u32,
            h: cfg.input_hw as u32,
            w: cfg.input_hw as u32,
            pixels: (0..plane)
                .map(|j| jact_infer::session::lattice_pixel(i, 1, j))
                .collect(),
            enqueued_at: 0,
        })
        .collect();
    let mut out = Vec::new();
    engine.infer_batch(&batch, &mut out);
    let (raw, wire) = engine.stage_boundary_bytes();
    let gpu = GpuConfig::titan_v();
    let split = split_report(raw, wire, &gpu);
    let stats = engine.stats();
    let stages: Vec<Json> = split
        .stages
        .iter()
        .map(|s| {
            Json::obj()
                .field("stage", s.stage as f64)
                .field("raw_bytes", s.raw_bytes as f64)
                .field("wire_bytes", s.wire_bytes as f64)
                .field("raw_us", s.raw_us)
                .field("wire_us", s.wire_us)
                .field("speedup", s.speedup())
        })
        .collect();
    Json::obj()
        .field("codec", boundary.name())
        .field("boundary_bytes_in", stats.boundary_bytes_in as f64)
        .field("boundary_bytes_out", stats.boundary_bytes_out as f64)
        .field(
            "compression_ratio",
            if stats.boundary_bytes_out > 0 {
                stats.boundary_bytes_in as f64 / stats.boundary_bytes_out as f64
            } else {
                1.0
            },
        )
        .field("best_stage", split.best_stage as f64)
        .field("first_boundary_speedup", split.first_boundary_speedup)
        .field("pcie_gbps", gpu.pcie_gbps)
        .field("stages", Json::Arr(stages))
}

fn main() {
    let quick = jact_bench::quick_mode();
    let batches: &[usize] = if quick { &[1, 8] } else { &[1, 8, 64] };

    let mut points = Vec::new();
    for &b in batches {
        for mode in MODES {
            points.push(matrix_point(mode, b, quick));
        }
    }
    let splits: Vec<Json> = MODES.iter().map(|&m| split_point(m, quick)).collect();

    let doc = Json::obj()
        .field("experiment", "serve_infer")
        .field("quick", quick)
        .field("model", MODEL)
        .field("matrix", Json::Arr(points))
        .field("split_inference", Json::Arr(splits));
    println!("{}", doc.to_pretty_string());
    jact_bench::out::archive_bench_json("infer", &doc);
}
