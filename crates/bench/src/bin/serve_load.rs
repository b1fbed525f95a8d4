//! Serve-daemon load driver: the `BENCH_serve.json` experiment.
//!
//! Drives the `jact-serve` chaos cluster at 1, 8, and 64 concurrent
//! tenants (1 and 8 under `JACT_QUICK=1`) with a seeded mixed transport
//! fault schedule at the acceptance rate of 1e-3 faults/frame, and
//! reports per-scale:
//!
//! * **p50 / p95 end-to-end op latency in virtual ticks** — the
//!   scheduling quality signal admission control and retry backoff are
//!   tuned against;
//! * **aggregate wall-clock MB/s** of envelope bytes through the daemon
//!   (the codec work per payload is real, so this tracks host codec
//!   throughput under multiplexing);
//! * completion, retry, degradation, and chaos-link counters.
//!
//! Results print as a deterministic JSON document; when
//! `JACT_BENCH_JSON=<dir>` is set the same document is archived as
//! `BENCH_serve.json` (the `scripts/verify.sh` smoke step does this).
//! Latencies and counters are virtual-tick deterministic: only the MB/s
//! field varies across hosts.

use jact_bench::json::Json;
use jact_core::fault::{TransportFaultConfig, TransportFaultModel};
use jact_serve::{Cluster, ClusterConfig, OpOutcome};
use std::time::Instant;

/// Acceptance-criteria transport fault rate (faults per frame).
const FAULT_RATE: f64 = 1e-3;

fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() * p / 100).min(sorted.len() - 1);
    sorted[idx]
}

fn scale_point(tenants: u32) -> Json {
    let cfg = ClusterConfig {
        tenants,
        // Deep re-issue budget: under 64-tenant overcommit the daemon
        // sheds aggressively, and the bench measures how the backoff
        // ladder drains that load rather than how fast clients give up.
        client_max_attempts: 8,
        transport_faults: TransportFaultConfig::new(
            FAULT_RATE,
            TransportFaultModel::Mixed,
            0xBE7A_1E57 + tenants as u64,
        ),
        ..ClusterConfig::default()
    };
    let planned_ops = cfg.tensors_per_tenant as usize
        * (1 + cfg.loads_per_tensor as usize)
        * tenants as usize;
    let mut cluster = Cluster::new(cfg);
    let start = Instant::now();
    let report = cluster.run();
    let secs = start.elapsed().as_secs_f64().max(1e-9);

    let mut lat = report.latencies.clone();
    lat.sort_unstable();
    let resolved: usize = report.outcomes.iter().map(Vec::len).sum();
    let failed = report
        .outcomes
        .iter()
        .flatten()
        .filter(|o| matches!(o, OpOutcome::Failed(_)))
        .count();
    let failed_overloaded = report
        .outcomes
        .iter()
        .flatten()
        .filter(|o| matches!(o, OpOutcome::Failed(jact_serve::ServeError::Overloaded { .. })))
        .count();
    let failed_deadline = report
        .outcomes
        .iter()
        .flatten()
        .filter(|o| {
            matches!(
                o,
                OpOutcome::Failed(jact_serve::ServeError::DeadlineExceeded { .. })
            )
        })
        .count();
    let zero_filled = report
        .outcomes
        .iter()
        .flatten()
        .filter(|o| matches!(o, OpOutcome::ZeroFilled { .. }))
        .count();
    let total_bytes = report.bytes_sent + report.bytes_received;

    Json::obj()
        .field("tenants", tenants as f64)
        .field("planned_ops", planned_ops as f64)
        .field("resolved_ops", resolved as f64)
        .field("failed_ops", failed as f64)
        .field("failed_overloaded", failed_overloaded as f64)
        .field("failed_deadline", failed_deadline as f64)
        .field("zero_filled_ops", zero_filled as f64)
        .field("completed_sessions", report.completed as f64)
        .field("ticks", report.ticks as f64)
        .field("latency_p50_ticks", percentile(&lat, 50) as f64)
        .field("latency_p95_ticks", percentile(&lat, 95) as f64)
        .field("aggregate_mb_per_s", total_bytes as f64 / 1e6 / secs)
        .field("bytes_sent", report.bytes_sent as f64)
        .field("bytes_received", report.bytes_received as f64)
        .field("saves", report.counters.saves as f64)
        .field("loads", report.counters.loads as f64)
        .field("retries", report.counters.retries as f64)
        .field("degraded", report.counters.degraded as f64)
        .field("rejected", report.counters.rejected as f64)
        .field("dup_requests", report.counters.dup_requests as f64)
        .field("cache_hits", report.counters.cache_hits as f64)
        .field("frames_dropped", report.frames_dropped as f64)
        .field("frames_duplicated", report.frames_duplicated as f64)
        .field("frames_reordered", report.frames_reordered as f64)
        .field("frames_delayed", report.frames_delayed as f64)
}

fn main() {
    let quick = jact_bench::quick_mode();
    let scales: &[u32] = if quick { &[1, 8] } else { &[1, 8, 64] };
    let points = scales.iter().map(|&t| scale_point(t)).collect::<Vec<_>>();

    let doc = Json::obj()
        .field("experiment", "serve_load")
        .field("quick", quick)
        .field("fault_model", "mixed")
        .field("fault_rate", FAULT_RATE)
        .field("scales", Json::Arr(points));
    println!("{}", doc.to_pretty_string());
    jact_bench::out::archive_bench_json("serve", &doc);
}
