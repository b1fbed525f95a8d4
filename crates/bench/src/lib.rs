//! # jact-bench
//!
//! The experiment harness of the JPEG-ACT reproduction.  Each table and
//! figure of the paper's evaluation has a binary under `src/bin/` that
//! regenerates it (see DESIGN.md §4 for the index); this library holds the
//! shared machinery:
//!
//! * [`store`] — a recording activation store for harvesting realistic
//!   activations out of training runs;
//! * [`harness`] — end-to-end "train under scheme X" runners used by
//!   Table I, Figs. 1b, 17, 18, 19;
//! * [`tables`] — fixed-width table printing so every binary emits the
//!   same row/series format the paper reports;
//! * [`out`] — the stdout + `out/<name>.txt` report tee behind the
//!   capture files EXPERIMENTS.md cites (`JACT_OUT_DIR` overrides the
//!   directory), and the one `BENCH_<name>.json` archive step the bench
//!   targets and tool bins share (`JACT_BENCH_JSON=<dir>`);
//! * [`timing`] — the in-repo benchmark harness (warmup + calibrated
//!   samples + median/p95) behind the `benches/` targets, kept
//!   dependency-free by the hermetic-build policy;
//! * [`json`] — the hand-rolled JSON writer for `BENCH_*.json` result
//!   stores; re-exported from `jact-obs`, where it also backs the `jact-obs/v1`
//!   trace exporter;
//! * [`obs_corpus`] — the pinned input tensor and per-codec trace
//!   recipe behind the golden-trace corpus in `tests/golden/`.
//!
//! Set `JACT_QUICK=1` to shrink the training workloads (used by the smoke
//! tests; the full defaults are already scaled for CPU training).

#![forbid(unsafe_code)]

pub mod harness;
pub mod obs_corpus;
pub mod out;
pub mod store;
pub mod tables;
pub mod timing;

pub use jact_obs::json;

/// `true` when `JACT_QUICK=1`: experiments shrink to smoke-test size.
pub fn quick_mode() -> bool {
    std::env::var("JACT_QUICK").map(|v| v == "1").unwrap_or(false)
}
