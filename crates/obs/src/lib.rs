//! # jact-obs
//!
//! The deterministic observability runtime of the JPEG-ACT reproduction.
//! The paper's evaluation lives and dies on knowing where bytes and
//! cycles go — per-stage compression ratios (Fig. 15), PCIe frame
//! traffic, offload overlap — so every layer of the workspace funnels
//! its instrumentation through this crate instead of ad-hoc prints
//! (enforced by the JA08 lint in `jact-analyze`).
//!
//! Three design rules keep the layer compatible with the workspace's
//! determinism discipline (JA04):
//!
//! 1. **Logical clock, not wall clock.** Events are ordered by their
//!    position in the recording — a logical event counter — and the
//!    exporter assigns sequence numbers from that order alone.
//!    Wall-clock durations are recorded only when the capture was opened
//!    in wall mode (`JACT_OBS_WALL=1` for [`collect`]), so the default
//!    trace is byte-equal across runs and machines.
//! 2. **Thread-local sinks, chunk-ordered merges.** Recording is
//!    thread-local ([`is_active`] is per thread). Inside a `jact-par`
//!    region each chunk body records into a fresh sink via
//!    [`capture_with`] and the pool [`absorb`]s the per-chunk event
//!    lists back into the caller's sink in chunk-index order — the same
//!    merge discipline that makes the numeric results
//!    thread-count-invariant makes the traces thread-count-invariant.
//! 3. **Zero cost when idle.** Every emitting call checks the sink
//!    first; with no active capture the instrumentation allocates
//!    nothing and formats nothing.
//!
//! The exporter ([`Trace::to_json`] / [`Trace::report_json`]) emits the
//! `jact-obs/v1` schema documented in DESIGN.md §11, built on the
//! in-repo [`json`] writer (re-exported by `jact-bench` for the result
//! stores; it lives here so low-layer crates can use it without
//! depending on the harness).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod schema;

mod event;
mod sink;
mod trace;

pub use event::{Event, Value};
pub use sink::{
    absorb, capture_with, collect, collect_with, count, gauge, is_active, observe, span,
    span_with, wall_active,
};
pub use schema::ObsSchema;
pub use trace::{Histogram, Trace, HIST_BUCKETS, TRACE_SCHEMA};
