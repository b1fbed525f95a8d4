//! # jact-infer
//!
//! Inference-side feature-map compression with a dynamic-batching
//! front-end.
//!
//! The training path offloads activations through the JPEG-ACT codec;
//! this crate applies the same transform machinery where production
//! systems spend it at serving time (arXiv 2106.12850, arXiv
//! 1812.04056): a forward-only engine runs the registry models at
//! batch sizes a serving fleet would use, compressing every
//! inter-stage feature map through the `Payload`/wire pipeline —
//! uncompressed ([`RawCodec`](jact_codec::pipeline::RawCodec)), ZVC, or
//! full JPEG-ACT — as if each boundary crossed the split-inference
//! PCIe link:
//!
//! * [`frame`] — the `JINF` envelope: a `jact_codec::seal` container
//!   of request/response frames, total over hostile bytes;
//! * [`batcher`] — the dynamic-batching front-end: serve-style
//!   admission (queue cap → per-client inflight → byte quota, typed
//!   [`error::InferError::Overloaded`] sheds) feeding a
//!   max-batch/max-wait coalescing FIFO on the serve virtual clock;
//! * [`engine`] — staged forward execution with **per-sample** boundary
//!   compression, `core::fault` injection on the serialized boundary
//!   frames, and zero-fill degradation for undecodable samples;
//! * [`server`] — the daemon: `ingress`/`advance_to`/`pop_egress`, the
//!   same steady-state surface (and JA14 allocation discipline) as the
//!   serve daemon;
//! * [`session`] — a seeded deterministic client harness (golden
//!   traces, benches, conformance tests);
//! * [`split`] — the split-inference PCIe model: measured per-stage
//!   boundary bytes → transfer microseconds on a
//!   [`GpuConfig`](jact_gpusim::config::GpuConfig).
//!
//! Responses are bitwise identical whatever batch a request lands in
//! and at any `JACT_THREADS`: eval-mode forward is per-sample
//! independent and boundary compression never mixes samples.
//! `tests/infer_conformance.rs` pins both properties.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batcher;
pub mod config;
pub mod engine;
pub mod error;
pub mod frame;
pub mod server;
pub mod session;
pub mod split;

pub use batcher::{Batcher, PendingRequest};
pub use config::{BoundaryMode, InferConfig};
pub use engine::{Engine, EngineStats, InferOutput};
pub use error::InferError;
pub use frame::{InferEnvelope, InferMsg};
pub use server::{InferCounters, InferServer};
pub use session::{run_session, SessionConfig, SessionReport};
pub use split::{split_report, SplitReport, StageTransfer};
