//! # jact-core
//!
//! The primary contribution of *JPEG-ACT: Accelerating Deep Learning via
//! Transform-based Lossy Compression* (Evans, Liu, Aamodt, ISCA 2020),
//! built on the `jact-codec` primitives and pluggable into any `jact-dnn`
//! training loop:
//!
//! * [`method`] — the compression **schemes** the paper evaluates (vDNN,
//!   cDMA+, GIST, SFPR, JPEG-BASE, JPEG-ACT) and the per-activation-type
//!   method selection of Table II, including the piece-wise `optL5H` DQT
//!   schedule;
//! * [`offload`] — [`offload::OffloadStore`], an
//!   [`ActivationStore`](jact_dnn::act::ActivationStore) that compresses
//!   on save and decompresses on load, so backward passes consume
//!   recovered activations (Eqn. 8) while compression statistics are
//!   accounted per activation type;
//! * [`fault`] — a deterministic, seeded fault injector modelling the
//!   offload DMA link as a lossy channel (bit flips, stuck-at-zero runs,
//!   truncation, packet duplication/drop), plus the
//!   [`RecoveryPolicy`](fault::RecoveryPolicy) the store consults when a
//!   wire load is detected as corrupt;
//! * [`metrics`] — Shannon entropy of quantized coefficients (Eqn. 11),
//!   recovered-activation L2 error (Eqn. 10), the rate/distortion
//!   objective `O` (Eqn. 12), and the spatial-vs-frequency entropy
//!   analyses behind Figs. 2 and 6;
//! * [`dqt_opt`] — the Sec. IV DQT optimizer: SGD over the 64 table
//!   entries with forward finite differences, DC pinned to 8.
//!
//! ## Quick start
//!
//! ```
//! use jact_core::method::Scheme;
//! use jact_core::offload::OffloadStore;
//! use jact_dnn::act::{ActKind, ActivationStore};
//! use jact_tensor::{Tensor, Shape};
//!
//! let mut store = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
//! let x = Tensor::from_vec(
//!     Shape::nchw(1, 2, 16, 16),
//!     (0..512).map(|i| ((i % 16) as f32 * 0.3).sin()).collect(),
//! );
//! store.save(0, ActKind::Conv, &x);
//! let recovered = store.load(0).expect("saved above");
//! assert!(x.mse(&recovered) < 1e-2);
//! assert!(store.stats().overall_ratio() > 2.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod convergence;
pub mod dqt_opt;
pub mod fault;
pub mod method;
pub mod metrics;
pub mod offload;
pub mod stats;

pub use fault::{FaultConfig, FaultInjector, FaultModel, RecoveryPolicy};
pub use method::Scheme;
pub use offload::OffloadStore;
pub use stats::CompressionStats;
