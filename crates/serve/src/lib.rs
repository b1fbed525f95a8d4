//! # jact-serve
//!
//! A fault-tolerant multi-tenant offload daemon over the JPEG-ACT frame
//! protocol.  The paper's premise (Sec. III-G) is that activation
//! offload is a *shared-bus service*: many training passes contend for
//! one compressed PCIe/host channel through the collector/splitter.
//! This crate puts an actual server in front of the codec so that
//! footprint wins survive misbehaving peers, overloaded queues, and
//! slow tenants:
//!
//! * [`frame`] — the serve envelope: a `jact_codec::seal` container
//!   for requests/responses multiplexing tenants over one byte stream,
//!   decoded by a function that is total over hostile input;
//! * [`transport`] — an in-process duplex [`transport::pipe`] with
//!   seeded chunked reads (resumable mid-frame reassembly through
//!   `seal::Assembler`) for hermetic tests;
//! * [`server`] — the daemon: per-tenant admission control and quotas,
//!   bounded-queue backpressure shedding load via typed
//!   [`error::ServeError::Overloaded`] rejections, deadline + bounded
//!   exponential backoff retry on a virtual clock layered over
//!   [`RecoveryPolicy`](jact_core::fault::RecoveryPolicy), and graceful
//!   degradation to zero-fill delivery when retries exhaust;
//! * [`cache`] — a deterministic LRU compressed-frame cache keyed by
//!   (tenant, tensor id);
//! * [`session`] — a seeded client driver that issues save/load plans
//!   and resolves every operation to a typed
//!   [`session::OpOutcome`];
//! * [`sim`] — the chaos harness: per-tenant lossy links driven by
//!   [`TransportInjector`](jact_core::fault::TransportInjector) (frame
//!   drop-burst / duplicate / reorder / delay), proving every session
//!   completes or fails typed under hostile schedules;
//! * [`journal`] — a session journal with deterministic replay: a
//!   recorded run re-executes byte-identically.
//!
//! Everything runs on a virtual tick clock ([`clock::Tick`]) — no wall
//! time anywhere — so chaos runs, benchmarks, and replays are exactly
//! reproducible at any thread count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
pub mod clock;
pub mod error;
pub mod frame;
pub mod journal;
pub mod retry;
pub mod server;
pub mod session;
pub mod sim;
pub mod transport;

pub use cache::FrameCache;
pub use clock::{Tick, VirtualClock};
pub use error::{OverloadReason, ServeError};
pub use frame::{Envelope, Msg};
pub use journal::{replay, Journal, JournalEntry, ReplayResult};
pub use retry::RetryPolicy;
pub use server::{ServeConfig, ServeCounters, Server, TenantQuota};
pub use session::{OpOutcome, Session};
pub use sim::{Cluster, ClusterConfig, ClusterReport};
pub use transport::{pipe, PipeEnd};
