//! A seeded client session: one simulated training pass's offload
//! traffic.
//!
//! Each [`Session`] owns a deterministic plan of save-then-load
//! operations over a small set of tensors.  Payloads are real
//! `codec::wire` frames produced by compressing seeded integer-lattice
//! tensors (exact on every platform and thread count — the codec
//! kernels run through `jact-par`), so the server's payload validation
//! and the client's response checks exercise the full codec surface.
//!
//! The session is the *client half* of the fault-tolerance story: a
//! request whose response never arrives (dropped frame, lost response)
//! is re-issued with a **new sequence number** after a client-side
//! timeout, and a request the daemon shed with a typed
//! [`ServeError::Overloaded`] re-issues after a bounded-exponential
//! [`RetryPolicy`] backoff — both up to one shared attempt budget,
//! after which the operation resolves as [`OpOutcome::Failed`] (with
//! [`ServeError::DeadlineExceeded`] or the final shed error).  Every
//! planned operation therefore terminates with a typed outcome — the
//! chaos harness's "no hangs" guarantee is this bound.

use crate::clock::Tick;
use crate::error::ServeError;
use crate::frame::{decode, encode, Envelope, Msg};
use crate::retry::RetryPolicy;
use jact_codec::pipeline::{Codec, JpegActCodec, ZvcF32Codec};
use jact_codec::dqt::Dqt;
use jact_codec::wire;
use jact_obs as obs;
use jact_tensor::{Shape, Tensor};
use std::collections::BTreeMap;

/// How one planned operation ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpOutcome {
    /// The save was stored.
    Saved,
    /// The load delivered a frame.
    Loaded {
        /// Served from the LRU cache.
        cached: bool,
        /// Delivered frame size in bytes.
        bytes: usize,
    },
    /// The server degraded the load to zero-fill delivery.
    ZeroFilled {
        /// Server-side delivery attempts before degrading.
        attempts: u32,
    },
    /// The operation failed with a typed error (server rejection, or a
    /// client-side timeout after every re-issue lapsed).
    Failed(ServeError),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Save,
    Load,
}

#[derive(Debug, Clone)]
struct PlannedOp {
    kind: OpKind,
    tensor: u64,
    /// Payload for saves (a serialized codec frame).
    frame: Vec<u8>,
}

#[derive(Debug)]
struct Pending {
    op_index: usize,
    /// Client-side give-up time for this issue.
    timeout_at: Tick,
    attempt: u32,
}

/// A deterministic tenant session driving save/load traffic.
#[derive(Debug)]
pub struct Session {
    tenant: u32,
    plan: Vec<PlannedOp>,
    next_op: usize,
    outcomes: Vec<Option<OpOutcome>>,
    /// First-issue tick per op, for end-to-end latency.
    issued_first: Vec<Option<Tick>>,
    outstanding: BTreeMap<u64, Pending>,
    next_seq: u64,
    window: usize,
    op_timeout_ticks: Tick,
    max_attempts: u32,
    /// Backoff ladder for re-issues after a typed `Overloaded` shed.
    retry: RetryPolicy,
    /// Shed ops waiting out their backoff: (due, serial) → (op, attempt).
    backlog: BTreeMap<(Tick, u64), (usize, u32)>,
    backlog_sn: u64,
    latencies: Vec<Tick>,
    bytes_sent: u64,
    bytes_received: u64,
}

/// Builds the seeded integer-lattice payload for `(tenant, tensor)`.
/// Values live on an exact small-integer lattice, so compression is
/// bit-identical across platforms and thread counts.
pub fn plan_payload(tenant: u32, tensor: u64) -> Vec<u8> {
    let shape = Shape::nchw(1, 2, 16, 16);
    let data: Vec<f32> = (0..shape.len())
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(7)
                .wrapping_add(tensor.wrapping_mul(13))
                .wrapping_add(tenant as u64 * 29)
                % 33;
            (v as f32) - 16.0
        })
        .collect();
    let t = Tensor::from_vec(shape, data);
    // Alternate codecs per tensor so frames differ in size and tag.
    if tensor % 2 == 0 {
        wire::serialize(&ZvcF32Codec.compress(&t))
    } else {
        wire::serialize(&JpegActCodec::new(Dqt::opt_h()).compress(&t))
    }
}

impl Session {
    /// Creates a session for `tenant` that saves `tensors` tensors and
    /// then loads each one `loads_per_tensor` times.
    ///
    /// * `window` bounds the client's own in-flight requests;
    /// * `op_timeout_ticks` is the per-issue client timeout;
    /// * `max_attempts` bounds re-issues before the op fails typed.
    pub fn new(
        tenant: u32,
        tensors: u64,
        loads_per_tensor: u32,
        window: usize,
        op_timeout_ticks: Tick,
        max_attempts: u32,
    ) -> Self {
        let mut plan = Vec::new();
        for t in 0..tensors {
            plan.push(PlannedOp {
                kind: OpKind::Save,
                tensor: t,
                frame: plan_payload(tenant, t),
            });
        }
        for round in 0..loads_per_tensor {
            for t in 0..tensors {
                // Interleave rounds so cache hits and bus traversals mix.
                let tensor = (t + round as u64) % tensors.max(1);
                plan.push(PlannedOp {
                    kind: OpKind::Load,
                    tensor,
                    frame: Vec::new(),
                });
            }
        }
        let n = plan.len();
        Session {
            tenant,
            plan,
            next_op: 0,
            outcomes: vec![None; n],
            issued_first: vec![None; n],
            outstanding: BTreeMap::new(),
            next_seq: 1,
            window: window.max(1),
            op_timeout_ticks: op_timeout_ticks.max(1),
            max_attempts: max_attempts.max(1),
            retry: RetryPolicy::default(),
            backlog: BTreeMap::new(),
            backlog_sn: 0,
            latencies: Vec::new(),
            bytes_sent: 0,
            bytes_received: 0,
        }
    }

    /// The tenant id this session speaks as.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    /// `true` when every planned operation has a typed outcome and no
    /// request is outstanding.
    pub fn done(&self) -> bool {
        self.outstanding.is_empty() && self.outcomes.iter().all(Option::is_some)
    }

    /// Typed outcomes in plan order (`None` for ops not yet resolved).
    pub fn outcomes(&self) -> &[Option<OpOutcome>] {
        &self.outcomes
    }

    /// End-to-end latencies (first issue → resolving response) of
    /// resolved ops, in ticks, in resolution order.
    pub fn latencies(&self) -> &[Tick] {
        &self.latencies
    }

    /// Envelope bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Envelope bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Accepts one response envelope from the transport at tick `now`.
    /// Responses for unknown sequence numbers (transport duplicates, or
    /// answers that arrived after a re-issue already resolved the op)
    /// are ignored; undecodable bytes are ignored the same way — the
    /// op's timeout still bounds its lifetime.
    pub fn on_frame(&mut self, bytes: &[u8], now: Tick) {
        let Ok(env) = decode(bytes) else {
            return;
        };
        if env.tenant != self.tenant {
            return;
        }
        let Some(p) = self.outstanding.remove(&env.seq) else {
            return;
        };
        self.bytes_received += bytes.len() as u64;
        if self.outcomes.get(p.op_index).is_some_and(Option::is_some) {
            return; // already resolved by an earlier issue
        }
        let outcome = match env.msg {
            Msg::SaveOk { .. } => OpOutcome::Saved,
            Msg::LoadOk { cached, frame, .. } => {
                let bytes = frame.len();
                // The payload was inspected, not kept: recycle it.
                jact_pool::give(frame);
                OpOutcome::Loaded { cached, bytes }
            }
            Msg::Degraded { attempts, .. } => OpOutcome::ZeroFilled { attempts },
            Msg::Error { err } => {
                // A shed under load is transient by design: back off on
                // the retry ladder and re-issue instead of giving up,
                // until the attempt budget is spent.
                if matches!(err, ServeError::Overloaded { .. })
                    && p.attempt + 1 < self.max_attempts
                {
                    let due = now.saturating_add(self.retry.backoff(p.attempt + 1));
                    self.backlog
                        .insert((due, self.backlog_sn), (p.op_index, p.attempt + 1));
                    self.backlog_sn += 1;
                    return;
                }
                OpOutcome::Failed(err)
            }
            // A request-kind message at the client is a protocol
            // violation by the peer: resolve typed, never hang.
            Msg::SaveReq { .. } | Msg::LoadReq { .. } => {
                OpOutcome::Failed(ServeError::BadEnvelope {
                    offset: 6,
                    what: "request tag sent to client",
                })
            }
        };
        self.resolve(p.op_index, outcome, now);
    }

    fn resolve(&mut self, op_index: usize, outcome: OpOutcome, now: Tick) {
        if let Some(slot) = self.outcomes.get_mut(op_index) {
            if slot.is_none() {
                *slot = Some(outcome);
                let first = self
                    .issued_first
                    .get(op_index)
                    .copied()
                    .flatten()
                    .unwrap_or(now);
                let latency = now.saturating_sub(first);
                self.latencies.push(latency);
                if obs::is_active() {
                    obs::observe("serve.latency_ticks", latency as f64);
                }
            }
        }
    }

    /// Advances the session at tick `now`: times out stale issues
    /// (re-issuing or failing them) and fills the client window with new
    /// requests.  Returns the encoded envelopes to hand the transport.
    pub fn poll(&mut self, now: Tick) -> Vec<Vec<u8>> {
        let mut out = Vec::new();

        // Client-side timeouts: collect first (BTreeMap iteration order
        // is deterministic), then re-issue or fail.
        let lapsed: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, p)| now >= p.timeout_at)
            .map(|(&seq, _)| seq)
            .collect();
        for seq in lapsed {
            let Some(p) = self.outstanding.remove(&seq) else {
                continue;
            };
            if self.outcomes.get(p.op_index).is_some_and(Option::is_some) {
                continue;
            }
            if p.attempt + 1 >= self.max_attempts {
                let deadline = p.timeout_at;
                let tensor = self.plan.get(p.op_index).map(|o| o.tensor).unwrap_or(0);
                self.resolve(
                    p.op_index,
                    OpOutcome::Failed(ServeError::DeadlineExceeded {
                        tenant: self.tenant,
                        tensor,
                        deadline,
                    }),
                    now,
                );
            } else {
                out.push(self.issue(p.op_index, p.attempt + 1, now));
            }
        }

        // Re-issue shed ops whose overload backoff has lapsed.
        let due: Vec<(Tick, u64)> = self
            .backlog
            .range(..=(now, u64::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in due {
            let Some((op_index, attempt)) = self.backlog.remove(&k) else {
                continue;
            };
            if self.outcomes.get(op_index).is_some_and(Option::is_some) {
                continue;
            }
            out.push(self.issue(op_index, attempt, now));
        }

        // Fill the window with fresh plan operations.  A load never
        // overtakes its tensor's save: if that save is still unresolved
        // (in flight, or backing off after a shed), issuing the load
        // early would only draw a typed `UnknownTensor` from the daemon.
        // The stall is bounded because every save resolves typed.
        while self.outstanding.len() < self.window && self.next_op < self.plan.len() {
            let idx = self.next_op;
            if let Some(op) = self.plan.get(idx) {
                if op.kind == OpKind::Load {
                    // Saves occupy plan indices 0..tensors, index == tensor.
                    let save_unresolved = self
                        .outcomes
                        .get(op.tensor as usize)
                        .is_some_and(Option::is_none);
                    if save_unresolved {
                        break;
                    }
                }
            }
            self.next_op += 1;
            out.push(self.issue(idx, 0, now));
        }
        out
    }

    /// Issues (or re-issues) one planned op with a fresh seq.
    fn issue(&mut self, op_index: usize, attempt: u32, now: Tick) -> Vec<u8> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let timeout_at = now.saturating_add(self.op_timeout_ticks);
        let (kind, tensor, frame) = self
            .plan
            .get(op_index)
            .map(|o| (o.kind, o.tensor, o.frame.clone()))
            .unwrap_or((OpKind::Load, 0, Vec::new()));
        let msg = match kind {
            OpKind::Save => Msg::SaveReq {
                tensor,
                deadline: timeout_at,
                frame,
            },
            OpKind::Load => Msg::LoadReq {
                tensor,
                deadline: timeout_at,
            },
        };
        if self
            .issued_first
            .get(op_index)
            .is_some_and(Option::is_none)
        {
            if let Some(slot) = self.issued_first.get_mut(op_index) {
                *slot = Some(now);
            }
        }
        self.outstanding.insert(seq, Pending {
            op_index,
            timeout_at,
            attempt,
        });
        let bytes = encode(&Envelope {
            tenant: self.tenant,
            seq,
            msg,
        });
        self.bytes_sent += bytes.len() as u64;
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_interleaves_saves_then_loads() {
        let s = Session::new(1, 3, 2, 4, 50, 3);
        assert_eq!(s.outcomes().len(), 3 + 6);
        assert!(!s.done());
    }

    #[test]
    fn payloads_are_valid_codec_frames_and_deterministic() {
        for tensor in 0..4 {
            let a = plan_payload(2, tensor);
            let b = plan_payload(2, tensor);
            assert_eq!(a, b);
            wire::deserialize(&a).unwrap();
        }
        assert_ne!(plan_payload(1, 0), plan_payload(2, 0));
    }

    #[test]
    fn window_bounds_outstanding_requests() {
        let mut s = Session::new(1, 8, 1, 2, 50, 3);
        let issued = s.poll(0);
        assert_eq!(issued.len(), 2);
        assert_eq!(s.poll(1).len(), 0, "window full, nothing new issued");
    }

    #[test]
    fn timeout_reissues_with_fresh_seq_then_fails_typed() {
        let mut s = Session::new(1, 1, 0, 1, 10, 2);
        let first = s.poll(0);
        assert_eq!(first.len(), 1);
        let seq0 = decode(&first[0]).unwrap().seq;
        // Before the timeout nothing happens.
        assert!(s.poll(5).is_empty());
        // At the timeout the op re-issues under a new seq.
        let second = s.poll(10);
        assert_eq!(second.len(), 1);
        let seq1 = decode(&second[0]).unwrap().seq;
        assert_ne!(seq0, seq1);
        // Second lapse exhausts the attempt budget: typed failure.
        assert!(s.poll(20).is_empty());
        assert!(s.done());
        assert!(matches!(
            s.outcomes()[0],
            Some(OpOutcome::Failed(ServeError::DeadlineExceeded { .. }))
        ));
    }

    #[test]
    fn late_response_for_reissued_op_is_ignored() {
        let mut s = Session::new(1, 1, 0, 1, 10, 3);
        let first = s.poll(0);
        let env0 = decode(&first[0]).unwrap();
        let second = s.poll(10); // re-issue
        let env1 = decode(&second[0]).unwrap();
        // Answer the re-issue, then the original: only the first answer
        // resolves the op.
        s.on_frame(
            &encode(&Envelope {
                tenant: 1,
                seq: env1.seq,
                msg: Msg::SaveOk { tensor: 0 },
            }),
            12,
        );
        assert!(s.done());
        s.on_frame(
            &encode(&Envelope {
                tenant: 1,
                seq: env0.seq,
                msg: Msg::Error {
                    err: ServeError::ChannelClosed,
                },
            }),
            13,
        );
        assert_eq!(s.outcomes()[0], Some(OpOutcome::Saved));
        assert_eq!(s.latencies(), &[12]);
    }

    #[test]
    fn overload_shed_backs_off_then_reissues_then_fails_typed() {
        let mut s = Session::new(1, 1, 0, 1, 100, 3);
        let shed = ServeError::Overloaded {
            tenant: 1,
            reason: crate::error::OverloadReason::QueueFull,
        };
        let mut now = 0;
        let mut seqs = Vec::new();
        for round in 0..3 {
            let issued = s.poll(now);
            assert_eq!(issued.len(), 1, "round {round} should re-issue");
            let env = decode(&issued[0]).unwrap();
            assert!(!seqs.contains(&env.seq), "re-issues use fresh seqs");
            seqs.push(env.seq);
            s.on_frame(
                &encode(&Envelope {
                    tenant: 1,
                    seq: env.seq,
                    msg: Msg::Error { err: shed.clone() },
                }),
                now + 1,
            );
            // Immediately after the shed nothing re-issues: the backoff
            // must lapse first.
            if round < 2 {
                assert!(!s.done());
                assert!(s.poll(now + 1).is_empty(), "backoff not lapsed yet");
            }
            now += 200;
        }
        // Third shed spent the attempt budget: typed terminal failure.
        assert!(s.done());
        assert!(matches!(
            s.outcomes()[0],
            Some(OpOutcome::Failed(ServeError::Overloaded { .. }))
        ));
    }

    #[test]
    fn garbage_and_foreign_responses_are_ignored() {
        let mut s = Session::new(1, 1, 0, 1, 10, 3);
        let _ = s.poll(0);
        s.on_frame(b"garbage", 1);
        s.on_frame(
            &encode(&Envelope {
                tenant: 2,
                seq: 1,
                msg: Msg::SaveOk { tensor: 0 },
            }),
            1,
        );
        assert!(!s.done());
    }
}
