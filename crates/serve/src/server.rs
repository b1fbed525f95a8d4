//! The offload daemon: admission, quotas, retry, degradation.
//!
//! A [`Server`] multiplexes N tenants' save/load traffic over the
//! compressed offload store, hardened in four layers:
//!
//! 1. **Admission control** — undecodable envelopes are counted and
//!    dropped; duplicate sequence numbers (a lossy link re-delivering)
//!    are suppressed; a full shared queue or an exceeded per-tenant
//!    quota sheds the request with a typed
//!    [`ServeError::Overloaded`] response instead of buffering without
//!    bound.
//! 2. **Validation** — a save's payload must be a valid `codec::wire`
//!    frame (inner CRC and structural validators) before it is stored.
//! 3. **Deadline + backoff retry** — loads traverse the lossy bus
//!    ([`FaultConfig`] per delivery); a corrupt delivery re-schedules
//!    after a bounded exponential backoff ([`RetryPolicy`]) on the
//!    virtual clock, never past the request's deadline.
//! 4. **Degradation** — when the retry budget or deadline exhausts, the
//!    ladder either degrades to an explicit
//!    [`Msg::Degraded`](crate::frame::Msg::Degraded) zero-fill
//!    delivery (the paper's "keep training" arm) or fails typed.
//!
//! Every admitted request produces **exactly one** response envelope,
//! and all scheduling runs on [`Tick`]s — the server is a deterministic
//! state machine, which is what makes journal replay byte-identical.

use crate::cache::FrameCache;
use crate::clock::Tick;
use crate::error::{OverloadReason, ServeError};
use crate::frame::{decode, encode, Envelope, Msg};
use crate::retry::RetryPolicy;
use jact_codec::wire;
use jact_core::fault::{FaultConfig, FaultInjector, FaultModel, RecoveryPolicy};
use jact_obs as obs;
use std::collections::{BTreeMap, VecDeque};

/// Per-tenant admission quotas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Most requests a tenant may have admitted-but-unanswered.
    pub max_inflight: usize,
    /// Most bytes of compressed frames a tenant may keep stored.
    pub max_stored_bytes: usize,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_inflight: 8,
            max_stored_bytes: 8 << 20,
        }
    }
}

/// Full daemon configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Per-tenant quotas.
    pub quota: TenantQuota,
    /// Bound on the shared admitted-request queue.
    pub queue_capacity: usize,
    /// Byte budget of the LRU compressed-frame cache.
    pub cache_bytes: usize,
    /// What to do when a bus delivery corrupts
    /// ([`RecoveryPolicy::Retry`] sets the retry budget).
    pub recovery: RecoveryPolicy,
    /// When `true`, an exhausted retry budget degrades to a
    /// [`Msg::Degraded`](crate::frame::Msg::Degraded) zero-fill
    /// delivery instead of a typed failure.
    pub degrade_on_exhaust: bool,
    /// Backoff schedule between retry attempts.
    pub retry: RetryPolicy,
    /// Deadline applied when a request carries `deadline == 0`, in
    /// ticks from admission.
    pub default_deadline_ticks: Tick,
    /// The lossy bus every (non-cached) load delivery traverses.
    pub bus_faults: FaultConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            quota: TenantQuota::default(),
            queue_capacity: 64,
            cache_bytes: 1 << 20,
            recovery: RecoveryPolicy::Retry { attempts: 3 },
            degrade_on_exhaust: true,
            retry: RetryPolicy::default(),
            default_deadline_ticks: 256,
            bus_faults: FaultConfig::new(0.0, FaultModel::Mixed, 0),
        }
    }
}

/// Monotonic event counters, comparable across runs: a journal replay
/// must reproduce these exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeCounters {
    /// Envelopes that decoded and entered admission.
    pub requests: u64,
    /// Response envelopes enqueued.
    pub responses: u64,
    /// Saves stored.
    pub saves: u64,
    /// Loads answered with a frame (cached or delivered).
    pub loads: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Retry attempts scheduled after a corrupt delivery.
    pub retries: u64,
    /// Loads degraded to zero-fill delivery.
    pub degraded: u64,
    /// Loads that failed their deadline.
    pub deadline_misses: u64,
    /// Duplicate sequence numbers suppressed.
    pub dup_requests: u64,
    /// Ingress byte buffers that failed envelope decode.
    pub bad_frames: u64,
    /// Ingress envelope bytes accepted for decode.
    pub bytes_in: u64,
    /// Egress envelope bytes enqueued.
    pub bytes_out: u64,
    /// Cache hits.
    pub cache_hits: u64,
    /// Cache misses.
    pub cache_misses: u64,
    /// Cache evictions.
    pub cache_evictions: u64,
}

/// Words in a tenant's dedup bitmask (8192-sequence window, 1 KiB).
const SEQ_WINDOW_WORDS: usize = 128;
const SEQ_WINDOW_BITS: u64 = (SEQ_WINDOW_WORDS as u64) * 64;

/// Fixed-size anti-replay window over per-tenant sequence numbers (an
/// RFC 4303-style sliding bitmask): bit `d` records whether `top - d`
/// has been seen.
///
/// Replaces an unbounded `BTreeSet<u64>`, which grew forever in a
/// long-running daemon and allocated a node every few inserts, keeping
/// ingress off the zero-allocation steady state.  `check_and_set` is
/// constant-memory and never allocates.  Sequence numbers that have
/// fallen off the back of the window are conservatively reported as
/// duplicates: transports only re-deliver within a bounded horizon, and
/// dropping is always safe (the original copy was already answered).
#[derive(Debug)]
struct SeqWindow {
    top: u64,
    started: bool,
    bits: [u64; SEQ_WINDOW_WORDS],
}

impl SeqWindow {
    fn new() -> Self {
        SeqWindow {
            top: 0,
            started: false,
            bits: [0; SEQ_WINDOW_WORDS],
        }
    }

    /// Records `seq`, returning `true` when it was already seen (or is
    /// too far behind the newest sequence number to tell).
    fn check_and_set(&mut self, seq: u64) -> bool {
        if !self.started {
            self.started = true;
            self.top = seq;
            self.bits[0] = 1;
            return false;
        }
        if seq > self.top {
            self.advance(seq - self.top);
            self.top = seq;
            self.bits[0] |= 1;
            return false;
        }
        let dist = self.top - seq;
        if dist >= SEQ_WINDOW_BITS {
            return true;
        }
        let word = (dist / 64) as usize;
        let mask = 1u64 << (dist % 64);
        let seen = self.bits[word] & mask != 0;
        self.bits[word] |= mask;
        seen
    }

    /// Slides the window forward by `by` sequences: bit `d` becomes bit
    /// `d + by`, and bits sliding past the end fall off.
    fn advance(&mut self, by: u64) {
        if by >= SEQ_WINDOW_BITS {
            self.bits = [0; SEQ_WINDOW_WORDS];
            return;
        }
        let words = (by / 64) as usize;
        let shift = (by % 64) as u32;
        for i in (0..SEQ_WINDOW_WORDS).rev() {
            let lo = if i >= words { self.bits[i - words] } else { 0 };
            let carry = if shift > 0 && i > words {
                self.bits[i - words - 1] >> (64 - shift)
            } else {
                0
            };
            self.bits[i] = (lo << shift) | carry;
        }
    }
}

#[derive(Debug)]
struct TenantState {
    inflight: usize,
    stored_bytes: usize,
    seen_seq: SeqWindow,
}

#[derive(Debug, Clone)]
enum Work {
    Save {
        tenant: u32,
        seq: u64,
        tensor: u64,
        deadline: Tick,
        frame: Vec<u8>,
    },
    Load {
        tenant: u32,
        seq: u64,
        tensor: u64,
        deadline: Tick,
        attempt: u32,
    },
}

/// The multi-tenant offload daemon.
#[derive(Debug)]
pub struct Server {
    cfg: ServeConfig,
    now: Tick,
    tenants: BTreeMap<u32, TenantState>,
    /// Ground-truth stored frames: (tenant, tensor) → serialized frame.
    storage: BTreeMap<(u32, u64), Vec<u8>>,
    cache: FrameCache,
    /// Admitted work ready to execute at the next `advance_to`.
    queue: VecDeque<Work>,
    /// Backoff-delayed retries: (due tick, task id) → work.
    timers: BTreeMap<(Tick, u64), Work>,
    next_timer_id: u64,
    egress: VecDeque<(u32, Vec<u8>)>,
    counters: ServeCounters,
    last_queue_gauge: u64,
}

impl Server {
    /// Creates an idle daemon at tick 0 with no tenants.
    pub fn new(cfg: ServeConfig) -> Self {
        let cache = FrameCache::new(cfg.cache_bytes);
        Server {
            cfg,
            now: 0,
            tenants: BTreeMap::new(),
            storage: BTreeMap::new(),
            cache,
            queue: VecDeque::new(),
            timers: BTreeMap::new(),
            next_timer_id: 0,
            egress: VecDeque::new(),
            counters: ServeCounters::default(),
            last_queue_gauge: u64::MAX,
        }
    }

    /// The configuration the daemon runs with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The current virtual tick.
    pub fn now(&self) -> Tick {
        self.now
    }

    /// Event counters so far.
    pub fn counters(&self) -> &ServeCounters {
        &self.counters
    }

    /// Registers a tenant; envelopes from unregistered tenants are
    /// answered with [`ServeError::UnknownTenant`].
    pub fn register_tenant(&mut self, tenant: u32) {
        self.tenants.entry(tenant).or_insert(TenantState {
            inflight: 0,
            stored_bytes: 0,
            seen_seq: SeqWindow::new(),
        });
    }

    /// `true` when no admitted work or pending retry remains.
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.timers.is_empty()
    }

    /// The earliest pending retry wake-up, if any.
    pub fn next_timer(&self) -> Option<Tick> {
        self.timers.keys().next().map(|&(due, _)| due)
    }

    /// Accepts one raw envelope at the current tick: decode, dedup,
    /// admission, quota.  Admission failures answer with a typed error
    /// envelope; undecodable bytes are counted and dropped (the lossy
    /// link already broke framing, so there is no seq to answer).
    pub fn ingress(&mut self, bytes: &[u8]) {
        let env = match decode(bytes) {
            Ok(env) => env,
            Err(_) => {
                self.counters.bad_frames += 1;
                if obs::is_active() {
                    obs::count("serve.bad_frames", 1);
                }
                return;
            }
        };
        self.counters.bytes_in += bytes.len() as u64;
        self.counters.requests += 1;
        if obs::is_active() {
            obs::count("serve.requests", 1);
            obs::count("serve.bytes_in", bytes.len() as u64);
            let tenant = env.tenant;
            obs::count(&format!("serve.{tenant}.requests"), 1);
        }

        let Envelope { tenant, seq, msg } = env;
        if !self.tenants.contains_key(&tenant) {
            self.respond(tenant, seq, Msg::Error {
                err: ServeError::UnknownTenant { tenant },
            });
            return;
        }
        // Duplicate suppression: the transport can re-deliver; the first
        // copy wins and later copies are dropped without a response
        // (answering again would double-respond the original).  The
        // window marks the sequence as seen whether or not admission
        // later sheds it, matching the previous record-on-arrival
        // behavior.
        if self
            .tenants
            .get_mut(&tenant)
            .is_some_and(|t| t.seen_seq.check_and_set(seq))
        {
            self.counters.dup_requests += 1;
            if obs::is_active() {
                obs::count("serve.dup_requests", 1);
            }
            return;
        }

        let (work, admit_err) = self.admit(tenant, seq, msg);
        match (work, admit_err) {
            (Some(w), None) => {
                if let Some(t) = self.tenants.get_mut(&tenant) {
                    t.inflight += 1;
                }
                self.queue.push_back(w);
            }
            (None, Some(err)) => {
                self.counters.rejected += 1;
                if obs::is_active() {
                    obs::count("serve.rejected", 1);
                }
                self.respond(tenant, seq, Msg::Error { err });
            }
            _ => {}
        }
    }

    /// Admission decision for one decoded message.  Returns either work
    /// to enqueue or the typed rejection.
    fn admit(&mut self, tenant: u32, seq: u64, msg: Msg) -> (Option<Work>, Option<ServeError>) {
        if self.queue.len() >= self.cfg.queue_capacity {
            return (
                None,
                Some(ServeError::Overloaded {
                    tenant,
                    reason: OverloadReason::QueueFull,
                }),
            );
        }
        let (inflight, stored) = self
            .tenants
            .get(&tenant)
            .map(|t| (t.inflight, t.stored_bytes))
            .unwrap_or((0, 0));
        if inflight >= self.cfg.quota.max_inflight {
            return (
                None,
                Some(ServeError::Overloaded {
                    tenant,
                    reason: OverloadReason::InflightQuota,
                }),
            );
        }
        match msg {
            Msg::SaveReq {
                tensor,
                deadline,
                frame,
            } => {
                let existing = self
                    .storage
                    .get(&(tenant, tensor))
                    .map(Vec::len)
                    .unwrap_or(0);
                if stored - existing.min(stored) + frame.len() > self.cfg.quota.max_stored_bytes {
                    return (
                        None,
                        Some(ServeError::Overloaded {
                            tenant,
                            reason: OverloadReason::ByteQuota,
                        }),
                    );
                }
                (
                    Some(Work::Save {
                        tenant,
                        seq,
                        tensor,
                        deadline: self.effective_deadline(deadline),
                        frame,
                    }),
                    None,
                )
            }
            Msg::LoadReq { tensor, deadline } => (
                Some(Work::Load {
                    tenant,
                    seq,
                    tensor,
                    deadline: self.effective_deadline(deadline),
                    attempt: 0,
                }),
                None,
            ),
            // A response-kind message arriving at the server is a peer
            // bug or corruption that slipped framing; reject typed.
            _ => (
                None,
                Some(ServeError::BadEnvelope {
                    offset: 6,
                    what: "response tag sent to server",
                }),
            ),
        }
    }

    fn effective_deadline(&self, deadline: Tick) -> Tick {
        if deadline == 0 {
            self.now.saturating_add(self.cfg.default_deadline_ticks)
        } else {
            deadline
        }
    }

    /// Advances the virtual clock to `tick`, waking due retries, and
    /// executes every runnable piece of admitted work.  Responses land
    /// in the egress queue ([`drain_egress`](Server::drain_egress)).
    pub fn advance_to(&mut self, tick: Tick) {
        if tick > self.now {
            self.now = tick;
        }
        // Due retries first (they were admitted earlier than anything
        // queued this tick), in (due, id) order.
        let due: Vec<(Tick, u64)> = self
            .timers
            .range(..=(self.now, u64::MAX))
            .map(|(&k, _)| k)
            .collect();
        for k in due {
            if let Some(w) = self.timers.remove(&k) {
                self.queue.push_front(w);
            }
        }
        while let Some(w) = self.queue.pop_front() {
            self.execute(w);
        }
        if obs::is_active() {
            let depth = self.timers.len() as u64;
            if depth != self.last_queue_gauge {
                obs::gauge("serve.queue_depth", depth);
                self.last_queue_gauge = depth;
            }
        }
    }

    /// Encodes and enqueues one response, releasing the tenant's
    /// in-flight slot.
    fn respond(&mut self, tenant: u32, seq: u64, msg: Msg) {
        let env = Envelope { tenant, seq, msg };
        let bytes = encode(&env);
        self.counters.responses += 1;
        self.counters.bytes_out += bytes.len() as u64;
        if obs::is_active() {
            obs::count("serve.responses", 1);
            obs::count("serve.bytes_out", bytes.len() as u64);
        }
        self.egress.push_back((tenant, bytes));
        // The message's frame was copied into the envelope; recycle it.
        if let Msg::LoadOk { frame, .. } | Msg::SaveReq { frame, .. } = env.msg {
            jact_pool::give(frame);
        }
    }

    fn finish(&mut self, tenant: u32, seq: u64, msg: Msg) {
        if let Some(t) = self.tenants.get_mut(&tenant) {
            t.inflight = t.inflight.saturating_sub(1);
        }
        self.respond(tenant, seq, msg);
    }

    fn execute(&mut self, work: Work) {
        match work {
            Work::Save {
                tenant,
                seq,
                tensor,
                deadline,
                frame,
            } => self.execute_save(tenant, seq, tensor, deadline, frame),
            Work::Load {
                tenant,
                seq,
                tensor,
                deadline,
                attempt,
            } => self.execute_load(tenant, seq, tensor, deadline, attempt),
        }
    }

    fn execute_save(&mut self, tenant: u32, seq: u64, tensor: u64, deadline: Tick, frame: Vec<u8>) {
        if self.now > deadline {
            self.miss_deadline(tenant, seq, tensor, deadline);
            return;
        }
        // A stored frame must be a valid codec container: the inner CRC
        // and structural validators run before anything is persisted.
        // The decoded result exists only for validation; recycling it
        // hands its pooled planes back instead of draining the pool.
        match wire::deserialize(&frame) {
            Ok(c) => c.recycle(),
            Err(_) => {
                jact_pool::give(frame);
                self.finish(tenant, seq, Msg::Error {
                    err: ServeError::BadPayload {
                        what: "save payload is not a valid codec frame",
                    },
                });
                return;
            }
        }
        let key = (tenant, tensor);
        let frame_len = frame.len();
        let old = self.storage.insert(key, frame);
        if let Some(t) = self.tenants.get_mut(&tenant) {
            let released = old.as_ref().map(Vec::len).unwrap_or(0).min(t.stored_bytes);
            t.stored_bytes = t.stored_bytes - released + frame_len;
        }
        // Recycle the overwritten frame's backing storage: re-saving the
        // same tensor every step is the steady-state offload pattern.
        if let Some(old) = old {
            jact_pool::give(old);
        }
        // Never serve a stale cached copy of an overwritten tensor.
        self.cache.remove(key);
        self.note_cache_deltas();
        self.counters.saves += 1;
        if obs::is_active() {
            obs::count("serve.saves", 1);
        }
        self.finish(tenant, seq, Msg::SaveOk { tensor });
    }

    fn execute_load(&mut self, tenant: u32, seq: u64, tensor: u64, deadline: Tick, attempt: u32) {
        if self.now > deadline {
            self.miss_deadline(tenant, seq, tensor, deadline);
            return;
        }
        let key = (tenant, tensor);
        if let Some(frame) = self.cache.get(key) {
            self.note_cache_deltas();
            self.counters.loads += 1;
            if obs::is_active() {
                obs::count("serve.loads", 1);
            }
            self.finish(tenant, seq, Msg::LoadOk {
                tensor,
                cached: true,
                frame,
            });
            return;
        }
        self.note_cache_deltas();
        let Some(stored) = self.storage.get(&key) else {
            self.finish(tenant, seq, Msg::Error {
                err: ServeError::UnknownTensor { tenant, tensor },
            });
            return;
        };
        // One bus traversal: the per-delivery key mixes tenant, tensor,
        // and attempt so every (re)delivery draws an independent,
        // thread-count-invariant fault stream.
        let delivery_key = (tenant as u64)
            .wrapping_mul(0x9E37_79B9)
            .wrapping_add(tensor.wrapping_mul(0x85EB_CA6B))
            .wrapping_add(attempt as u64);
        let mut inj = FaultInjector::new(self.cfg.bus_faults.for_delivery(delivery_key));
        let (delivered, _) = inj.deliver(stored);
        if let Ok(c) = wire::deserialize(&delivered) {
            c.recycle();
            let mut cached_copy: Vec<u8> = jact_pool::take(delivered.len());
            cached_copy.extend_from_slice(&delivered);
            self.cache.put(key, cached_copy);
            self.note_cache_deltas();
            self.counters.loads += 1;
            if obs::is_active() {
                obs::count("serve.loads", 1);
            }
            self.finish(tenant, seq, Msg::LoadOk {
                tensor,
                cached: false,
                frame: delivered,
            });
            return;
        }

        // Corrupt delivery: recycle its buffer, then climb the
        // retry/degradation ladder.
        jact_pool::give(delivered);
        let budget = match self.cfg.recovery {
            RecoveryPolicy::Retry { attempts } => attempts,
            _ => 0,
        };
        if attempt < budget {
            let due = self.now.saturating_add(self.cfg.retry.backoff(attempt + 1));
            if due <= deadline {
                self.counters.retries += 1;
                if obs::is_active() {
                    obs::count("serve.retries", 1);
                }
                let id = self.next_timer_id;
                self.next_timer_id += 1;
                self.timers.insert((due, id), Work::Load {
                    tenant,
                    seq,
                    tensor,
                    deadline,
                    attempt: attempt + 1,
                });
                return;
            }
        }
        let attempts = attempt + 1;
        let degrade = self.cfg.degrade_on_exhaust
            || matches!(self.cfg.recovery, RecoveryPolicy::ZeroFill);
        if degrade {
            self.counters.degraded += 1;
            if obs::is_active() {
                obs::count("serve.degraded", 1);
            }
            self.finish(tenant, seq, Msg::Degraded { tensor, attempts });
        } else {
            self.finish(tenant, seq, Msg::Error {
                err: ServeError::RetriesExhausted {
                    tenant,
                    tensor,
                    attempts,
                },
            });
        }
    }

    fn miss_deadline(&mut self, tenant: u32, seq: u64, tensor: u64, deadline: Tick) {
        self.counters.deadline_misses += 1;
        if obs::is_active() {
            obs::count("serve.deadline_misses", 1);
        }
        self.finish(tenant, seq, Msg::Error {
            err: ServeError::DeadlineExceeded {
                tenant,
                tensor,
                deadline,
            },
        });
    }

    /// Folds the cache's internal counters into the server counters and
    /// obs stream (emitting only the deltas since the last fold).
    fn note_cache_deltas(&mut self) {
        let (h, m, e) = (
            self.cache.hits(),
            self.cache.misses(),
            self.cache.evictions(),
        );
        let (dh, dm, de) = (
            h - self.counters.cache_hits,
            m - self.counters.cache_misses,
            e - self.counters.cache_evictions,
        );
        self.counters.cache_hits = h;
        self.counters.cache_misses = m;
        self.counters.cache_evictions = e;
        if obs::is_active() {
            if dh > 0 {
                obs::count("serve.cache_hits", dh);
            }
            if dm > 0 {
                obs::count("serve.cache_misses", dm);
            }
            if de > 0 {
                obs::count("serve.cache_evictions", de);
            }
        }
    }

    /// Removes and returns every queued response envelope, in the order
    /// they were produced.
    pub fn drain_egress(&mut self) -> Vec<(u32, Vec<u8>)> {
        self.egress.drain(..).collect()
    }

    /// Removes and returns the oldest queued response envelope, if any.
    /// Unlike [`drain_egress`](Server::drain_egress) this never
    /// allocates; steady-state consumers should pop, process, and hand
    /// the bytes back with `jact_pool::give`.
    pub fn pop_egress(&mut self) -> Option<(u32, Vec<u8>)> {
        self.egress.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jact_codec::pipeline::{Codec, ZvcF32Codec};
    use jact_tensor::{Shape, Tensor};

    fn sample_frame(salt: u64) -> Vec<u8> {
        let shape = Shape::nchw(1, 1, 8, 8);
        let data = (0..shape.len())
            .map(|i| ((i as u64 * 7 + salt * 13) % 17) as f32 - 8.0)
            .collect();
        wire::serialize(&ZvcF32Codec.compress(&Tensor::from_vec(shape, data)))
    }

    fn save(tenant: u32, seq: u64, tensor: u64, frame: Vec<u8>) -> Vec<u8> {
        encode(&Envelope {
            tenant,
            seq,
            msg: Msg::SaveReq {
                tensor,
                deadline: 0,
                frame,
            },
        })
    }

    fn load(tenant: u32, seq: u64, tensor: u64) -> Vec<u8> {
        encode(&Envelope {
            tenant,
            seq,
            msg: Msg::LoadReq {
                tensor,
                deadline: 0,
            },
        })
    }

    fn responses(server: &mut Server) -> Vec<Envelope> {
        server
            .drain_egress()
            .into_iter()
            .map(|(_, bytes)| decode(&bytes).unwrap())
            .collect()
    }

    #[test]
    fn save_then_load_round_trips() {
        let mut s = Server::new(ServeConfig::default());
        s.register_tenant(1);
        let frame = sample_frame(1);
        s.ingress(&save(1, 1, 7, frame.clone()));
        s.advance_to(1);
        s.ingress(&load(1, 2, 7));
        s.advance_to(2);
        let rs = responses(&mut s);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].msg, Msg::SaveOk { tensor: 7 });
        match &rs[1].msg {
            Msg::LoadOk {
                tensor,
                cached,
                frame: got,
            } => {
                assert_eq!(*tensor, 7);
                assert!(!cached, "first load traverses the bus");
                assert_eq!(got, &frame);
            }
            other => panic!("expected LoadOk, got {other:?}"),
        }
        // Second load is a cache hit.
        s.ingress(&load(1, 3, 7));
        s.advance_to(3);
        match &responses(&mut s)[0].msg {
            Msg::LoadOk { cached, .. } => assert!(cached),
            other => panic!("expected cached LoadOk, got {other:?}"),
        }
        assert_eq!(s.counters().saves, 1);
        assert_eq!(s.counters().loads, 2);
        assert_eq!(s.counters().cache_hits, 1);
    }

    #[test]
    fn unknown_tenant_and_tensor_fail_typed() {
        let mut s = Server::new(ServeConfig::default());
        s.register_tenant(1);
        s.ingress(&load(9, 1, 7));
        s.ingress(&load(1, 2, 99));
        s.advance_to(1);
        let rs = responses(&mut s);
        assert_eq!(rs[0].msg, Msg::Error {
            err: ServeError::UnknownTenant { tenant: 9 }
        });
        assert_eq!(rs[1].msg, Msg::Error {
            err: ServeError::UnknownTensor {
                tenant: 1,
                tensor: 99
            }
        });
    }

    #[test]
    fn bad_payload_rejected_before_storage() {
        let mut s = Server::new(ServeConfig::default());
        s.register_tenant(1);
        s.ingress(&save(1, 1, 7, b"not a codec frame".to_vec()));
        s.advance_to(1);
        assert!(matches!(
            responses(&mut s)[0].msg,
            Msg::Error {
                err: ServeError::BadPayload { .. }
            }
        ));
        assert_eq!(s.counters().saves, 0);
    }

    #[test]
    fn inflight_quota_sheds_typed() {
        let cfg = ServeConfig {
            quota: TenantQuota {
                max_inflight: 2,
                max_stored_bytes: 1 << 20,
            },
            ..ServeConfig::default()
        };
        let mut s = Server::new(cfg);
        s.register_tenant(1);
        for seq in 0..4 {
            s.ingress(&save(1, seq, seq, sample_frame(seq)));
        }
        // Two admitted, two shed before any execution.
        let rs = responses(&mut s);
        assert_eq!(rs.len(), 2);
        for r in &rs {
            assert_eq!(r.msg, Msg::Error {
                err: ServeError::Overloaded {
                    tenant: 1,
                    reason: OverloadReason::InflightQuota,
                }
            });
        }
        assert_eq!(s.counters().rejected, 2);
        s.advance_to(1);
        assert_eq!(responses(&mut s).len(), 2);
    }

    #[test]
    fn queue_capacity_sheds_typed() {
        let cfg = ServeConfig {
            queue_capacity: 1,
            ..ServeConfig::default()
        };
        let mut s = Server::new(cfg);
        s.register_tenant(1);
        s.register_tenant(2);
        s.ingress(&save(1, 0, 0, sample_frame(0)));
        s.ingress(&save(2, 0, 0, sample_frame(1)));
        let rs = responses(&mut s);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].msg, Msg::Error {
            err: ServeError::Overloaded {
                tenant: 2,
                reason: OverloadReason::QueueFull,
            }
        });
    }

    #[test]
    fn byte_quota_sheds_typed() {
        let frame = sample_frame(0);
        let cfg = ServeConfig {
            quota: TenantQuota {
                max_inflight: 8,
                max_stored_bytes: frame.len() + frame.len() / 2,
            },
            ..ServeConfig::default()
        };
        let mut s = Server::new(cfg);
        s.register_tenant(1);
        s.ingress(&save(1, 0, 0, frame.clone()));
        s.advance_to(1);
        let _ = responses(&mut s);
        s.ingress(&save(1, 1, 1, frame.clone()));
        let rs = responses(&mut s);
        assert_eq!(rs[0].msg, Msg::Error {
            err: ServeError::Overloaded {
                tenant: 1,
                reason: OverloadReason::ByteQuota,
            }
        });
        // Overwriting the same tensor stays within quota.
        s.ingress(&save(1, 2, 0, frame));
        s.advance_to(2);
        let rs = responses(&mut s);
        assert_eq!(rs[0].msg, Msg::SaveOk { tensor: 0 });
    }

    #[test]
    fn seq_window_tracks_duplicates_and_slides() {
        let mut w = SeqWindow::new();
        assert!(!w.check_and_set(0), "first sequence is fresh");
        assert!(w.check_and_set(0), "replay detected");
        assert!(!w.check_and_set(5));
        assert!(!w.check_and_set(3), "out-of-order within window is fresh");
        assert!(w.check_and_set(3));
        assert!(w.check_and_set(5));
        // Slide far ahead: everything earlier falls off the back and is
        // conservatively a duplicate.
        assert!(!w.check_and_set(SEQ_WINDOW_BITS * 3));
        assert!(w.check_and_set(5), "pre-window sequence treated as dup");
        // Just inside the window edge is still tracked exactly.
        let edge = SEQ_WINDOW_BITS * 3 - (SEQ_WINDOW_BITS - 1);
        assert!(!w.check_and_set(edge));
        assert!(w.check_and_set(edge));
    }

    #[test]
    fn seq_window_word_boundary_slides_are_exact() {
        // Cross word boundaries with every shift remainder.
        for step in [1u64, 63, 64, 65, 127, 128, 300] {
            let mut w = SeqWindow::new();
            let mut seqs = Vec::new();
            for k in 0..40u64 {
                let s = k * step;
                assert!(!w.check_and_set(s), "step {step}: {s} fresh");
                seqs.push(s);
            }
            let top = *seqs.last().unwrap();
            for &s in &seqs {
                let expect_tracked = top - s < SEQ_WINDOW_BITS;
                assert!(w.check_and_set(s), "step {step}: {s} seen again");
                let _ = expect_tracked; // both arms report duplicate
            }
            // Never-sent sequences inside the window are still fresh.
            if step > 1 {
                assert!(!w.check_and_set(top - 1), "step {step}: gap is fresh");
            }
        }
    }

    #[test]
    fn duplicate_seq_suppressed() {
        let mut s = Server::new(ServeConfig::default());
        s.register_tenant(1);
        let env = save(1, 5, 7, sample_frame(0));
        s.ingress(&env);
        s.ingress(&env);
        s.advance_to(1);
        assert_eq!(responses(&mut s).len(), 1);
        assert_eq!(s.counters().dup_requests, 1);
    }

    #[test]
    fn undecodable_ingress_counted_and_dropped() {
        let mut s = Server::new(ServeConfig::default());
        s.register_tenant(1);
        s.ingress(b"garbage");
        s.advance_to(1);
        assert!(responses(&mut s).is_empty());
        assert_eq!(s.counters().bad_frames, 1);
    }

    #[test]
    fn faulty_bus_retries_then_succeeds_or_degrades() {
        // A heavy fault rate forces the ladder to climb; with
        // degradation on, every load still gets exactly one response.
        let cfg = ServeConfig {
            bus_faults: FaultConfig::new(5e-3, FaultModel::Mixed, 77),
            recovery: RecoveryPolicy::Retry { attempts: 3 },
            degrade_on_exhaust: true,
            ..ServeConfig::default()
        };
        let mut s = Server::new(cfg);
        s.register_tenant(1);
        for t in 0..8u64 {
            s.ingress(&save(1, t, t, sample_frame(t)));
        }
        s.advance_to(1);
        let saves = responses(&mut s);
        assert_eq!(saves.len(), 8);
        for (i, t) in (0..8u64).enumerate() {
            s.ingress(&load(1, 100 + i as u64, t));
        }
        // Drive time forward until all retries resolve.
        let mut got = Vec::new();
        for tick in 2..600 {
            s.advance_to(tick);
            got.extend(responses(&mut s));
            if got.len() == 8 {
                break;
            }
        }
        assert_eq!(got.len(), 8, "every load must resolve");
        for r in &got {
            assert!(
                matches!(r.msg, Msg::LoadOk { .. } | Msg::Degraded { .. }),
                "unexpected outcome: {:?}",
                r.msg
            );
        }
        assert!(s.idle());
        assert!(s.counters().retries > 0, "fault rate should force retries");
    }

    #[test]
    fn exhausted_retries_fail_typed_without_degradation() {
        let cfg = ServeConfig {
            // rate 1.0 faults/byte: every delivery is corrupt.
            bus_faults: FaultConfig::new(1.0, FaultModel::BitFlip, 3),
            recovery: RecoveryPolicy::Retry { attempts: 2 },
            degrade_on_exhaust: false,
            ..ServeConfig::default()
        };
        let mut s = Server::new(cfg);
        s.register_tenant(1);
        s.ingress(&save(1, 0, 7, sample_frame(0)));
        s.advance_to(1);
        let _ = responses(&mut s);
        s.ingress(&load(1, 1, 7));
        for tick in 2..300 {
            s.advance_to(tick);
        }
        let rs = responses(&mut s);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0].msg, Msg::Error {
            err: ServeError::RetriesExhausted {
                tenant: 1,
                tensor: 7,
                attempts: 3,
            }
        });
    }

    #[test]
    fn deadline_in_the_past_misses_typed() {
        let mut s = Server::new(ServeConfig::default());
        s.register_tenant(1);
        s.ingress(&save(1, 0, 7, sample_frame(0)));
        s.advance_to(1);
        let _ = responses(&mut s);
        s.advance_to(50);
        s.ingress(&encode(&Envelope {
            tenant: 1,
            seq: 1,
            msg: Msg::LoadReq {
                tensor: 7,
                deadline: 10,
            },
        }));
        s.advance_to(51);
        let rs = responses(&mut s);
        assert_eq!(rs[0].msg, Msg::Error {
            err: ServeError::DeadlineExceeded {
                tenant: 1,
                tensor: 7,
                deadline: 10,
            }
        });
        assert_eq!(s.counters().deadline_misses, 1);
    }

    #[test]
    fn identical_runs_produce_identical_egress_and_counters() {
        let run = || {
            let cfg = ServeConfig {
                bus_faults: FaultConfig::new(2e-3, FaultModel::Mixed, 11),
                ..ServeConfig::default()
            };
            let mut s = Server::new(cfg);
            s.register_tenant(1);
            s.register_tenant(2);
            let mut all = Vec::new();
            for t in 0..4u64 {
                s.ingress(&save(1, t, t, sample_frame(t)));
                s.ingress(&save(2, t, t, sample_frame(t + 10)));
            }
            for tick in 1..200 {
                s.advance_to(tick);
                if tick == 5 {
                    for t in 0..4u64 {
                        s.ingress(&load(1, 100 + t, t));
                        s.ingress(&load(2, 100 + t, t));
                    }
                }
                all.extend(s.drain_egress());
            }
            (all, s.counters().clone())
        };
        assert_eq!(run(), run());
    }
}
