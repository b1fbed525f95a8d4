//! The `serve_offload` workload: a `jact-serve` daemon offloading four
//! tenants' activations over a lossy bus, through its LRU frame cache.
//!
//! It is the one workload where dense math does nothing and framing, CRC,
//! admission, cache and retry do most of the work.  It has writes beside
//! reads and cache hits beside bus misses, because the cache holds part
//! of the working set only.
//!
//! Each tenant owns the 16 dense activations of one seeded `mini-resnet`
//! forward pass.  Per round a tenant saves all 16 in forward order
//! (compressing and serializing on the client; even indices JPEG-ACT
//! optH, odd ones ZVC), loads all 16 in reverse order (all bus misses:
//! the saves invalidated the cache), then loads them once more in
//! forward order, most recently loaded first, so the LRU serves the start
//! of that sweep.  The tenants move in lockstep, one op outstanding each:
//! a step issues one op per tenant, advances the daemon, and drains.

use crate::probes;
use crate::stats::median;
use crate::trace::{fold, span, span_op, SharedTracer, Tracer};
use crate::{Plan, Timed, Traced};
use jact_codec::dqt::Dqt;
use jact_codec::pipeline::{Codec, JpegActCodec, ZvcF32Codec};
use jact_codec::wire;
use jact_core::fault::{FaultConfig, FaultModel, RecoveryPolicy};
use jact_serve::frame::{decode, encode_into, Envelope, Msg};
use jact_serve::{ServeConfig, Server};
use jact_tensor::Tensor;
use std::time::Instant;

/// Logical tenants, each with one op outstanding.
pub const TENANTS: usize = 4;
/// Untimed rounds that end set-up.  Every round moves the same bytes, so
/// the exact metrics are taken on these.
const WARMUP_ROUNDS: usize = 2;

// The daemon runs the default `ServeConfig` but for these three, each
// chosen once on seed 1 (README "serve_offload constants").  The default
// per-tenant `max_stored_bytes` (8 MiB) already holds a tenant's 2.85 MB.
/// LRU capacity, 0.9 of the tenants' compressed working set (11.4 MB).
/// The saves invalidate the cache, so the reverse sweep always misses and
/// only the forward sweep can hit: the hit ratio over all loads is at
/// most 0.5, and this capacity puts it near 0.38.
const CACHE_BYTES: usize = 10_200_000;
/// Faults per delivered byte on the daemon's bus, which puts
/// `serve.retry_share` (retries over loads) at 0.055 on seed 1 and 0.078
/// on seed 2: a 0.5 MB ZVC frame arrives corrupt three times in ten.
const BUS_FAULT_RATE: f64 = 7e-7;
/// Redeliveries before a load degrades (default 3).  A delivery's faults
/// are a function of (seed, tenant, tensor, attempt) only, so a load that
/// exhausts its retries does so in every round; with 3, one seed in ten
/// would have such a load, with 8 fewer than one in a thousand.
const RETRY_ATTEMPTS: u32 = 8;

/// What one op was and how it ended.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Save,
    LoadMiss,
    LoadHit,
    Failed,
}

struct OpResult {
    kind: Kind,
    ms: f64,
}

struct Driver {
    server: Server,
    tensors: Vec<Tensor>,
    codecs: Vec<Box<dyn Codec>>,
    /// What a load of tensor `i` must decode to, bit for bit: the tensor
    /// itself under ZVC; under JPEG-ACT the first decode, whose error is
    /// in `err_sq` / `norm_sq`.
    expected: Vec<Option<Tensor>>,
    err_sq: f64,
    norm_sq: f64,
    tracer: SharedTracer,
    seq: u64,
    buf: Vec<u8>,
    setup_s: f64,
    raw_bytes: u64,
    wire_bytes: u64,
    mismatches: u64,
}

/// The codec a tenant compresses tensor `idx` with.
fn codec_of(idx: usize) -> Box<dyn Codec> {
    if idx.is_multiple_of(2) {
        Box::new(JpegActCodec::new(Dqt::opt_h()))
    } else {
        Box::new(ZvcF32Codec)
    }
}

/// Whether `step` of a round of `n` tensors saves, and which tensor.
fn op_of(step: usize, n: usize) -> (bool, usize) {
    match step / n {
        0 => (true, step),
        1 => (false, 2 * n - 1 - step),
        _ => (false, step - 2 * n),
    }
}

impl Driver {
    /// Set-up: harvest the tensors, start the daemon, run warm-up rounds.
    fn new(seed: u64, warmup_rounds: usize, tracer: &SharedTracer) -> Result<Self, String> {
        let start = Instant::now();
        let tensors = crate::train::harvest_dense(seed).map_err(|e| e.to_string())?;
        let codecs = (0..tensors.len()).map(codec_of).collect();
        let mut server = Server::new(ServeConfig {
            cache_bytes: CACHE_BYTES,
            bus_faults: FaultConfig::new(BUS_FAULT_RATE, FaultModel::Mixed, seed),
            recovery: RecoveryPolicy::Retry {
                attempts: RETRY_ATTEMPTS,
            },
            ..ServeConfig::default()
        });
        for tenant in 0..TENANTS as u32 {
            server.register_tenant(tenant);
        }
        let mut d = Driver {
            server,
            expected: tensors.iter().map(|_| None).collect(),
            tensors,
            codecs,
            err_sq: 0.0,
            norm_sq: 0.0,
            tracer: tracer.clone(),
            seq: 0,
            buf: Vec::new(),
            setup_s: 0.0,
            raw_bytes: 0,
            wire_bytes: 0,
            mismatches: 0,
        };
        for _ in 0..warmup_rounds {
            let mut sink = Vec::new();
            d.round(&mut sink)?;
            if sink.iter().any(|r: &OpResult| r.kind == Kind::Failed) {
                return Err("a warm-up op failed".to_string());
            }
        }
        d.setup_s = start.elapsed().as_secs_f64();
        Ok(d)
    }

    fn steps_per_round(&self) -> usize {
        3 * self.tensors.len()
    }

    /// One round: every tenant's three sweeps.  Returns its wall time.
    fn round(&mut self, sink: &mut Vec<OpResult>) -> Result<f64, String> {
        let start = Instant::now();
        for step in 0..self.steps_per_round() {
            self.step(step, sink)?;
        }
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }

    /// One step: each tenant issues its op, the daemon advances until
    /// every tenant has its response.
    fn step(&mut self, step: usize, sink: &mut Vec<OpResult>) -> Result<(), String> {
        let t = self.tracer.clone();
        let (is_save, idx) = op_of(step, self.tensors.len());
        span_op(&t, "serve.step", || {
            let mut issued = [Instant::now(); TENANTS];
            for (tenant, slot) in issued.iter_mut().enumerate() {
                *slot = Instant::now();
                let msg = if is_save {
                    let c = span(&t, "codec.compress", || {
                        self.codecs[idx].compress(&self.tensors[idx])
                    });
                    let frame = span(&t, "wire.serialize", || wire::serialize(&c));
                    c.recycle();
                    self.raw_bytes += self.tensors[idx].len() as u64 * 4;
                    self.wire_bytes += frame.len() as u64;
                    Msg::SaveReq {
                        tensor: idx as u64,
                        deadline: 0,
                        frame,
                    }
                } else {
                    Msg::LoadReq {
                        tensor: idx as u64,
                        deadline: 0,
                    }
                };
                let env = Envelope {
                    tenant: tenant as u32,
                    seq: self.seq,
                    msg,
                };
                span(&t, "serve.frame.encode", || {
                    encode_into(&env, &mut self.buf)
                });
                if let Msg::SaveReq { frame, .. } = env.msg {
                    jact_pool::give(frame);
                }
                span(&t, "serve.server.ingress", || {
                    self.server.ingress(&self.buf)
                });
            }
            self.seq += 1;

            let mut pending = TENANTS;
            while pending > 0 {
                // A corrupt bus delivery is retried on a timer; jump to it.
                let tick = self
                    .server
                    .next_timer()
                    .unwrap_or(0)
                    .max(self.server.now() + 1);
                span(&t, "serve.server.advance", || self.server.advance_to(tick));
                while let Some((tenant, bytes)) =
                    span(&t, "serve.server.egress", || self.server.pop_egress())
                {
                    let env = span(&t, "serve.frame.decode", || decode(&bytes))
                        .map_err(|e| e.to_string())?;
                    jact_pool::give(bytes);
                    let issued_at = issued[tenant as usize % TENANTS];
                    let (kind, ms) = match env.msg {
                        Msg::SaveOk { tensor } if is_save && tensor == idx as u64 => {
                            (Kind::Save, issued_at.elapsed().as_secs_f64() * 1e3)
                        }
                        Msg::LoadOk {
                            tensor,
                            cached,
                            frame,
                        } if !is_save && tensor == idx as u64 => {
                            let c = span(&t, "wire.deserialize", || wire::deserialize(&frame))
                                .map_err(|e| e.to_string())?;
                            let x =
                                span(&t, "codec.decompress", || self.codecs[idx].decompress(&c))
                                    .map_err(|e| e.to_string())?;
                            let ms = issued_at.elapsed().as_secs_f64() * 1e3;
                            self.raw_bytes += x.len() as u64 * 4;
                            self.wire_bytes += frame.len() as u64;
                            c.recycle();
                            jact_pool::give(frame);
                            span(&t, "ledger.verify", || self.verify(idx, x));
                            (
                                if cached {
                                    Kind::LoadHit
                                } else {
                                    Kind::LoadMiss
                                },
                                ms,
                            )
                        }
                        // Degraded, a typed error, or an answer to another op.
                        _ => (Kind::Failed, issued_at.elapsed().as_secs_f64() * 1e3),
                    };
                    sink.push(OpResult { kind, ms });
                    pending -= 1;
                }
                if self.server.idle() && pending > 0 {
                    return Err(format!("{pending} ops got no response"));
                }
            }
            Ok(())
        })
    }

    /// Checks a loaded tensor: ZVC loads equal what was saved; a JPEG-ACT
    /// load equals the first decode of that tensor, whose error counts
    /// towards `quality_err`.
    fn verify(&mut self, idx: usize, x: Tensor) {
        let original = &self.tensors[idx];
        if self.codecs[idx].is_lossless() {
            self.mismatches += u64::from(x != *original);
            return;
        }
        match &self.expected[idx] {
            Some(first) => self.mismatches += u64::from(x != *first),
            None => {
                let d = x.l2_distance(original);
                self.err_sq += d * d;
                self.norm_sq += original
                    .iter()
                    .map(|v| f64::from(*v) * f64::from(*v))
                    .sum::<f64>();
                self.expected[idx] = Some(x);
            }
        }
    }
}

fn warmup_rounds(plan: &Plan) -> usize {
    if plan.quick {
        1
    } else {
        WARMUP_ROUNDS
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, plan: &Plan) -> Result<Timed, String> {
    let off = Tracer::shared(false);
    let mut out = Timed::default();
    let mut quality = Vec::new();
    let mut driver = None;
    for _ in 0..plan.setups() {
        let d = Driver::new(seed, warmup_rounds(plan), &off)?;
        out.setup_s.push(d.setup_s);
        quality.push((d.err_sq / d.norm_sq).sqrt());
        driver = Some(d);
    }
    let mut d = driver.ok_or("no set-up ran")?;
    out.quality_err = quality[0];
    // The sizes `CACHE_BYTES` and `BUS_FAULT_RATE` were chosen against.
    println!(
        "tensors {} per tenant, {:.3} MB raw, {:.3} MB compressed; daemon working set {:.3} MB",
        d.tensors.len(),
        d.tensors.iter().map(|t| t.len() * 4).sum::<usize>() as f64 / 1e6,
        d.wire_bytes as f64 / 1e6 / (3 * TENANTS * warmup_rounds(plan)) as f64,
        d.wire_bytes as f64 / 1e6 / (3 * warmup_rounds(plan)) as f64,
    );
    out.compression_ratio = d.raw_bytes as f64 / d.wire_bytes as f64;

    let raw0 = d.raw_bytes;
    let mut ops = Vec::new();
    let start = Instant::now();
    while ops.is_empty() || start.elapsed().as_secs_f64() < plan.seconds {
        d.round(&mut ops)?;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.raw_bytes = d.raw_bytes - raw0;
    out.failed = ops.iter().filter(|r| r.kind == Kind::Failed).count() as u64;
    out.op_ms = ops.iter().map(|r| r.ms).collect();

    let c = d.server.counters();
    out.check(
        "setup_repeats_bit_identical",
        quality.iter().all(|q| q.to_bits() == quality[0].to_bits()),
    );
    out.check("zvc_loads_bit_exact_jpeg_loads_repeat", d.mismatches == 0);
    out.check(
        "every_op_ends_typed",
        c.requests == c.responses && c.bad_frames == 0,
    );
    Ok(out)
}

/// The traced run: per-layer metrics.  Steps differ (saves and loads,
/// 0.5 MB and 64 KB tensors), so a layer's row is its mean self time per
/// step (one op of each of the 4 tenants), and the rows add up to the
/// mean step.  `serve.save_ms` and the two load rows are median whole-op
/// latencies.
pub fn run_traced(seed: u64, plan: &Plan) -> Result<Traced, String> {
    let budget = plan.seconds / 2.0;
    let mut out = Traced::default();

    let off = Tracer::shared(false);
    let mut plain = Driver::new(seed, warmup_rounds(plan), &off)?;
    let mut plain_ms = Vec::new();
    let start = Instant::now();
    while plain_ms.is_empty() || start.elapsed().as_secs_f64() < budget / 2.0 {
        plain_ms.push(plain.round(&mut Vec::new())?);
    }

    let tracer = Tracer::shared(true);
    let mut d = Driver::new(seed, warmup_rounds(plan), &tracer)?;
    let (c0, pool0) = (d.server.counters().clone(), jact_pool::stats());
    let mut ops = Vec::new();
    let mut traced_ms = Vec::new();
    let start = Instant::now();
    while ops.is_empty() || start.elapsed().as_secs_f64() < budget {
        traced_ms.push(d.round(&mut ops)?);
    }
    let c = d.server.counters().clone();
    out.failed = ops.iter().filter(|r| r.kind == Kind::Failed).count() as u64;
    out.check(
        "zvc_loads_bit_exact_jpeg_loads_repeat",
        d.mismatches == 0 && plain.mismatches == 0,
    );

    let spans = tracer.borrow().spans().to_vec();
    let f = fold(&spans);
    out.set("codec.compress_ms", f.mean_ms("codec.compress"));
    out.set("codec.decompress_ms", f.mean_ms("codec.decompress"));
    out.set("wire.serialize_ms", f.mean_ms("wire.serialize"));
    out.set("wire.deserialize_ms", f.mean_ms("wire.deserialize"));
    out.set("serve.frame.encode_ms", f.mean_ms("serve.frame.encode"));
    out.set("serve.frame.decode_ms", f.mean_ms("serve.frame.decode"));
    out.set("serve.server.ingress_ms", f.mean_ms("serve.server.ingress"));
    out.set("serve.server.advance_ms", f.mean_ms("serve.server.advance"));
    out.set("serve.server.egress_ms", f.mean_ms("serve.server.egress"));
    let of_kind = |k: Kind| {
        median(
            &ops.iter()
                .filter(|r| r.kind == k)
                .map(|r| r.ms)
                .collect::<Vec<_>>(),
        )
    };
    out.set("serve.save_ms", of_kind(Kind::Save));
    out.set("serve.load_miss_ms", of_kind(Kind::LoadMiss));
    out.set("serve.load_hit_ms", of_kind(Kind::LoadHit));
    let loads = (c.loads - c0.loads).max(1) as f64;
    out.set(
        "serve.cache_hit_ratio",
        (c.cache_hits - c0.cache_hits) as f64 / loads,
    );
    out.set("serve.retry_share", (c.retries - c0.retries) as f64 / loads);
    out.set("serve.saves", (c.saves - c0.saves) as f64);
    out.set("serve.loads", loads);
    out.set("serve.degraded", (c.degraded - c0.degraded) as f64);
    out.set("serve.rejected", (c.rejected - c0.rejected) as f64);
    probes::report_pool(
        &mut out,
        pool0,
        (traced_ms.len() * d.steps_per_round()) as f64,
    );
    out.set("trace.residual_share", f.residual_share());
    out.set(
        "trace.overhead_share",
        median(&traced_ms) / median(&plain_ms) - 1.0,
    );

    // CRC and the bus channel run inside the daemon; replay one tenant's
    // frames through them for their share.
    let items: Vec<_> = d
        .tensors
        .iter()
        .enumerate()
        .map(|(i, x)| (codec_of(i), x.clone()))
        .collect();
    let replay = probes::replay_codec(&items, plan.probe_reps());
    out.set(
        "wire.crc32_ms",
        replay.crc32_ms * TENANTS as f64 / items.len() as f64,
    );
    out.set(
        "core.fault.deliver_ms",
        replay.deliver_ms * TENANTS as f64 / items.len() as f64,
    );
    out.spans = spans;
    Ok(out)
}
