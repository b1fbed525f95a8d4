//! The `infer_vgg_jact` workload: a `jact-infer` daemon serving
//! `mini-vgg` with JPEG-ACT stage boundaries to 8 closed-loop clients.
//!
//! One round is: every client issues one request, one tick advances (the
//! eight requests fill one batch), all responses drain.  One op is one
//! request, timed from its `ingress` to its decoded response.  This covers
//! forward-only dense math plus the layers training never touches (the
//! `JINF` envelope, the batcher, the per-sample boundary round trip), and
//! uses the codec as many tiny calls where training makes a few large ones.

use crate::probes;
use crate::stats::median;
use crate::trace::{fold, span, span_op, SharedTracer, Tracer};
use crate::{Plan, Timed, Traced};
use jact_codec::pipeline::Codec;
use jact_data::synth::{render_image, SynthConfig};
use jact_dnn::models::build_by_name;
use jact_dnn::{Context, PassthroughStore};
use jact_infer::frame::{self, InferEnvelope, InferMsg};
use jact_infer::{Batcher, BoundaryMode, Engine, InferConfig, InferServer, PendingRequest};
use jact_rng::rngs::StdRng;
use jact_rng::{Rng, SeedableRng};
use jact_tensor::{Shape, Tensor};
use std::time::Instant;

/// Logical clients, each with one request outstanding.
pub const CLIENTS: usize = 8;
const MAX_BATCH: usize = 8;
const MAX_WAIT_TICKS: u64 = 2;
/// Distinct seeded request images; requests cycle through them.
const PLANES: usize = 64;
/// Untimed requests that end set-up.  They are the same in every run of
/// a seed, so the exact metrics and the output checks are taken on them.
const WARMUP_REQUESTS: usize = 64;

/// The served model is fixed (`InferConfig`'s default weight seed);
/// `--seed` draws the requests.  With seeded weights the boundary bytes
/// and the logit error differ by 7-9 % between seeds, which would force
/// the bounds on the two exact metrics to the maximum.
fn config(boundary: BoundaryMode) -> InferConfig {
    InferConfig {
        model: "mini-vgg".to_string(),
        boundary,
        max_batch: MAX_BATCH,
        max_wait_ticks: MAX_WAIT_TICKS,
        ..InferConfig::default()
    }
}

/// One decoded response.
struct Reply {
    ms: f64,
    logits: Vec<f32>,
    ok: bool,
}

/// The daemon and its closed-loop clients.
struct Driver {
    server: InferServer,
    planes: Vec<Vec<f32>>,
    tracer: SharedTracer,
    round: u64,
    buf: Vec<u8>,
    setup_s: f64,
    /// Logits of the warm-up requests, in issue order.
    warm_logits: Vec<f32>,
}

impl Driver {
    /// Set-up: seeded request images, the daemon, the warm-up requests.
    fn new(
        seed: u64,
        boundary: BoundaryMode,
        warmup: usize,
        tracer: &SharedTracer,
    ) -> Result<Self, String> {
        let start = Instant::now();
        let cfg = config(boundary);
        let synth = SynthConfig::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let planes = (0..PLANES as u64)
            .map(|i| {
                let class = rng.gen_range(0..synth.classes);
                render_image(&synth, class, seed.wrapping_mul(1_000_003).wrapping_add(i)).into_vec()
            })
            .collect();
        let mut d = Driver {
            server: InferServer::new(cfg).map_err(|e| e.to_string())?,
            planes,
            tracer: tracer.clone(),
            round: 0,
            buf: Vec::new(),
            setup_s: 0.0,
            warm_logits: Vec::new(),
        };
        for _ in 0..warmup.div_ceil(CLIENTS) {
            let (_, replies) = d.round()?;
            for r in replies {
                if !r.ok {
                    return Err("a warm-up request failed".to_string());
                }
                d.warm_logits.extend(r.logits);
            }
        }
        d.setup_s = start.elapsed().as_secs_f64();
        Ok(d)
    }

    /// One round; returns its wall time and the replies in client order.
    fn round(&mut self) -> Result<(f64, Vec<Reply>), String> {
        let t = self.tracer.clone();
        let round_start = Instant::now();
        let replies = span_op(&t, "infer.round", || {
            let cfg = self.server.config().clone();
            let mut issued = [round_start; CLIENTS];
            for (client, slot) in issued.iter_mut().enumerate() {
                let plane = &self.planes[(self.round as usize * CLIENTS + client) % PLANES];
                let mut pixels: Vec<f32> = jact_pool::take(plane.len());
                pixels.extend_from_slice(plane);
                let env = InferEnvelope {
                    client: client as u32,
                    seq: self.round,
                    msg: InferMsg::Request {
                        c: cfg.in_channels as u32,
                        h: cfg.input_hw as u32,
                        w: cfg.input_hw as u32,
                        pixels,
                    },
                };
                span(&t, "infer.frame.encode", || {
                    frame::encode_into(&env, &mut self.buf)
                });
                env.recycle();
                *slot = Instant::now();
                span(&t, "infer.server.ingress", || {
                    self.server.ingress(&self.buf)
                });
            }
            let mut replies: Vec<Option<Reply>> = (0..CLIENTS).map(|_| None).collect();
            let mut answered = 0;
            // A full batch fires on the first tick; the wait bound covers
            // a partial one.
            for _ in 0..=MAX_WAIT_TICKS {
                let tick = self.server.now() + 1;
                span(&t, "infer.server.advance", || self.server.advance_to(tick));
                while let Some((client, bytes)) =
                    span(&t, "infer.server.egress", || self.server.pop_egress())
                {
                    let env = span(&t, "infer.frame.decode", || frame::decode(&bytes))
                        .map_err(|e| e.to_string())?;
                    let ms = issued[client as usize % CLIENTS].elapsed().as_secs_f64() * 1e3;
                    let reply = match &env.msg {
                        InferMsg::Response { degraded, logits } => Reply {
                            ms,
                            logits: logits.clone(),
                            ok: !degraded
                                && env.seq == self.round
                                && logits.iter().all(|v| v.is_finite()),
                        },
                        _ => Reply {
                            ms,
                            logits: Vec::new(),
                            ok: false,
                        },
                    };
                    replies[client as usize % CLIENTS] = Some(reply);
                    answered += 1;
                    env.recycle();
                    jact_pool::give(bytes);
                }
                if answered == CLIENTS {
                    break;
                }
            }
            replies
                .into_iter()
                .collect::<Option<Vec<Reply>>>()
                .ok_or_else(|| "a request got no response".to_string())
        })?;
        self.round += 1;
        Ok((round_start.elapsed().as_secs_f64() * 1e3, replies))
    }
}

fn warmup_requests(plan: &Plan) -> usize {
    if plan.quick {
        CLIENTS
    } else {
        WARMUP_REQUESTS
    }
}

/// `|a - b| / |b|` in the L2 norm over two logit sequences.
fn rel_l2_err(a: &[f32], b: &[f32]) -> f64 {
    let sq = |x: f32| f64::from(x) * f64::from(x);
    let diff: f64 = a.iter().zip(b).map(|(x, y)| sq(x - y)).sum();
    let norm: f64 = b.iter().map(|y| sq(*y)).sum();
    (diff / norm).sqrt()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, plan: &Plan) -> Result<Timed, String> {
    let warmup = warmup_requests(plan);
    let off = Tracer::shared(false);
    let mut out = Timed::default();
    let mut warm: Vec<Vec<f32>> = Vec::new();
    let mut driver = None;
    for _ in 0..plan.setups() {
        let d = Driver::new(seed, BoundaryMode::JpegAct, warmup, &off)?;
        out.setup_s.push(d.setup_s);
        warm.push(d.warm_logits.clone());
        driver = Some(d);
    }
    let mut d = driver.ok_or("no set-up ran")?;

    let warm_stats = d.server.engine_stats();
    out.compression_ratio =
        warm_stats.boundary_bytes_in as f64 / warm_stats.boundary_bytes_out as f64;
    let start = Instant::now();
    while out.op_ms.is_empty() || start.elapsed().as_secs_f64() < plan.seconds {
        for r in d.round()?.1 {
            out.op_ms.push(r.ms);
            out.failed += u64::from(!r.ok);
        }
    }
    out.wall_s = start.elapsed().as_secs_f64();
    let stats = d.server.engine_stats();
    out.raw_bytes = 2 * (stats.boundary_bytes_in - warm_stats.boundary_bytes_in);
    out.failed += d.server.counters().rejected + stats.zero_filled;

    let exact = Driver::new(seed, BoundaryMode::Uncompressed, warmup, &off)?;
    out.quality_err = rel_l2_err(&warm[0], &exact.warm_logits);
    out.check(
        "setup_repeats_bit_identical",
        warm.iter().all(|w| bits(w) == bits(&warm[0])),
    );
    out.check("no_response_degraded", out.failed == 0);
    out.check("lossy_boundary_changes_logits", out.quality_err > 0.0);
    Ok(out)
}

/// The traced run: per-layer metrics, each per round of 8 requests.
pub fn run_traced(seed: u64, plan: &Plan) -> Result<Traced, String> {
    let warmup = warmup_requests(plan);
    let budget = plan.seconds / 3.0;
    let mut out = Traced::default();

    let off = Tracer::shared(false);
    let mut plain = Driver::new(seed, BoundaryMode::JpegAct, warmup, &off)?;
    let mut plain_ms = Vec::new();
    let mut plain_logits = Vec::new();
    let start = Instant::now();
    while plain_ms.is_empty() || start.elapsed().as_secs_f64() < budget {
        let (ms, replies) = plain.round()?;
        plain_ms.push(ms);
        plain_logits.extend(replies.into_iter().flat_map(|r| r.logits));
    }

    let tracer = Tracer::shared(true);
    let mut d = Driver::new(seed, BoundaryMode::JpegAct, warmup, &tracer)?;
    let (stats0, pool0) = (d.server.engine_stats(), jact_pool::stats());
    let mut traced_logits = Vec::new();
    let mut rounds = 0.0;
    let start = Instant::now();
    while traced_logits.is_empty() || start.elapsed().as_secs_f64() < budget {
        for r in d.round()?.1 {
            out.failed += u64::from(!r.ok);
            traced_logits.extend(r.logits);
        }
        rounds += 1.0;
    }
    let stats = d.server.engine_stats();
    probes::report_pool(&mut out, pool0, rounds);
    let n = plain_logits.len().min(traced_logits.len());
    out.check(
        "traced_logits_equal_untraced",
        bits(&plain_logits[..n]) == bits(&traced_logits[..n]),
    );

    let spans = tracer.borrow().spans().to_vec();
    let f = fold(&spans);
    out.set("infer.frame.encode_ms", f.median_ms("infer.frame.encode"));
    out.set("infer.frame.decode_ms", f.median_ms("infer.frame.decode"));
    out.set(
        "infer.server.ingress_ms",
        f.median_ms("infer.server.ingress"),
    );
    out.set(
        "infer.server.advance_ms",
        f.median_ms("infer.server.advance"),
    );
    out.set("infer.server.egress_ms", f.median_ms("infer.server.egress"));
    out.set("trace.residual_share", f.residual_share());
    out.set(
        "trace.overhead_share",
        median(&f.root_ms) / median(&plain_ms) - 1.0,
    );
    out.set(
        "infer.batch_fill",
        (stats.samples - stats0.samples) as f64
            / ((stats.batches - stats0.batches).max(1) * MAX_BATCH as u64) as f64,
    );
    out.set(
        "infer.boundary_bytes_in",
        (stats.boundary_bytes_in - stats0.boundary_bytes_in) as f64 / rounds,
    );
    out.set(
        "infer.boundary_bytes_out",
        (stats.boundary_bytes_out - stats0.boundary_bytes_out) as f64 / rounds,
    );
    out.set("infer.shed", d.server.counters().rejected as f64);

    // Replay one batch through the engine, then through the bare network,
    // then its stage outputs through the boundary codec sample by sample.
    let reps = plan.probe_reps();
    let cfg = config(BoundaryMode::JpegAct);
    let batch: Vec<PendingRequest> = (0..MAX_BATCH)
        .map(|i| PendingRequest {
            client: i as u32,
            seq: 0,
            c: cfg.in_channels as u32,
            h: cfg.input_hw as u32,
            w: cfg.input_hw as u32,
            pixels: d.planes[i].clone(),
            enqueued_at: 0,
        })
        .collect();
    let mut engine = Engine::new(&cfg).map_err(|e| e.to_string())?;
    let mut outputs = Vec::new();
    let batch_ms = median(
        &(0..reps + 1)
            .map(|_| {
                let start = Instant::now();
                engine.infer_batch(&batch, &mut outputs);
                start.elapsed().as_secs_f64() * 1e3
            })
            .skip(1)
            .collect::<Vec<_>>(),
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut net = build_by_name(&cfg.model, cfg.in_channels, cfg.classes, &mut rng)
        .map_err(|e| e.to_string())?;
    let x = Tensor::from_vec(
        Shape::nchw(MAX_BATCH, cfg.in_channels, cfg.input_hw, cfg.input_hw),
        batch
            .iter()
            .flat_map(|r| r.pixels.iter().copied())
            .collect(),
    );
    let mut store = PassthroughStore::new();
    let mut stage_outputs = Vec::new();
    let forward_ms = median(
        &(0..reps)
            .map(|_| {
                stage_outputs.clear();
                let start = Instant::now();
                let mut h = x.clone();
                for s in 0..net.num_stages() {
                    let mut ctx = Context::new(false, &mut rng, &mut store);
                    h = net.forward_stage(s, &h, &mut ctx);
                    stage_outputs.push(h.clone());
                }
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    );
    out.set("infer.engine.batch_ms", batch_ms);
    out.set("infer.engine.forward_ms", forward_ms);
    out.set("infer.boundary_ms", batch_ms - forward_ms);
    out.set("dnn.forward_ms", forward_ms);

    let samples: Vec<(Box<dyn Codec>, Tensor)> = stage_outputs
        .iter()
        .take(stage_outputs.len().saturating_sub(1))
        .filter(|t| t.shape().rank() == 4)
        .flat_map(|t| {
            let s = t.shape();
            let plane = s.c() * s.h() * s.w();
            let single = Shape::nchw(1, s.c(), s.h(), s.w());
            t.as_slice()
                .chunks(plane)
                .map(|c| {
                    (
                        cfg.boundary.build_codec(),
                        Tensor::from_vec(single, c.to_vec()),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect();
    probes::replay_codec(&samples, reps).report(&mut out, 1.0);
    probes::dense_math(probes::VGG_CONVS, MAX_BATCH, false, reps).report(&mut out, forward_ms);

    const CYCLES: u32 = 2_000;
    let mut batcher = Batcher::new(
        MAX_BATCH,
        MAX_WAIT_TICKS,
        cfg.queue_cap,
        cfg.max_inflight_per_client,
        cfg.max_queued_bytes,
    );
    let mut popped = Vec::with_capacity(MAX_BATCH);
    let start = Instant::now();
    for cycle in 0..CYCLES {
        for client in 0..MAX_BATCH as u32 {
            let req = PendingRequest {
                client,
                seq: u64::from(cycle),
                c: 0,
                h: 0,
                w: 0,
                pixels: Vec::new(),
                enqueued_at: 0,
            };
            batcher.enqueue(req).map_err(|(_, e)| e.to_string())?;
        }
        if batcher.ready(0) {
            batcher.pop_batch(&mut popped);
        }
    }
    out.set(
        "infer.batcher.cycle_us",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(CYCLES),
    );

    out.spans = spans;
    Ok(out)
}
