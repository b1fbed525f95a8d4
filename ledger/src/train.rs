//! The two training workloads: `train_resnet_jact` and `train_vgg_raw`.
//!
//! One op is one `Trainer::step_classify` at batch 8 over a cycle of 8
//! seeded batches, with every saved activation crossing
//! `OffloadStore::through_wire`.  The resnet workload compresses with
//! JPEG-ACT (codec, wire and dense math all on the blocking path); the
//! vgg workload offloads uncompressed, so it bypasses every codec stage
//! while pushing the largest byte volume through serialize and CRC.

use crate::probes::{self, ConvCase};
use crate::trace::{fold, span, span_op, SharedTracer, Tracer};
use crate::{Plan, Timed, Traced};
use jact_core::fault::{FaultConfig, FaultModel, RecoveryPolicy};
use jact_core::{OffloadStore, Scheme};
use jact_data::synth::{classification_batches, SynthConfig};
use jact_dnn::act::{ActKind, ActivationId, ActivationStore, Context, FaultReport};
use jact_dnn::loss::softmax_cross_entropy;
use jact_dnn::metrics::top1_accuracy;
use jact_dnn::models::build_by_name;
use jact_dnn::optim::{Sgd, SgdConfig};
use jact_dnn::train::{Batch, Trainer};
use jact_dnn::{NetError, PassthroughStore};
use jact_rng::rngs::StdRng;
use jact_rng::SeedableRng;
use jact_tensor::init::seeded_rng;
use jact_tensor::Tensor;
use std::time::Instant;

/// Batch size, classes and batches per cycle (the harness defaults).
pub const BATCH: usize = 8;
const CLASSES: usize = 10;
const CYCLE: usize = 8;
/// Untimed steps that end set-up: pools fill, momentum buffers exist.
const WARMUP_STEPS: usize = 3;
/// Timed steps every run completes whatever `--seconds` says; the exact
/// metrics (`compression_ratio`, `quality_err`) are taken over them so
/// that they do not depend on how many steps fit in the time.  An exact
/// `PassthroughStore` run of the same steps gives the reference loss.
const FIXED_STEPS: usize = 16;

/// One training workload.
pub struct TrainSpec {
    pub model: &'static str,
    /// The harness's learning rates: VGG has no batch norm and needs the
    /// lower one.
    lr: f32,
    scheme: fn() -> Scheme,
    /// Whether offload is lossless, so a passthrough run must match.
    lossless: bool,
    pub convs: &'static [ConvCase],
}

pub const RESNET_JACT: TrainSpec = TrainSpec {
    model: "mini-resnet",
    lr: 0.03,
    scheme: Scheme::jpeg_act_opt_l5h,
    lossless: false,
    convs: probes::RESNET_CONVS,
};

pub const VGG_RAW: TrainSpec = TrainSpec {
    model: "mini-vgg",
    lr: 0.01,
    scheme: Scheme::vdnn,
    lossless: true,
    convs: probes::VGG_CONVS,
};

/// Counts kept at the store boundary, and an optional log of what was
/// saved (the input of the replay probes).
#[derive(Debug, Default, Clone)]
pub struct StoreCounts {
    pub saves: u64,
    /// Loads that crossed the wire (loads served from the store's decoded
    /// copy do not cross the compression boundary again).
    pub loads: u64,
    /// Uncompressed f32 bytes across the boundary, both directions.
    pub raw_bytes: u64,
}

/// Activation-store decorator: counts at the boundary, and records a span
/// around each call when the tracer is on.
pub struct LedgerStore<S> {
    pub inner: S,
    tracer: SharedTracer,
    pub counts: StoreCounts,
    pub log: Option<Vec<(ActKind, Tensor)>>,
}

impl<S: ActivationStore> LedgerStore<S> {
    pub fn new(inner: S, tracer: &SharedTracer) -> Self {
        LedgerStore {
            inner,
            tracer: tracer.clone(),
            counts: StoreCounts::default(),
            log: None,
        }
    }

    fn note_loads(&mut self, wire_loads_before: u64, loaded: &[&Tensor]) {
        if self.inner.fault_report().wire_loads > wire_loads_before {
            self.counts.loads += loaded.len() as u64;
            self.counts.raw_bytes += loaded.iter().map(|t| t.len() as u64 * 4).sum::<u64>();
        }
    }
}

impl<S: ActivationStore + 'static> ActivationStore for LedgerStore<S> {
    fn save(&mut self, id: ActivationId, kind: ActKind, x: &Tensor) {
        self.counts.saves += 1;
        self.counts.raw_bytes += x.len() as u64 * 4;
        if let Some(log) = &mut self.log {
            log.push((kind, x.clone()));
        }
        span(&self.tracer, "core.offload.save", || {
            self.inner.save(id, kind, x)
        });
    }

    fn load(&mut self, id: ActivationId) -> Result<Tensor, NetError> {
        let before = self.inner.fault_report().wire_loads;
        let t = span(&self.tracer, "core.offload.load", || self.inner.load(id))?;
        self.note_loads(before, &[&t]);
        Ok(t)
    }

    // The batch entry points go to the inner store's own (parallel)
    // versions, not to the trait's one-by-one defaults.
    fn save_batch(&mut self, items: Vec<(ActivationId, ActKind, Tensor)>) {
        self.counts.saves += items.len() as u64;
        self.counts.raw_bytes += items
            .iter()
            .map(|(_, _, x)| x.len() as u64 * 4)
            .sum::<u64>();
        span(&self.tracer, "core.offload.save", || {
            self.inner.save_batch(items)
        });
    }

    fn load_batch(&mut self, ids: &[ActivationId]) -> Result<Vec<Tensor>, NetError> {
        let before = self.inner.fault_report().wire_loads;
        let ts = span(&self.tracer, "core.offload.load", || {
            self.inner.load_batch(ids)
        })?;
        self.note_loads(before, &ts.iter().collect::<Vec<_>>());
        Ok(ts)
    }

    fn clear(&mut self) {
        span(&self.tracer, "core.offload.clear", || self.inner.clear());
    }

    fn fault_report(&self) -> FaultReport {
        self.inner.fault_report()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A trainer over its seeded batches, after set-up.
struct Session<'s> {
    trainer: Trainer<'s>,
    batches: Vec<Batch>,
    tracer: SharedTracer,
    /// Loss of every step so far, warm-up included.
    losses: Vec<f64>,
    setup_s: f64,
}

impl Session<'_> {
    /// One op as the program's users run it.
    fn step(&mut self) -> Result<f64, NetError> {
        let start = Instant::now();
        let batch = &self.batches[self.losses.len() % self.batches.len()];
        let (loss, _) = self.trainer.step_classify(batch)?;
        self.losses.push(loss);
        Ok(start.elapsed().as_secs_f64() * 1e3)
    }

    /// The same calls `step_classify` makes, with a span around each.
    fn step_traced(&mut self) -> Result<(), NetError> {
        let t = self.tracer.clone();
        let batch = &self.batches[self.losses.len() % self.batches.len()];
        let tr = &mut self.trainer;
        let loss = span_op(&t, "train.step", || {
            tr.store.clear();
            let logits = span(&t, "dnn.forward", || {
                let mut ctx = Context::new(true, &mut tr.rng, &mut *tr.store);
                tr.net.forward(&batch.images, &mut ctx)
            });
            let (loss, dlogits) = span(&t, "dnn.loss", || {
                let out = softmax_cross_entropy(&logits, &batch.labels);
                let _ = top1_accuracy(&logits, &batch.labels);
                out
            });
            span(&t, "dnn.backward", || {
                let mut ctx = Context::new(true, &mut tr.rng, &mut *tr.store);
                tr.net.backward(&dlogits, &mut ctx).map(drop)
            })?;
            span(&t, "dnn.optim", || tr.opt.step(tr.net.params()));
            tr.store.clear();
            Ok::<f64, NetError>(loss)
        })?;
        self.losses.push(loss);
        Ok(())
    }

    fn store(&mut self) -> &mut LedgerStore<OffloadStore> {
        self.trainer
            .store
            .as_any_mut()
            .downcast_mut()
            .expect("the session installed a LedgerStore<OffloadStore>")
    }
}

/// Set-up: seeded data, seeded model, optimizer, and the warm-up steps.
/// `body` runs with the live session; set-up time is in `setup_s`.
fn with_session<R>(
    spec: &TrainSpec,
    seed: u64,
    warmup: usize,
    tracer: &SharedTracer,
    store: &mut dyn ActivationStore,
    body: impl FnOnce(&mut Session) -> Result<R, NetError>,
) -> Result<R, NetError> {
    let start = Instant::now();
    let data = SynthConfig {
        classes: CLASSES,
        noise: 0.25,
        ..SynthConfig::default()
    };
    let batches = classification_batches(&data, CYCLE, BATCH, seed);
    let net = build_by_name(spec.model, 3, CLASSES, &mut seeded_rng(seed))?;
    let opt = Sgd::new(SgdConfig {
        lr: spec.lr,
        momentum: 0.9,
        weight_decay: 5e-4,
    });
    let mut s = Session {
        trainer: Trainer::new(net, opt, StdRng::seed_from_u64(seed), store),
        batches,
        tracer: tracer.clone(),
        losses: Vec::new(),
        setup_s: 0.0,
    };
    for _ in 0..warmup {
        s.step()?;
    }
    s.setup_s = start.elapsed().as_secs_f64();
    body(&mut s)
}

fn offload_store(spec: &TrainSpec, seed: u64, tracer: &SharedTracer) -> LedgerStore<OffloadStore> {
    LedgerStore::new(
        OffloadStore::through_wire(
            (spec.scheme)(),
            FaultConfig::new(0.0, FaultModel::Mixed, seed),
            RecoveryPolicy::Retry { attempts: 3 },
        ),
        tracer,
    )
}

/// Warm-up and fixed step counts.
fn sizes(plan: &Plan) -> (usize, usize) {
    if plan.quick {
        (1, 1)
    } else {
        (WARMUP_STEPS, FIXED_STEPS)
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(spec: &TrainSpec, seed: u64, plan: &Plan) -> Result<Timed, String> {
    run_inner(spec, seed, plan).map_err(|e| e.to_string())
}

fn run_inner(spec: &TrainSpec, seed: u64, plan: &Plan) -> Result<Timed, NetError> {
    let (warmup, fixed) = sizes(plan);
    let off = Tracer::shared(false);
    let mut out = Timed::default();

    // Set-up is repeated; the last repeat carries on into the timed run.
    let mut warm_losses: Vec<Vec<f64>> = Vec::new();
    let mut losses = Vec::new();
    for repeat in 1..=plan.setups() {
        let mut store = offload_store(spec, seed, &off);
        with_session(spec, seed, warmup, &off, &mut store, |s| {
            out.setup_s.push(s.setup_s);
            warm_losses.push(s.losses.clone());
            if repeat < plan.setups() {
                return Ok(());
            }
            s.store().counts = StoreCounts::default();
            s.store().inner.reset_stats();
            let start = Instant::now();
            while out.op_ms.len() < fixed || start.elapsed().as_secs_f64() < plan.seconds {
                out.op_ms.push(s.step()?);
                if out.op_ms.len() == fixed {
                    out.compression_ratio = s.store().inner.stats().overall_ratio();
                }
            }
            out.wall_s = start.elapsed().as_secs_f64();
            out.raw_bytes = s.store().counts.raw_bytes;
            losses = s.losses.clone();
            Ok(())
        })?;
    }
    // Quality is the loss relative to exact training of the same steps.
    let mut exact = PassthroughStore::new();
    let reference = with_session(spec, seed, warmup + fixed, &off, &mut exact, |s| {
        Ok(s.losses.clone())
    })?;
    let mean = |xs: &[f64]| xs[warmup..warmup + fixed].iter().sum::<f64>() / fixed as f64;
    out.quality_err = mean(&losses) / mean(&reference);

    out.check("loss_finite", losses.iter().all(|l| l.is_finite()));
    out.check(
        "setup_repeats_bit_identical",
        warm_losses.iter().all(|w| bits(w) == bits(&warm_losses[0])),
    );
    if spec.lossless {
        out.check(
            "lossless_offload_equals_passthrough",
            bits(&reference) == bits(&losses[..warmup + fixed]),
        );
    }
    Ok(out)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// The traced run: per-layer metrics.  An untraced and a traced session
/// start from the same seed; their loss sequences must agree bit for bit
/// over the steps both ran.
pub fn run_traced(spec: &TrainSpec, seed: u64, plan: &Plan) -> Result<Traced, String> {
    run_traced_inner(spec, seed, plan).map_err(|e| e.to_string())
}

fn run_traced_inner(spec: &TrainSpec, seed: u64, plan: &Plan) -> Result<Traced, NetError> {
    let (warmup, fixed) = sizes(plan);
    let min_steps = fixed.div_ceil(4);
    let budget = plan.seconds / 3.0;
    let mut out = Traced::default();

    let off = Tracer::shared(false);
    let mut store = offload_store(spec, seed, &off);
    let (plain_ms, plain_losses) = with_session(spec, seed, warmup, &off, &mut store, |s| {
        let mut ms = Vec::new();
        let start = Instant::now();
        while ms.len() < min_steps || start.elapsed().as_secs_f64() < budget {
            ms.push(s.step()?);
        }
        Ok((ms, s.losses.clone()))
    })?;

    let tracer = Tracer::shared(true);
    let mut store = offload_store(spec, seed, &tracer);
    let traced_losses = with_session(spec, seed, warmup, &tracer, &mut store, |s| {
        let pool0 = jact_pool::stats();
        s.store().counts = StoreCounts::default();
        let start = Instant::now();
        let mut steps = 0;
        while steps < min_steps || start.elapsed().as_secs_f64() < budget {
            s.step_traced()?;
            steps += 1;
        }
        probes::report_pool(&mut out, pool0, steps as f64);
        let counts = &s.store().counts;
        out.set("core.offload.saves", (counts.saves / steps as u64) as f64);
        out.set("core.offload.loads", (counts.loads / steps as u64) as f64);
        out.set(
            "core.offload.raw_bytes",
            (counts.raw_bytes / steps as u64) as f64,
        );
        let losses = s.losses.clone();
        // One more step, logged, feeds the replay probes.
        s.store().log = Some(Vec::new());
        s.step()?;
        Ok(losses)
    })?;
    let log = store.log.take().unwrap_or_default();
    let n = plain_losses.len().min(traced_losses.len());
    out.check(
        "traced_losses_equal_untraced",
        bits(&plain_losses[..n]) == bits(&traced_losses[..n]),
    );

    let spans = tracer.borrow().spans().to_vec();
    let f = fold(&spans);
    let save = f.median_ms("core.offload.save");
    let load = f.median_ms("core.offload.load");
    let clear = f.median_ms("core.offload.clear");
    out.set("dnn.forward_ms", f.median_ms("dnn.forward"));
    out.set("dnn.backward_ms", f.median_ms("dnn.backward"));
    out.set("dnn.loss_ms", f.median_ms("dnn.loss"));
    out.set("dnn.optim_ms", f.median_ms("dnn.optim"));
    out.set("core.offload.save_ms", save);
    out.set("core.offload.load_ms", load);
    out.set("core.offload.clear_ms", clear);
    out.set("trace.residual_share", f.residual_share());
    out.set(
        "trace.overhead_share",
        crate::stats::median(&f.root_ms) / crate::stats::median(&plain_ms) - 1.0,
    );

    // Replay one step's saves through the layer functions the store calls.
    let scheme = (spec.scheme)();
    let items: Vec<_> = log
        .iter()
        .map(|(kind, x)| {
            let x4 = probes::to_rank4(x);
            (scheme.codec_for(*kind, x4.shape(), 0), x4)
        })
        .collect();
    let replay = probes::replay_codec(&items, plan.probe_reps());
    replay.report(&mut out, 1.0);
    out.set("core.offload.wire_bytes", replay.wire_bytes as f64);
    out.set(
        "core.offload.unattributed_ms",
        save + load - replay.total_ms(),
    );
    probes::dense_math(spec.convs, BATCH, true, plan.probe_reps()).report(
        &mut out,
        f.median_ms("dnn.forward") + f.median_ms("dnn.backward"),
    );
    out.spans = spans;
    Ok(out)
}

/// The dense spatial activations one seeded `mini-resnet` forward pass
/// saves: the tensors the `serve_offload` tenants offload.
pub fn harvest_dense(seed: u64) -> Result<Vec<Tensor>, NetError> {
    let off = Tracer::shared(false);
    let mut store = LedgerStore::new(PassthroughStore::new(), &off);
    store.log = Some(Vec::new());
    with_session(&RESNET_JACT, seed, 0, &off, &mut store, |s| {
        let tr = &mut s.trainer;
        let mut ctx = Context::new(true, &mut tr.rng, &mut *tr.store);
        tr.net.forward(&s.batches[0].images, &mut ctx);
        Ok(())
    })?;
    Ok(store
        .log
        .take()
        .unwrap_or_default()
        .into_iter()
        .filter(|(k, t)| k.is_dense_spatial() && t.shape().rank() == 4)
        .map(|(_, t)| t)
        .collect())
}
