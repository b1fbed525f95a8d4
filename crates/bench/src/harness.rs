//! End-to-end training runners: "train network N under compression
//! scheme S, report score and compression ratio" — the engine behind
//! Table I and Figs. 1b, 17, 18, 19.

use crate::store::RecordingStore;
use jact_core::fault::{FaultConfig, RecoveryPolicy};
use jact_core::{OffloadStore, Scheme};
use jact_data::synth::{classification_batches, SynthConfig};
use jact_data::sr::sr_batches;
use jact_dnn::act::{ActivationStore, FaultReport};
use jact_dnn::error::NetError;
use jact_dnn::models;
use jact_dnn::optim::{Sgd, SgdConfig};
use jact_dnn::train::Trainer;
use jact_tensor::init::seeded_rng;
use jact_tensor::Tensor;
use jact_rng::SeedableRng;

/// Training configuration for one experiment cell.
#[derive(Debug, Clone, Copy)]
pub struct TrainCfg {
    /// Training epochs.
    pub epochs: usize,
    /// Batches per epoch.
    pub train_batches: usize,
    /// Validation batches.
    pub val_batches: usize,
    /// Batch size.
    pub batch_size: usize,
    /// Classes for classification tasks.
    pub classes: usize,
    /// RNG seed shared by model init and data.
    pub seed: u64,
}

impl TrainCfg {
    /// The default experiment scale (minutes of CPU per cell).
    pub fn standard() -> Self {
        TrainCfg {
            epochs: 6,
            train_batches: 10,
            val_batches: 8,
            batch_size: 8,
            classes: 10,
            seed: 42,
        }
    }

    /// Smoke-test scale.
    pub fn quick() -> Self {
        TrainCfg {
            epochs: 2,
            train_batches: 2,
            val_batches: 1,
            batch_size: 4,
            classes: 4,
            seed: 42,
        }
    }

    /// Picks scale from the environment (`JACT_QUICK=1`).
    pub fn from_env() -> Self {
        if crate::quick_mode() {
            Self::quick()
        } else {
            Self::standard()
        }
    }
}

/// Result of one (network, scheme) training cell.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Best validation score (top-1 accuracy, or PSNR for VDSR).
    pub best_score: f64,
    /// Average compression ratio across the run (Table I brackets).
    pub ratio: f64,
    /// `true` if training diverged (NaN loss or chance-level collapse).
    pub diverged: bool,
    /// Per-epoch validation scores (Fig. 17's time axis).
    pub epoch_scores: Vec<f64>,
}

/// The run both classifier entry points share: seeded data and model,
/// the per-model learning rate, SGD with its late decay, and the epoch
/// loop over `store`.  `diverged` covers a non-finite loss only and
/// `ratio` is left at 1.0 — the caller owns the store and fills it in.
fn run_classifier(
    model: &str,
    cfg: &TrainCfg,
    store: &mut dyn ActivationStore,
) -> Result<TrainResult, NetError> {
    let data_cfg = SynthConfig {
        classes: cfg.classes,
        // Enough pixel noise that the task does not saturate at this
        // scale — accuracy deltas between schemes stay visible.
        noise: 0.25,
        ..Default::default()
    };
    let train = classification_batches(&data_cfg, cfg.train_batches, cfg.batch_size, cfg.seed);
    let val = classification_batches(&data_cfg, cfg.val_batches, cfg.batch_size, cfg.seed + 999);

    let mut mrng = seeded_rng(cfg.seed);
    let net = models::build_by_name(model, 3, cfg.classes, &mut mrng).expect("registered model");
    // VGG has no batch norm: it needs the lower classic-VGG learning
    // rate or its ReLUs die (the real VGG-16 trained at 0.01 too).
    let lr = if model == "mini-vgg" { 0.01 } else { 0.03 };
    let opt = Sgd::new(SgdConfig {
        lr,
        momentum: 0.9,
        weight_decay: 5e-4,
    })
    .with_schedule(&[cfg.epochs.saturating_sub(2)], 0.2);

    let mut trainer = Trainer::new(net, opt, jact_rng::rngs::StdRng::seed_from_u64(cfg.seed), store);
    let mut best = 0.0f64;
    let mut diverged = false;
    let mut epoch_scores = Vec::new();
    for e in 0..cfg.epochs {
        if let Some(s) = trainer.store.as_any_mut().downcast_mut::<OffloadStore>() {
            s.set_epoch(e);
        }
        let stats = trainer.train_epoch_classify(e, &train)?;
        let v = trainer.evaluate_classify(&val);
        epoch_scores.push(v);
        best = best.max(v);
        if !stats.loss.is_finite() {
            diverged = true;
            break;
        }
    }
    Ok(TrainResult {
        best_score: best,
        ratio: 1.0,
        diverged,
        epoch_scores,
    })
}

/// Trains a classification model under a compression scheme.
///
/// `scheme = None` trains with exact (uncompressed) storage — the Table I
/// "Baseline" column.
pub fn train_classifier(model: &str, scheme: Option<Scheme>, cfg: &TrainCfg) -> TrainResult {
    let mut offload = scheme.map(OffloadStore::new);
    let mut exact = jact_dnn::act::PassthroughStore::new();
    let store: &mut dyn ActivationStore = match offload.as_mut() {
        Some(s) => s,
        None => &mut exact,
    };
    let mut r = run_classifier(model, cfg, store).expect("activations present");
    // Chance-level collapse after training counts as divergence (Table I
    // asterisks).
    let chance = 1.0 / cfg.classes as f64;
    if *r.epoch_scores.last().unwrap_or(&0.0) < chance * 1.05 && r.best_score > chance * 1.5 {
        r.diverged = true;
    }
    if let Some(s) = &offload {
        r.ratio = s.stats().overall_ratio();
    }
    r
}

/// Trains a classifier with the offload store in `through_wire` mode:
/// every activation load crosses the fault-injected wire and recovers
/// per `policy`.  Returns the training result plus the cumulative fault
/// report, or the first unrecovered [`NetError`].
///
/// # Errors
///
/// Under [`RecoveryPolicy::Fail`] (or an exhausted
/// [`RecoveryPolicy::Retry`] budget) the first detected-corrupt load
/// aborts the run with its typed error; [`RecoveryPolicy::ZeroFill`]
/// never errors.
pub fn train_classifier_faulty(
    model: &str,
    scheme: Scheme,
    fault: FaultConfig,
    policy: RecoveryPolicy,
    cfg: &TrainCfg,
) -> Result<(TrainResult, FaultReport), NetError> {
    let mut store = OffloadStore::through_wire(scheme, fault, policy);
    let mut r = run_classifier(model, cfg, &mut store)?;
    r.ratio = store.stats().overall_ratio();
    Ok((r, store.fault_report()))
}

/// Trains the VDSR super-resolution model under a scheme; score is PSNR.
pub fn train_vdsr(scheme: Option<Scheme>, cfg: &TrainCfg) -> TrainResult {
    let size = 32usize;
    let train = sr_batches(cfg.train_batches, cfg.batch_size, 3, size, cfg.seed);
    let val = sr_batches(cfg.val_batches, cfg.batch_size, 3, size, cfg.seed + 999);

    let mut mrng = seeded_rng(cfg.seed);
    let net = models::vdsr(3, 16, 5, &mut mrng);
    let opt = Sgd::new(SgdConfig {
        lr: 0.01,
        momentum: 0.9,
        weight_decay: 0.0,
    });

    let mut offload = scheme.map(OffloadStore::new);
    let mut exact = jact_dnn::act::PassthroughStore::new();
    let store: &mut dyn ActivationStore = match offload.as_mut() {
        Some(s) => s,
        None => &mut exact,
    };
    let mut trainer = Trainer::new(net, opt, jact_rng::rngs::StdRng::seed_from_u64(cfg.seed), store);

    let mut best = 0.0f64;
    let mut diverged = false;
    let mut epoch_scores = Vec::new();
    for e in 0..cfg.epochs {
        if let Some(s) = trainer.store.as_any_mut().downcast_mut::<OffloadStore>() {
            s.set_epoch(e);
        }
        let stats = trainer.train_epoch_sr(e, &train).expect("activations present");
        let v = trainer.evaluate_sr(&val);
        epoch_scores.push(v);
        best = best.max(v);
        if !stats.loss.is_finite() {
            diverged = true;
            break;
        }
    }
    let ratio = offload
        .as_ref()
        .map(|s| s.stats().overall_ratio())
        .unwrap_or(1.0);
    TrainResult {
        best_score: best,
        ratio,
        diverged,
        epoch_scores,
    }
}

/// Harvests activations from a briefly-trained model: runs `warmup_steps`
/// training steps exactly, then records every save of one more step.
///
/// Returns `(kind, tensor)` pairs in save order — the sample set for the
/// DQT optimizer and the entropy/rate-distortion figures.
pub fn harvest_activations(
    model: &str,
    warmup_steps: usize,
    cfg: &TrainCfg,
) -> Vec<(jact_dnn::act::ActKind, Tensor)> {
    let data_cfg = SynthConfig {
        classes: cfg.classes,
        ..Default::default()
    };
    let batches = classification_batches(
        &data_cfg,
        warmup_steps.max(1) + 1,
        cfg.batch_size,
        cfg.seed,
    );
    let mut mrng = seeded_rng(cfg.seed);
    let net = models::build_by_name(model, 3, cfg.classes, &mut mrng).expect("registered model");
    let opt = Sgd::new(SgdConfig {
        lr: 0.03,
        momentum: 0.9,
        weight_decay: 5e-4,
    });
    let mut store = RecordingStore::new();
    let mut trainer = Trainer::new(net, opt, jact_rng::rngs::StdRng::seed_from_u64(cfg.seed), &mut store);
    for b in &batches[..warmup_steps] {
        let _ = trainer.step_classify(b).expect("activations present");
    }
    // The recording store's log accumulated every warmup step; keep only
    // the final step's worth.
    trainer
        .store
        .as_any_mut()
        .downcast_mut::<RecordingStore>()
        .expect("harness installed a RecordingStore")
        .take_log();
    let _ = trainer.step_classify(&batches[warmup_steps]).expect("activations present");
    trainer
        .store
        .as_any_mut()
        .downcast_mut::<RecordingStore>()
        .expect("harness installed a RecordingStore")
        .take_log()
}

/// Dense spatial activations harvested from a model (the DQT optimizer's
/// and rate/distortion figures' sample set).
pub fn harvest_dense(model: &str, warmup_steps: usize, cfg: &TrainCfg) -> Vec<Tensor> {
    harvest_activations(model, warmup_steps, cfg)
        .into_iter()
        .filter(|(k, t)| k.is_dense_spatial() && t.shape().rank() == 4)
        .map(|(_, t)| t)
        .collect()
}
