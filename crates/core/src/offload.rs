//! The compressing offload activation store.
//!
//! [`OffloadStore`] implements `jact-dnn`'s
//! [`ActivationStore`](jact_dnn::act::ActivationStore): each `save`
//! compresses the activation with the codec Table II selects for its kind
//! (see [`Scheme::codec_for`]), modelling the forward-pass offload to CPU
//! memory; each `load` decompresses, modelling the backward-pass prefetch
//! — so all gradient computation downstream consumes the *recovered*
//! activation `x*` (Eqns. 6–8).
//!
//! Rank-2 activations (fully-connected inputs) are viewed as `[N, D, 1, 1]`
//! for codecs that require NCHW, and restored on load.

use crate::fault::{FaultConfig, FaultInjector, RecoveryPolicy};
use crate::method::Scheme;
use crate::stats::CompressionStats;
use jact_codec::pipeline::{Codec, CompressedActivation};
use jact_codec::wire;
use jact_dnn::act::{ActKind, ActivationId, ActivationStore, FaultReport};
use jact_dnn::error::NetError;
use jact_obs as obs;
use jact_tensor::{Shape, Tensor};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Emits the offload save funnel for one compressed activation: the
/// store-wide byte totals plus a per-kind compressed-bytes counter, so a
/// trace can reproduce the Fig. 19 breakdown.  No-op without an open
/// capture.
fn note_save(kind: ActKind, uncompressed: usize, compressed: usize) {
    if !obs::is_active() {
        return;
    }
    obs::count("offload.saves", 1);
    obs::count("offload.bytes_in", uncompressed as u64);
    obs::count("offload.bytes_out", compressed as u64);
    obs::count(&format!("offload.{kind}.bytes_out"), compressed as u64);
}

/// Emits the wire-path counters for one load from the per-delivery
/// [`FaultReport`] delta, joined under the same names the report carries
/// so traces and `CompressionStats` totals line up one-to-one.
fn note_wire_load(frame_bytes: usize, d: &FaultReport) {
    if !obs::is_active() {
        return;
    }
    obs::count("wire.loads", d.wire_loads);
    obs::observe("wire.frame_bytes", frame_bytes as f64);
    // Unrolled so every counter name is a registry literal (JA13): the
    // obs-schema lint checks each emitted name against
    // `crates/obs/obs_schema.txt` at analysis time.
    if d.faults_injected > 0 {
        obs::count("wire.faults_injected", d.faults_injected);
    }
    if d.corrupt_loads > 0 {
        obs::count("wire.corrupt_loads", d.corrupt_loads);
    }
    if d.retried_loads > 0 {
        obs::count("wire.retried_loads", d.retried_loads);
    }
    if d.recovered_loads > 0 {
        obs::count("wire.recovered_loads", d.recovered_loads);
    }
    if d.zero_filled_loads > 0 {
        obs::count("wire.zero_filled_loads", d.zero_filled_loads);
    }
}

/// The one stored form of a saved activation.
enum Stored {
    /// Direct mode, and entries saved before
    /// [`enable_wire`](OffloadStore::enable_wire).
    Memory(CompressedActivation),
    /// Wire mode: the pristine serialized frame every (re)delivery draws
    /// from.  The compressed activation it was written from has already
    /// gone back to the buffer pool.
    Frame(Vec<u8>),
}

struct Entry {
    stored: Stored,
    codec: Box<dyn Codec>,
    original_shape: Shape,
    /// Decompressed cache: a tensor may be consumed by several layers in
    /// one backward pass (aliased keys), and hardware would keep the
    /// prefetched copy in GPU memory for the same reason.
    cache: Option<Tensor>,
}

/// The fault-injectable transport a `through_wire` store loads over.
struct WireChannel {
    injector: FaultInjector,
    policy: RecoveryPolicy,
}

/// Delivers `frame` through the channel's injector, decodes, and applies
/// its policy on corruption.  The six wire counters accumulate into a
/// zeroed per-delivery delta, which is both traced and absorbed into
/// `faults`.
fn wire_load(
    ch: &mut WireChannel,
    codec: &dyn Codec,
    frame: &[u8],
    original_shape: &Shape,
    id: ActivationId,
    faults: &mut FaultReport,
) -> Result<Tensor, NetError> {
    let mut d = FaultReport {
        wire_loads: 1,
        ..FaultReport::default()
    };
    let retries = match ch.policy {
        RecoveryPolicy::Retry { attempts } => attempts,
        _ => 0,
    };
    let mut attempt = 0u32;
    let outcome = loop {
        if attempt > 0 {
            d.retried_loads += 1;
        }
        let (rx, n) = ch.injector.deliver(frame);
        d.faults_injected += n;
        attempt += 1;
        let decoded = wire::deserialize(&rx).and_then(|c| codec.decompress(&c));
        jact_pool::give(rx);
        match decoded {
            Ok(t) => {
                if attempt > 1 {
                    d.recovered_loads += 1;
                }
                break Ok(t);
            }
            Err(err) => {
                if attempt == 1 {
                    d.corrupt_loads += 1;
                }
                if attempt > retries {
                    break Err(err);
                }
            }
        }
    };
    let out = match outcome {
        Ok(t) => Ok(t),
        Err(err) => match ch.policy {
            RecoveryPolicy::ZeroFill => {
                d.recovered_loads += 1;
                d.zero_filled_loads += 1;
                Ok(Tensor::zeros(original_shape.clone()))
            }
            RecoveryPolicy::Fail => Err(NetError::Store {
                id,
                reason: err.to_string(),
            }),
            RecoveryPolicy::Retry { .. } => Err(NetError::RecoveryExhausted {
                id,
                attempts: attempt,
                last_error: err.to_string(),
            }),
        },
    };
    note_wire_load(frame.len(), &d);
    faults.absorb(&d);
    out
}

/// Returns a replaced (or cleared) entry's wire-frame storage to the
/// thread-local buffer pool, so re-saving the same activation id across
/// steps — the steady-state training loop — reuses one frame buffer
/// instead of allocating per step.
fn recycle_entry(evicted: Option<Entry>) {
    if let Some(Entry {
        stored: Stored::Frame(frame),
        ..
    }) = evicted
    {
        jact_pool::give(frame);
    }
}

/// An [`ActivationStore`] that compresses on save / decompresses on load.
///
/// In the default mode, `save` keeps the in-memory
/// [`CompressedActivation`] and `load` decompresses it directly.  In
/// [`through_wire`](Self::through_wire) mode, every save instead keeps the
/// compressed activation serialized as a framed [`wire`] buffer, and every
/// load round-trips that buffer through a seeded [`FaultInjector`] and
/// [`wire::deserialize`] — so the full offload transport, including
/// corruption detection (CRC32, bounds checks) and the configured
/// [`RecoveryPolicy`], is exercised on the training path.
pub struct OffloadStore {
    scheme: Scheme,
    epoch: usize,
    entries: BTreeMap<ActivationId, Entry>,
    stats: CompressionStats,
    wire: Option<WireChannel>,
    /// Per-step sizes for footprint analyses: (kind, unc, comp).
    step_log: Vec<(ActKind, usize, usize)>,
}

impl OffloadStore {
    /// Creates a store for the given scheme.
    pub fn new(scheme: Scheme) -> Self {
        OffloadStore {
            scheme,
            epoch: 0,
            entries: BTreeMap::new(),
            stats: CompressionStats::new(),
            wire: None,
            step_log: Vec::new(),
        }
    }

    /// Creates a store that delivers every load through a fault-injected
    /// wire channel, recovering per `policy`.
    pub fn through_wire(scheme: Scheme, cfg: FaultConfig, policy: RecoveryPolicy) -> Self {
        let mut s = OffloadStore::new(scheme);
        s.enable_wire(cfg, policy);
        s
    }

    /// Switches an existing store into wire mode.  Entries saved before
    /// the switch were never serialized and keep loading over the direct
    /// in-memory path.
    pub fn enable_wire(&mut self, cfg: FaultConfig, policy: RecoveryPolicy) {
        self.wire = Some(WireChannel {
            injector: FaultInjector::new(cfg),
            policy,
        });
    }

    /// Sets the current epoch (drives piece-wise DQT schedules).
    pub fn set_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
    }

    /// The scheme in use.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// Cumulative compression statistics across all saves.
    pub fn stats(&self) -> &CompressionStats {
        &self.stats
    }

    /// Resets the cumulative statistics.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Sizes recorded during the most recent step: `(kind, uncompressed,
    /// compressed)` per saved tensor — the data behind Fig. 19.
    pub fn step_log(&self) -> &[(ActKind, usize, usize)] {
        &self.step_log
    }

    /// Views rank-2 `[N, D]` as `[N, D, 1, 1]` for NCHW-only codecs;
    /// a rank-4 activation is borrowed as it is.
    fn to_rank4(x: &Tensor) -> Cow<'_, Tensor> {
        match x.shape().rank() {
            4 => Cow::Borrowed(x),
            2 => {
                let (n, d) = (x.shape().dim(0), x.shape().dim(1));
                Cow::Owned(x.reshape(Shape::nchw(n, d, 1, 1)))
            }
            _ => Cow::Owned(x.reshape(Shape::nchw(1, x.len(), 1, 1))),
        }
    }
}

impl ActivationStore for OffloadStore {
    fn save(&mut self, id: ActivationId, kind: ActKind, x: &Tensor) {
        let x4 = Self::to_rank4(x);
        let codec = self.scheme.codec_for(kind, x4.shape(), self.epoch);
        let compressed = codec.compress(&x4);
        let (unc, comp) = (compressed.uncompressed_bytes(), compressed.compressed_bytes());
        self.stats.record(kind, unc, comp);
        self.step_log.push((kind, unc, comp));
        note_save(kind, unc, comp);
        let stored = if self.wire.is_some() {
            let frame = wire::serialize(&compressed);
            compressed.recycle();
            if obs::is_active() {
                obs::count("wire.frames", 1);
                obs::count("wire.frame_bytes_out", frame.len() as u64);
            }
            Stored::Frame(frame)
        } else {
            Stored::Memory(compressed)
        };
        let evicted = self.entries.insert(
            id,
            Entry {
                stored,
                codec,
                original_shape: x.shape().clone(),
                cache: None,
            },
        );
        recycle_entry(evicted);
    }

    fn load(&mut self, id: ActivationId) -> Result<Tensor, NetError> {
        let e = self
            .entries
            .get_mut(&id)
            .ok_or(NetError::MissingActivation(id))?;
        if let Some(t) = &e.cache {
            if obs::is_active() {
                obs::count("offload.cache_hits", 1);
            }
            return Ok(t.clone());
        }
        if obs::is_active() {
            obs::count("offload.loads", 1);
        }
        let t = match (&e.stored, &mut self.wire) {
            (Stored::Frame(frame), Some(ch)) => wire_load(
                ch,
                e.codec.as_ref(),
                frame,
                &e.original_shape,
                id,
                self.stats.faults_mut(),
            )?,
            // A frame is only ever written by a store that has a channel,
            // and the channel is never taken away again.
            (Stored::Frame(_), None) => {
                return Err(NetError::Store {
                    id,
                    reason: "wire frame stored without a wire channel".to_string(),
                })
            }
            (Stored::Memory(c), _) => e.codec.decompress(c).map_err(|err| NetError::Store {
                id,
                reason: err.to_string(),
            })?,
        };
        let t = t.reshape(e.original_shape.clone());
        e.cache = Some(t.clone());
        Ok(t)
    }

    fn clear(&mut self) {
        for (_, e) in std::mem::take(&mut self.entries) {
            recycle_entry(Some(e));
        }
        self.step_log.clear();
    }

    fn fault_report(&self) -> FaultReport {
        *self.stats.faults()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth(shape: Shape) -> Tensor {
        let data = (0..shape.len())
            .map(|i| ((i % 32) as f32 * 0.2).sin() + 0.3)
            .collect();
        Tensor::from_vec(shape, data)
    }

    fn sparse(shape: Shape) -> Tensor {
        let data = (0..shape.len())
            .map(|i| if i % 3 == 0 { (i % 11) as f32 * 0.1 } else { 0.0 })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn vdnn_store_is_exact() {
        let mut s = OffloadStore::new(Scheme::vdnn());
        let x = smooth(Shape::nchw(2, 3, 8, 8));
        s.save(1, ActKind::Conv, &x);
        assert_eq!(s.load(1).unwrap(), x);
        assert_eq!(s.stats().overall_ratio(), 1.0);
    }

    #[test]
    fn jpeg_act_store_compresses_with_bounded_error() {
        let mut s = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        s.save(1, ActKind::Conv, &x);
        let rec = s.load(1).unwrap();
        assert!(x.mse(&rec) < 1e-2, "mse={}", x.mse(&rec));
        assert!(s.stats().overall_ratio() > 2.0);
    }

    #[test]
    fn rank2_roundtrip() {
        let mut s = OffloadStore::new(Scheme::sfpr());
        let x = smooth(Shape::mat(4, 64));
        s.save(2, ActKind::Linear, &x);
        let rec = s.load(2).unwrap();
        assert_eq!(rec.shape(), x.shape());
        // 8-bit quantization plus the intentional S=1.125 clipping of the
        // top of each channel's range.
        assert!(x.mse(&rec) < 2e-2, "mse={}", x.mse(&rec));
    }

    #[test]
    fn load_is_cached_and_repeatable() {
        let mut s = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
        let x = smooth(Shape::nchw(1, 8, 8, 8));
        s.save(3, ActKind::Sum, &x);
        let a = s.load(3).unwrap();
        let b = s.load(3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn epoch_changes_dqt() {
        let mut s = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
        let x = smooth(Shape::nchw(1, 8, 16, 16));
        s.save(1, ActKind::Conv, &x);
        let early = s.stats().total_compressed();
        s.clear();
        s.reset_stats();
        s.set_epoch(10);
        s.save(1, ActKind::Conv, &x);
        let late = s.stats().total_compressed();
        assert!(late < early, "optH ({late}) should beat optL ({early})");
    }

    #[test]
    fn brc_load_returns_binary_surrogate() {
        let mut s = OffloadStore::new(Scheme::gist());
        let x = sparse(Shape::nchw(1, 2, 8, 8));
        s.save(4, ActKind::ReluToOther, &x);
        let rec = s.load(4).unwrap();
        for (a, b) in x.iter().zip(rec.iter()) {
            assert_eq!(*a > 0.0, *b == 1.0);
        }
    }

    #[test]
    fn stats_accumulate_across_steps_but_log_resets() {
        let mut s = OffloadStore::new(Scheme::sfpr());
        let x = smooth(Shape::nchw(1, 2, 8, 8));
        s.save(1, ActKind::Conv, &x);
        s.clear();
        s.save(1, ActKind::Conv, &x);
        assert_eq!(s.step_log().len(), 1);
        let conv = s.stats().by_kind().next().unwrap().1;
        assert_eq!(conv.count, 2);
    }

    #[test]
    fn missing_id_is_a_typed_error() {
        let mut s = OffloadStore::new(Scheme::vdnn());
        assert_eq!(s.load(9).unwrap_err(), NetError::MissingActivation(9));
    }

    use crate::fault::{FaultConfig, FaultModel, RecoveryPolicy};

    #[test]
    fn wire_mode_without_faults_matches_direct_path() {
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        let mut direct = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
        direct.save(1, ActKind::Conv, &x);
        let mut wired = OffloadStore::through_wire(
            Scheme::jpeg_act_opt_l5h(),
            FaultConfig::new(0.0, FaultModel::Mixed, 1),
            RecoveryPolicy::Fail,
        );
        wired.save(1, ActKind::Conv, &x);
        assert_eq!(direct.load(1).unwrap(), wired.load(1).unwrap());
        let f = wired.fault_report();
        assert_eq!(f.wire_loads, 1);
        assert_eq!(f.corrupt_loads, 0);
        assert_eq!(f.faults_injected, 0);
    }

    #[test]
    fn fail_policy_surfaces_corruption_as_store_error() {
        // Rate 0.05/byte over a multi-KiB frame: corruption is certain.
        let mut s = OffloadStore::through_wire(
            Scheme::sfpr(),
            FaultConfig::new(0.05, FaultModel::BitFlip, 2),
            RecoveryPolicy::Fail,
        );
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        s.save(1, ActKind::Conv, &x);
        match s.load(1) {
            Err(NetError::Store { id: 1, .. }) => {}
            other => panic!("expected Store error, got {other:?}"),
        }
        let f = s.fault_report();
        assert_eq!(f.corrupt_loads, 1);
        assert_eq!(f.recovered_loads, 0);
    }

    #[test]
    fn zero_fill_recovers_with_zero_tensor() {
        let mut s = OffloadStore::through_wire(
            Scheme::sfpr(),
            FaultConfig::new(0.05, FaultModel::BitFlip, 3),
            RecoveryPolicy::ZeroFill,
        );
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        s.save(1, ActKind::Conv, &x);
        let rec = s.load(1).unwrap();
        assert_eq!(rec.shape(), x.shape());
        assert!(rec.iter().all(|&v| v == 0.0));
        let f = s.fault_report();
        assert_eq!(f.corrupt_loads, 1);
        assert_eq!(f.recovered_loads, 1);
        assert_eq!(f.zero_filled_loads, 1);
    }

    #[test]
    fn retry_recovers_under_intermittent_faults() {
        // ~0.3 faults per delivery: most retries find a clean window.
        let mut s = OffloadStore::through_wire(
            Scheme::sfpr(),
            FaultConfig::new(0.3 / 2200.0, FaultModel::BitFlip, 4),
            RecoveryPolicy::Retry { attempts: 50 },
        );
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        let mut corrupt_seen = 0;
        for id in 0..20u64 {
            s.save(id, ActKind::Conv, &x);
            let rec = s.load(id).expect("retry budget ample");
            assert_eq!(rec.shape(), x.shape());
            // Recovered loads are real decodes, never zero-filled.
            assert!(rec.iter().any(|&v| v != 0.0));
            corrupt_seen = s.fault_report().corrupt_loads;
        }
        let f = s.fault_report();
        assert!(corrupt_seen > 0, "fault rate should corrupt some loads");
        assert_eq!(f.recovered_loads, f.corrupt_loads);
        assert!(f.retried_loads >= f.corrupt_loads);
        assert_eq!(f.zero_filled_loads, 0);
    }

    #[test]
    fn retry_exhaustion_is_typed() {
        // Heavy corruption with a tiny retry budget must exhaust.
        let mut s = OffloadStore::through_wire(
            Scheme::sfpr(),
            FaultConfig::new(0.05, FaultModel::BitFlip, 5),
            RecoveryPolicy::Retry { attempts: 2 },
        );
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        s.save(1, ActKind::Conv, &x);
        match s.load(1) {
            Err(NetError::RecoveryExhausted { id: 1, attempts: 3, .. }) => {}
            other => panic!("expected RecoveryExhausted, got {other:?}"),
        }
        assert_eq!(s.fault_report().retried_loads, 2);
    }

    #[test]
    fn wire_load_is_cached_like_direct_load() {
        let mut s = OffloadStore::through_wire(
            Scheme::vdnn(),
            FaultConfig::new(0.0, FaultModel::Mixed, 6),
            RecoveryPolicy::Fail,
        );
        let x = smooth(Shape::nchw(1, 2, 8, 8));
        s.save(1, ActKind::Conv, &x);
        let a = s.load(1).unwrap();
        let b = s.load(1).unwrap();
        assert_eq!(a, b);
        // Second load hit the cache, not the wire.
        assert_eq!(s.fault_report().wire_loads, 1);
    }

    #[test]
    fn enabling_wire_late_keeps_old_entries_loadable() {
        let mut s = OffloadStore::new(Scheme::sfpr());
        let x = smooth(Shape::nchw(1, 2, 8, 8));
        s.save(1, ActKind::Conv, &x);
        s.enable_wire(
            FaultConfig::new(0.05, FaultModel::BitFlip, 7),
            RecoveryPolicy::Fail,
        );
        // Entry predates wire mode: never serialized, direct decode.
        assert!(s.load(1).is_ok());
        assert_eq!(s.fault_report().wire_loads, 0);
        // Only entries saved after the switch cross the wire (and, at
        // this fault rate under `Fail`, do not survive it).
        s.save(2, ActKind::Conv, &x);
        assert!(s.load(2).is_err());
        assert!(s.load(1).is_ok());
        assert_eq!(s.fault_report().wire_loads, 1);
    }

    #[test]
    fn wire_save_returns_payload_buffers_to_the_pool() {
        // A wire-mode entry keeps the frame alone: once serialized, the
        // compressed activation's planes go back to the pool, so saving
        // the same id again is served from the shelves.
        let mut s = OffloadStore::through_wire(
            Scheme::sfpr(),
            FaultConfig::new(0.0, FaultModel::Mixed, 9),
            RecoveryPolicy::Fail,
        );
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        jact_pool::clear_thread();
        let misses_of_a_save = |s: &mut OffloadStore| {
            jact_pool::reset_stats();
            s.save(1, ActKind::Conv, &x);
            jact_pool::stats().misses
        };
        let first = misses_of_a_save(&mut s);
        let second = misses_of_a_save(&mut s);
        assert!(first > 0, "a cold pool serves nothing");
        assert!(second <= first, "second save missed {second}, first {first}");
        // The replaced entry's frame is given back after the new one is
        // written, so from the third save on nothing is allocated.
        assert_eq!(misses_of_a_save(&mut s), 0);
    }

    #[test]
    fn save_batch_matches_sequential_saves() {
        let items: Vec<(ActivationId, ActKind, Tensor)> = vec![
            (1, ActKind::Conv, smooth(Shape::nchw(2, 4, 16, 16))),
            (2, ActKind::ReluToOther, sparse(Shape::nchw(1, 4, 16, 16))),
            (3, ActKind::Linear, smooth(Shape::mat(4, 64))),
            (4, ActKind::Pool, smooth(Shape::nchw(1, 2, 8, 8))),
        ];
        let mut seq = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
        for (id, kind, x) in &items {
            seq.save(*id, *kind, x);
        }
        for threads in [1usize, 2, 8] {
            let mut bat = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
            jact_par::with_threads(threads, || bat.save_batch(items.clone()));
            assert_eq!(bat.step_log(), seq.step_log(), "threads={threads}");
            assert_eq!(
                bat.stats().total_compressed(),
                seq.stats().total_compressed(),
                "threads={threads}"
            );
            for (id, _, _) in &items {
                assert_eq!(bat.load(*id).unwrap(), seq.load(*id).unwrap());
            }
        }
    }

    #[test]
    fn load_batch_matches_sequential_loads_direct_mode() {
        let mut s = OffloadStore::new(Scheme::jpeg_act_opt_l5h());
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        let y = smooth(Shape::mat(4, 64));
        s.save(1, ActKind::Conv, &x);
        s.save(2, ActKind::Linear, &y);
        let a = s.load(1).unwrap();
        let b = s.load(2).unwrap();
        s.clear();
        s.save(1, ActKind::Conv, &x);
        s.save(2, ActKind::Linear, &y);
        for threads in [1usize, 2, 8] {
            let got =
                jact_par::with_threads(threads, || s.load_batch(&[2, 1, 2]).unwrap());
            assert_eq!(got, vec![b.clone(), a.clone(), b.clone()], "threads={threads}");
        }
    }

    #[test]
    fn wire_load_batch_is_thread_count_invariant() {
        // ZeroFill at a rate where some frames corrupt and some survive:
        // tensors and all six counters must be identical for any thread
        // count because each id's channel derives from (seed, id) alone.
        let run = |threads: usize| {
            let mut s = OffloadStore::through_wire(
                Scheme::sfpr(),
                FaultConfig::new(0.5 / 2200.0, FaultModel::Mixed, 21),
                RecoveryPolicy::ZeroFill,
            );
            let items: Vec<(ActivationId, ActKind, Tensor)> = (0..12u64)
                .map(|id| (id, ActKind::Conv, smooth(Shape::nchw(2, 4, 16, 16))))
                .collect();
            let ids: Vec<ActivationId> = items.iter().map(|(id, _, _)| *id).collect();
            jact_par::with_threads(threads, || {
                s.save_batch(items);
                let got = s.load_batch(&ids).unwrap();
                (got, s.fault_report())
            })
        };
        let (t1, f1) = run(1);
        for threads in [2usize, 8] {
            let (t, f) = run(threads);
            assert_eq!(t, t1, "tensors differ at threads={threads}");
            assert_eq!(f, f1, "fault counters differ at threads={threads}");
        }
        assert_eq!(f1.wire_loads, 12);
    }

    #[test]
    fn load_batch_error_is_first_failing_requested_id() {
        // Heavy corruption + Fail policy: every wire load fails; the
        // error must name the first id in *request* order.
        let mut s = OffloadStore::through_wire(
            Scheme::sfpr(),
            FaultConfig::new(0.05, FaultModel::BitFlip, 22),
            RecoveryPolicy::Fail,
        );
        let x = smooth(Shape::nchw(2, 4, 16, 16));
        s.save(1, ActKind::Conv, &x);
        s.save(2, ActKind::Conv, &x);
        match s.load_batch(&[2, 1]) {
            Err(NetError::Store { id: 2, .. }) => {}
            other => panic!("expected Store error for id 2, got {other:?}"),
        }
    }

    #[test]
    fn load_batch_missing_id_reported_before_any_decode() {
        let mut s = OffloadStore::new(Scheme::vdnn());
        let x = smooth(Shape::nchw(1, 2, 8, 8));
        s.save(1, ActKind::Conv, &x);
        assert_eq!(
            s.load_batch(&[1, 9]).unwrap_err(),
            NetError::MissingActivation(9)
        );
        // The failed batch must not have consumed the cache path.
        assert!(s.load_batch(&[1]).is_ok());
    }

    #[test]
    fn load_batch_skips_cached_entries_on_the_wire() {
        let mut s = OffloadStore::through_wire(
            Scheme::vdnn(),
            FaultConfig::new(0.0, FaultModel::Mixed, 23),
            RecoveryPolicy::Fail,
        );
        let x = smooth(Shape::nchw(1, 2, 8, 8));
        s.save(1, ActKind::Conv, &x);
        s.save(2, ActKind::Conv, &x);
        let single = s.load(1).unwrap();
        let got = s.load_batch(&[1, 2]).unwrap();
        assert_eq!(got[0], single);
        // id 1 was cached by the single load: only id 2 crossed the wire
        // during the batch.
        assert_eq!(s.fault_report().wire_loads, 2);
    }

    #[test]
    fn trace_counters_join_fault_report_and_stats() {
        // The obs wire counters are emitted from the same per-delivery
        // deltas that feed the cumulative FaultReport, so the trace and
        // the report must agree exactly — as must the offload byte funnel
        // and CompressionStats.
        let ids: Vec<ActivationId> = (0..8u64).collect();
        let ((report, stats), trace) = obs::collect_with(false, || {
            let mut s = OffloadStore::through_wire(
                Scheme::sfpr(),
                FaultConfig::new(0.5 / 2200.0, FaultModel::Mixed, 21),
                RecoveryPolicy::ZeroFill,
            );
            let items: Vec<(ActivationId, ActKind, Tensor)> = ids
                .iter()
                .map(|&id| (id, ActKind::Conv, smooth(Shape::nchw(2, 4, 16, 16))))
                .collect();
            s.save_batch(items);
            s.load_batch(&ids).unwrap();
            (s.fault_report(), s.stats().clone())
        });
        let totals = trace.counter_totals();
        let total = |name: &str| totals.get(name).copied().unwrap_or(0);
        assert_eq!(total("offload.saves"), ids.len() as u64);
        assert_eq!(total("offload.loads"), ids.len() as u64);
        assert_eq!(total("offload.bytes_in"), stats.total_uncompressed());
        assert_eq!(total("offload.bytes_out"), stats.total_compressed());
        assert_eq!(total("wire.frames"), ids.len() as u64);
        assert_eq!(total("wire.loads"), report.wire_loads);
        assert_eq!(total("wire.faults_injected"), report.faults_injected);
        assert_eq!(total("wire.corrupt_loads"), report.corrupt_loads);
        assert_eq!(total("wire.retried_loads"), report.retried_loads);
        assert_eq!(total("wire.recovered_loads"), report.recovered_loads);
        assert_eq!(total("wire.zero_filled_loads"), report.zero_filled_loads);
        // Per-kind funnel: a conv-only run puts every byte under conv.
        assert_eq!(total("offload.conv.bytes_out"), stats.total_compressed());
    }

    #[test]
    fn wire_roundtrips_every_scheme_kind() {
        // Each scheme exercises different payload variants over the wire.
        for scheme in [
            Scheme::vdnn(),
            Scheme::cdma_plus(),
            Scheme::gist(),
            Scheme::sfpr(),
            Scheme::jpeg_base(75),
            Scheme::jpeg_act_opt_l5h(),
        ] {
            let mut s = OffloadStore::through_wire(
                scheme,
                FaultConfig::new(0.0, FaultModel::Mixed, 8),
                RecoveryPolicy::Fail,
            );
            let x = sparse(Shape::nchw(1, 4, 16, 16));
            for (id, kind) in [
                (1u64, ActKind::Conv),
                (2, ActKind::ReluToOther),
                (3, ActKind::Linear),
                (4, ActKind::Pool),
            ] {
                s.save(id, kind, &x);
                let rec = s.load(id).expect("fault-free wire load");
                assert_eq!(rec.shape(), x.shape());
            }
        }
    }
}
