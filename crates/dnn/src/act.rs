//! Activation memoization: the seam where offload compression plugs in.
//!
//! During the forward pass each layer saves the activations its backward
//! pass will need (Sec. II-A); during the backward pass it loads them
//! back.  The [`ActivationStore`] trait abstracts that storage:
//!
//! * [`PassthroughStore`] keeps exact tensors (the uncompressed baseline);
//! * `jact-core`'s `OffloadStore` compresses on save and decompresses on
//!   load, so every backward computation sees the *recovered* activation
//!   `x*` — precisely how lossy compression perturbs training (Eqns. 6–9).
//!
//! Saved activations are tagged with an [`ActKind`] so the store can apply
//! the paper's per-type method selection (Table II).

use crate::error::NetError;
use jact_tensor::Tensor;
use std::collections::BTreeMap;

/// Unique key of one saved activation tensor.
///
/// Keys are allocated by model builders; aliasing two layers to one key
/// expresses "this tensor is saved once and consumed by both" (e.g. a
/// ReLU output that is also the next conv's input).
pub type ActivationId = u64;

/// What kind of activation a saved tensor is — the classification driving
/// the paper's compression method selection (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActKind {
    /// Dense convolution input (output of a norm/ReLU chain head).
    Conv,
    /// Dense activation produced by a residual addition, consumed by conv.
    Sum,
    /// Batch-norm input (the conv output in a CNR block).
    Norm,
    /// ReLU output whose consumer is a convolution (values needed).
    ReluToConv,
    /// ReLU output whose consumers need only the sign (BRC-eligible).
    ReluToOther,
    /// Pooling input/output.
    Pool,
    /// Dropout output (sparse).
    Dropout,
    /// Fully-connected layer input (2-D).
    Linear,
}

impl ActKind {
    /// `true` for the dense kinds the JPEG pipelines target (`conv` and
    /// `sum` activations with spatial extent; Table II).
    pub fn is_dense_spatial(self) -> bool {
        matches!(self, ActKind::Conv | ActKind::Sum | ActKind::Norm)
    }
}

impl std::fmt::Display for ActKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ActKind::Conv => "conv",
            ActKind::Sum => "sum",
            ActKind::Norm => "norm",
            ActKind::ReluToConv => "relu(to conv)",
            ActKind::ReluToOther => "relu(to other)",
            ActKind::Pool => "pool",
            ActKind::Dropout => "dropout",
            ActKind::Linear => "linear",
        };
        f.write_str(s)
    }
}

/// Counters describing what the offload wire path observed: how many
/// loads crossed the (possibly faulty) wire, how many arrived corrupt,
/// and how each corruption was resolved.
///
/// Stores that do not model a wire (e.g. [`PassthroughStore`]) report
/// all-zero counters via the default
/// [`ActivationStore::fault_report`] implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Loads delivered through the serialized wire path.
    pub wire_loads: u64,
    /// Individual fault events injected into delivered frames.
    pub faults_injected: u64,
    /// Deliveries detected as corrupt (typed decode error).
    pub corrupt_loads: u64,
    /// Redeliveries attempted from the shadow copy.
    pub retried_loads: u64,
    /// Corrupt loads ultimately recovered (by retry or zero-fill).
    pub recovered_loads: u64,
    /// Recovered loads that were replaced by an all-zero tensor.
    pub zero_filled_loads: u64,
}

impl FaultReport {
    /// Counter-wise difference `self - earlier` (saturating), for
    /// per-epoch deltas over cumulative counters.
    pub fn delta_since(&self, earlier: &FaultReport) -> FaultReport {
        FaultReport {
            wire_loads: self.wire_loads.saturating_sub(earlier.wire_loads),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            corrupt_loads: self.corrupt_loads.saturating_sub(earlier.corrupt_loads),
            retried_loads: self.retried_loads.saturating_sub(earlier.retried_loads),
            recovered_loads: self.recovered_loads.saturating_sub(earlier.recovered_loads),
            zero_filled_loads: self
                .zero_filled_loads
                .saturating_sub(earlier.zero_filled_loads),
        }
    }

    /// Counter-wise accumulation of `delta` into `self`, for merging one
    /// load's counters into a store's cumulative ones.
    pub fn absorb(&mut self, delta: &FaultReport) {
        self.wire_loads += delta.wire_loads;
        self.faults_injected += delta.faults_injected;
        self.corrupt_loads += delta.corrupt_loads;
        self.retried_loads += delta.retried_loads;
        self.recovered_loads += delta.recovered_loads;
        self.zero_filled_loads += delta.zero_filled_loads;
    }

    /// Fraction of wire loads that arrived corrupt (0 when no wire loads).
    pub fn corruption_rate(&self) -> f64 {
        if self.wire_loads == 0 {
            0.0
        } else {
            self.corrupt_loads as f64 / self.wire_loads as f64
        }
    }

    /// Fraction of corrupt loads that were recovered (1 when none were
    /// corrupt — nothing needed recovery).
    pub fn recovery_rate(&self) -> f64 {
        if self.corrupt_loads == 0 {
            1.0
        } else {
            self.recovered_loads as f64 / self.corrupt_loads as f64
        }
    }
}

impl std::fmt::Display for FaultReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wire_loads={} faults={} corrupt={} retried={} recovered={} zero_filled={}",
            self.wire_loads,
            self.faults_injected,
            self.corrupt_loads,
            self.retried_loads,
            self.recovered_loads,
            self.zero_filled_loads
        )
    }
}

/// Storage for activations memoized between the forward and backward pass.
pub trait ActivationStore {
    /// Saves `x` under `id` with its activation kind.
    fn save(&mut self, id: ActivationId, kind: ActKind, x: &Tensor);

    /// Loads the (possibly lossily recovered) activation saved under `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::MissingActivation`] if nothing was saved under
    /// `id` this step, or [`NetError::Store`] if the backing store could
    /// not recover the tensor.
    fn load(&mut self, id: ActivationId) -> Result<Tensor, NetError>;

    /// Saves a batch of independent activations.
    ///
    /// The default implementation saves each item in order with
    /// [`save`](Self::save).  Stores backed by an expensive per-tensor
    /// transform (compression, serialization) may override this to
    /// process items concurrently; overrides must leave the store in the
    /// same state as the sequential default — same entries, same
    /// statistics — regardless of thread count.
    fn save_batch(&mut self, items: Vec<(ActivationId, ActKind, Tensor)>) {
        for (id, kind, x) in items {
            self.save(id, kind, &x);
        }
    }

    /// Loads a batch of activations, one tensor per requested id, in the
    /// order given (ids may repeat).
    ///
    /// The default implementation loads each id in order with
    /// [`load`](Self::load).  Overrides may decompress concurrently, but
    /// must be deterministic: the returned tensors and the cumulative
    /// [`fault_report`](Self::fault_report) counters must be identical
    /// for any thread count (they need not reproduce the sequential
    /// default's exact fault stream).
    ///
    /// # Errors
    ///
    /// Returns the error for the first (in id-list order) id whose load
    /// fails; see [`load`](Self::load).
    fn load_batch(&mut self, ids: &[ActivationId]) -> Result<Vec<Tensor>, NetError> {
        ids.iter().map(|&id| self.load(id)).collect()
    }

    /// Drops all saved activations (end of a training step).
    fn clear(&mut self);

    /// Cumulative wire-fault counters for stores that deliver loads
    /// through a fallible transport.  The default (for exact, in-memory
    /// stores) reports all zeros.
    fn fault_report(&self) -> FaultReport {
        FaultReport::default()
    }

    /// Runtime-typed access for harnesses that hold the store behind the
    /// trait and need the concrete type back (e.g. to read compression
    /// statistics or advance a DQT schedule's epoch).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Exact in-memory storage — the uncompressed training baseline.
#[derive(Debug, Default)]
pub struct PassthroughStore {
    tensors: BTreeMap<ActivationId, Tensor>,
}

impl PassthroughStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of activations currently held.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// `true` if no activations are held.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }
}

impl ActivationStore for PassthroughStore {
    fn save(&mut self, id: ActivationId, _kind: ActKind, x: &Tensor) {
        self.tensors.insert(id, x.clone());
    }

    fn load(&mut self, id: ActivationId) -> Result<Tensor, NetError> {
        self.tensors
            .get(&id)
            .cloned()
            .ok_or(NetError::MissingActivation(id))
    }

    fn clear(&mut self) {
        self.tensors.clear();
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Per-step execution context threaded through every layer call.
pub struct Context<'a> {
    /// `true` during training (dropout active, BN batch statistics).
    pub training: bool,
    /// Seeded RNG for stochastic layers.
    pub rng: &'a mut jact_rng::rngs::StdRng,
    /// Activation storage (exact or compressing).
    pub store: &'a mut dyn ActivationStore,
}

impl<'a> Context<'a> {
    /// Creates a context.
    pub fn new(
        training: bool,
        rng: &'a mut jact_rng::rngs::StdRng,
        store: &'a mut dyn ActivationStore,
    ) -> Self {
        Context {
            training,
            rng,
            store,
        }
    }
}

/// Allocates unique activation ids for model builders.
#[derive(Debug, Default)]
pub struct IdAlloc {
    next: ActivationId,
}

impl IdAlloc {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh id.
    pub fn fresh(&mut self) -> ActivationId {
        let id = self.next;
        self.next += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jact_tensor::Shape;
    use jact_rng::SeedableRng;

    #[test]
    fn passthrough_roundtrip() {
        let mut s = PassthroughStore::new();
        let t = Tensor::full(Shape::vec(4), 2.0);
        s.save(7, ActKind::Conv, &t);
        assert_eq!(s.load(7).unwrap(), t);
        assert_eq!(s.len(), 1);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn missing_activation_is_a_typed_error() {
        let mut s = PassthroughStore::new();
        assert_eq!(s.load(99).unwrap_err(), NetError::MissingActivation(99));
    }

    #[test]
    fn default_batch_methods_match_singles() {
        let mut s = PassthroughStore::new();
        let a = Tensor::full(Shape::vec(4), 1.0);
        let b = Tensor::full(Shape::vec(4), 2.0);
        s.save_batch(vec![(1, ActKind::Conv, a.clone()), (2, ActKind::Pool, b.clone())]);
        // Repeated ids are allowed and resolve per-occurrence.
        let got = s.load_batch(&[2, 1, 2]).unwrap();
        assert_eq!(got, vec![b.clone(), a, b]);
        assert_eq!(
            s.load_batch(&[1, 9]).unwrap_err(),
            NetError::MissingActivation(9)
        );
    }

    #[test]
    fn fault_report_absorb_accumulates() {
        let mut total = FaultReport {
            wire_loads: 1,
            faults_injected: 2,
            corrupt_loads: 3,
            retried_loads: 4,
            recovered_loads: 5,
            zero_filled_loads: 6,
        };
        let delta = FaultReport {
            wire_loads: 10,
            faults_injected: 20,
            corrupt_loads: 30,
            retried_loads: 40,
            recovered_loads: 50,
            zero_filled_loads: 60,
        };
        total.absorb(&delta);
        assert_eq!(total.wire_loads, 11);
        assert_eq!(total.faults_injected, 22);
        assert_eq!(total.corrupt_loads, 33);
        assert_eq!(total.retried_loads, 44);
        assert_eq!(total.recovered_loads, 55);
        assert_eq!(total.zero_filled_loads, 66);
    }

    #[test]
    fn id_alloc_is_sequential_and_unique() {
        let mut a = IdAlloc::new();
        let ids: Vec<_> = (0..5).map(|_| a.fresh()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn kind_density_classification() {
        assert!(ActKind::Conv.is_dense_spatial());
        assert!(ActKind::Sum.is_dense_spatial());
        assert!(!ActKind::ReluToConv.is_dense_spatial());
        assert!(!ActKind::Dropout.is_dense_spatial());
    }

    #[test]
    fn context_construction() {
        let mut rng = jact_rng::rngs::StdRng::seed_from_u64(0);
        let mut store = PassthroughStore::new();
        let ctx = Context::new(true, &mut rng, &mut store);
        assert!(ctx.training);
    }
}
