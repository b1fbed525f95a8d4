//! A recording activation store: behaves like the exact passthrough
//! store while also keeping an ordered log of everything saved — the way
//! the experiments harvest realistic activations (the paper's "240
//! example activations from a generator network", Sec. IV).

use jact_dnn::act::{ActKind, ActivationId, ActivationStore};
use jact_dnn::error::NetError;
use jact_tensor::Tensor;
use std::collections::BTreeMap;

/// Exact store that logs `(kind, tensor)` for every save.
#[derive(Debug, Default)]
pub struct RecordingStore {
    tensors: BTreeMap<ActivationId, Tensor>,
    log: Vec<(ActKind, Tensor)>,
    /// When set, only log tensors with at least this many elements
    /// (skips tiny FC activations when harvesting conv samples).
    min_len: usize,
}

impl RecordingStore {
    /// Creates an empty recording store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Only record tensors with at least `min_len` elements.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len;
        self
    }

    /// The ordered log of saved activations.
    pub fn log(&self) -> &[(ActKind, Tensor)] {
        &self.log
    }

    /// Takes the log, leaving the store usable.
    pub fn take_log(&mut self) -> Vec<(ActKind, Tensor)> {
        std::mem::take(&mut self.log)
    }
}

impl ActivationStore for RecordingStore {
    fn save(&mut self, id: ActivationId, kind: ActKind, x: &Tensor) {
        if x.len() >= self.min_len {
            self.log.push((kind, x.clone()));
        }
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
        // The log survives clear(): harvesting spans a whole step.
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jact_tensor::Shape;

    #[test]
    fn records_saves_in_order() {
        let mut s = RecordingStore::new();
        s.save(0, ActKind::Conv, &Tensor::zeros(Shape::nchw(1, 1, 4, 4)));
        s.save(1, ActKind::Dropout, &Tensor::zeros(Shape::vec(8)));
        assert_eq!(s.log().len(), 2);
        assert_eq!(s.log()[0].0, ActKind::Conv);
    }

    #[test]
    fn min_len_filters_log_but_not_store() {
        let mut s = RecordingStore::new().with_min_len(10);
        s.save(0, ActKind::Conv, &Tensor::zeros(Shape::vec(4)));
        assert!(s.log().is_empty());
        assert_eq!(s.load(0).expect("saved above").len(), 4);
    }

    #[test]
    fn log_survives_clear() {
        let mut s = RecordingStore::new();
        s.save(0, ActKind::Conv, &Tensor::zeros(Shape::nchw(1, 1, 4, 4)));
        s.clear();
        assert_eq!(s.log().len(), 1);
        let log = s.take_log();
        assert_eq!(log.len(), 1);
        assert!(s.log().is_empty());
    }
}
