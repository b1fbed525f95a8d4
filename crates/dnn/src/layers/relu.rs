//! Rectified Linear Unit.

use crate::act::{ActKind, ActivationId, Context};
use crate::error::NetError;
use crate::layers::Layer;
use jact_tensor::Tensor;

/// ReLU with output memoization.
///
/// The backward pass needs only the positivity of the saved tensor
/// (Eqns. 2–3: `(r > 0) = (x > 0)`), so it works identically whether the
/// store returns exact values, lossily recovered values, or BRC's binary
/// surrogate — all preserve the sign pattern the gradient mask needs.
pub struct Relu {
    /// Key the output is saved under (often aliased by the next conv).
    output_key: ActivationId,
    /// How the saved output is classified (drives Table II selection).
    kind: ActKind,
    label: String,
}

impl Relu {
    /// Creates a ReLU whose output is saved under `output_key`.
    ///
    /// `kind` should be [`ActKind::ReluToConv`] when a convolution
    /// consumes the output (values required) and [`ActKind::ReluToOther`]
    /// when only the sign is needed downstream (BRC-eligible).
    pub fn new(label: impl Into<String>, output_key: ActivationId, kind: ActKind) -> Self {
        Relu {
            output_key,
            kind,
            label: label.into(),
        }
    }
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, ctx: &mut Context<'_>) -> Tensor {
        let y = x.map(|v| if v > 0.0 { v } else { 0.0 });
        if ctx.training {
            ctx.store.save(self.output_key, self.kind, &y);
        }
        y
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut Context<'_>) -> Result<Tensor, NetError> {
        let saved = ctx.store.load(self.output_key)?;
        Ok(grad.zip(&saved, |g, s| if s > 0.0 { g } else { 0.0 }))
    }

    fn name(&self) -> String {
        format!("{}(relu)", self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::act::{ActivationStore, Context, PassthroughStore};
    use crate::layers::testutil::fwd_bwd;
    use jact_tensor::Shape;
    use jact_rng::SeedableRng;

    #[test]
    fn forward_clamps_negatives() {
        let x = Tensor::from_slice(&[-1.0, 0.0, 2.0, -0.5]);
        let mut relu = Relu::new("r", 0, ActKind::ReluToConv);
        let (y, _) = fwd_bwd(&mut relu, &x, &Tensor::zeros(x.shape().clone()));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0, -0.5]);
        let g = Tensor::from_slice(&[10.0, 20.0, 30.0, 40.0]);
        let mut relu = Relu::new("r", 0, ActKind::ReluToConv);
        let (_, gx) = fwd_bwd(&mut relu, &x, &g);
        assert_eq!(gx.as_slice(), &[0.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    fn backward_works_with_binary_surrogate() {
        // Replace the stored output with a BRC-style 0/1 surrogate; the
        // gradient must be identical.
        let x = Tensor::from_slice(&[-1.0, 0.5, 2.0, -0.5]);
        let g = Tensor::from_slice(&[10.0, 20.0, 30.0, 40.0]);
        let mut relu = Relu::new("r", 5, ActKind::ReluToOther);
        let mut rng = jact_rng::rngs::StdRng::seed_from_u64(0);
        let mut store = PassthroughStore::new();
        {
            let mut ctx = Context::new(true, &mut rng, &mut store);
            let _ = relu.forward(&x, &mut ctx);
        }
        // Overwrite with binary mask.
        let binary = Tensor::from_slice(&[0.0, 1.0, 1.0, 0.0]);
        store.save(5, ActKind::ReluToOther, &binary);
        let gx = {
            let mut ctx = Context::new(true, &mut rng, &mut store);
            relu.backward(&g, &mut ctx).expect("mask present")
        };
        assert_eq!(gx.as_slice(), &[0.0, 20.0, 30.0, 0.0]);
    }

    #[test]
    fn eval_mode_saves_nothing() {
        let mut relu = Relu::new("r", 0, ActKind::ReluToConv);
        let mut rng = jact_rng::rngs::StdRng::seed_from_u64(0);
        let mut store = PassthroughStore::new();
        let mut ctx = Context::new(false, &mut rng, &mut store);
        let _ = relu.forward(&Tensor::zeros(Shape::vec(4)), &mut ctx);
        assert!(store.is_empty());
    }
}
