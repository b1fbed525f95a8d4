//! Neural network layers with explicit activation memoization.
//!
//! Every layer implements [`Layer`]: `forward` runs the computation and
//! saves whatever the backward pass needs through the context's
//! [`ActivationStore`](crate::act::ActivationStore); `backward` loads the
//! (possibly lossily recovered) activations back and produces input
//! gradients, accumulating parameter gradients internally.
//!
//! Saving follows the framework policy the paper describes (Sec. II-A):
//! conv saves its **input**, norm saves its **input**, ReLU saves its
//! **output** — and when two layers share a tensor (ReLU output feeding a
//! conv) the model builder aliases them to one [`ActivationId`] so it is
//! stored once.

mod conv;
mod dropout;
mod linear;
mod norm;
mod pool;
mod relu;

pub use conv::Conv2d;
pub use dropout::Dropout;
pub use linear::{Flatten, Linear};
pub use norm::BatchNorm2d;
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use relu::Relu;

use crate::act::Context;
use crate::error::NetError;
use crate::param::Param;
use jact_tensor::Tensor;

/// A differentiable network layer.
pub trait Layer: Send {
    /// Runs the forward computation, memoizing needed activations.
    fn forward(&mut self, x: &Tensor, ctx: &mut Context<'_>) -> Tensor;

    /// Consumes the output gradient, accumulates parameter gradients, and
    /// returns the input gradient.
    ///
    /// Must be called after `forward` within the same step (activations
    /// must still be in the store).
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] when a needed activation cannot be loaded
    /// from the store.
    fn backward(&mut self, grad: &Tensor, ctx: &mut Context<'_>) -> Result<Tensor, NetError>;

    /// Mutable access to trainable parameters (empty for stateless layers).
    fn params(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Diagnostic layer name.
    fn name(&self) -> String;
}

/// The first `len` floats of a layer's scratch, grown on first use.
fn grown(scratch: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    &mut scratch[..len]
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::act::{Context, PassthroughStore};
    use crate::layers::Layer;
    use jact_tensor::Tensor;
    use jact_rng::rngs::StdRng;
    use jact_rng::SeedableRng;

    /// Runs forward then backward through `layer` with a passthrough
    /// store, returning `(output, input_gradient)`.
    pub fn fwd_bwd(layer: &mut dyn Layer, x: &Tensor, gy: &Tensor) -> (Tensor, Tensor) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = PassthroughStore::new();
        let y = {
            let mut ctx = Context::new(true, &mut rng, &mut store);
            layer.forward(x, &mut ctx)
        };
        let gx = {
            let mut ctx = Context::new(true, &mut rng, &mut store);
            layer.backward(gy, &mut ctx).expect("activations present")
        };
        (y, gx)
    }

    /// Central-difference check that the analytic input gradient of
    /// `layer` matches the numeric gradient of `sum(y * gy_weights)`.
    ///
    /// The layer must be deterministic in training mode for this to be
    /// meaningful (no dropout).
    pub fn gradcheck_input(make: &mut dyn FnMut() -> Box<dyn Layer>, x: &Tensor, tol: f64) {
        let gy_weights: Vec<f32> = {
            // Forward-only probe of the output shape.
            let mut l = make();
            let mut rng = StdRng::seed_from_u64(0);
            let mut store = crate::act::PassthroughStore::new();
            let mut ctx = Context::new(true, &mut rng, &mut store);
            let y = l.forward(x, &mut ctx);
            (0..y.len()).map(|i| ((i % 7) as f32 - 3.0) * 0.1).collect()
        };
        fn objective(
            make: &mut dyn FnMut() -> Box<dyn Layer>,
            input: &Tensor,
            weights: &[f32],
        ) -> f64 {
            let mut l = make();
            let mut rng = StdRng::seed_from_u64(0);
            let mut store = crate::act::PassthroughStore::new();
            let mut ctx = Context::new(true, &mut rng, &mut store);
            let y = l.forward(input, &mut ctx);
            y.iter()
                .zip(weights)
                .map(|(&a, &w)| (a * w) as f64)
                .sum()
        }

        // Analytic gradient.
        let mut l = make();
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = crate::act::PassthroughStore::new();
        let y = {
            let mut ctx = Context::new(true, &mut rng, &mut store);
            l.forward(x, &mut ctx)
        };
        let gy = Tensor::from_vec(y.shape().clone(), gy_weights.clone());
        let gx = {
            let mut ctx = Context::new(true, &mut rng, &mut store);
            l.backward(&gy, &mut ctx).expect("activations present")
        };

        // Numeric gradient on a sample of coordinates.
        let eps = 1e-2f32;
        let step = (x.len() / 17).max(1);
        for i in (0..x.len()).step_by(step) {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let num = (objective(make, &xp, &gy_weights) - objective(make, &xm, &gy_weights))
                / (2.0 * eps as f64);
            let ana = gx.as_slice()[i] as f64;
            assert!(
                (num - ana).abs() < tol * (1.0 + num.abs().max(ana.abs())),
                "grad mismatch at {i}: numeric={num} analytic={ana}"
            );
        }
    }
}
