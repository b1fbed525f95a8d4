//! 2-D convolution via im2col + GEMM, one sample at a time.
//!
//! Each sample is lowered into one reusable scratch matrix and multiplied
//! straight into (or out of) its NCHW plane, so no whole-batch im2col
//! matrix, transpose or layout copy exists.  The results are bit for bit
//! those of the whole-batch composition `im2col → matmul → col2im`
//! (`jact_tensor::ops` states the summation-order contract that makes
//! them so; `tests/conv_equivalence.rs` asserts it).

use crate::act::{ActKind, ActivationId, Context};
use crate::error::NetError;
use crate::layers::{grown, Layer};
use crate::param::Param;
use jact_tensor::init;
use jact_tensor::ops::{
    col2im_acc, gemm_acc, im2col_into, im2col_t_into, transpose_into, ConvGeom,
};
use jact_tensor::{Shape, Tensor};
use jact_rng::rngs::StdRng;

/// A 2-D convolution layer (square kernels, NCHW activations).
///
/// The backward pass reloads the layer's input from the activation store,
/// so when a compressing store is installed the weight gradient is the
/// paper's `∇w* = ∇y ∘ x*` (Eqn. 8) — computed from the *recovered*
/// activation.
pub struct Conv2d {
    weight: Param,
    bias: Option<Param>,
    geom: ConvGeom,
    in_c: usize,
    out_c: usize,
    /// Key the input is loaded from in the backward pass.
    input_key: ActivationId,
    /// What the saved input is classified as (Conv, Sum, Pool, Dropout…).
    input_kind: ActKind,
    /// False when the producer already saved this tensor (aliased key).
    saves_input: bool,
    /// Input shape captured during forward (for col2im).
    in_shape: Option<Shape>,
    /// One sample's lowered matrix (`C·K·K × OH·OW`, either orientation)
    /// followed by `Wᵀ`; grown on first use and kept across calls.
    scratch: Vec<f32>,
    label: String,
}

impl Conv2d {
    /// Creates a convolution with He-normal initialized weights.
    ///
    /// `input_key` identifies the saved input activation; pass a fresh id
    /// (the conv will save its input itself) or alias a producer's id and
    /// call [`Conv2d::aliased`] afterwards.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        label: impl Into<String>,
        in_c: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        input_key: ActivationId,
        rng: &mut StdRng,
    ) -> Self {
        let label = label.into();
        let fan_in = in_c * kernel * kernel;
        let weight = Param::new(
            format!("{label}.weight"),
            init::he_normal(out_c, fan_in, rng),
            true,
        );
        let bias = bias.then(|| Param::new(format!("{label}.bias"), Tensor::zeros(Shape::vec(out_c)), false));
        Conv2d {
            weight,
            bias,
            geom: ConvGeom::new(kernel, stride, pad),
            in_c,
            out_c,
            input_key,
            input_kind: ActKind::Conv,
            saves_input: true,
            in_shape: None,
            scratch: Vec::new(),
            label,
        }
    }

    /// Marks the input as already saved by its producer under the aliased
    /// key; the conv will only load.
    pub fn aliased(mut self) -> Self {
        self.saves_input = false;
        self
    }

    /// Sets the activation kind the saved input is classified as
    /// (e.g. [`ActKind::Sum`] when the input is a residual addition).
    pub fn input_kind(mut self, kind: ActKind) -> Self {
        self.input_kind = kind;
        self
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Rows of a sample's lowered matrix: `C·K·K`.
    fn ckk(&self) -> usize {
        self.in_c * self.geom.kernel * self.geom.kernel
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, ctx: &mut Context<'_>) -> Tensor {
        assert_eq!(
            x.shape().c(),
            self.in_c,
            "{}: expected {} input channels, got {}",
            self.label,
            self.in_c,
            x.shape().c()
        );
        if ctx.training && self.saves_input {
            ctx.store.save(self.input_key, self.input_kind, x);
        }
        self.in_shape = Some(x.shape().clone());
        let (n, h, w) = (x.shape().n(), x.shape().h(), x.shape().w());
        let (oh, ow) = (self.geom.out_extent(h), self.geom.out_extent(w));
        let (ckk, plane, out_c) = (self.ckk(), oh * ow, self.out_c);
        let chw = [self.in_c, h, w];
        let mut y = vec![0.0f32; n * out_c * plane];
        let cols = grown(&mut self.scratch, ckk * plane);
        let wv = self.weight.value.as_slice();
        let samples = x.as_slice().chunks_exact(self.in_c * h * w);
        for (xn, yn) in samples.zip(y.chunks_exact_mut(out_c * plane)) {
            im2col_into(xn, chw, self.geom, cols, plane);
            gemm_acc(out_c, plane, ckk, wv, ckk, cols, plane, yn, plane);
            if let Some(b) = &self.bias {
                for (yc, &bias) in yn.chunks_exact_mut(plane).zip(b.value.as_slice()) {
                    for v in yc {
                        *v += bias;
                    }
                }
            }
        }
        Tensor::from_vec(Shape::nchw(n, out_c, oh, ow), y)
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut Context<'_>) -> Result<Tensor, NetError> {
        let in_shape = self
            .in_shape
            .clone()
            .expect("backward called before forward");
        let x = ctx.store.load(self.input_key)?;
        assert_eq!(x.shape(), &in_shape, "{}: stored input shape mismatch", self.label);
        let (n, h, w) = (in_shape.n(), in_shape.h(), in_shape.w());
        let chw = [self.in_c, h, w];
        let plane = self.geom.out_extent(h) * self.geom.out_extent(w);
        let (ckk, out_c) = (self.ckk(), self.out_c);
        assert_eq!(
            grad.len(),
            n * out_c * plane,
            "{}: gradient shape mismatch",
            self.label
        );
        let gy = grad.as_slice();

        let mut dw = vec![0.0f32; out_c * ckk];
        let mut dx = vec![0.0f32; in_shape.len()];
        let scratch = grown(&mut self.scratch, ckk * plane + ckk * out_c);
        let (cols, wt) = scratch.split_at_mut(ckk * plane);
        transpose_into(self.weight.value.as_slice(), out_c, ckk, wt);
        let samples = x.as_slice().chunks_exact(self.in_c * h * w);
        let grads = gy.chunks_exact(out_c * plane);
        for ((xn, gyn), dxn) in samples.zip(grads).zip(dx.chunks_exact_mut(self.in_c * h * w)) {
            // dW += gy_n · colsᵀ_n, continuing the chain the samples
            // before this one left in `dw`.
            im2col_t_into(xn, chw, self.geom, cols, ckk);
            gemm_acc(out_c, ckk, plane, gyn, plane, cols, ckk, &mut dw, ckk);
            // dX_n = col2im(Wᵀ · gy_n)
            cols.fill(0.0);
            gemm_acc(ckk, plane, out_c, wt, out_c, gyn, plane, cols, plane);
            col2im_acc(cols, plane, chw, self.geom, dxn);
        }
        self.weight.accumulate(&Tensor::from_vec(Shape::mat(out_c, ckk), dw));

        if let Some(b) = &mut self.bias {
            // One sequential sum per channel over (sample, position).
            let db = (0..out_c)
                .map(|oc| {
                    gy.chunks_exact(out_c * plane)
                        .flat_map(|gyn| &gyn[oc * plane..(oc + 1) * plane])
                        .sum()
                })
                .collect();
            b.accumulate(&Tensor::from_vec(Shape::vec(out_c), db));
        }

        Ok(Tensor::from_vec(in_shape, dx))
    }

    fn params(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }

    fn name(&self) -> String {
        format!(
            "{}(conv {}x{} {}->{} s{} p{})",
            self.label, self.geom.kernel, self.geom.kernel, self.in_c, self.out_c,
            self.geom.stride, self.geom.pad
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::{fwd_bwd, gradcheck_input};
    use jact_tensor::init::seeded_rng;

    fn input(n: usize, c: usize, h: usize, w: usize) -> Tensor {
        let shape = Shape::nchw(n, c, h, w);
        let data = (0..shape.len())
            .map(|i| ((i as f32 * 0.7).sin()) * 0.5)
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn forward_shape_same_conv() {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new("c", 3, 8, 3, 1, 1, false, 0, &mut rng);
        let x = input(2, 3, 8, 8);
        let (y, _) = fwd_bwd(&mut conv, &x, &Tensor::zeros(Shape::nchw(2, 8, 8, 8)));
        assert_eq!(y.shape(), &Shape::nchw(2, 8, 8, 8));
    }

    #[test]
    fn forward_shape_strided_and_pointwise() {
        let mut rng = seeded_rng(1);
        let mut c1 = Conv2d::new("c1", 4, 6, 3, 2, 1, false, 0, &mut rng);
        let x = input(1, 4, 8, 8);
        let (y, _) = fwd_bwd(&mut c1, &x, &Tensor::zeros(Shape::nchw(1, 6, 4, 4)));
        assert_eq!(y.shape(), &Shape::nchw(1, 6, 4, 4));

        let mut c2 = Conv2d::new("c2", 4, 2, 1, 1, 0, true, 1, &mut rng);
        let (y, _) = fwd_bwd(&mut c2, &x, &Tensor::zeros(Shape::nchw(1, 2, 8, 8)));
        assert_eq!(y.shape(), &Shape::nchw(1, 2, 8, 8));
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new("c", 1, 1, 1, 1, 0, false, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(Shape::mat(1, 1), vec![1.0]);
        let x = input(1, 1, 4, 4);
        let (y, _) = fwd_bwd(&mut conv, &x, &Tensor::zeros(x.shape().clone()));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn nchw_ordering_multi_batch_multi_channel() {
        // A pointwise conv with weight selecting channel 1 must produce
        // channel-1 planes in every batch element.
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new("c", 2, 1, 1, 1, 0, false, 0, &mut rng);
        conv.weight.value = Tensor::from_vec(Shape::mat(1, 2), vec![0.0, 1.0]);
        let x = input(2, 2, 3, 3);
        let (y, _) = fwd_bwd(&mut conv, &x, &Tensor::zeros(Shape::nchw(2, 1, 3, 3)));
        for n in 0..2 {
            for h in 0..3 {
                for w in 0..3 {
                    assert_eq!(y.get4(n, 0, h, w), x.get4(n, 1, h, w));
                }
            }
        }
    }

    #[test]
    fn input_gradcheck() {
        let x = input(1, 2, 6, 6);
        gradcheck_input(
            &mut || {
                let mut rng = seeded_rng(42);
                Box::new(Conv2d::new("c", 2, 3, 3, 1, 1, true, 0, &mut rng))
            },
            &x,
            2e-2,
        );
    }

    #[test]
    fn weight_gradcheck() {
        // Numeric check on one weight coordinate.
        let x = input(1, 2, 5, 5);
        let gy_val = 0.3f32;
        let run = |wdelta: f32| -> f64 {
            let mut rng = seeded_rng(7);
            let mut conv = Conv2d::new("c", 2, 2, 3, 1, 1, false, 0, &mut rng);
            conv.weight.value.as_mut_slice()[5] += wdelta;
            let gy = Tensor::full(Shape::nchw(1, 2, 5, 5), gy_val);
            let (y, _) = fwd_bwd(&mut conv, &x, &gy);
            y.iter().map(|&v| (v * gy_val) as f64).sum()
        };
        let eps = 1e-2;
        let num = (run(eps) - run(-eps)) / (2.0 * eps as f64);

        let mut rng = seeded_rng(7);
        let mut conv = Conv2d::new("c", 2, 2, 3, 1, 1, false, 0, &mut rng);
        let gy = Tensor::full(Shape::nchw(1, 2, 5, 5), gy_val);
        let _ = fwd_bwd(&mut conv, &x, &gy);
        let ana = conv.weight.grad.as_slice()[5] as f64;
        assert!((num - ana).abs() < 1e-2 * (1.0 + num.abs()), "num={num} ana={ana}");
    }

    #[test]
    fn saves_input_in_training_mode_only() {
        use crate::act::{ActivationStore, Context, PassthroughStore};
        use jact_rng::SeedableRng;
        let mut rng = jact_rng::rngs::StdRng::seed_from_u64(0);
        let mut store = PassthroughStore::new();
        let mut conv = {
            let mut r = seeded_rng(1);
            Conv2d::new("c", 1, 1, 3, 1, 1, false, 42, &mut r)
        };
        let x = input(1, 1, 4, 4);
        {
            let mut ctx = Context::new(false, &mut rng, &mut store);
            let _ = conv.forward(&x, &mut ctx);
        }
        assert!(store.is_empty(), "eval mode must not save");
        {
            let mut ctx = Context::new(true, &mut rng, &mut store);
            let _ = conv.forward(&x, &mut ctx);
        }
        assert_eq!(store.load(42).expect("saved in train mode"), x);
    }

    #[test]
    fn aliased_conv_does_not_save() {
        use crate::act::{Context, PassthroughStore};
        use jact_rng::SeedableRng;
        let mut rng = jact_rng::rngs::StdRng::seed_from_u64(0);
        let mut store = PassthroughStore::new();
        let mut conv = {
            let mut r = seeded_rng(1);
            Conv2d::new("c", 1, 1, 3, 1, 1, false, 7, &mut r).aliased()
        };
        let x = input(1, 1, 4, 4);
        let mut ctx = Context::new(true, &mut rng, &mut store);
        let _ = conv.forward(&x, &mut ctx);
        assert!(store.is_empty());
    }

    #[test]
    #[should_panic(expected = "input channels")]
    fn channel_mismatch_panics() {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new("c", 3, 4, 3, 1, 1, false, 0, &mut rng);
        let x = input(1, 2, 4, 4);
        let _ = fwd_bwd(&mut conv, &x, &Tensor::zeros(Shape::nchw(1, 4, 4, 4)));
    }
}
