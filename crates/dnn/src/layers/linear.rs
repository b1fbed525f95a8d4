//! Fully-connected layer and the NCHW → matrix flatten.

use crate::act::{ActKind, ActivationId, Context};
use crate::error::NetError;
use crate::layers::{grown, Layer};
use crate::param::Param;
use jact_tensor::init;
use jact_tensor::ops::{gemm_acc, matmul, transpose_into};
use jact_tensor::{Shape, Tensor};
use jact_rng::rngs::StdRng;

/// Flattens NCHW activations to `[N, C·H·W]` (no parameters, no saved
/// activations — reshape is free, Sec. III-C).
pub struct Flatten {
    in_shape: Option<Shape>,
    label: String,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new(label: impl Into<String>) -> Self {
        Flatten {
            in_shape: None,
            label: label.into(),
        }
    }
}

impl Layer for Flatten {
    fn forward(&mut self, x: &Tensor, _ctx: &mut Context<'_>) -> Tensor {
        self.in_shape = Some(x.shape().clone());
        let n = x.shape().dim(0);
        x.reshape(Shape::mat(n, x.len() / n))
    }

    fn backward(&mut self, grad: &Tensor, _ctx: &mut Context<'_>) -> Result<Tensor, NetError> {
        let shape = self.in_shape.clone().expect("backward before forward");
        Ok(grad.reshape(shape))
    }

    fn name(&self) -> String {
        format!("{}(flatten)", self.label)
    }
}

/// Fully-connected layer: `y = x·Wᵀ + b` on `[N, D]` inputs.
pub struct Linear {
    weight: Param,
    bias: Param,
    in_dim: usize,
    out_dim: usize,
    input_key: ActivationId,
    saves_input: bool,
    /// `Wᵀ` during forward, `gyᵀ` during backward; grown on first use and
    /// kept across calls.
    scratch: Vec<f32>,
    label: String,
}

impl Linear {
    /// Creates a linear layer with Xavier-normal weights.
    pub fn new(
        label: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        input_key: ActivationId,
        rng: &mut StdRng,
    ) -> Self {
        let label = label.into();
        Linear {
            weight: Param::new(
                format!("{label}.weight"),
                init::xavier_normal(out_dim, in_dim, rng),
                true,
            ),
            bias: Param::new(
                format!("{label}.bias"),
                Tensor::zeros(Shape::vec(out_dim)),
                false,
            ),
            in_dim,
            out_dim,
            input_key,
            saves_input: true,
            scratch: Vec::new(),
            label,
        }
    }

    /// Marks the input as saved by its producer (aliased key).
    pub fn aliased(mut self) -> Self {
        self.saves_input = false;
        self
    }
}

impl Layer for Linear {
    fn forward(&mut self, x: &Tensor, ctx: &mut Context<'_>) -> Tensor {
        assert_eq!(x.shape().rank(), 2, "{}: linear expects [N, D]", self.label);
        assert_eq!(x.shape().dim(1), self.in_dim, "{}: dim mismatch", self.label);
        if ctx.training && self.saves_input {
            ctx.store.save(self.input_key, ActKind::Linear, x);
        }
        // y[N, out] = x[N, in] · W[out, in]ᵀ
        let (n, in_dim, out_dim) = (x.shape().dim(0), self.in_dim, self.out_dim);
        let wt = grown(&mut self.scratch, in_dim * out_dim);
        transpose_into(self.weight.value.as_slice(), out_dim, in_dim, wt);
        let mut y = vec![0.0f32; n * out_dim];
        gemm_acc(n, out_dim, in_dim, x.as_slice(), in_dim, wt, out_dim, &mut y, out_dim);
        for row in y.chunks_exact_mut(out_dim) {
            for (v, &bv) in row.iter_mut().zip(self.bias.value.as_slice()) {
                *v += bv;
            }
        }
        Tensor::from_vec(Shape::mat(n, out_dim), y)
    }

    fn backward(&mut self, grad: &Tensor, ctx: &mut Context<'_>) -> Result<Tensor, NetError> {
        let x = ctx.store.load(self.input_key)?;
        // dW = gyᵀ · x ; db = column sums of gy ; dx = gy · W.
        let (n, in_dim, out_dim) = (x.shape().dim(0), self.in_dim, self.out_dim);
        assert_eq!(
            grad.shape(),
            &Shape::mat(n, out_dim),
            "{}: gradient shape mismatch",
            self.label
        );
        let gv = grad.as_slice();
        let gt = grown(&mut self.scratch, out_dim * n);
        transpose_into(gv, n, out_dim, gt);
        let mut dw = vec![0.0f32; out_dim * in_dim];
        gemm_acc(out_dim, in_dim, n, gt, n, x.as_slice(), in_dim, &mut dw, in_dim);
        self.weight
            .accumulate(&Tensor::from_vec(Shape::mat(out_dim, in_dim), dw));
        let mut db = vec![0.0f32; out_dim];
        for ni in 0..n {
            for (oi, d) in db.iter_mut().enumerate() {
                *d += gv[ni * out_dim + oi];
            }
        }
        self.bias
            .accumulate(&Tensor::from_vec(Shape::vec(out_dim), db));
        Ok(matmul(grad, &self.weight.value))
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> String {
        format!("{}(linear {}->{})", self.label, self.in_dim, self.out_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::fwd_bwd;
    use jact_tensor::init::seeded_rng;

    #[test]
    fn flatten_roundtrip() {
        let x = Tensor::from_vec(
            Shape::nchw(2, 3, 2, 2),
            (0..24).map(|i| i as f32).collect(),
        );
        let mut f = Flatten::new("f");
        let gy = Tensor::from_vec(Shape::mat(2, 12), (0..24).map(|i| i as f32).collect());
        let (y, gx) = fwd_bwd(&mut f, &x, &gy);
        assert_eq!(y.shape(), &Shape::mat(2, 12));
        assert_eq!(gx.shape(), x.shape());
        assert_eq!(gx.as_slice(), gy.as_slice());
    }

    #[test]
    fn linear_known_values() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new("l", 2, 2, 0, &mut rng);
        l.weight.value = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        l.bias.value = Tensor::from_slice(&[10.0, 20.0]);
        let x = Tensor::from_vec(Shape::mat(1, 2), vec![1.0, 1.0]);
        let (y, _) = fwd_bwd(&mut l, &x, &Tensor::zeros(Shape::mat(1, 2)));
        // y = [1+2+10, 3+4+20]
        assert_eq!(y.as_slice(), &[13.0, 27.0]);
    }

    #[test]
    fn linear_input_gradient() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new("l", 2, 2, 0, &mut rng);
        l.weight.value = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let x = Tensor::from_vec(Shape::mat(1, 2), vec![1.0, -1.0]);
        let gy = Tensor::from_vec(Shape::mat(1, 2), vec![1.0, 1.0]);
        let (_, gx) = fwd_bwd(&mut l, &x, &gy);
        // dx = gy · W = [1+3, 2+4]
        assert_eq!(gx.as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn linear_weight_and_bias_gradients() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new("l", 2, 1, 0, &mut rng);
        let x = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let gy = Tensor::from_vec(Shape::mat(2, 1), vec![1.0, 10.0]);
        let _ = fwd_bwd(&mut l, &x, &gy);
        // dW = gyᵀ·x = [1*1+10*3, 1*2+10*4] = [31, 42]
        assert_eq!(l.weight.grad.as_slice(), &[31.0, 42.0]);
        assert_eq!(l.bias.grad.as_slice(), &[11.0]);
    }

    #[test]
    #[should_panic(expected = "expects [N, D]")]
    fn rank4_input_rejected() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new("l", 4, 2, 0, &mut rng);
        let x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        let _ = fwd_bwd(&mut l, &x, &Tensor::zeros(Shape::mat(1, 2)));
    }
}
