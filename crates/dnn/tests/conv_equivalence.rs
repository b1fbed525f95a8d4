//! `Conv2d` against the whole-batch composition it replaced.
//!
//! The layer lowers one sample at a time into a reused scratch and
//! multiplies straight into its NCHW planes.  Here the same convolution is
//! composed from the whole-batch `jact_tensor::ops` functions — im2col of
//! the batch, one `matmul`, explicit transposes, `col2im`, layout copies —
//! and every output (`y`, `dW`, `db`, `dX`) must match **bit for bit**.
//! (`crates/tensor/tests/kernel_oracle.rs` ties those functions to the
//! unblocked reference kernels.)

use jact_dnn::act::{Context, PassthroughStore};
use jact_dnn::layers::{Conv2d, Layer};
use jact_rng::rngs::StdRng;
use jact_rng::SeedableRng;
use jact_tensor::init::{normal_tensor, seeded_rng, uniform_tensor};
use jact_tensor::ops::{col2im, im2col, matmul, transpose, ConvGeom};
use jact_tensor::{Shape, Tensor};

/// One conv geometry: `(in_c, out_c, kernel, stride, input h = w)`; pad is
/// `kernel / 2`.
type Geometry = (usize, usize, usize, usize, usize);

/// Every row of the two conv-geometry tables in `ledger/README.md` with
/// the channel counts kept (they set `C·K·K`, and so the GEMM tile edges:
/// 27, 144, 16, 288, 32, 576) and the input side cut to a quarter.
const MINI_RESNET: [Geometry; 8] = [
    (3, 16, 3, 1, 8),
    (16, 16, 3, 1, 8),
    (16, 32, 3, 2, 8),
    (16, 32, 1, 2, 8),
    (32, 32, 3, 1, 4),
    (32, 64, 3, 2, 4),
    (32, 64, 1, 2, 4),
    (64, 64, 3, 1, 2),
];
const MINI_VGG: [Geometry; 4] = [
    (3, 32, 3, 1, 8),
    (32, 32, 3, 1, 8),
    (32, 64, 3, 1, 4),
    (64, 64, 3, 1, 4),
];

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

/// `[N, C, H, W]` to the GEMM layout `[C, N·H·W]` and back.
fn nchw_to_mat(t: &Tensor) -> Tensor {
    let (n, c, plane) = (t.shape().n(), t.shape().c(), t.shape().h() * t.shape().w());
    let mut out = vec![0.0f32; t.len()];
    for ni in 0..n {
        for ci in 0..c {
            out[ci * n * plane + ni * plane..][..plane]
                .copy_from_slice(&t.as_slice()[(ni * c + ci) * plane..][..plane]);
        }
    }
    Tensor::from_vec(Shape::mat(c, n * plane), out)
}

fn mat_to_nchw(m: &Tensor, n: usize, h: usize, w: usize) -> Tensor {
    let (c, plane) = (m.shape().dim(0), h * w);
    let mut out = vec![0.0f32; m.len()];
    for ni in 0..n {
        for ci in 0..c {
            out[(ni * c + ci) * plane..][..plane]
                .copy_from_slice(&m.as_slice()[ci * n * plane + ni * plane..][..plane]);
        }
    }
    Tensor::from_vec(Shape::nchw(n, c, h, w), out)
}

struct Reference {
    y: Tensor,
    dw: Tensor,
    db: Tensor,
    dx: Tensor,
}

/// The whole-batch forward and backward pass, as `Conv2d` ran it before
/// it went per sample.
fn reference(x: &Tensor, gy: &Tensor, w: &Tensor, bias: Option<&Tensor>, g: ConvGeom) -> Reference {
    let n = x.shape().n();
    let (oh, ow) = (g.out_extent(x.shape().h()), g.out_extent(x.shape().w()));
    let cols = im2col(x, g);
    let mut y = matmul(w, &cols);
    let ncols = y.shape().dim(1);
    if let Some(b) = bias {
        for (row, &bv) in y.as_mut_slice().chunks_exact_mut(ncols).zip(b.iter()) {
            for v in row {
                *v += bv;
            }
        }
    }
    let gy_mat = nchw_to_mat(gy);
    let db = gy_mat
        .as_slice()
        .chunks_exact(ncols)
        .map(|row| row.iter().sum())
        .collect();
    Reference {
        y: mat_to_nchw(&y, n, oh, ow),
        dw: matmul(&gy_mat, &transpose(&cols)),
        db: Tensor::from_vec(Shape::vec(w.shape().dim(0)), db),
        dx: col2im(&matmul(&transpose(w), &gy_mat), x.shape(), g),
    }
}

/// Post-ReLU-like input (non-negative, half zero) and a gradient with a
/// `gy_zero` share of exact zeros, as the ledger's probes draw them.
fn inputs(geometry: Geometry, n: usize, gy_zero: f32, rng: &mut StdRng) -> (Tensor, Tensor) {
    let (in_c, out_c, kernel, stride, hw) = geometry;
    let out_hw = ConvGeom::new(kernel, stride, kernel / 2).out_extent(hw);
    let x = normal_tensor(Shape::nchw(n, in_c, hw, hw), 1.0, rng).map(|v| v.max(0.0));
    let gy = normal_tensor(Shape::nchw(n, out_c, out_hw, out_hw), 1.0, rng);
    let keep = uniform_tensor(*gy.shape(), 0.0, 1.0, rng);
    (x, gy.zip(&keep, |g, u| if u >= gy_zero { g } else { 0.0 }))
}

fn layer(geometry: Geometry, bias: bool, rng: &mut StdRng) -> Conv2d {
    let (in_c, out_c, kernel, stride, _) = geometry;
    let mut conv = Conv2d::new(
        "conv",
        in_c,
        out_c,
        kernel,
        stride,
        kernel / 2,
        bias,
        0,
        rng,
    );
    if bias {
        // A fresh bias is all zeros, which would hide a missing add.
        let b = &mut conv.params()[1].value;
        *b = normal_tensor(*b.shape(), 0.5, rng);
    }
    conv
}

fn add(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |p, q| p + q)
}

#[test]
fn every_ledger_geometry_matches_the_whole_batch_composition_bitwise() {
    let mut rng = seeded_rng(0xC0E4);
    let mut layer_rng = StdRng::seed_from_u64(0);
    let cases = MINI_RESNET.iter().chain(&MINI_VGG).flat_map(|&geometry| {
        [false, true]
            .into_iter()
            .flat_map(move |bias| [0.0, 0.5, 0.91].map(|gy_zero| (geometry, bias, gy_zero)))
    });
    for (geometry, bias, gy_zero) in cases {
        let (_, _, kernel, stride, _) = geometry;
        let g = ConvGeom::new(kernel, stride, kernel / 2);
        let mut conv = layer(geometry, bias, &mut rng);
        let w = conv.params()[0].value.clone();
        let b = bias.then(|| conv.params()[1].value.clone());
        let what = format!("{geometry:?} bias {bias} gy_zero {gy_zero}");

        // Two steps without zeroing the gradients in between: the second
        // accumulates into a non-zero `grad`.
        let mut store = PassthroughStore::new();
        let mut want_dw = Tensor::zeros(*w.shape());
        let mut want_db = Tensor::zeros(Shape::vec(w.shape().dim(0)));
        for step in 0..2 {
            let (x, gy) = inputs(geometry, 3, gy_zero, &mut rng);
            let want = reference(&x, &gy, &w, b.as_ref(), g);
            let mut ctx = Context::new(true, &mut layer_rng, &mut store);
            let y = conv.forward(&x, &mut ctx);
            let dx = conv.backward(&gy, &mut ctx).expect("input was saved");
            assert_eq!(y.shape(), want.y.shape(), "{what}");
            assert_eq!(bits(&y), bits(&want.y), "y, step {step}: {what}");
            assert_eq!(dx.shape(), x.shape(), "{what}");
            assert_eq!(bits(&dx), bits(&want.dx), "dX, step {step}: {what}");
            want_dw = add(&want_dw, &want.dw);
            want_db = add(&want_db, &want.db);
            assert_eq!(
                bits(&conv.params()[0].grad),
                bits(&want_dw),
                "dW, step {step}: {what}"
            );
            if bias {
                assert_eq!(
                    bits(&conv.params()[1].grad),
                    bits(&want_db),
                    "db, step {step}: {what}"
                );
            }
        }
    }
}

/// Sample `i` of a batch-8 forward is the batch-1 forward of sample `i`:
/// no output element depends on what else is in the batch.
#[test]
fn forward_is_batch_invariant_bitwise() {
    let mut rng = seeded_rng(0xC0E5);
    let mut layer_rng = StdRng::seed_from_u64(0);
    for (row, &geometry) in MINI_RESNET.iter().chain(&MINI_VGG).enumerate() {
        let mut conv = layer(geometry, row % 2 == 0, &mut rng);
        let (x, _) = inputs(geometry, 8, 0.0, &mut rng);
        let mut store = PassthroughStore::new();
        let mut ctx = Context::new(false, &mut layer_rng, &mut store);
        let batch = conv.forward(&x, &mut ctx);
        let (x_len, y_len) = (x.len() / 8, batch.len() / 8);
        let (xs, ys) = (x.shape(), batch.shape());
        for i in 0..8 {
            let one = Tensor::from_vec(
                Shape::nchw(1, xs.c(), xs.h(), xs.w()),
                x.as_slice()[i * x_len..(i + 1) * x_len].to_vec(),
            );
            let y = conv.forward(&one, &mut ctx);
            assert_eq!(y.shape(), &Shape::nchw(1, ys.c(), ys.h(), ys.w()));
            let want: Vec<u32> = batch.as_slice()[i * y_len..(i + 1) * y_len]
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(bits(&y), want, "sample {i} of {geometry:?}");
        }
    }
}
