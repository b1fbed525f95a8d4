//! `Linear` against the allocating composition it replaced.
//!
//! The layer transposes `W` (forward) and `gy` (backward) into one scratch
//! it keeps and multiplies with `gemm_acc`.  Here the same layer is
//! composed from the `Tensor`-level `matmul` and `transpose`, each of
//! which allocates its result, and every output (`y`, `dW`, `db`, `dX`)
//! must match **bit for bit**.

use jact_dnn::act::{Context, PassthroughStore};
use jact_dnn::layers::{Layer, Linear};
use jact_rng::rngs::StdRng;
use jact_rng::SeedableRng;
use jact_tensor::init::{normal_tensor, seeded_rng};
use jact_tensor::ops::{matmul, transpose};
use jact_tensor::{Shape, Tensor};

/// `(in_dim, out_dim)` of every `Linear` the registry models build
/// (mini-vgg's `fc1` with its input cut from 64·8·8 to 64·2·2), plus one
/// pair off every GEMM tile edge.
const DIMS: [(usize, usize); 5] = [(256, 128), (128, 10), (64, 10), (64, 100), (37, 5)];

fn bits(t: &Tensor) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

fn add(a: &Tensor, b: &Tensor) -> Tensor {
    a.zip(b, |p, q| p + q)
}

#[test]
fn every_model_shape_matches_the_allocating_composition_bitwise() {
    let mut rng = seeded_rng(0x11EA);
    let mut layer_rng = StdRng::seed_from_u64(0);
    for (in_dim, out_dim) in DIMS {
        let mut lin = Linear::new("fc", in_dim, out_dim, 0, &mut rng);
        // A fresh bias is all zeros, which would hide a missing add.
        lin.params()[1].value = normal_tensor(Shape::vec(out_dim), 0.5, &mut rng);
        let w = lin.params()[0].value.clone();
        let b = lin.params()[1].value.clone();

        // Batch sizes that shrink and grow between calls, so the scratch
        // is reused at a size other than the one it was grown for, and no
        // zeroing of the gradients in between, so later steps accumulate
        // into a non-zero `grad`.
        let mut store = PassthroughStore::new();
        let mut want_dw = Tensor::zeros(*w.shape());
        let mut want_db = Tensor::zeros(*b.shape());
        for n in [3, 1, 8] {
            let what = format!("{in_dim}->{out_dim} batch {n}");
            // Post-ReLU-like input: non-negative, half zero.
            let x = normal_tensor(Shape::mat(n, in_dim), 1.0, &mut rng).map(|v| v.max(0.0));
            let gy = normal_tensor(Shape::mat(n, out_dim), 1.0, &mut rng);

            let mut want_y = matmul(&x, &transpose(&w));
            for row in want_y.as_mut_slice().chunks_exact_mut(out_dim) {
                for (v, &bv) in row.iter_mut().zip(b.iter()) {
                    *v += bv;
                }
            }
            want_dw = add(&want_dw, &matmul(&transpose(&gy), &x));
            let db = (0..out_dim)
                .map(|o| (0..n).fold(0.0f32, |acc, ni| acc + gy.as_slice()[ni * out_dim + o]))
                .collect();
            want_db = add(&want_db, &Tensor::from_vec(Shape::vec(out_dim), db));

            let mut ctx = Context::new(true, &mut layer_rng, &mut store);
            let y = lin.forward(&x, &mut ctx);
            let dx = lin.backward(&gy, &mut ctx).expect("input was saved");
            assert_eq!(y.shape(), want_y.shape(), "{what}");
            assert_eq!(bits(&y), bits(&want_y), "y: {what}");
            assert_eq!(dx.shape(), x.shape(), "{what}");
            assert_eq!(bits(&dx), bits(&matmul(&gy, &w)), "dX: {what}");
            assert_eq!(bits(&lin.params()[0].grad), bits(&want_dw), "dW: {what}");
            assert_eq!(bits(&lin.params()[1].grad), bits(&want_db), "db: {what}");
        }
    }
}
