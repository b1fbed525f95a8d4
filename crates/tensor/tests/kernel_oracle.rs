//! Differential oracle for the dense kernels.
//!
//! The reference functions below are the unblocked kernels `jact_tensor::ops`
//! used before it was tiled: an i-k-j `matmul` that skips zero left-hand
//! values, whole-batch `im2col`/`col2im`, and an element-by-element
//! `transpose`.  Every public kernel must equal its reference **bit for
//! bit** (`to_bits`) on shapes that hit every tile edge; that equality is
//! what lets logits, losses and every golden trace stay unchanged.

use jact_rng::{rngs::StdRng, Rng, SeedableRng};
use jact_tensor::ops::{
    col2im, col2im_acc, gemm_acc, im2col, im2col_into, im2col_t_into, matmul, transpose, ConvGeom,
};
use jact_tensor::{Shape, Tensor};

fn ref_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let (av, bv) = (a.as_slice(), b.as_slice());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let arow = &av[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (kk, &aik) in arow.iter().enumerate() {
            if aik == 0.0 {
                continue;
            }
            let brow = &bv[kk * n..(kk + 1) * n];
            for (o, &bkn) in orow.iter_mut().zip(brow) {
                *o += aik * bkn;
            }
        }
    }
    Tensor::from_vec(Shape::mat(m, n), out)
}

fn ref_transpose(a: &Tensor) -> Tensor {
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    let av = a.as_slice();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = av[i * n + j];
        }
    }
    Tensor::from_vec(Shape::mat(n, m), out)
}

/// Visits `(im2col row, column, input index)` for every tap that lands
/// inside the input, in the whole-batch kernels' loop order.
fn for_each_tap(xs: &Shape, g: ConvGeom, mut f: impl FnMut(usize, usize, usize)) {
    let (n, c, h, w) = (xs.n(), xs.c(), xs.h(), xs.w());
    let (oh, ow) = (g.out_extent(h), g.out_extent(w));
    for ci in 0..c {
        for kh in 0..g.kernel {
            for kw in 0..g.kernel {
                let row = (ci * g.kernel + kh) * g.kernel + kw;
                for ni in 0..n {
                    for oy in 0..oh {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let ibase = ((ni * c + ci) * h + iy as usize) * w;
                        let obase = (ni * oh + oy) * ow;
                        for ox in 0..ow {
                            let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            f(row, obase + ox, ibase + ix as usize);
                        }
                    }
                }
            }
        }
    }
}

fn col_dims(xs: &Shape, g: ConvGeom) -> (usize, usize) {
    let plane = g.out_extent(xs.h()) * g.out_extent(xs.w());
    (xs.c() * g.kernel * g.kernel, xs.n() * plane)
}

fn ref_im2col(x: &Tensor, g: ConvGeom) -> Tensor {
    let (rows, cols) = col_dims(x.shape(), g);
    let mut out = vec![0.0f32; rows * cols];
    for_each_tap(x.shape(), g, |row, col, i| {
        out[row * cols + col] = x.as_slice()[i]
    });
    Tensor::from_vec(Shape::mat(rows, cols), out)
}

fn ref_col2im(m: &Tensor, xs: &Shape, g: ConvGeom) -> Tensor {
    let (_, cols) = col_dims(xs, g);
    let mut out = vec![0.0f32; xs.len()];
    for_each_tap(xs, g, |row, col, i| {
        out[i] += m.as_slice()[row * cols + col]
    });
    Tensor::from_vec(*xs, out)
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
    }
}

/// Seeded values in (-4, 4); a `zero` share of them exactly zero, every
/// third of those `-0.0`.
fn values(rng: &mut StdRng, len: usize, zero: f32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let v = rng.gen_range(-4.0f32..4.0);
            if rng.gen_range(0.0f32..1.0) >= zero {
                v
            } else if i % 3 == 0 {
                -0.0
            } else {
                0.0
            }
        })
        .collect()
}

/// Sizes on both sides of every tile edge: the 4-row group, the 32-, 16-,
/// 8- and 4-column tiles and the single-column tail, and the conv layers'
/// own `C*K*K` values (27, 144, 288).
const EDGES: [usize; 13] = [1, 2, 3, 5, 16, 27, 31, 33, 63, 64, 65, 144, 288];

#[test]
fn matmul_equals_reference_on_every_tile_edge() {
    let mut rng = StdRng::seed_from_u64(0x6E44);
    let mut case = 0usize;
    for m in EDGES {
        for k in EDGES {
            for n in EDGES {
                // Any two sizes meet; three large ones at once add time and
                // no new edge.
                if m * k * n > 1 << 20 {
                    continue;
                }
                let zero = [0.0, 0.5, 0.91][case % 3];
                case += 1;
                let mut av = values(&mut rng, m * k, zero);
                if case % 5 == 0 {
                    // A whole row of zeros, and a whole row group when m allows.
                    for r in [m / 2, m / 2 + 1, m / 2 + 2, m / 2 + 3, m - 1] {
                        if r < m {
                            av[r * k..(r + 1) * k].fill(0.0);
                        }
                    }
                }
                let a = Tensor::from_vec(Shape::mat(m, k), av);
                let b = Tensor::from_vec(Shape::mat(k, n), values(&mut rng, k * n, 0.1));
                assert_bits_eq(
                    matmul(&a, &b).as_slice(),
                    ref_matmul(&a, &b).as_slice(),
                    &format!("matmul {m}x{k}x{n} zero {zero}"),
                );
            }
        }
    }
    assert!(case > 1500, "the size cap removed too many cases: {case}");
}

/// `Conv2d::backward` calls `gemm_acc` once per sample on the same `dW`;
/// the chain must be the one a single product over all samples runs.
#[test]
fn gemm_acc_over_k_slices_continues_the_whole_product() {
    let mut rng = StdRng::seed_from_u64(0x6E45);
    for (m, n, slice_k, slices, zero) in [
        (16, 144, 64, 3, 0.0),
        (5, 27, 9, 8, 0.91),
        (7, 65, 3, 4, 0.5),
        (32, 288, 16, 2, 0.91),
    ] {
        let k = slice_k * slices;
        let a = Tensor::from_vec(Shape::mat(m, k), values(&mut rng, m * k, zero));
        let b = Tensor::from_vec(Shape::mat(k, n), values(&mut rng, k * n, 0.1));
        // `C` sits inside a wider buffer whose other columns must survive.
        let ldc = n + 3;
        let mut c = vec![7.0f32; m * ldc];
        for row in c.chunks_exact_mut(ldc) {
            row[..n].fill(0.0);
        }
        for s in 0..slices {
            gemm_acc(
                m,
                n,
                slice_k,
                &a.as_slice()[s * slice_k..],
                k,
                &b.as_slice()[s * slice_k * n..],
                n,
                &mut c,
                ldc,
            );
        }
        let want = ref_matmul(&a, &b);
        for (r, row) in c.chunks_exact(ldc).enumerate() {
            assert_bits_eq(
                &row[..n],
                &want.as_slice()[r * n..(r + 1) * n],
                "sliced gemm_acc",
            );
            assert_eq!(&row[n..], &[7.0; 3], "gemm_acc wrote past its columns");
        }
    }
}

/// The one semantic difference from the reference: it skipped every zero
/// left-hand value on its own, the tiled kernel skips a `k` step only when
/// the whole 4-row group is zero there.  `0 * inf` is NaN, so a non-finite
/// right-hand value opposite a zero now poisons that element when another
/// row of the group is non-zero.  Activations and gradients are finite in
/// any run whose loss is, so no trained value depends on it.
#[test]
fn non_finite_rhs_opposite_a_zero_lhs_is_the_documented_difference() {
    let b = Tensor::from_vec(Shape::mat(1, 1), vec![f32::INFINITY]);

    let mixed = Tensor::from_vec(Shape::mat(4, 1), vec![0.0, 1.0, 0.0, 0.0]);
    assert_eq!(
        ref_matmul(&mixed, &b).as_slice(),
        &[0.0, f32::INFINITY, 0.0, 0.0]
    );
    let got = matmul(&mixed, &b);
    assert_eq!(got.as_slice()[1], f32::INFINITY);
    assert!(got.as_slice()[0].is_nan() && got.as_slice()[2].is_nan() && got.as_slice()[3].is_nan());

    // A group that is zero in all four rows is still skipped.
    let zeros = Tensor::zeros(Shape::mat(4, 1));
    assert_bits_eq(matmul(&zeros, &b).as_slice(), &[0.0; 4], "all-zero group");
}

#[test]
fn transpose_equals_reference() {
    let mut rng = StdRng::seed_from_u64(0x6E46);
    for rows in [1, 2, 15, 16, 17, 33, 144] {
        for cols in [1, 3, 16, 31, 32, 64, 100] {
            let a = Tensor::from_vec(Shape::mat(rows, cols), values(&mut rng, rows * cols, 0.1));
            let (got, want) = (transpose(&a), ref_transpose(&a));
            assert_eq!(got.shape(), want.shape());
            assert_bits_eq(got.as_slice(), want.as_slice(), "transpose");
        }
    }
}

/// Kernel {1, 3} x stride {1, 2} x pad {0, 1}, plus windows that are all
/// or mostly padding.
fn geometries() -> Vec<(ConvGeom, Shape)> {
    let mut out = Vec::new();
    for kernel in [1, 3] {
        for stride in [1, 2] {
            for pad in [0, 1] {
                for (n, c, h, w) in [(1, 1, 3, 3), (2, 3, 8, 8), (3, 2, 7, 5), (1, 4, 16, 16)] {
                    out.push((ConvGeom::new(kernel, stride, pad), Shape::nchw(n, c, h, w)));
                }
            }
        }
    }
    out.push((ConvGeom::new(5, 1, 2), Shape::nchw(2, 2, 1, 1)));
    out.push((ConvGeom::new(3, 2, 3), Shape::nchw(1, 2, 2, 3)));
    out.push((ConvGeom::new(2, 3, 0), Shape::nchw(2, 1, 8, 9)));
    out
}

#[test]
fn im2col_and_col2im_equal_the_whole_batch_reference() {
    let mut rng = StdRng::seed_from_u64(0x6E47);
    for (g, xs) in geometries() {
        let x = Tensor::from_vec(xs, values(&mut rng, xs.len(), 0.3));
        let want = ref_im2col(&x, g);
        let got = im2col(&x, g);
        assert_eq!(got.shape(), want.shape(), "{g:?} {xs:?}");
        assert_bits_eq(
            got.as_slice(),
            want.as_slice(),
            &format!("im2col {g:?} {xs:?}"),
        );

        let m = Tensor::from_vec(*want.shape(), values(&mut rng, want.len(), 0.3));
        assert_bits_eq(
            col2im(&m, &xs, g).as_slice(),
            ref_col2im(&m, &xs, g).as_slice(),
            &format!("col2im {g:?} {xs:?}"),
        );
    }
}

/// The per-sample functions write into reused scratch: they must set every
/// element of their rows (padding included), leave the gap a wider stride
/// makes alone, and `im2col_t_into` must be the transpose of `im2col_into`.
#[test]
fn per_sample_lowering_overwrites_dirty_scratch_and_respects_the_stride() {
    let mut rng = StdRng::seed_from_u64(0x6E48);
    for (g, xs) in geometries() {
        let chw = [xs.c(), xs.h(), xs.w()];
        let (rows, plane) = col_dims(&Shape::nchw(1, xs.c(), xs.h(), xs.w()), g);
        let x = Tensor::from_vec(xs, values(&mut rng, xs.len(), 0.3));
        for (ni, xn) in x.as_slice().chunks_exact(xs.len() / xs.n()).enumerate() {
            let sample = Tensor::from_vec(Shape::nchw(1, chw[0], chw[1], chw[2]), xn.to_vec());
            let want = ref_im2col(&sample, g);
            let what = format!("{g:?} {xs:?} sample {ni}");

            let ld = plane + 2;
            let mut cols = vec![f32::NAN; rows * ld];
            im2col_into(xn, chw, g, &mut cols, ld);
            for (r, row) in cols.chunks_exact(ld).enumerate() {
                assert_bits_eq(&row[..plane], &want.as_slice()[r * plane..][..plane], &what);
                assert!(
                    row[plane..].iter().all(|v| v.is_nan()),
                    "{what}: wrote into the gap"
                );
            }

            let ld_t = rows + 5;
            let mut cols_t = vec![f32::NAN; plane * ld_t];
            im2col_t_into(xn, chw, g, &mut cols_t, ld_t);
            let want_t = ref_transpose(&want);
            for (p, row) in cols_t.chunks_exact(ld_t).enumerate() {
                assert_bits_eq(&row[..rows], &want_t.as_slice()[p * rows..][..rows], &what);
                assert!(
                    row[rows..].iter().all(|v| v.is_nan()),
                    "{what}: wrote into the gap"
                );
            }

            let m = Tensor::from_vec(*want.shape(), values(&mut rng, want.len(), 0.3));
            let mut strided = vec![f32::NAN; rows * ld];
            for (r, row) in strided.chunks_exact_mut(ld).enumerate() {
                row[..plane].copy_from_slice(&m.as_slice()[r * plane..][..plane]);
            }
            let mut dx = vec![0.0f32; xn.len()];
            col2im_acc(&strided, ld, chw, g, &mut dx);
            assert_bits_eq(&dx, ref_col2im(&m, sample.shape(), g).as_slice(), &what);
        }
    }
}
