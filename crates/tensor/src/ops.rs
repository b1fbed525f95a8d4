//! Tensor kernels: matrix multiply and the im2col/col2im convolution
//! lowering.
//!
//! Convolution forward and backward passes in `jact-dnn` are expressed as
//! matrix multiplications over im2col-unrolled patches — the same lowering
//! cuDNN's `IMPLICIT_GEMM` algorithm performs on the GPU in the paper's
//! experimental setup (Sec. VI-D).
//!
//! # Two levels
//!
//! The slice-level functions ([`gemm_acc`], [`im2col_into`],
//! [`im2col_t_into`], [`col2im_acc`], [`transpose_into`]) work on
//! caller-owned buffers with explicit row strides and allocate nothing;
//! `Conv2d` drives them one sample at a time over one reusable scratch.
//! The [`Tensor`]-level functions ([`matmul`], [`im2col`], [`col2im`],
//! [`transpose`]) allocate their result and call the slice level; there
//! is one implementation of each.
//!
//! # Determinism contract
//!
//! Every element a kernel here produces is the same IEEE-754 value, bit
//! for bit, whatever the tile sizes, the target CPU, the batch size or
//! the thread count:
//!
//! * [`gemm_acc`] computes each `C[i][j]` as
//!   `((C[i][j] + a[i][0]·b[0][j]) + a[i][1]·b[1][j]) + …` in ascending
//!   `k`, one rounded multiply and one rounded add per step.  Tiling only
//!   chooses which elements share registers.  There is no `mul_add` (a
//!   fused multiply-add rounds once, so the result would depend on whether
//!   the target has FMA), no splitting of the `k` range into partial sums
//!   and no reordering.  Because the accumulator is loaded from `C`,
//!   calling it once per sample on the same `C` continues the very chain
//!   a single whole-batch product would run.
//! * A `k` step is skipped when all the left-hand values of its row group
//!   are zero, where the unblocked kernel skipped every zero left-hand
//!   value on its own.  The steps only the latter skips add `±0` to an
//!   accumulator that is never `-0.0` (a chain that starts at `+0.0`
//!   cannot reach `-0.0` under round-to-nearest), so the two agree in
//!   every bit as long as the right-hand values are finite; see
//!   [`matmul`] for the non-finite case.
//! * [`col2im_acc`] adds the contributions to an input element in
//!   ascending `(kh, kw)`, as the whole-batch fold does.
//!
//! `crates/tensor/tests/kernel_oracle.rs` holds the unblocked reference
//! kernels and asserts equality with `to_bits` over every tile edge.

use crate::{Shape, Tensor};

/// Rows of `C` per register tile.
const MR: usize = 4;

/// Columns of `C` in the widest register tile: 4 × 32 accumulators are
/// sixteen 256-bit registers, which leaves room for the broadcast
/// left-hand values and a right-hand row.  (4 × 64 fills all thirty-two
/// and spills.)
const NR: usize = 32;

/// Accumulating strided GEMM: `C[m x n] += A[m x k] * B[k x n]`, all three
/// row-major with row strides `lda`, `ldb`, `ldc` (in elements).
///
/// `C` is cut into groups of [`MR`] rows (single rows at the bottom) and
/// each group into tiles 32, 16, 8, 4 or 1 columns wide, widest first.  A
/// tile keeps its accumulators in fixed-size arrays, so the safe loops
/// vectorize, and runs the whole `k` range (see the module's determinism
/// contract).  Tiles go along a row group before the next group starts:
/// `C` is then written front to back, and `B` is re-read per group from
/// whichever cache holds it.
///
/// A `k` step is skipped when the left-hand values of all the tile's rows
/// are zero, which keeps the weight-gradient product cheap when most of
/// the incoming gradient is exactly zero (behind ReLU, dropout and max
/// pooling).
///
/// # Panics
///
/// Panics if a stride is shorter than its row or a slice is too short for
/// the shape it is given.
#[allow(clippy::too_many_arguments)]
pub fn gemm_acc(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(
        lda >= k && ldb >= n && ldc >= n,
        "gemm_acc: stride shorter than a row"
    );
    assert!(a.len() >= (m - 1) * lda + k, "gemm_acc: lhs too short");
    assert!(b.len() >= (k - 1) * ldb + n, "gemm_acc: rhs too short");
    assert!(c.len() >= (m - 1) * ldc + n, "gemm_acc: output too short");
    let mut i = 0;
    while i + MR <= m {
        gemm_rows::<MR>(n, k, &a[i * lda..], lda, b, ldb, &mut c[i * ldc..], ldc);
        i += MR;
    }
    while i < m {
        gemm_rows::<1>(n, k, &a[i * lda..], lda, b, ldb, &mut c[i * ldc..], ldc);
        i += 1;
    }
}

/// One group of `R` rows of [`gemm_acc`], tile by tile along the columns.
#[allow(clippy::too_many_arguments)]
fn gemm_rows<const R: usize>(
    n: usize,
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) {
    let mut j = 0;
    while j < n {
        let (b, c) = (&b[j..], &mut c[j..]);
        j += match n - j {
            NR.. => gemm_tile::<R, NR>(k, a, lda, b, ldb, c, ldc),
            16.. => gemm_tile::<R, 16>(k, a, lda, b, ldb, c, ldc),
            8.. => gemm_tile::<R, 8>(k, a, lda, b, ldb, c, ldc),
            4.. => gemm_tile::<R, 4>(k, a, lda, b, ldb, c, ldc),
            _ => gemm_tile::<R, 1>(k, a, lda, b, ldb, c, ldc),
        };
    }
}

/// One `R x W` register tile of [`gemm_acc`]: loads the accumulators from
/// `c`, adds the `k` products to each in order, stores them back.
#[inline(always)]
fn gemm_tile<const R: usize, const W: usize>(
    k: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
) -> usize {
    let mut acc = [[0.0f32; W]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[r * ldc..r * ldc + W]);
    }
    let arows: [&[f32]; R] = std::array::from_fn(|r| &a[r * lda..r * lda + k]);
    for kk in 0..k {
        let av: [f32; R] = std::array::from_fn(|r| arows[r][kk]);
        // All of them ±0.0?  One branch on the OR of the bit patterns (sign
        // shifted out): a branch per value mispredicts every other step
        // when half the values are zero, as they are behind a ReLU.
        if av.iter().fold(0u32, |bits, v| bits | v.to_bits()) << 1 == 0 {
            continue;
        }
        let brow = &b[kk * ldb..kk * ldb + W];
        // Columns outside, rows inside: the row loop unrolls away and
        // leaves one loop along the contiguous axis to vectorize.  (Rows
        // outside lets the compiler vectorize across the rows instead,
        // with gathers and scatters — 50 times slower.)
        for j in 0..W {
            for r in 0..R {
                acc[r][j] += av[r] * brow[j];
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..r * ldc + W].copy_from_slice(row);
    }
    W
}

/// Dense row-major matrix multiply: `C[m x n] = A[m x k] * B[k x n]`,
/// [`gemm_acc`] onto a zeroed result.
///
/// Each element is the sum of its `k` products taken in ascending `k`
/// from `+0.0`.  Steps whose left-hand values are zero in all four rows
/// of a row group are skipped; a zero left-hand value whose group has a
/// non-zero row is multiplied like any other.  That only shows when the
/// right-hand value opposite it is infinite or NaN: the product is then
/// NaN rather than skipped (the unblocked kernel this replaced skipped
/// every zero left-hand value on its own).
///
/// # Panics
///
/// Panics if the shapes are not rank 2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul lhs must be rank 2");
    assert_eq!(b.shape().rank(), 2, "matmul rhs must be rank 2");
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let (k2, n) = (b.shape().dim(0), b.shape().dim(1));
    assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");

    let mut out = vec![0.0f32; m * n];
    gemm_acc(m, n, k, a.as_slice(), k, b.as_slice(), n, &mut out, n);
    Tensor::from_vec(Shape::mat(m, n), out)
}

/// Side of the square blocks [`transpose_into`] moves at a time: a block
/// of source rows and the block of destination rows it fills both stay in
/// L1.
const TRANSPOSE_BLOCK: usize = 16;

/// Writes the transpose of the row-major `rows x cols` matrix `src` into
/// `dst` (`cols x rows`), block by block.
///
/// # Panics
///
/// Panics if either slice is not `rows * cols` long.
pub fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose source length mismatch");
    assert_eq!(dst.len(), src.len(), "transpose destination length mismatch");
    for i0 in (0..rows).step_by(TRANSPOSE_BLOCK) {
        let i1 = (i0 + TRANSPOSE_BLOCK).min(rows);
        for j0 in (0..cols).step_by(TRANSPOSE_BLOCK) {
            let j1 = (j0 + TRANSPOSE_BLOCK).min(cols);
            for j in j0..j1 {
                let drow = &mut dst[j * rows + i0..j * rows + i1];
                for (i, d) in drow.iter_mut().enumerate() {
                    *d = src[(i0 + i) * cols + j];
                }
            }
        }
    }
}

/// Transposes a rank-2 tensor.
///
/// # Panics
///
/// Panics if `a` is not rank 2.
pub fn transpose(a: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "transpose requires rank 2");
    let (m, n) = (a.shape().dim(0), a.shape().dim(1));
    let mut out = vec![0.0f32; m * n];
    transpose_into(a.as_slice(), m, n, &mut out);
    Tensor::from_vec(Shape::mat(n, m), out)
}

/// Spatial geometry of a convolution / pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Kernel height and width (square kernels only).
    pub kernel: usize,
    /// Stride in both spatial dimensions.
    pub stride: usize,
    /// Zero padding in both spatial dimensions.
    pub pad: usize,
}

impl ConvGeom {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new(kernel: usize, stride: usize, pad: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "kernel and stride must be > 0");
        ConvGeom {
            kernel,
            stride,
            pad,
        }
    }

    /// Output spatial extent for an input extent `i`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit (`i + 2*pad < kernel`).
    pub fn out_extent(&self, i: usize) -> usize {
        assert!(
            i + 2 * self.pad >= self.kernel,
            "input extent {i} too small for kernel {} with pad {}",
            self.kernel,
            self.pad
        );
        (i + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// The output positions `lo..hi` (of `out`) whose window tap `k` lands
    /// inside an input extent `i`; the rest read padding.
    fn tap_range(&self, k: usize, i: usize, out: usize) -> (usize, usize) {
        let lo = self.pad.saturating_sub(k).div_ceil(self.stride);
        let hi = match (i + self.pad).checked_sub(k + 1) {
            Some(last) => (last / self.stride + 1).min(out),
            None => 0,
        };
        (lo.min(hi), hi)
    }
}

/// Unrolls one `[C, H, W]` sample `x` into its im2col matrix: row
/// `(ci*K + kh)*K + kw` of `out` (row stride `ld`) receives the `OH*OW`
/// values tap `(kh, kw)` of channel `ci` sees, zero where it reads
/// padding.  Every element of those rows is written, so `out` may hold
/// anything beforehand.
///
/// # Panics
///
/// Panics if `x` is not `C*H*W` long, `ld < OH*OW`, `out` is too short or
/// the geometry does not fit.
pub fn im2col_into(x: &[f32], chw: [usize; 3], g: ConvGeom, out: &mut [f32], ld: usize) {
    let [c, h, w] = chw;
    let (oh, ow) = (g.out_extent(h), g.out_extent(w));
    assert_eq!(x.len(), c * h * w, "im2col input length mismatch");
    assert!(ld >= oh * ow, "im2col row stride shorter than a row");
    for ci in 0..c {
        for kh in 0..g.kernel {
            let (y_lo, y_hi) = g.tap_range(kh, h, oh);
            for kw in 0..g.kernel {
                let (x_lo, x_hi) = g.tap_range(kw, w, ow);
                let row = (ci * g.kernel + kh) * g.kernel + kw;
                let orow = &mut out[row * ld..row * ld + oh * ow];
                if x_lo == x_hi {
                    orow.fill(0.0);
                    continue;
                }
                orow[..y_lo * ow].fill(0.0);
                orow[y_hi * ow..].fill(0.0);
                let first = x_lo * g.stride + kw - g.pad;
                for oy in y_lo..y_hi {
                    let dst = &mut orow[oy * ow..(oy + 1) * ow];
                    let src = &x[(ci * h + oy * g.stride + kh - g.pad) * w..][..w];
                    dst[..x_lo].fill(0.0);
                    dst[x_hi..].fill(0.0);
                    if g.stride == 1 {
                        dst[x_lo..x_hi].copy_from_slice(&src[first..first + x_hi - x_lo]);
                    } else {
                        let taps = src[first..].iter().step_by(g.stride);
                        for (d, &v) in dst[x_lo..x_hi].iter_mut().zip(taps) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// The transpose of [`im2col_into`]'s matrix, produced directly: row
/// `oy*OW + ox` of `out` (row stride `ld`) receives the `C*K*K` values of
/// that output position's receptive field.  Every element of those rows
/// is written.
///
/// # Panics
///
/// Panics if `x` is not `C*H*W` long, `ld < C*K*K`, `out` is too short or
/// the geometry does not fit.
pub fn im2col_t_into(x: &[f32], chw: [usize; 3], g: ConvGeom, out: &mut [f32], ld: usize) {
    let [c, h, w] = chw;
    let (oh, ow) = (g.out_extent(h), g.out_extent(w));
    let ckk = c * g.kernel * g.kernel;
    assert_eq!(x.len(), c * h * w, "im2col input length mismatch");
    assert!(ld >= ckk, "im2col row stride shorter than a row");
    let k = g.kernel;
    // The output columns whose whole window row lies inside the input:
    // tap 0 bounds them below, tap K-1 above.
    let (in_lo, in_hi) = (g.tap_range(0, w, ow).0, g.tap_range(k - 1, w, ow).1);
    let in_lo = in_lo.min(in_hi);
    // One output row of positions at a time: its `OW x CKK` block of
    // `out` stays in L1 while the window rows are copied into it, `K`
    // adjacent taps per position.
    for oy in 0..oh {
        let block = &mut out[oy * ow * ld..];
        for ci in 0..c {
            for kh in 0..k {
                let col = (ci * k + kh) * k;
                let iy = (oy * g.stride + kh).wrapping_sub(g.pad);
                if iy >= h {
                    for ox in 0..ow {
                        block[ox * ld + col..][..k].fill(0.0);
                    }
                    continue;
                }
                let xrow = &x[(ci * h + iy) * w..][..w];
                for ox in (0..in_lo).chain(in_hi..ow) {
                    for (kw, d) in block[ox * ld + col..][..k].iter_mut().enumerate() {
                        let ix = (ox * g.stride + kw).wrapping_sub(g.pad);
                        *d = if ix < w { xrow[ix] } else { 0.0 };
                    }
                }
                for ox in in_lo..in_hi {
                    let taps = &xrow[ox * g.stride - g.pad..][..k];
                    let run = &mut block[ox * ld + col..][..k];
                    // A 3-wide run (every conv here but the 1x1 shortcuts)
                    // moves as one fixed-size array; the general loop
                    // costs three times as much per element.
                    match (
                        <&mut [f32; 3]>::try_from(&mut *run),
                        <&[f32; 3]>::try_from(taps),
                    ) {
                        (Ok(run), Ok(taps)) => *run = *taps,
                        _ => run.iter_mut().zip(taps).for_each(|(d, &v)| *d = v),
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col_into`]: adds the `[C*K*K, OH*OW]` matrix `cols`
/// (row stride `ld`) onto the `[C, H, W]` sample `out`, summing where
/// receptive fields overlap, in ascending `(kh, kw)` per element.
///
/// # Panics
///
/// Panics if `out` is not `C*H*W` long, `ld < OH*OW`, `cols` is too short
/// or the geometry does not fit.
pub fn col2im_acc(cols: &[f32], ld: usize, chw: [usize; 3], g: ConvGeom, out: &mut [f32]) {
    let [c, h, w] = chw;
    let (oh, ow) = (g.out_extent(h), g.out_extent(w));
    assert_eq!(out.len(), c * h * w, "col2im output length mismatch");
    assert!(ld >= oh * ow, "col2im row stride shorter than a row");
    for ci in 0..c {
        for kh in 0..g.kernel {
            let (y_lo, y_hi) = g.tap_range(kh, h, oh);
            for kw in 0..g.kernel {
                let (x_lo, x_hi) = g.tap_range(kw, w, ow);
                if x_lo == x_hi {
                    continue;
                }
                let row = (ci * g.kernel + kh) * g.kernel + kw;
                let crow = &cols[row * ld..row * ld + oh * ow];
                let first = x_lo * g.stride + kw - g.pad;
                for oy in y_lo..y_hi {
                    let src = &crow[oy * ow + x_lo..oy * ow + x_hi];
                    let dst = &mut out[(ci * h + oy * g.stride + kh - g.pad) * w..][..w];
                    if g.stride == 1 {
                        for (d, &v) in dst[first..].iter_mut().zip(src) {
                            *d += v;
                        }
                    } else {
                        let taps = dst[first..].iter_mut().step_by(g.stride);
                        for (d, &v) in taps.zip(src) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Unrolls an NCHW input into the im2col matrix of shape
/// `[C*K*K, N*OH*OW]`, where each column is one receptive field.
///
/// # Panics
///
/// Panics if `x` is not rank 4 or the geometry does not fit.
pub fn im2col(x: &Tensor, g: ConvGeom) -> Tensor {
    let (n, c, h, w) = (x.shape().n(), x.shape().c(), x.shape().h(), x.shape().w());
    let plane = g.out_extent(h) * g.out_extent(w);
    let rows = c * g.kernel * g.kernel;
    let cols = n * plane;
    let mut out = vec![0.0f32; rows * cols];
    for (ni, xn) in x.as_slice().chunks_exact(c * h * w).enumerate() {
        im2col_into(xn, [c, h, w], g, &mut out[ni * plane..], cols);
    }
    Tensor::from_vec(Shape::mat(rows, cols), out)
}

/// Folds an im2col matrix of shape `[C*K*K, N*OH*OW]` back onto an NCHW
/// tensor of shape `x_shape`, summing where receptive fields overlap.
/// This is the adjoint of [`im2col`], used in the convolution backward
/// pass to accumulate input gradients.
///
/// # Panics
///
/// Panics if shapes are inconsistent with the geometry.
pub fn col2im(cols_t: &Tensor, x_shape: &Shape, g: ConvGeom) -> Tensor {
    let (n, c, h, w) = (x_shape.n(), x_shape.c(), x_shape.h(), x_shape.w());
    let plane = g.out_extent(h) * g.out_extent(w);
    let rows = c * g.kernel * g.kernel;
    let cols = n * plane;
    assert_eq!(
        cols_t.shape().dims(),
        &[rows, cols],
        "col matrix shape mismatch"
    );
    let mut out = vec![0.0f32; x_shape.len()];
    for (ni, on) in out.chunks_exact_mut(c * h * w).enumerate() {
        col2im_acc(&cols_t.as_slice()[ni * plane..], cols, [c, h, w], g, on);
    }
    Tensor::from_vec(x_shape.clone(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let i = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(matmul(&a, &i).as_slice(), a.as_slice());
        assert_eq!(matmul(&i, &a).as_slice(), a.as_slice());
    }

    #[test]
    fn matmul_known_product() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(Shape::mat(2, 2), vec![5.0, 6.0, 7.0, 8.0]);
        assert_eq!(matmul(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        let a = Tensor::from_vec(Shape::mat(1, 3), vec![1.0, 2.0, 3.0]);
        let b = Tensor::from_vec(Shape::mat(3, 2), vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(matmul(&a, &b).as_slice(), &[4.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_dim_mismatch_panics() {
        let a = Tensor::zeros(Shape::mat(2, 3));
        let b = Tensor::zeros(Shape::mat(2, 3));
        let _ = matmul(&a, &b);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(Shape::mat(2, 3), (0..6).map(|i| i as f32).collect());
        let t = transpose(&a);
        assert_eq!(t.shape().dims(), &[3, 2]);
        assert_eq!(t.as_slice(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_eq!(transpose(&t).as_slice(), a.as_slice());
    }

    #[test]
    fn conv_geom_extents() {
        assert_eq!(ConvGeom::new(3, 1, 1).out_extent(8), 8); // same conv
        assert_eq!(ConvGeom::new(3, 2, 1).out_extent(8), 4); // strided
        assert_eq!(ConvGeom::new(1, 1, 0).out_extent(8), 8); // pointwise
        assert_eq!(ConvGeom::new(2, 2, 0).out_extent(8), 4); // pool-like
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: im2col is a [C, N*H*W] gather.
        let x = Tensor::from_vec(
            Shape::nchw(1, 2, 2, 2),
            (0..8).map(|i| i as f32).collect(),
        );
        let cols = im2col(&x, ConvGeom::new(1, 1, 0));
        assert_eq!(cols.shape().dims(), &[2, 4]);
        assert_eq!(cols.as_slice(), x.as_slice());
    }

    #[test]
    fn im2col_3x3_center_tap_matches_input() {
        let x = Tensor::from_vec(
            Shape::nchw(1, 1, 3, 3),
            (1..=9).map(|i| i as f32).collect(),
        );
        let cols = im2col(&x, ConvGeom::new(3, 1, 1));
        // Row 4 (kh=1, kw=1) is the center tap: equals the input itself.
        let row4 = &cols.as_slice()[4 * 9..5 * 9];
        assert_eq!(row4, x.as_slice());
        // Corner tap (kh=0, kw=0) sees zero padding in first row/col.
        let row0 = &cols.as_slice()[0..9];
        assert_eq!(row0, &[0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 0.0, 4.0, 5.0]);
    }

    #[test]
    fn conv_via_im2col_matches_direct() {
        // 1x1x3x3 input, single 3x3 averaging-ish kernel, pad 1.
        let x = Tensor::from_vec(
            Shape::nchw(1, 1, 3, 3),
            (1..=9).map(|i| i as f32).collect(),
        );
        let wt = Tensor::from_vec(Shape::mat(1, 9), vec![1.0; 9]);
        let cols = im2col(&x, ConvGeom::new(3, 1, 1));
        let y = matmul(&wt, &cols);
        // Center output = sum of all 9 elements = 45.
        assert_eq!(y.as_slice()[4], 45.0);
        // Top-left output = sum of the 2x2 corner = 1+2+4+5 = 12.
        assert_eq!(y.as_slice()[0], 12.0);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random-ish data.
        let g = ConvGeom::new(3, 1, 1);
        let xs = Shape::nchw(2, 2, 4, 4);
        let x = Tensor::from_vec(
            xs.clone(),
            (0..xs.len()).map(|i| ((i * 37 % 11) as f32) - 5.0).collect(),
        );
        let cols = im2col(&x, g);
        let ys = cols.shape().clone();
        let y = Tensor::from_vec(
            ys.clone(),
            (0..ys.len()).map(|i| ((i * 17 % 7) as f32) - 3.0).collect(),
        );
        let lhs: f64 = cols
            .iter()
            .zip(y.iter())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let back = col2im(&y, &xs, g);
        let rhs: f64 = x
            .iter()
            .zip(back.iter())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-6, "lhs={lhs} rhs={rhs}");
    }
}
