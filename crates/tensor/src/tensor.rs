//! The contiguous row-major `f32` tensor type.

use crate::Shape;
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor.
///
/// This is the single value type flowing through the whole workspace:
/// network activations, weights, gradients, im2col buffers, and the inputs
/// to every compression pipeline.  Rank-4 tensors are interpreted as NCHW.
///
/// The type deliberately owns its storage (`Vec<f32>`); views/strides are
/// avoided to keep the codec layers simple and allocation behaviour obvious.
///
/// # Example
///
/// ```
/// use jact_tensor::{Tensor, Shape};
///
/// let mut t = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
/// t.set4(0, 0, 1, 1, 3.5);
/// assert_eq!(t.get4(0, 0, 1, 1), 3.5);
/// assert_eq!(t.iter().sum::<f32>(), 3.5);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: Shape) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![0.0; len],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: Shape, value: f32) -> Self {
        let len = shape.len();
        Tensor {
            shape,
            data: vec![value; len],
        }
    }

    /// Creates a tensor from an existing data buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != shape.len()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.len(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor::from_vec(Shape::vec(data.len()), data.to_vec())
    }

    /// The shape of this tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` iff the tensor has no elements (never, by [`Shape`] invariant).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying buffer in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying buffer in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// Mutable iteration over elements in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f32> {
        self.data.iter_mut()
    }

    /// Reads element `(n, c, h, w)` of an NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 (index checks in debug builds).
    #[inline]
    pub fn get4(&self, n: usize, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.shape.offset4(n, c, h, w)]
    }

    /// Writes element `(n, c, h, w)` of an NCHW tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 (index checks in debug builds).
    #[inline]
    pub fn set4(&mut self, n: usize, c: usize, h: usize, w: usize, v: f32) {
        let off = self.shape.offset4(n, c, h, w);
        self.data[off] = v;
    }

    /// Returns a copy with shape `new_shape`; element order is preserved.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, new_shape: Shape) -> Tensor {
        assert_eq!(
            self.len(),
            new_shape.len(),
            "cannot reshape {} to {new_shape}",
            self.shape
        );
        Tensor {
            shape: new_shape,
            data: self.data.clone(),
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Elementwise binary combination of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "shape mismatch in zip");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0 for the impossible empty case).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value over all elements.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &v| m.max(v.abs()))
    }

    /// Fraction of elements equal to zero.
    pub fn sparsity(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        let zeros = self.data.iter().filter(|&&v| v == 0.0).count();
        zeros as f64 / self.data.len() as f64
    }

    /// Mean squared difference to `other`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn mse(&self, other: &Tensor) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch in mse");
        let mut acc = 0.0f64;
        for (&a, &b) in self.data.iter().zip(&other.data) {
            let d = (a - b) as f64;
            acc += d * d;
        }
        acc / self.data.len() as f64
    }

    /// L2 norm of the difference to `other`: `||self - other||_2`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn l2_distance(&self, other: &Tensor) -> f64 {
        (self.mse(other) * self.data.len() as f64).sqrt()
    }

    /// Per-channel maximum of `|x|` over the `n`, `h`, `w` axes of an NCHW
    /// tensor — the `max_nhw(|x_nchw|)` reduction in SFPR (Eqn. 4).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4.
    pub fn channel_max_abs(&self) -> Vec<f32> {
        let (n, c, h, w) = (
            self.shape.n(),
            self.shape.c(),
            self.shape.h(),
            self.shape.w(),
        );
        let mut maxes = vec![0.0f32; c];
        let plane = h * w;
        for ni in 0..n {
            for ci in 0..c {
                let base = (ni * c + ci) * plane;
                let m = &mut maxes[ci];
                for &v in &self.data[base..base + plane] {
                    let a = v.abs();
                    if a > *m {
                        *m = a;
                    }
                }
            }
        }
        maxes
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor({}, mean={:.4}, max|x|={:.4})",
            self.shape,
            self.mean(),
            self.max_abs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor::zeros(Shape::nchw(2, 2, 2, 2));
        assert_eq!(t.len(), 16);
        t.set4(1, 1, 1, 1, 7.0);
        assert_eq!(t.get4(1, 1, 1, 1), 7.0);
        assert_eq!(t.as_slice()[15], 7.0);
    }

    #[test]
    fn from_vec_checks_len() {
        let t = Tensor::from_vec(Shape::mat(2, 2), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.sum(), 10.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_len_mismatch_panics() {
        let _ = Tensor::from_vec(Shape::mat(2, 2), vec![1.0]);
    }

    #[test]
    fn reshape_preserves_order() {
        let t = Tensor::from_vec(Shape::mat(2, 3), (0..6).map(|i| i as f32).collect());
        let r = t.reshape(Shape::new(&[3, 2]));
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape().dim(0), 3);
    }

    #[test]
    fn map_zip_and_reductions() {
        let a = Tensor::from_slice(&[1.0, -2.0, 3.0, 0.0]);
        let b = a.map(|v| v * 2.0);
        assert_eq!(b.as_slice(), &[2.0, -4.0, 6.0, 0.0]);
        let c = a.zip(&b, |x, y| x + y);
        assert_eq!(c.sum(), 6.0);
        assert_eq!(a.max_abs(), 3.0);
        assert_eq!(a.mean(), 0.5);
        assert!((a.sparsity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mse_and_l2() {
        let a = Tensor::from_slice(&[0.0, 0.0, 0.0, 0.0]);
        let b = Tensor::from_slice(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(a.mse(&b), 1.0);
        assert_eq!(a.l2_distance(&b), 2.0);
    }

    #[test]
    fn channel_max_abs_reduces_over_nhw() {
        let mut t = Tensor::zeros(Shape::nchw(2, 3, 2, 2));
        t.set4(0, 0, 0, 0, -5.0);
        t.set4(1, 0, 1, 1, 3.0);
        t.set4(1, 2, 0, 1, 9.0);
        assert_eq!(t.channel_max_abs(), vec![5.0, 0.0, 9.0]);
    }

    #[test]
    fn full_and_mean() {
        let t = Tensor::full(Shape::vec(10), 2.5);
        assert_eq!(t.mean(), 2.5);
    }
}
