//! GIST-style sparse storage: Compressed Sparse Row over 8-bit values.
//!
//! GIST's "Sparse Storage Dense Compute" (Jain et al., ISCA 2018;
//! Sec. II-B2, VI-B) first casts activations to 8-bit (DPR), then stores
//! only the non-zero values together with an 8-bit column index each.
//! With the optimizations of Jain et al. this costs 16 bits per non-zero,
//! so it only wins over dense 8-bit storage when sparsity exceeds 50 % —
//! exactly the break-even the paper observes failing for dropout-free
//! ResNets (Table I).
//!
//! Rows are segments of up to 256 elements so the column index fits in a
//! byte; a `u32` row-pointer per segment completes the layout.

use crate::cast;
use crate::error::CodecError;

/// Maximum row segment length with an 8-bit column index.
pub const MAX_ROW: usize = 256;

/// A CSR-compressed buffer of 8-bit values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Row pointer per segment (start offset into `cols`/`vals`).
    row_ptr: Vec<u32>,
    /// 8-bit column index of each non-zero within its segment.
    cols: Vec<u8>,
    /// The non-zero values.
    vals: Vec<i8>,
    /// Original element count.
    len: usize,
    /// Segment length used at compression time.
    row_len: usize,
}

impl Csr {
    /// Compresses `data` using segments of `row_len` elements.
    ///
    /// # Panics
    ///
    /// Panics if `row_len` is 0 or exceeds [`MAX_ROW`].
    pub fn compress(data: &[i8], row_len: usize) -> Self {
        assert!(
            (1..=MAX_ROW).contains(&row_len),
            "row_len must be in 1..={MAX_ROW}"
        );
        let rows = data.len().div_ceil(row_len);
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        row_ptr.push(0u32);
        for r in 0..rows {
            let start = r * row_len;
            let end = (start + row_len).min(data.len());
            for (c, &v) in data[start..end].iter().enumerate() {
                if v != 0 {
                    cols.push(cast::exact_u8(c as u32));
                    vals.push(v);
                }
            }
            row_ptr.push(vals.len() as u32);
        }
        Csr {
            row_ptr,
            cols,
            vals,
            len: data.len(),
            row_len,
        }
    }

    /// Compresses with the default 256-element segments.
    pub fn compress_default(data: &[i8]) -> Self {
        Csr::compress(data, MAX_ROW)
    }

    /// Rebuilds a CSR buffer from wire-decoded parts, validating every
    /// invariant [`Csr::decompress`] relies on: row pointers are monotone,
    /// start at 0, end at the non-zero count, and every column index stays
    /// inside its (possibly partial, final) row segment.
    pub fn from_parts(
        row_ptr: Vec<u32>,
        cols: Vec<u8>,
        vals: Vec<i8>,
        len: usize,
        row_len: usize,
    ) -> Result<Self, CodecError> {
        if !(1..=MAX_ROW).contains(&row_len) {
            return Err(CodecError::Corrupt("CSR row length out of 1..=256"));
        }
        let rows = len.div_ceil(row_len);
        if row_ptr.len() != rows + 1 {
            return Err(CodecError::Corrupt("CSR row pointer count mismatch"));
        }
        if row_ptr[0] != 0 {
            return Err(CodecError::Corrupt("CSR row pointers must start at 0"));
        }
        if cols.len() != vals.len() {
            return Err(CodecError::Corrupt(
                "CSR column and value counts disagree",
            ));
        }
        if row_ptr[rows] as usize != vals.len() {
            return Err(CodecError::Corrupt(
                "CSR row pointers must end at the non-zero count",
            ));
        }
        for r in 0..rows {
            let (a, b) = (row_ptr[r] as usize, row_ptr[r + 1] as usize);
            if a > b {
                return Err(CodecError::Corrupt("CSR row pointers not monotone"));
            }
            // An intermediate pointer past the buffer would only fail the
            // monotone check one pair later — after slicing with it here.
            if b > vals.len() {
                return Err(CodecError::Corrupt("CSR row pointer out of bounds"));
            }
            let base = r * row_len;
            let limit = row_len.min(len - base);
            for &c in &cols[a..b] {
                if c as usize >= limit {
                    return Err(CodecError::Corrupt(
                        "CSR column index out of row bounds",
                    ));
                }
            }
        }
        Ok(Csr {
            row_ptr,
            cols,
            vals,
            len,
            row_len,
        })
    }

    /// Consumes the buffer, returning the row-pointer, column and value
    /// planes (the buffer-pool recycling path).
    pub fn into_planes(self) -> (Vec<u32>, Vec<u8>, Vec<i8>) {
        (self.row_ptr, self.cols, self.vals)
    }

    /// Row pointers (one start offset per segment, plus the final count).
    pub fn row_ptr(&self) -> &[u32] {
        &self.row_ptr
    }

    /// Column index of each non-zero within its segment.
    pub fn cols(&self) -> &[u8] {
        &self.cols
    }

    /// The non-zero values.
    pub fn vals(&self) -> &[i8] {
        &self.vals
    }

    /// Segment length used at compression time.
    pub fn row_len(&self) -> usize {
        self.row_len
    }

    /// Decompresses back to the dense buffer.
    pub fn decompress(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.len];
        for r in 0..self.row_ptr.len() - 1 {
            let (a, b) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let base = r * self.row_len;
            for i in a..b {
                out[base + self.cols[i] as usize] = self.vals[i];
            }
        }
        out
    }

    /// Number of non-zero values stored.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Compressed size: 16 bits per non-zero plus the row pointers —
    /// the storage model of GIST's optimized CSR.
    pub fn compressed_bytes(&self) -> usize {
        self.vals.len() + self.cols.len() + self.row_ptr.len() * 4
    }

    /// Dense 8-bit size of the original buffer.
    pub fn dense_bytes(&self) -> usize {
        self.len
    }

    /// Compression ratio relative to dense 8-bit storage (can be < 1 when
    /// sparsity is below ~50 %, reproducing the paper's observation).
    pub fn ratio_vs_dense8(&self) -> f64 {
        self.dense_bytes() as f64 / self.compressed_bytes() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_sparse() {
        let mut data = vec![0i8; 1000];
        data[3] = 7;
        data[255] = -2;
        data[256] = 1;
        data[999] = 127;
        let c = Csr::compress_default(&data);
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.decompress(), data);
    }

    #[test]
    fn roundtrip_dense() {
        let data: Vec<i8> = (0..512).map(|i| ((i % 255) as i8).wrapping_sub(100)).collect();
        let c = Csr::compress_default(&data);
        assert_eq!(c.decompress(), data);
    }

    #[test]
    fn roundtrip_all_zero() {
        let data = vec![0i8; 300];
        let c = Csr::compress_default(&data);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.decompress(), data);
    }

    #[test]
    fn break_even_at_half_sparsity() {
        // 50% sparsity: 16 bits/nnz == 8 bits/element -> ratio ~1 (minus
        // row pointer overhead).
        let mut data = vec![0i8; 4096];
        for i in (0..4096).step_by(2) {
            data[i] = 1;
        }
        let c = Csr::compress_default(&data);
        let r = c.ratio_vs_dense8();
        assert!(r < 1.05, "ratio={r}");
        // 90% sparsity clearly wins.
        let mut sparse = vec![0i8; 4096];
        for i in (0..4096).step_by(10) {
            sparse[i] = 1;
        }
        let r = Csr::compress_default(&sparse).ratio_vs_dense8();
        assert!(r > 3.0, "ratio={r}");
    }

    #[test]
    fn dense_input_grows() {
        // 0% sparsity: CSR doubles the storage (value + index).
        let data = vec![1i8; 4096];
        let r = Csr::compress_default(&data).ratio_vs_dense8();
        assert!(r < 0.55, "ratio={r}");
    }

    #[test]
    fn short_row_segments() {
        let data: Vec<i8> = vec![0, 1, 0, 2, 0, 0, 3];
        let c = Csr::compress(&data, 4);
        assert_eq!(c.decompress(), data);
    }

    #[test]
    fn non_multiple_length() {
        let mut data = vec![0i8; 300];
        data[299] = -5;
        let c = Csr::compress(&data, 256);
        assert_eq!(c.decompress(), data);
    }

    #[test]
    #[should_panic(expected = "row_len")]
    fn oversized_row_rejected() {
        let _ = Csr::compress(&[1i8], 257);
    }

    #[test]
    fn from_parts_rejects_out_of_bounds_intermediate_pointer() {
        // Three segments of 4 over 10 elements, 2 non-zeros; the middle
        // pointer shoots past the buffer while the final one is correct.
        let r = Csr::from_parts(vec![0, 1_895_825_888, 2, 2], vec![0, 1], vec![1, 2], 10, 4);
        assert_eq!(
            r.unwrap_err(),
            CodecError::Corrupt("CSR row pointer out of bounds")
        );
    }
}
