//! Zero-Value Compression (ZVC).
//!
//! ZVC (Rhu et al., HPCA 2018; Sec. II-B4) stores a 1-bit non-zero mask per
//! word plus the packed non-zero words.  It compresses equally well for any
//! spatial distribution of zeros — which is why JPEG-ACT uses it instead of
//! run-length coding on frequency-domain activations, whose zeros are
//! randomly spread across mid and high frequencies (Sec. III-F).
//!
//! Two word widths are used in this workspace:
//!
//! * 1-byte words over quantized `i8` coefficients (the JPEG-ACT back end;
//!   max ratio 8×: one mask bit per byte),
//! * 4-byte words over raw `f32` activations (cDMA-style compression of
//!   sparse ReLU/dropout outputs; max ratio 32×).
//!
//! All fallible entry points return [`CodecError`] instead of panicking:
//! ZVC streams cross the offload wire ([`crate::wire`]) and must reject
//! malformed input gracefully.

use crate::error::CodecError;

/// A ZVC-compressed buffer: non-zero bit mask plus packed non-zero words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Zvc {
    /// One bit per source word, LSB-first within each mask byte.
    mask: Vec<u8>,
    /// The non-zero words, packed in order.
    values: Vec<u8>,
    /// Number of source words.
    words: usize,
    /// Word width in bytes (1 or 4 in practice).
    word_bytes: usize,
}

impl Zvc {
    /// Compresses a byte buffer interpreted as `word_bytes`-wide words.
    ///
    /// Returns [`CodecError::Corrupt`] if `word_bytes` is zero or
    /// `data.len()` is not a multiple of `word_bytes`.
    pub fn compress(data: &[u8], word_bytes: usize) -> Result<Self, CodecError> {
        if word_bytes == 0 {
            return Err(CodecError::Corrupt("ZVC word width must be positive"));
        }
        if data.len() % word_bytes != 0 {
            return Err(CodecError::Corrupt(
                "ZVC data length not a multiple of word width",
            ));
        }
        Ok(Self::compress_infallible(data, word_bytes))
    }

    /// Compresses a slice of `i8` values (1-byte words).
    pub fn compress_i8(data: &[i8]) -> Self {
        let mut bytes: Vec<u8> = jact_pool::take(data.len());
        bytes.extend(data.iter().map(|&v| v.cast_unsigned()));
        let z = Self::compress_infallible(&bytes, 1);
        jact_pool::give(bytes);
        z
    }

    /// Compresses a slice of `f32` values (4-byte words); only exact `+0.0`
    /// bit patterns count as zero, matching a hardware word comparator.
    pub fn compress_f32(data: &[f32]) -> Self {
        let mut bytes: Vec<u8> = jact_pool::take(data.len() * 4);
        for &v in data {
            // Normalize -0.0 to +0.0 so the mask sees it as zero, as the
            // cDMA hardware does for sign-magnitude zero.
            let v = if v == 0.0 { 0.0 } else { v };
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        let z = Self::compress_infallible(&bytes, 4);
        jact_pool::give(bytes);
        z
    }

    /// Compression core for callers that construct aligned buffers
    /// themselves; the width invariants hold by construction.  Counts
    /// non-zero words first so `values` is allocated exactly once at its
    /// final size.
    fn compress_infallible(data: &[u8], word_bytes: usize) -> Self {
        let words = data.len() / word_bytes;
        let nonzero = data
            .chunks_exact(word_bytes)
            .filter(|w| w.iter().any(|&b| b != 0))
            .count();
        let mut mask: Vec<u8> = jact_pool::take_zeroed(words.div_ceil(8));
        let mut values: Vec<u8> = jact_pool::take(nonzero * word_bytes);
        for w in 0..words {
            let chunk = &data[w * word_bytes..(w + 1) * word_bytes];
            if chunk.iter().any(|&b| b != 0) {
                mask[w / 8] |= 1 << (w % 8);
                values.extend_from_slice(chunk);
            }
        }
        Zvc {
            mask,
            values,
            words,
            word_bytes,
        }
    }

    /// Rebuilds a `Zvc` from wire-decoded parts, validating every
    /// invariant the decompressor relies on:
    ///
    /// * `word_bytes` is positive,
    /// * the mask has exactly `words.div_ceil(8)` bytes,
    /// * trailing mask bits past `words` are zero,
    /// * `values.len()` equals mask popcount × `word_bytes`.
    pub fn from_parts(
        mask: Vec<u8>,
        values: Vec<u8>,
        words: usize,
        word_bytes: usize,
    ) -> Result<Self, CodecError> {
        if word_bytes == 0 {
            return Err(CodecError::Corrupt("ZVC word width must be positive"));
        }
        if mask.len() != words.div_ceil(8) {
            return Err(CodecError::Corrupt("ZVC mask length mismatch"));
        }
        // Bits past the last word must be clear or decompress would
        // disagree with compress on the value count.
        if words % 8 != 0 {
            if let Some(&last) = mask.last() {
                if last >> (words % 8) != 0 {
                    return Err(CodecError::Corrupt("ZVC trailing mask bits set"));
                }
            }
        }
        let popcount: usize = mask.iter().map(|b| b.count_ones() as usize).sum();
        let expected = popcount.checked_mul(word_bytes);
        if expected != Some(values.len()) {
            return Err(CodecError::Corrupt(
                "ZVC value bytes disagree with mask popcount",
            ));
        }
        Ok(Zvc {
            mask,
            values,
            words,
            word_bytes,
        })
    }

    /// Rebuilds a `Zvc` from parts whose invariants hold by construction
    /// — the streaming tile encoder emits mask and value streams in lock
    /// step, so re-validating popcounts would only re-scan what it just
    /// wrote.  Callers must uphold the [`Zvc::from_parts`] invariants.
    pub(crate) fn from_parts_trusted(
        mask: Vec<u8>,
        values: Vec<u8>,
        words: usize,
        word_bytes: usize,
    ) -> Self {
        debug_assert_eq!(mask.len(), words.div_ceil(8));
        debug_assert_eq!(
            mask.iter().map(|b| b.count_ones() as usize).sum::<usize>() * word_bytes,
            values.len()
        );
        Zvc {
            mask,
            values,
            words,
            word_bytes,
        }
    }

    /// Decompresses back to the original byte buffer.  The buffer is
    /// drawn from the thread-local pool; callers on a steady-state path
    /// should hand it back with `jact_pool::give` once consumed.
    pub fn decompress(&self) -> Vec<u8> {
        let wb = self.word_bytes;
        let mut out: Vec<u8> = jact_pool::take_zeroed(self.words * wb);
        let mut vi = 0;
        for (w, word) in out.chunks_exact_mut(wb).enumerate() {
            if self.mask[w / 8] >> (w % 8) & 1 == 1 {
                word.copy_from_slice(&self.values[vi..vi + wb]);
                vi += wb;
            }
        }
        out
    }

    /// Decompresses to `i8` values.
    ///
    /// Returns [`CodecError::Corrupt`] if the stream was not compressed
    /// with 1-byte words.
    pub fn decompress_i8(&self) -> Result<Vec<i8>, CodecError> {
        if self.word_bytes != 1 {
            return Err(CodecError::Corrupt("not an i8 ZVC stream"));
        }
        let bytes = self.decompress();
        let mut out: Vec<i8> = jact_pool::take(bytes.len());
        out.extend(bytes.iter().map(|&b| b.cast_signed()));
        jact_pool::give(bytes);
        Ok(out)
    }

    /// Decompresses to `f32` values.
    ///
    /// Returns [`CodecError::Corrupt`] if the stream was not compressed
    /// with 4-byte words.
    pub fn decompress_f32(&self) -> Result<Vec<f32>, CodecError> {
        if self.word_bytes != 4 {
            return Err(CodecError::Corrupt("not an f32 ZVC stream"));
        }
        let bytes = self.decompress();
        let mut out: Vec<f32> = jact_pool::take(self.words);
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|w| f32::from_le_bytes([w[0], w[1], w[2], w[3]])),
        );
        jact_pool::give(bytes);
        Ok(out)
    }

    /// Compressed size in bytes: mask plus packed values.
    pub fn compressed_bytes(&self) -> usize {
        self.mask.len() + self.values.len()
    }

    /// Uncompressed size in bytes.
    pub fn uncompressed_bytes(&self) -> usize {
        self.words * self.word_bytes
    }

    /// Compression ratio (uncompressed / compressed).
    pub fn ratio(&self) -> f64 {
        self.uncompressed_bytes() as f64 / self.compressed_bytes() as f64
    }

    /// Number of non-zero words.
    pub fn nonzero_words(&self) -> usize {
        self.values.len() / self.word_bytes
    }

    /// The non-zero mask bytes (for collector/splitter framing).
    pub fn mask_bytes(&self) -> &[u8] {
        &self.mask
    }

    /// The packed non-zero value bytes.
    pub fn value_bytes(&self) -> &[u8] {
        &self.values
    }

    /// Number of source words.
    pub fn words(&self) -> usize {
        self.words
    }

    /// Word width in bytes.
    pub fn word_bytes(&self) -> usize {
        self.word_bytes
    }

    /// Decomposes into `(mask, values, words, word_bytes)` so consumers
    /// can recycle the backing storage (`jact_pool::give`) once a stream
    /// is spent.  The exact inverse of [`Zvc::from_parts`].
    pub fn into_parts(self) -> (Vec<u8>, Vec<u8>, usize, usize) {
        (self.mask, self.values, self.words, self.word_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_i8_mixed() {
        let data: Vec<i8> = vec![3, 0, -1, 0, 0, 12, 0, 0, 3, 2, -1, 1, 0, 0, 0, 0];
        let z = Zvc::compress_i8(&data);
        assert_eq!(z.decompress_i8().unwrap(), data);
    }

    #[test]
    fn figure4_example() {
        // Fig. 4 of the paper: 8 values [3,0,-1,0,0,12,0,0] -> mask
        // 10100100 (LSB-first here) + packed [3,-1,12].
        let data: Vec<i8> = vec![3, 0, -1, 0, 0, 12, 0, 0];
        let z = Zvc::compress_i8(&data);
        assert_eq!(z.nonzero_words(), 3);
        assert_eq!(z.compressed_bytes(), 1 + 3);
        assert_eq!(z.ratio(), 2.0);
    }

    #[test]
    fn all_zero_hits_max_ratio() {
        let data = vec![0i8; 64];
        let z = Zvc::compress_i8(&data);
        assert_eq!(z.compressed_bytes(), 8); // mask only
        assert_eq!(z.ratio(), 8.0);
        assert_eq!(z.decompress_i8().unwrap(), data);
    }

    #[test]
    fn all_nonzero_has_mask_overhead() {
        let data = vec![1i8; 64];
        let z = Zvc::compress_i8(&data);
        assert_eq!(z.compressed_bytes(), 8 + 64);
        assert!(z.ratio() < 1.0);
    }

    #[test]
    fn ratio_independent_of_zero_placement() {
        // Clustered vs scattered zeros, same count -> same size.
        let mut clustered = vec![0i8; 64];
        let mut scattered = vec![0i8; 64];
        for i in 0..32 {
            clustered[i] = 5;
            scattered[i * 2] = 5;
        }
        let zc = Zvc::compress_i8(&clustered);
        let zs = Zvc::compress_i8(&scattered);
        assert_eq!(zc.compressed_bytes(), zs.compressed_bytes());
    }

    #[test]
    fn roundtrip_f32() {
        let data = vec![0.0f32, 1.5, 0.0, -2.25, 0.0, 0.0, 3.75, 0.0];
        let z = Zvc::compress_f32(&data);
        assert_eq!(z.decompress_f32().unwrap(), data);
        // 8 words -> 1 mask byte + 3 * 4 value bytes.
        assert_eq!(z.compressed_bytes(), 1 + 12);
    }

    #[test]
    fn negative_zero_compresses_as_zero() {
        let data = vec![-0.0f32, 1.0];
        let z = Zvc::compress_f32(&data);
        assert_eq!(z.nonzero_words(), 1);
        let out = z.decompress_f32().unwrap();
        assert_eq!(out[0], 0.0);
        assert_eq!(out[1], 1.0);
    }

    #[test]
    fn non_multiple_of_8_words() {
        let data: Vec<i8> = vec![1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6];
        let z = Zvc::compress_i8(&data);
        assert_eq!(z.decompress_i8().unwrap(), data);
        assert_eq!(z.mask_bytes().len(), 2);
    }

    #[test]
    fn misaligned_data_is_an_error() {
        assert_eq!(
            Zvc::compress(&[1, 2, 3], 4),
            Err(CodecError::Corrupt(
                "ZVC data length not a multiple of word width"
            ))
        );
        assert_eq!(
            Zvc::compress(&[1, 2, 3], 0),
            Err(CodecError::Corrupt("ZVC word width must be positive"))
        );
    }

    #[test]
    fn wrong_width_decompress_is_an_error() {
        let z = Zvc::compress_i8(&[1, 0, 2]);
        assert!(z.decompress_f32().is_err());
        let z = Zvc::compress_f32(&[1.0, 0.0]);
        assert!(z.decompress_i8().is_err());
    }

    #[test]
    fn from_parts_roundtrip() {
        let z = Zvc::compress_i8(&[3, 0, -1, 0, 0, 12, 0, 0, 5]);
        let back = Zvc::from_parts(
            z.mask_bytes().to_vec(),
            z.value_bytes().to_vec(),
            z.words(),
            z.word_bytes(),
        )
        .unwrap();
        assert_eq!(back, z);
    }

    #[test]
    fn from_parts_rejects_bad_invariants() {
        // Mask length mismatch.
        assert!(Zvc::from_parts(vec![0xff, 0x00], vec![1; 8], 8, 1).is_err());
        // Popcount / value length disagreement.
        assert!(Zvc::from_parts(vec![0x0f], vec![1, 2, 3], 8, 1).is_err());
        // Trailing mask bits set past the word count.
        assert!(Zvc::from_parts(vec![0xff], vec![1; 8], 4, 1).is_err());
        // Zero word width.
        assert!(Zvc::from_parts(vec![], vec![], 0, 0).is_err());
    }

    #[test]
    fn empty_input() {
        let z = Zvc::compress_i8(&[]);
        assert_eq!(z.compressed_bytes(), 0);
        assert!(z.decompress_i8().unwrap().is_empty());
    }

    #[test]
    fn parallel_compress_matches_sequential_bitwise() {
        // 32 805 words with a ragged tail; every thread count must
        // produce the same mask and value streams as single-threaded
        // compression.
        let n = (1 << 15) * 4 + 37 * 4;
        let data: Vec<u8> = (0..n)
            .map(|i| if i % 7 < 4 { 0 } else { (i % 251) as u8 })
            .collect();
        let base = jact_par::with_threads(1, || Zvc::compress(&data, 4).unwrap());
        for threads in [2, 3, 8] {
            let z = jact_par::with_threads(threads, || Zvc::compress(&data, 4).unwrap());
            assert_eq!(z, base, "threads={threads}");
            let out = jact_par::with_threads(threads, || z.decompress());
            assert_eq!(out, data, "threads={threads}");
        }
    }
}
