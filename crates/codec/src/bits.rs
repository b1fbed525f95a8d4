//! Bit-level I/O used by the entropy coders.
//!
//! The RLE + Huffman back end of JPEG-BASE (Sec. III-E) produces a variable
//! width code stream; [`BitWriter`] and [`BitReader`] provide the MSB-first
//! bit packing that stream needs.

use crate::cast;

/// Accumulates bits MSB-first into a byte vector.
///
/// # Example
///
/// ```
/// use jact_codec::bits::{BitWriter, BitReader};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xff, 8);
/// let bytes = w.finish();
/// let mut r = BitReader::new(&bytes);
/// assert_eq!(r.read_bits(3), Some(0b101));
/// assert_eq!(r.read_bits(8), Some(0xff));
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits currently buffered in `acc` (0..8).
    nbits: u32,
    acc: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer backed by `buf`'s storage (the buffer is
    /// cleared, its capacity kept).  Pair with [`finish`](Self::finish)
    /// and `jact_pool::give` to run an entropy coder allocation-free in
    /// steady state.
    pub fn with_buf(mut buf: Vec<u8>) -> Self {
        buf.clear();
        BitWriter {
            bytes: buf,
            nbits: 0,
            acc: 0,
        }
    }

    /// Creates an empty writer whose storage is drawn from the
    /// thread-local buffer pool with at least `min_cap` bytes.
    pub fn pooled(min_cap: usize) -> Self {
        Self::with_buf(jact_pool::take(min_cap))
    }

    /// Appends the low `n` bits of `value`, MSB first.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn write_bits(&mut self, value: u32, n: u32) {
        assert!(n <= 32, "cannot write more than 32 bits at once");
        for i in (0..n).rev() {
            let bit = cast::lo8((value >> i) & 1);
            self.acc = (self.acc << 1) | bit;
            self.nbits += 1;
            if self.nbits == 8 {
                self.bytes.push(self.acc);
                self.acc = 0;
                self.nbits = 0;
            }
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u32, 1);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.nbits as usize
    }

    /// Flushes (zero-padding the final partial byte) and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.acc <<= 8 - self.nbits;
            self.bytes.push(self.acc);
        }
        self.bytes
    }

    /// Appends another writer's bit stream at bit granularity: the result
    /// is exactly as if every bit of `other` had been written to `self`
    /// directly.  This is what lets the RLE coder encode chunks of blocks
    /// in parallel and still emit a byte stream identical to sequential
    /// encoding.
    /// `other`'s spent backing storage is recycled to the buffer pool
    /// (except when moved wholesale into `self`).
    pub fn append(&mut self, other: BitWriter) {
        let BitWriter { bytes, nbits, acc } = other;
        if self.nbits == 0 {
            // Byte-aligned: splice the full bytes in one move.
            if self.bytes.is_empty() {
                let spent = std::mem::replace(&mut self.bytes, bytes);
                jact_pool::give(spent);
            } else {
                self.bytes.extend_from_slice(&bytes);
                jact_pool::give(bytes);
            }
        } else {
            for &b in &bytes {
                self.write_bits(b as u32, 8);
            }
            jact_pool::give(bytes);
        }
        if nbits > 0 {
            self.write_bits(acc as u32, nbits);
        }
    }
}

/// Reads bits MSB-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads `n` bits MSB-first; `None` if the stream is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `n > 32`.
    pub fn read_bits(&mut self, n: u32) -> Option<u32> {
        assert!(n <= 32);
        if self.pos + n as usize > self.bytes.len() * 8 {
            return None;
        }
        let mut v = 0u32;
        for _ in 0..n {
            let byte = self.bytes[self.pos / 8];
            let bit = (byte >> (7 - (self.pos % 8))) & 1;
            v = (v << 1) | bit as u32;
            self.pos += 1;
        }
        Some(v)
    }

    /// Reads one bit; `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let fields: Vec<(u32, u32)> = vec![
            (0b1, 1),
            (0b0, 1),
            (0b1011, 4),
            (0xdead, 16),
            (0x7fffffff, 31),
            (0, 5),
            (0b111, 3),
        ];
        for &(v, n) in &fields {
            w.write_bits(v, n);
        }
        let total: u32 = fields.iter().map(|&(_, n)| n).sum();
        assert_eq!(w.bit_len(), total as usize);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &fields {
            assert_eq!(r.read_bits(n), Some(v), "field ({v},{n})");
        }
    }

    #[test]
    fn read_past_end_is_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.finish(); // padded to 1 byte
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0b1010_0000));
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn empty_writer_produces_no_bytes() {
        assert!(BitWriter::new().finish().is_empty());
    }

    #[test]
    fn append_matches_sequential_writes_at_any_split() {
        // Write a fixed field sequence either into one writer or split
        // across two writers joined by `append`; the byte streams must be
        // identical for every split point (including unaligned ones).
        let fields: Vec<(u32, u32)> = (0..40u64)
            .map(|i| {
                let n = (i % 13 + 1) as u32;
                (((i * 2654435761) % (1u64 << n)) as u32, n)
            })
            .collect();
        let mut all = BitWriter::new();
        for &(v, n) in &fields {
            all.write_bits(v, n);
        }
        let want = all.finish();
        for split in 0..=fields.len() {
            let mut a = BitWriter::new();
            for &(v, n) in &fields[..split] {
                a.write_bits(v, n);
            }
            let mut b = BitWriter::new();
            for &(v, n) in &fields[split..] {
                b.write_bits(v, n);
            }
            a.append(b);
            assert_eq!(a.finish(), want, "split={split}");
        }
    }

    #[test]
    fn single_bits() {
        let mut w = BitWriter::new();
        for i in 0..10 {
            w.write_bit(i % 3 == 0);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for i in 0..10 {
            assert_eq!(r.read_bit(), Some(i % 3 == 0));
        }
    }
}
