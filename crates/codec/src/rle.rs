//! Zigzag run-length encoding + Huffman coding — the JPEG-BASE back end
//! (Sec. III-E).
//!
//! Quantized 8×8 blocks are scanned in zigzag order and coded as JPEG-style
//! `(run, size)` symbols followed by `size` amplitude bits, with `EOB`
//! (end-of-block) and `ZRL` (16-zero run) escapes.  Symbols are Huffman
//! coded with a static table — the hardware design uses fixed tables
//! (OpenCores encoder/decoder in the paper), so no per-tensor table is
//! transmitted.
//!
//! Unlike baseline JPEG we do not differentially code the DC coefficient:
//! blocks are independent so that the multi-CDU collector can interleave
//! them freely (Sec. III-G).

use crate::bits::{BitReader, BitWriter};
use crate::cast;
use crate::dqt::ZIGZAG;
use std::sync::LazyLock;

/// End-of-block symbol: `(run=0, size=0)`.
const EOB: u8 = 0x00;
/// 16-zero-run escape symbol: `(run=15, size=0)`.
const ZRL: u8 = 0xF0;

/// Amplitude size class of a quantized value: number of bits needed for
/// `|v|` (0 for zero, 8 for ±128).
fn size_class(v: i16) -> u32 {
    let a = v.unsigned_abs() as u32;
    32 - a.leading_zeros()
}

/// JPEG-style amplitude bits: positives as-is, negatives one's-complement
/// within the size class.
fn amplitude_bits(v: i16, size: u32) -> u32 {
    if v >= 0 {
        v as u32
    } else {
        (v + ((1 << size) - 1)) as u32
    }
}

fn amplitude_decode(bits: u32, size: u32) -> i16 {
    if size == 0 {
        return 0;
    }
    if bits < (1 << (size - 1)) {
        cast::exact_i16(bits as i32 - ((1 << size) - 1))
    } else {
        cast::exact_i16(bits as i32)
    }
}

/// A static Huffman code over the 256 `(run, size)` symbols.
struct HuffmanTable {
    /// `(code, bit length)` per symbol.
    codes: [(u32, u8); 256],
    /// Flattened decode tree: nodes of `(left, right)` child indices;
    /// leaves store `symbol + 512`.
    tree: Vec<(u32, u32)>,
}

const LEAF_BASE: u32 = 512;

impl HuffmanTable {
    /// Builds a Huffman code from symbol weights.
    fn from_weights(weights: &[u64; 256]) -> Self {
        // Simple O(n^2) Huffman construction; runs once per process.
        #[derive(Clone)]
        struct Node {
            weight: u64,
            idx: u32, // tree index or LEAF_BASE + symbol
        }
        let mut tree: Vec<(u32, u32)> = Vec::new();
        let mut heap: Vec<Node> = weights
            .iter()
            .enumerate()
            .map(|(s, &w)| Node {
                weight: w.max(1),
                idx: LEAF_BASE + s as u32,
            })
            .collect();
        // Pop the two lightest nodes each round; the loop guard makes
        // both pops infallible, expressed with let-else so no panic path
        // survives in the hot-path crate.
        while heap.len() > 1 {
            heap.sort_by(|a, b| b.weight.cmp(&a.weight));
            let (Some(a), Some(b)) = (heap.pop(), heap.pop()) else {
                break;
            };
            tree.push((a.idx, b.idx));
            heap.push(Node {
                weight: a.weight + b.weight,
                idx: (tree.len() - 1) as u32,
            });
        }
        let root = heap[0].idx;
        let mut codes = [(0u32, 0u8); 256];
        // Root may be a single leaf only in degenerate cases; weights are
        // all >= 1 so with 256 symbols the root is always internal.
        fn assign(tree: &[(u32, u32)], codes: &mut [(u32, u8); 256], node: u32, code: u32, len: u8) {
            if node >= LEAF_BASE {
                codes[(node - LEAF_BASE) as usize] = (code, len.max(1));
                return;
            }
            let (l, r) = tree[node as usize];
            assign(tree, codes, l, code << 1, len + 1);
            assign(tree, codes, r, (code << 1) | 1, len + 1);
        }
        assign(&tree, &mut codes, root, 0, 0);
        // Re-root the tree vector so the last node is the root (it already
        // is, by construction).
        HuffmanTable { codes, tree }
    }

    fn encode(&self, w: &mut BitWriter, symbol: u8) {
        let (code, len) = self.codes[symbol as usize];
        w.write_bits(code, len as u32);
    }

    fn decode(&self, r: &mut BitReader<'_>) -> Option<u8> {
        let mut node = (self.tree.len() - 1) as u32;
        loop {
            let bit = r.read_bit()?;
            let (l, rgt) = self.tree[node as usize];
            node = if bit { rgt } else { l };
            if node >= LEAF_BASE {
                return Some(cast::exact_u8(node - LEAF_BASE));
            }
        }
    }
}

/// Code length of a `(run, size)` symbol in the standard JPEG AC
/// luminance Huffman table (Annex K), approximated by its structure:
/// short codes for small run/size, 4 bits for EOB, 11 for ZRL, growing
/// roughly linearly in `run + size`.  The hardware encoder (OpenCores,
/// Sec. III-E) uses the standard fixed tables, so the software model must
/// not use a better-matched code than the hardware would.
fn standard_code_len(run: u32, size: u32) -> u32 {
    match (run, size) {
        (0, 0) => 4,  // EOB
        (15, 0) => 11, // ZRL
        (0, 1) | (0, 2) => 2,
        (0, 3) => 3,
        (0, 4) => 4,
        (0, 5) => 5,
        (0, 6) => 7,
        (0, 7) => 8,
        (0, 8) => 10,
        (1, 1) => 4,
        (1, 2) => 5,
        (1, 3) => 7,
        (1, 4) => 9,
        (2, 1) => 5,
        (2, 2) => 8,
        (3, 1) => 6,
        (3, 2) => 9,
        (4, 1) => 6,
        (5, 1) => 7,
        (6, 1) => 7,
        (7, 1) => 8,
        (r, s) => (3 + r + 2 * s).min(16),
    }
}

/// The static Huffman code, weighted to reproduce the standard JPEG AC
/// table's code lengths (weight `2^(18 - length)`).
static TABLE: LazyLock<HuffmanTable> = LazyLock::new(|| {
    let mut weights = [1u64; 256];
    for run in 0..16u32 {
        for size in 0..=15u32 {
            let sym = ((run << 4) | size) as usize;
            let len = standard_code_len(run, size);
            weights[sym] = 1u64 << (18u32.saturating_sub(len));
        }
    }
    HuffmanTable::from_weights(&weights)
});

/// Encodes one quantized 8×8 block (row-major) into the bit stream.
pub fn encode_block(w: &mut BitWriter, quant: &[i8; 64]) {
    let table = &*TABLE;
    let mut zz = [0i16; 64];
    for (k, z) in zz.iter_mut().enumerate() {
        *z = i16::from(quant[ZIGZAG[k]]);
    }
    let mut i = 0usize;
    while i < 64 {
        if zz[i] == 0 {
            // Count the zero run.
            let mut j = i;
            while j < 64 && zz[j] == 0 {
                j += 1;
            }
            if j == 64 {
                table.encode(w, EOB);
                return;
            }
            let mut run = j - i;
            while run >= 16 {
                table.encode(w, ZRL);
                run -= 16;
            }
            let v = zz[j];
            let size = size_class(v);
            table.encode(w, (cast::exact_u8(run as u32) << 4) | cast::exact_u8(size));
            w.write_bits(amplitude_bits(v, size), size);
            i = j + 1;
        } else {
            let v = zz[i];
            let size = size_class(v);
            table.encode(w, cast::exact_u8(size));
            w.write_bits(amplitude_bits(v, size), size);
            i += 1;
        }
    }
}

/// Decodes one quantized 8×8 block (row-major) from the bit stream.
///
/// Returns `None` if the stream ends mid-block.
pub fn decode_block(r: &mut BitReader<'_>) -> Option<[i8; 64]> {
    let table = &*TABLE;
    let mut zz = [0i16; 64];
    let mut i = 0usize;
    while i < 64 {
        let sym = table.decode(r)?;
        if sym == EOB {
            break;
        }
        if sym == ZRL {
            i += 16;
            continue;
        }
        let run = (sym >> 4) as usize;
        let size = (sym & 0xF) as u32;
        i += run;
        if i >= 64 {
            return None; // corrupt stream
        }
        let bits = r.read_bits(size)?;
        zz[i] = amplitude_decode(bits, size);
        i += 1;
    }
    let mut out = [0i8; 64];
    for (k, &z) in zz.iter().enumerate() {
        out[ZIGZAG[k]] = cast::sat_i8(i32::from(z));
    }
    Some(out)
}

/// Encodes a sequence of quantized blocks into a byte vector.
pub fn encode_blocks(blocks: &[[i8; 64]]) -> Vec<u8> {
    let mut w = BitWriter::pooled(blocks.len() * 64);
    for b in blocks {
        encode_block(&mut w, b);
    }
    w.finish()
}

/// Decodes `count` quantized blocks from a byte slice.
///
/// Returns `None` if the stream is truncated or corrupt.
pub fn decode_blocks(bytes: &[u8], count: usize) -> Option<Vec<[i8; 64]>> {
    let mut r = BitReader::new(bytes);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(decode_block(&mut r)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_class_boundaries() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 1);
        assert_eq!(size_class(-1), 1);
        assert_eq!(size_class(2), 2);
        assert_eq!(size_class(3), 2);
        assert_eq!(size_class(127), 7);
        assert_eq!(size_class(-128), 8);
    }

    #[test]
    fn amplitude_roundtrip_all_i8() {
        for v in i8::MIN..=i8::MAX {
            let v = v as i16;
            let s = size_class(v);
            let bits = amplitude_bits(v, s);
            assert_eq!(amplitude_decode(bits, s), v, "v={v}");
        }
    }

    #[test]
    fn all_zero_block_is_one_eob() {
        let block = [0i8; 64];
        let bytes = encode_blocks(&[block]);
        // EOB is the most frequent symbol: codes to very few bits.
        assert!(bytes.len() <= 2, "EOB block took {} bytes", bytes.len());
        let dec = decode_blocks(&bytes, 1).expect("decodes");
        assert_eq!(dec[0], block);
    }

    #[test]
    fn roundtrip_sparse_block() {
        let mut block = [0i8; 64];
        block[0] = 37;
        block[9] = -4;
        block[63] = 1;
        let bytes = encode_blocks(&[block]);
        let dec = decode_blocks(&bytes, 1).expect("decodes");
        assert_eq!(dec[0], block);
    }

    #[test]
    fn roundtrip_dense_block() {
        let mut block = [0i8; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = ((i as i32 * 11 % 255) - 127) as i8;
        }
        let bytes = encode_blocks(&[block]);
        let dec = decode_blocks(&bytes, 1).expect("decodes");
        assert_eq!(dec[0], block);
    }

    #[test]
    fn roundtrip_long_zero_runs_need_zrl() {
        let mut block = [0i8; 64];
        block[63] = -77; // 63 zeros then a value: requires 3 ZRLs.
        let bytes = encode_blocks(&[block]);
        let dec = decode_blocks(&bytes, 1).expect("decodes");
        assert_eq!(dec[0], block);
    }

    #[test]
    fn roundtrip_multiple_blocks() {
        let mut blocks = Vec::new();
        for b in 0..10 {
            let mut block = [0i8; 64];
            for i in 0..64 {
                if (i + b) % 5 == 0 {
                    block[i] = ((i as i32 - 32) / 2) as i8;
                }
            }
            blocks.push(block);
        }
        let bytes = encode_blocks(&blocks);
        let dec = decode_blocks(&bytes, blocks.len()).expect("decodes");
        assert_eq!(dec, blocks);
    }

    #[test]
    fn sparse_blocks_compress_well() {
        // 90% zeros: should beat 64 bytes/block comfortably.
        let mut blocks = Vec::new();
        for b in 0..100usize {
            let mut block = [0i8; 64];
            for i in (0..64).step_by(10) {
                block[i] = ((b + i) % 7) as i8 + 1;
            }
            blocks.push(block);
        }
        let bytes = encode_blocks(&blocks);
        let ratio = (blocks.len() * 64) as f64 / bytes.len() as f64;
        assert!(ratio > 3.0, "ratio={ratio}");
    }

    #[test]
    fn parallel_encode_matches_sequential_bitwise() {
        // Enough blocks, with varied content, that any split of the work
        // would land mid-byte in the bit stream.
        let blocks: Vec<[i8; 64]> = (0..531)
            .map(|b| {
                let mut block = [0i8; 64];
                for i in 0..64 {
                    if (i * 7 + b) % 5 == 0 {
                        block[i] = (((i * 31 + b * 13) % 255) as i32 - 127) as i8;
                    }
                }
                block
            })
            .collect();
        let base = jact_par::with_threads(1, || encode_blocks(&blocks));
        for threads in [2, 3, 8] {
            let bytes = jact_par::with_threads(threads, || encode_blocks(&blocks));
            assert_eq!(bytes, base, "threads={threads}");
        }
        let dec = decode_blocks(&base, blocks.len()).expect("decodes");
        assert_eq!(dec, blocks);
    }

    #[test]
    fn truncated_stream_returns_none() {
        let mut block = [0i8; 64];
        for (i, b) in block.iter_mut().enumerate() {
            *b = (i as i8).wrapping_mul(3);
        }
        let bytes = encode_blocks(&[block]);
        assert!(decode_blocks(&bytes[..bytes.len() / 2], 1).is_none());
    }
}
