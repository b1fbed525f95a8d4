//! Collector and splitter: multi-CDU stream aggregation (Sec. III-G,
//! Fig. 15).
//!
//! Several Compression/Decompression Units (CDUs) each emit one
//! variable-sized ZVC block payload (8-byte non-zero mask + packed values,
//! up to 72 B) per cycle slot.  The **collector** joins these streams with
//! deterministic round-robin scheduling into 128 B DMA packets; the
//! **splitter** reverses the process on the way back from CPU memory by
//! peeking each block's mask to learn its length.
//!
//! Because scheduling is deterministic, no side-band metadata is needed —
//! the splitter recomputes the interleave exactly.  This module is the
//! functional model only: `jact-gpusim` does not depend on `jact-codec`
//! and times CDU traffic from its own analytic rates (`GpuConfig`).
//!
//! The splitter consumes bytes that crossed the DMA link, so every decode
//! failure is a typed [`CodecError::Stream`] naming the CDU index and the
//! byte offset where decoding failed — never a panic or a bare `None`.

use crate::error::CodecError;
use jact_par::Pool;

/// DMA packet size in bytes (two 64 B flits on the PCIe DMA path).
pub const PACKET_BYTES: usize = 128;

/// Blocks per parallel framing chunk (input-derived, thread-count
/// independent).
const FRAME_BLOCKS_PER_CHUNK: usize = 256;

/// One CDU output block: the ZVC form of a quantized 8×8 block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPayload {
    /// 64-bit non-zero mask (one bit per coefficient, LSB-first).
    pub mask: [u8; 8],
    /// Packed non-zero bytes; length must equal the mask popcount.
    pub values: Vec<u8>,
}

impl BlockPayload {
    /// Builds a payload from a quantized block, applying ZVC framing.
    pub fn from_block(block: &[i8; 64]) -> Self {
        let nonzero = block.iter().filter(|&&v| v != 0).count();
        let mut mask = [0u8; 8];
        let mut values = Vec::with_capacity(nonzero);
        for (m, lane) in mask.iter_mut().zip(block.chunks(8)) {
            for (bit, &v) in lane.iter().enumerate() {
                if v != 0 {
                    *m |= 1 << bit;
                    values.push(v.cast_unsigned());
                }
            }
        }
        BlockPayload { mask, values }
    }

    /// Reconstructs the dense quantized block.
    ///
    /// Returns [`CodecError::Corrupt`] if the value count does not match
    /// the mask popcount.
    pub fn to_block(&self) -> Result<[i8; 64], CodecError> {
        if self.values.len() != self.popcount() {
            return Err(CodecError::Corrupt(
                "block payload value count does not match mask popcount",
            ));
        }
        let mut out = [0i8; 64];
        let mut vals = self.values.iter();
        for (lane, &m) in out.chunks_mut(8).zip(&self.mask) {
            for (bit, o) in lane.iter_mut().enumerate() {
                if m >> bit & 1 == 1 {
                    // The popcount check above guarantees a value per set
                    // bit; the zero fallback is unreachable.
                    *o = vals.next().copied().unwrap_or(0).cast_signed();
                }
            }
        }
        Ok(out)
    }

    /// Number of non-zero values announced by the mask.
    pub fn popcount(&self) -> usize {
        self.mask.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Bytes this payload occupies on the wire (mask + values).
    pub fn wire_bytes(&self) -> usize {
        8 + self.values.len()
    }
}

/// Frames a contiguous run of quantized 8×8 blocks into per-block ZVC
/// payloads, one CDU's worth of work per chunk, across the current pool.
/// Payload order matches block order for any thread count, so the
/// collector's deterministic round-robin schedule is unaffected.
pub fn payloads_from_blocks(blocks: &[[i8; 64]]) -> Vec<BlockPayload> {
    let mut out = vec![
        BlockPayload {
            mask: [0u8; 8],
            values: Vec::new(),
        };
        blocks.len()
    ];
    Pool::current().par_chunks_mut(&mut out, FRAME_BLOCKS_PER_CHUNK, |_, off, chunk| {
        for (p, block) in chunk.iter_mut().zip(blocks.iter().skip(off)) {
            *p = BlockPayload::from_block(block);
        }
    });
    out
}

/// Collects per-CDU block streams into a single 128 B-packet DMA stream.
///
/// CDUs are drained round-robin, one block per slot; exhausted CDUs are
/// skipped (the hardware stalls them out of the schedule identically).
/// The final packet is zero-padded to [`PACKET_BYTES`].
///
/// Returns the packed byte stream, or [`CodecError::Stream`] naming the
/// CDU and output offset if a payload's value count disagrees with its
/// mask popcount.
pub fn collect(streams: &[Vec<BlockPayload>]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::new();
    let mut cursors: Vec<_> = streams.iter().map(|s| s.iter()).collect();
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut emitted = 0usize;
    while emitted < total {
        for (ci, cursor) in cursors.iter_mut().enumerate() {
            if let Some(b) = cursor.next() {
                if b.values.len() != b.popcount() {
                    return Err(CodecError::Stream {
                        cdu: ci,
                        offset: out.len(),
                        what: "payload value count does not match mask popcount",
                    });
                }
                out.extend_from_slice(&b.mask);
                out.extend_from_slice(&b.values);
                emitted += 1;
            }
        }
    }
    // Pad to a whole number of DMA packets.
    let rem = out.len() % PACKET_BYTES;
    if rem != 0 {
        out.resize(out.len() + PACKET_BYTES - rem, 0);
    }
    Ok(out)
}

/// Splits a collected DMA stream back into per-CDU block streams.
///
/// `counts[c]` is the number of blocks CDU `c` contributed; the splitter
/// re-derives the round-robin interleave from these counts alone.
///
/// Returns [`CodecError::Stream`] naming the CDU index and byte offset if
/// the stream ends before the announced counts are satisfied.
pub fn split(bytes: &[u8], counts: &[usize]) -> Result<Vec<Vec<BlockPayload>>, CodecError> {
    let mut outs: Vec<Vec<BlockPayload>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    let total: usize = counts.iter().sum();
    let mut pos = 0usize;
    let mut emitted = 0usize;
    while emitted < total {
        for (ci, (out, &count)) in outs.iter_mut().zip(counts).enumerate() {
            if out.len() < count {
                let Some(mask_bytes) = pos.checked_add(8).and_then(|end| bytes.get(pos..end))
                else {
                    return Err(CodecError::Stream {
                        cdu: ci,
                        offset: pos,
                        what: "stream ends inside block mask",
                    });
                };
                let mask: [u8; 8] = mask_bytes.try_into().unwrap_or([0u8; 8]);
                pos += 8;
                let n: usize = mask.iter().map(|b| b.count_ones() as usize).sum();
                let Some(value_bytes) = pos.checked_add(n).and_then(|end| bytes.get(pos..end))
                else {
                    return Err(CodecError::Stream {
                        cdu: ci,
                        offset: pos,
                        what: "stream ends inside block values",
                    });
                };
                let values = value_bytes.to_vec();
                pos += n;
                out.push(BlockPayload { mask, values });
                emitted += 1;
            }
        }
    }
    Ok(outs)
}

/// Number of 128 B DMA packets a byte total occupies.
pub fn packets_for(bytes: usize) -> usize {
    bytes.div_ceil(PACKET_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_with(nonzeros: &[(usize, i8)]) -> [i8; 64] {
        let mut b = [0i8; 64];
        for &(i, v) in nonzeros {
            b[i] = v;
        }
        b
    }

    #[test]
    fn payload_roundtrip() {
        let b = block_with(&[(0, 3), (5, -1), (63, 12)]);
        let p = BlockPayload::from_block(&b);
        assert_eq!(p.popcount(), 3);
        assert_eq!(p.wire_bytes(), 11);
        assert_eq!(p.to_block().unwrap(), b);
    }

    #[test]
    fn empty_block_is_mask_only() {
        let p = BlockPayload::from_block(&[0i8; 64]);
        assert_eq!(p.wire_bytes(), 8);
        assert_eq!(p.to_block().unwrap(), [0i8; 64]);
    }

    #[test]
    fn malformed_payload_to_block_is_an_error() {
        let p = BlockPayload {
            mask: [0xff; 8],
            values: vec![1, 2, 3],
        };
        assert!(matches!(p.to_block(), Err(CodecError::Corrupt(_))));
    }

    #[test]
    fn collect_split_roundtrip_equal_streams() {
        let streams: Vec<Vec<BlockPayload>> = (0..4)
            .map(|c| {
                (0..5)
                    .map(|i| {
                        BlockPayload::from_block(&block_with(&[
                            (i, (c + 1) as i8),
                            ((i + c) % 64, -2),
                        ]))
                    })
                    .collect()
            })
            .collect();
        let bytes = collect(&streams).expect("well-formed streams");
        assert_eq!(bytes.len() % PACKET_BYTES, 0);
        let counts: Vec<usize> = streams.iter().map(|s| s.len()).collect();
        let back = split(&bytes, &counts).expect("splits");
        assert_eq!(back, streams);
    }

    #[test]
    fn collect_split_roundtrip_unequal_streams() {
        let streams: Vec<Vec<BlockPayload>> = vec![
            (0..7)
                .map(|i| BlockPayload::from_block(&block_with(&[(i, 1)])))
                .collect(),
            (0..3)
                .map(|i| BlockPayload::from_block(&block_with(&[(i * 2, -3), (50, 9)])))
                .collect(),
            Vec::new(),
            (0..1)
                .map(|_| BlockPayload::from_block(&[0i8; 64]))
                .collect(),
        ];
        let bytes = collect(&streams).expect("well-formed streams");
        let counts: Vec<usize> = streams.iter().map(|s| s.len()).collect();
        let back = split(&bytes, &counts).expect("splits");
        assert_eq!(back, streams);
    }

    #[test]
    fn collect_rejects_malformed_payload_with_cdu_index() {
        let good = vec![BlockPayload::from_block(&block_with(&[(0, 1)]))];
        let bad = vec![BlockPayload {
            mask: [0xff; 8],
            values: vec![1],
        }];
        let err = collect(&[good, bad]).unwrap_err();
        assert_eq!(
            err,
            CodecError::Stream {
                cdu: 1,
                offset: 9,
                what: "payload value count does not match mask popcount",
            }
        );
    }

    #[test]
    fn interleave_is_round_robin() {
        // CDU0 block then CDU1 block: first 8 bytes on the wire are CDU0's
        // mask.
        let b0 = BlockPayload::from_block(&block_with(&[(0, 7)]));
        let b1 = BlockPayload::from_block(&block_with(&[(1, 8)]));
        let bytes = collect(&[vec![b0.clone()], vec![b1.clone()]]).expect("well-formed");
        assert_eq!(&bytes[0..8], &b0.mask);
        assert_eq!(bytes[8], 7u8);
        assert_eq!(&bytes[9..17], &b1.mask);
    }

    #[test]
    fn truncated_stream_names_cdu_and_offset() {
        let streams = vec![vec![BlockPayload::from_block(&block_with(&[(0, 1)]))]];
        let bytes = collect(&streams).expect("well-formed");
        let err = split(&bytes[..4], &[1]).unwrap_err();
        assert_eq!(
            err,
            CodecError::Stream {
                cdu: 0,
                offset: 0,
                what: "stream ends inside block mask",
            }
        );
    }

    #[test]
    fn truncated_values_name_cdu_and_offset() {
        // A dense mask announcing 64 values followed by only 2 bytes.
        let mut bytes = vec![0xffu8; 8];
        bytes.extend_from_slice(&[1, 2]);
        let err = split(&bytes, &[1]).unwrap_err();
        assert_eq!(
            err,
            CodecError::Stream {
                cdu: 0,
                offset: 8,
                what: "stream ends inside block values",
            }
        );
    }

    #[test]
    fn parallel_framing_matches_per_block_framing() {
        let blocks: Vec<[i8; 64]> = (0..600)
            .map(|b| block_with(&[(b % 64, (b % 120) as i8 - 60), ((b * 7) % 64, 3)]))
            .collect();
        let want: Vec<BlockPayload> = blocks.iter().map(BlockPayload::from_block).collect();
        for threads in [1, 2, 8] {
            let got = jact_par::with_threads(threads, || payloads_from_blocks(&blocks));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn packets_for_rounds_up() {
        assert_eq!(packets_for(0), 0);
        assert_eq!(packets_for(1), 1);
        assert_eq!(packets_for(128), 1);
        assert_eq!(packets_for(129), 2);
    }
}
