//! Streaming tile pipeline: one 8×8 block travels gather → DCT →
//! quantize → entropy code without any intermediate `Vec<[i8; 64]>`
//! tensor ever being materialized — the software mirror of the paper's
//! CDU datapath (Sec. III, Fig. 11), where a block streams through the
//! alignment buffer, transform, quantizer, and coder in one pass.
//!
//! A stage is a plain closure.  The encode front end maps a block index
//! to its quantized tile (`|bi| quantize(dct(gather(bi)))`) and the
//! coding drivers ([`collect_tiles`], [`encode_rle`], [`encode_zvc`]) pull
//! tiles from it; the decode direction maps a quantized tile back to its
//! spatial tile (`|q| idct(dequantize(q))`) inside the scatter drivers
//! ([`decode_zvc`], [`untile_blocks`]), which write reconstructed rows
//! straight into the unpadded value plane.  Every driver runs its blocks
//! in index order on the calling thread.
//!
//! ## Byte compatibility
//!
//! RLE tiles append to one bit stream and ZVC tiles to one mask/value
//! pair (64 one-byte words per tile ⇒ 8 whole mask bytes per tile), so
//! the fused output is bitwise identical to the staged
//! `rle::encode_blocks` and `Zvc::compress_i8` over the same tiles.

use crate::bits::BitWriter;
use crate::block::BlockLayout;
use crate::error::CodecError;
use crate::rle;
use crate::zvc::Zvc;

/// Materializes every tile of an index-driven stage — the escape hatch
/// for consumers that need the full quantized block list (entropy and
/// rate-distortion metrics), not the streaming coders.
pub fn collect_tiles(stage: &impl Fn(usize) -> [i8; 64], num_blocks: usize) -> Vec<[i8; 64]> {
    (0..num_blocks).map(stage).collect()
}

/// Streams `num_blocks` tiles out of `stage` into an RLE + Huffman byte
/// stream — byte-identical to `rle::encode_blocks` over the same tiles.
pub fn encode_rle(stage: &impl Fn(usize) -> [i8; 64], num_blocks: usize) -> Vec<u8> {
    let mut w = BitWriter::pooled(num_blocks * 64);
    for bi in 0..num_blocks {
        rle::encode_block(&mut w, &stage(bi));
    }
    w.finish()
}

/// Streams `num_blocks` tiles out of `stage` into a ZVC stream —
/// equal to `Zvc::compress_i8` over the flattened tiles.
pub fn encode_zvc(stage: &impl Fn(usize) -> [i8; 64], num_blocks: usize) -> Zvc {
    // Pooled scratch sized for the dense worst case, so a warm shelf
    // serves the whole stream without growth reallocation.
    let mut mask: Vec<u8> = jact_pool::take_zeroed(num_blocks * 8);
    let mut values: Vec<u8> = jact_pool::take(num_blocks * 64);
    for bi in 0..num_blocks {
        let tile = stage(bi);
        for (w, &v) in tile.iter().enumerate() {
            if v != 0 {
                mask[bi * 8 + w / 8] |= 1 << (w % 8);
                values.push(v.cast_unsigned());
            }
        }
    }
    Zvc::from_parts_trusted(mask, values, num_blocks * 64, 1)
}

/// Writes the reconstructed rows of one spatial tile into the unpadded
/// output plane, dropping padding rows/columns inline (the streaming
/// inverse of `BlockLayout::gather_block`).
#[inline]
fn scatter_tile(layout: &BlockLayout, bi: usize, tile: &[i8; 64], out: &mut [i8]) {
    let (cols, bw) = (layout.cols(), layout.blocks_wide());
    let (br, bc) = (bi / bw, bi % bw);
    let c0 = bc * 8;
    let cw = (cols - c0).min(8);
    for (r, row) in tile.chunks_exact(8).enumerate() {
        if let Some(sr) = layout.source_row(br * 8 + r) {
            let dst = sr * cols + c0;
            out[dst..dst + cw].copy_from_slice(&row[..cw]);
        }
    }
}

/// Streams quantized tiles through `stage` (dequantize → inverse DCT)
/// and scatters the spatial rows into a fresh unpadded value plane —
/// the decode mirror of a `gather_block`-fed encode.
pub fn untile_blocks(
    layout: &BlockLayout,
    quantized: &[[i8; 64]],
    stage: &impl Fn([i8; 64]) -> [i8; 64],
) -> Vec<i8> {
    let mut out: Vec<i8> = jact_pool::take_zeroed(layout.shape().len());
    for bi in 0..layout.num_blocks() {
        scatter_tile(layout, bi, &stage(quantized[bi]), &mut out);
    }
    out
}

/// Streams a ZVC-coded stream through `stage` (dequantize → inverse DCT)
/// directly into the unpadded value plane, reconstructing each quantized
/// tile from the mask and packed values without materializing the flat
/// decompressed buffer or a block list.
///
/// # Errors
///
/// Returns [`CodecError::Corrupt`] if the stream's word width is not one
/// byte or its word count disagrees with the layout's block count.
pub fn decode_zvc(
    layout: &BlockLayout,
    z: &Zvc,
    stage: &impl Fn([i8; 64]) -> [i8; 64],
) -> Result<Vec<i8>, CodecError> {
    if z.word_bytes() != 1 {
        return Err(CodecError::Corrupt("not an i8 ZVC stream"));
    }
    if z.words() != layout.num_blocks() * 64 {
        return Err(CodecError::Corrupt("ZVC word count disagrees with layout"));
    }
    // Block `bi` owns mask bytes `bi*8..bi*8+8`; the packed values are
    // consumed in block order.
    let (mask, values) = (z.mask_bytes(), z.value_bytes());
    let mut out: Vec<i8> = jact_pool::take_zeroed(layout.shape().len());
    let mut vi = 0;
    for (bi, bits) in mask.chunks_exact(8).enumerate() {
        let mut q = [0i8; 64];
        for (w, o) in q.iter_mut().enumerate() {
            if bits[w / 8] >> (w % 8) & 1 == 1 {
                *o = values[vi].cast_signed();
                vi += 1;
            }
        }
        scatter_tile(layout, bi, &stage(q), &mut out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::PadStrategy;
    use crate::dct::{dct2d_i8, idct2d_to_i8};
    use crate::dqt::Dqt;
    use crate::quant::{quantize, QuantKind, QuantTables};
    use jact_tensor::Shape;

    fn ramp(n: usize) -> Vec<i8> {
        (0..n).map(|i| ((i * 7 % 251) as i32 - 125) as i8).collect()
    }

    /// Staged reference: materialize blocks, transform each, then run the
    /// staged coders — what the pipeline did before fusion.
    fn staged_quantized(layout: &BlockLayout, values: &[i8], kind: QuantKind, dqt: &Dqt) -> Vec<[i8; 64]> {
        layout
            .to_blocks(values)
            .iter()
            .map(|b| quantize(kind, &dct2d_i8(b), dqt))
            .collect()
    }

    fn encode_stage<'a>(
        layout: &'a BlockLayout,
        values: &'a [i8],
        tables: &'a QuantTables,
    ) -> impl Fn(usize) -> [i8; 64] + 'a {
        move |bi| tables.quantize_block(&dct2d_i8(&layout.gather_block(values, bi)))
    }

    fn decode_stage(tables: &QuantTables) -> impl Fn([i8; 64]) -> [i8; 64] + '_ {
        move |q| idct2d_to_i8(&tables.dequantize_block(&q))
    }

    #[test]
    fn fused_rle_matches_staged_bytes() {
        for shape in [Shape::nchw(1, 2, 8, 16), Shape::nchw(4, 16, 32, 32)] {
            let layout = BlockLayout::new(&shape);
            let values = ramp(shape.len());
            let dqt = Dqt::jpeg_quality(80);
            let tables = QuantTables::new(QuantKind::Div, &dqt);
            let staged = staged_quantized(&layout, &values, QuantKind::Div, &dqt);
            let want = rle::encode_blocks(&staged);
            let stage = encode_stage(&layout, &values, &tables);
            assert_eq!(encode_rle(&stage, layout.num_blocks()), want, "{shape:?}");
        }
    }

    #[test]
    fn fused_zvc_matches_staged_stream() {
        for shape in [Shape::nchw(1, 2, 8, 16), Shape::nchw(4, 16, 32, 32)] {
            let layout = BlockLayout::new(&shape);
            let values = ramp(shape.len());
            let dqt = Dqt::opt_h();
            let tables = QuantTables::new(QuantKind::Shift, &dqt);
            let staged = staged_quantized(&layout, &values, QuantKind::Shift, &dqt);
            let flat: Vec<i8> = staged.iter().flatten().copied().collect();
            let want = Zvc::compress_i8(&flat);
            let stage = encode_stage(&layout, &values, &tables);
            assert_eq!(encode_zvc(&stage, layout.num_blocks()), want, "{shape:?}");
        }
    }

    #[test]
    fn collect_tiles_matches_staged_blocks() {
        let shape = Shape::nchw(2, 3, 13, 17);
        let layout = BlockLayout::new(&shape);
        let values = ramp(shape.len());
        let dqt = Dqt::opt_l();
        let tables = QuantTables::new(QuantKind::Shift, &dqt);
        let stage = encode_stage(&layout, &values, &tables);
        assert_eq!(
            collect_tiles(&stage, layout.num_blocks()),
            staged_quantized(&layout, &values, QuantKind::Shift, &dqt)
        );
    }

    #[test]
    fn decode_zvc_rejects_mismatched_streams() {
        let shape = Shape::nchw(1, 1, 8, 8);
        let layout = BlockLayout::new(&shape);
        let dqt = Dqt::opt_l();
        let tables = QuantTables::new(QuantKind::Shift, &dqt);
        let stage = decode_stage(&tables);
        // Wrong word width.
        let z4 = Zvc::compress(&[0u8; 64 * 4], 4).expect("aligned");
        assert!(decode_zvc(&layout, &z4, &stage).is_err());
        // Wrong word count (two blocks' worth for a one-block layout).
        let z = Zvc::compress_i8(&vec![1i8; 128]);
        assert!(decode_zvc(&layout, &z, &stage).is_err());
    }

    #[test]
    fn zvc_decode_inverts_encode_through_scatter() {
        // Encode with the fused path, decode with the fused path, and
        // compare against the staged decode (decompress → untransform →
        // from_blocks) element for element.
        for shape in [
            Shape::nchw(1, 2, 8, 16),
            Shape::nchw(3, 2, 5, 11),
            Shape::nchw(4, 16, 32, 32),
        ] {
            let layout = BlockLayout::new(&shape);
            let values = ramp(shape.len());
            let dqt = Dqt::opt_h();
            let tables = QuantTables::new(QuantKind::Shift, &dqt);
            let enc = encode_stage(&layout, &values, &tables);
            let z = encode_zvc(&enc, layout.num_blocks());
            let dec = decode_stage(&tables);
            let got = decode_zvc(&layout, &z, &dec).expect("valid stream");
            // Staged reference decode.
            let staged_q = staged_quantized(&layout, &values, QuantKind::Shift, &dqt);
            let staged_spatial: Vec<[i8; 64]> = staged_q
                .iter()
                .map(|q| idct2d_to_i8(&tables.dequantize_block(q)))
                .collect();
            let want = layout.from_blocks(&staged_spatial);
            assert_eq!(got, want, "{shape:?}");
        }
    }

    #[test]
    fn untile_matches_staged_scatter_for_hw_layout() {
        // The H,W fallback path must agree with the staged scatter too.
        let shape = Shape::nchw(2, 3, 6, 10);
        let layout = BlockLayout::with_strategy(&shape, PadStrategy::Hw);
        let values = ramp(shape.len());
        let dqt = Dqt::opt_l();
        let tables = QuantTables::new(QuantKind::Div, &dqt);
        let q = staged_quantized(&layout, &values, QuantKind::Div, &dqt);
        let dec = decode_stage(&tables);
        let got = untile_blocks(&layout, &q, &dec);
        let staged_spatial: Vec<[i8; 64]> = q
            .iter()
            .map(|b| idct2d_to_i8(&tables.dequantize_block(b)))
            .collect();
        assert_eq!(got, layout.from_blocks(&staged_spatial));
    }
}
