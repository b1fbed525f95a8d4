//! NCHW → 8×8 block layout: the functional model of the alignment buffer
//! (Sec. III-C, Fig. 12).
//!
//! JPEG operates on 8×8 blocks of adjacent pixels.  Rather than padding
//! every channel's height, the accelerator reshapes the 4-D activation
//! `N×C×H×W` to a 2-D `(N·C·H) × W` matrix (free — only indices change)
//! and zero-pads:
//!
//! * the width `W` up to a multiple of 8 ("W pad"),
//! * the row count `N·C·H` up to a multiple of 8 ("NCH pad").
//!
//! Blocks are gathered row-major over the padded matrix.  The module also
//! implements the paper's alternative per-channel `H,W` padding so the
//! storage-overhead comparison (6.4 % vs 3.0 % on ResNet50) can be
//! reproduced.

use jact_tensor::Shape;

/// How the activation is padded to 8×8 block granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PadStrategy {
    /// Pad each channel's `H` and `W` to multiples of 8 independently.
    Hw,
    /// Reshape to `(N·C·H) × W`, then pad rows and width (the paper's
    /// choice — no data movement, lower overhead).
    NchW,
}

/// The block tiling of one activation tensor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLayout {
    shape: Shape,
    strategy: PadStrategy,
    /// Rows of the (possibly reshaped) 2-D matrix before padding.
    rows: usize,
    /// Columns before padding.
    cols: usize,
    padded_rows: usize,
    padded_cols: usize,
}

impl BlockLayout {
    /// Computes the layout for an NCHW activation with the paper's
    /// `NCH,W` padding.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not rank 4.
    pub fn new(shape: &Shape) -> Self {
        Self::with_strategy(shape, PadStrategy::NchW)
    }

    /// Computes the layout with an explicit padding strategy.
    ///
    /// # Panics
    ///
    /// Panics if `shape` is not rank 4.
    pub fn with_strategy(shape: &Shape, strategy: PadStrategy) -> Self {
        let (n, c, h, w) = (shape.n(), shape.c(), shape.h(), shape.w());
        let (rows, cols) = match strategy {
            PadStrategy::NchW => (n * c * h, w),
            PadStrategy::Hw => (n * c * h.next_multiple_of(8), w),
        };
        BlockLayout {
            shape: shape.clone(),
            strategy,
            rows,
            cols,
            padded_rows: rows.next_multiple_of(8),
            padded_cols: cols.next_multiple_of(8),
        }
    }

    /// The original activation shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The padding strategy this layout was built with.
    pub fn strategy(&self) -> PadStrategy {
        self.strategy
    }

    /// Rows of the (possibly reshaped) 2-D matrix before padding.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns before padding.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Blocks per padded-matrix row (`padded_cols / 8`).
    pub fn blocks_wide(&self) -> usize {
        self.padded_cols / 8
    }

    /// Number of 8×8 blocks in the padded matrix.
    pub fn num_blocks(&self) -> usize {
        (self.padded_rows / 8) * (self.padded_cols / 8)
    }

    /// Elements in the padded matrix (what actually gets compressed).
    pub fn padded_len(&self) -> usize {
        self.padded_rows * self.padded_cols
    }

    /// Fractional storage overhead introduced by padding
    /// (`padded / original − 1`); Sec. III-C reports 3.0 % for ResNet50
    /// under `NCH,W` padding vs 6.4 % under `H,W`.
    pub fn padding_overhead(&self) -> f64 {
        self.padded_len() as f64 / self.shape.len() as f64 - 1.0
    }

    /// Maps a padded-matrix row back to its unpadded source row, or
    /// `None` for rows that are pure padding.
    #[inline]
    pub(crate) fn source_row(&self, r: usize) -> Option<usize> {
        match self.strategy {
            PadStrategy::NchW => (r < self.rows).then_some(r),
            PadStrategy::Hw => {
                let h = self.shape.h();
                let hp = h.next_multiple_of(8);
                let (img, y) = (r / hp, r % hp);
                (y < h && r < self.rows).then(|| img * h + y)
            }
        }
    }

    /// Gathers one 8×8 block (row-major block index `bi`) directly from
    /// the unpadded value plane, zero-filling padding lanes inline — the
    /// streaming pipeline's tile source, with no padded intermediate.
    ///
    /// # Panics
    ///
    /// Panics if `bi >= self.num_blocks()` or the plane is undersized.
    pub fn gather_block(&self, values: &[i8], bi: usize) -> [i8; 64] {
        let bw = self.padded_cols / 8;
        let (br, bc) = (bi / bw, bi % bw);
        let c0 = bc * 8;
        let cw = self.cols.saturating_sub(c0).min(8);
        let mut tile = [0i8; 64];
        if cw != 0 {
            for (r, row) in tile.chunks_exact_mut(8).enumerate() {
                if let Some(sr) = self.source_row(br * 8 + r) {
                    let src = sr * self.cols + c0;
                    row[..cw].copy_from_slice(&values[src..src + cw]);
                }
            }
        }
        tile
    }

    /// Gathers the value plane into 8×8 blocks (row-major over blocks).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != shape.len()`.
    pub fn to_blocks(&self, values: &[i8]) -> Vec<[i8; 64]> {
        assert_eq!(values.len(), self.shape.len(), "value plane size mismatch");
        (0..self.num_blocks())
            .map(|bi| self.gather_block(values, bi))
            .collect()
    }

    /// Scatters 8×8 blocks back into a value plane, dropping padding.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() != self.num_blocks()`.
    pub fn from_blocks(&self, blocks: &[[i8; 64]]) -> Vec<i8> {
        assert_eq!(blocks.len(), self.num_blocks(), "block count mismatch");
        let bw = self.padded_cols / 8;
        // One stripe = one row of blocks = 8 padded matrix rows (an empty
        // matrix has zero-width stripes and nothing to scatter).
        let stripe = (8 * self.padded_cols).max(1);
        let mut padded = vec![0i8; self.padded_len()];
        for (br, srow) in padded.chunks_mut(stripe).enumerate() {
            for bc in 0..bw {
                let block = &blocks[br * bw + bc];
                for r in 0..8 {
                    let dst = r * self.padded_cols + bc * 8;
                    srow[dst..dst + 8].copy_from_slice(&block[r * 8..r * 8 + 8]);
                }
            }
        }
        self.unpad(&padded)
    }

    /// Drops padding from a padded matrix (inverse of the zero-padding
    /// [`BlockLayout::gather_block`] applies inline).
    fn unpad(&self, padded: &[i8]) -> Vec<i8> {
        let mut out = vec![0i8; self.shape.len()];
        match self.strategy {
            PadStrategy::NchW => {
                for r in 0..self.rows {
                    let src = r * self.padded_cols;
                    let dst = r * self.cols;
                    out[dst..dst + self.cols].copy_from_slice(&padded[src..src + self.cols]);
                }
            }
            PadStrategy::Hw => {
                let (n, c, h, w) = (
                    self.shape.n(),
                    self.shape.c(),
                    self.shape.h(),
                    self.shape.w(),
                );
                let hp = h.next_multiple_of(8);
                for img in 0..n * c {
                    for y in 0..h {
                        let src = (img * hp + y) * self.padded_cols;
                        let dst = (img * h + y) * w;
                        out[dst..dst + w].copy_from_slice(&padded[src..src + w]);
                    }
                }
            }
        }
        out
    }
}

/// Gathers an f32 plane into 8×8 blocks with the `NCH,W` layout — used by
/// the entropy analyses (Figs. 2, 6), which transform float activations.
///
/// # Panics
///
/// Panics if `shape` is not rank 4 or the plane size mismatches.
pub fn to_blocks_f32(values: &[f32], shape: &Shape) -> Vec<[f32; 64]> {
    assert_eq!(values.len(), shape.len(), "value plane size mismatch");
    let layout = BlockLayout::new(shape);
    let mut padded = vec![0.0f32; layout.padded_len()];
    for r in 0..layout.rows {
        let src = r * layout.cols;
        let dst = r * layout.padded_cols;
        padded[dst..dst + layout.cols].copy_from_slice(&values[src..src + layout.cols]);
    }
    let bw = layout.padded_cols / 8;
    let mut blocks = vec![[0.0f32; 64]; layout.num_blocks()];
    for (bi, block) in blocks.iter_mut().enumerate() {
        let (br, bc) = (bi / bw, bi % bw);
        for r in 0..8 {
            let src = (br * 8 + r) * layout.padded_cols + bc * 8;
            block[r * 8..r * 8 + 8].copy_from_slice(&padded[src..src + 8]);
        }
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<i8> {
        (0..n).map(|i| ((i % 251) as i32 - 125) as i8).collect()
    }

    #[test]
    fn aligned_shape_has_no_padding() {
        // Fig. 12a-like: 5x1x6x6 needs padding; 1x4x8x8 does not.
        let l = BlockLayout::new(&Shape::nchw(1, 4, 8, 8));
        assert_eq!(l.padding_overhead(), 0.0);
        assert_eq!(l.num_blocks(), 4 * 8 * 8 / 64);
    }

    #[test]
    fn figure12a_overhead() {
        // 5x1x6x6: rows = 30 -> 32, cols = 6 -> 8.
        let l = BlockLayout::new(&Shape::nchw(5, 1, 6, 6));
        assert_eq!(l.padded_len(), 32 * 8);
        assert_eq!(l.num_blocks(), 4);
        assert!(l.padding_overhead() > 0.0);
    }

    #[test]
    fn figure12b_nch_pad() {
        // 1x2x7x14: rows = 14 -> 16, cols = 14 -> 16.
        let l = BlockLayout::new(&Shape::nchw(1, 2, 7, 14));
        assert_eq!(l.padded_len(), 16 * 16);
        assert_eq!(l.num_blocks(), 4);
    }

    #[test]
    fn roundtrip_unaligned() {
        let shape = Shape::nchw(3, 2, 5, 11);
        let vals = ramp(shape.len());
        let l = BlockLayout::new(&shape);
        let blocks = l.to_blocks(&vals);
        assert_eq!(blocks.len(), l.num_blocks());
        assert_eq!(l.from_blocks(&blocks), vals);
    }

    #[test]
    fn roundtrip_aligned() {
        let shape = Shape::nchw(2, 4, 8, 16);
        let vals = ramp(shape.len());
        let l = BlockLayout::new(&shape);
        assert_eq!(l.from_blocks(&l.to_blocks(&vals)), vals);
    }

    #[test]
    fn roundtrip_hw_strategy() {
        let shape = Shape::nchw(2, 3, 6, 10);
        let vals = ramp(shape.len());
        let l = BlockLayout::with_strategy(&shape, PadStrategy::Hw);
        assert_eq!(l.from_blocks(&l.to_blocks(&vals)), vals);
    }

    #[test]
    fn nchw_pad_cheaper_than_hw_pad() {
        // The paper's ResNet50 observation in miniature: H,W padding
        // pads every channel's height; NCH,W pads once globally.
        let shape = Shape::nchw(8, 64, 6, 8);
        let nch = BlockLayout::with_strategy(&shape, PadStrategy::NchW);
        let hw = BlockLayout::with_strategy(&shape, PadStrategy::Hw);
        assert!(
            nch.padding_overhead() < hw.padding_overhead(),
            "nch={} hw={}",
            nch.padding_overhead(),
            hw.padding_overhead()
        );
    }

    #[test]
    fn blocks_preserve_spatial_rows() {
        // First block's first row should be the tensor's first 8 width
        // elements (W >= 8 aligned case).
        let shape = Shape::nchw(1, 1, 8, 8);
        let vals = ramp(shape.len());
        let l = BlockLayout::new(&shape);
        let blocks = l.to_blocks(&vals);
        assert_eq!(&blocks[0][0..8], &vals[0..8]);
        assert_eq!(&blocks[0][8..16], &vals[8..16]);
    }

    #[test]
    fn f32_blocks_match_layout() {
        let shape = Shape::nchw(1, 2, 7, 9);
        let vals: Vec<f32> = (0..shape.len()).map(|i| i as f32).collect();
        let blocks = to_blocks_f32(&vals, &shape);
        assert_eq!(blocks.len(), BlockLayout::new(&shape).num_blocks());
        assert_eq!(blocks[0][0], 0.0);
        assert_eq!(blocks[0][1], 1.0);
        // Padded column 9..16 of the first row is zero.
        assert_eq!(blocks[1][1], 0.0);
    }

    /// Staged reference: explicitly build the zero-padded matrix (as the
    /// pre-fusion `pad()` helper did) and gather blocks from it.
    fn staged_to_blocks(l: &BlockLayout, values: &[i8]) -> Vec<[i8; 64]> {
        let (pr, pc) = (l.padded_rows, l.padded_cols);
        let mut padded = vec![0i8; pr * pc];
        match l.strategy {
            PadStrategy::NchW => {
                for r in 0..l.rows {
                    padded[r * pc..r * pc + l.cols]
                        .copy_from_slice(&values[r * l.cols..(r + 1) * l.cols]);
                }
            }
            PadStrategy::Hw => {
                let (h, w) = (l.shape.h(), l.shape.w());
                let hp = h.next_multiple_of(8);
                for img in 0..l.shape.n() * l.shape.c() {
                    for y in 0..h {
                        let src = (img * h + y) * w;
                        let dst = (img * hp + y) * pc;
                        padded[dst..dst + w].copy_from_slice(&values[src..src + w]);
                    }
                }
            }
        }
        let bw = pc / 8;
        (0..l.num_blocks())
            .map(|bi| {
                let (br, bc) = (bi / bw, bi % bw);
                let mut block = [0i8; 64];
                for r in 0..8 {
                    let src = (br * 8 + r) * pc + bc * 8;
                    block[r * 8..r * 8 + 8].copy_from_slice(&padded[src..src + 8]);
                }
                block
            })
            .collect()
    }

    #[test]
    fn gather_block_matches_staged_pad_then_gather() {
        for strategy in [PadStrategy::NchW, PadStrategy::Hw] {
            for shape in [
                Shape::nchw(1, 1, 8, 8),
                Shape::nchw(3, 2, 5, 11),
                Shape::nchw(2, 3, 6, 10),
                Shape::nchw(1, 2, 7, 14),
                Shape::nchw(5, 1, 6, 6),
            ] {
                let vals = ramp(shape.len());
                let l = BlockLayout::with_strategy(&shape, strategy);
                let expect = staged_to_blocks(&l, &vals);
                assert_eq!(l.to_blocks(&vals), expect, "{strategy:?} {shape:?}");
                for (bi, e) in expect.iter().enumerate() {
                    assert_eq!(
                        &l.gather_block(&vals, bi),
                        e,
                        "{strategy:?} {shape:?} block {bi}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn wrong_plane_size_panics() {
        let l = BlockLayout::new(&Shape::nchw(1, 1, 8, 8));
        let _ = l.to_blocks(&[0i8; 10]);
    }
}
