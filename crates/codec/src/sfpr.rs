//! Scaled Fix-point Precision Reduction (SFPR) — Sec. III-B.
//!
//! SFPR converts 32-bit float activations to `m`-bit signed integers with a
//! per-channel max scale, so the whole integer range is used by every
//! channel regardless of its dynamic range:
//!
//! ```text
//! s_c = S / max_nhw(|x_nchw|)                                  (Eqn. 4)
//! y   = clip(round(2^(m-1) · s_c · x), -2^(m-1), 2^(m-1) - 1)  (Eqn. 5)
//! ```
//!
//! The global scale `S` trades clipping error (large `S`) against
//! truncation error (small `S`); the paper selects `S = 1.125` by
//! minimizing recovered activation error across pipelines (Fig. 10).
//!
//! SFPR is both a standalone 4× codec (8-bit) and the mandatory front end
//! of JPEG-BASE and JPEG-ACT, whose integer DCT needs `i8` inputs.

use crate::cast;
use crate::error::CodecError;
use jact_obs as obs;
use jact_tensor::{Shape, Tensor};

/// The paper's selected global scaling factor (Sec. III-B, Fig. 10).
pub const DEFAULT_S: f32 = 1.125;

/// SFPR configuration: global scale and integer bit width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SfprParams {
    /// Global scaling factor `S` (how much of the range may clip).
    pub s: f32,
    /// Integer bit width `m`; the paper uses 8, Fig. 16 sweeps 2–4.
    pub bits: u32,
}

impl SfprParams {
    /// The paper's default: `S = 1.125`, 8-bit integers.
    pub fn paper_default() -> Self {
        SfprParams {
            s: DEFAULT_S,
            bits: 8,
        }
    }

    /// Custom scale with 8-bit integers.
    pub fn with_scale(s: f32) -> Self {
        SfprParams { s, bits: 8 }
    }

    /// Reduced bit width (Fig. 16's SFPR 2-/3-/4-bit curves).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `2..=8`.
    pub fn with_bits(bits: u32) -> Self {
        assert!((2..=8).contains(&bits), "SFPR bits must be in 2..=8");
        SfprParams {
            s: DEFAULT_S,
            bits,
        }
    }
}

impl Default for SfprParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// An SFPR-compressed activation: per-channel scales plus `i8` values.
#[derive(Debug, Clone, PartialEq)]
pub struct SfprEncoded {
    values: Vec<i8>,
    /// `s_c` per channel; `0.0` marks an all-zero channel.
    scales: Vec<f32>,
    shape: Shape,
    params: SfprParams,
}

impl SfprEncoded {
    /// Rebuilds an encoded activation from wire-decoded parts, validating
    /// every invariant [`decompress_values`] relies on: rank-4 shape, one
    /// scale per channel, bits in `2..=8`, and a value plane that is
    /// either empty (JPEG metadata form) or exactly `shape.len()` long.
    pub fn from_parts(
        values: Vec<i8>,
        scales: Vec<f32>,
        shape: Shape,
        params: SfprParams,
    ) -> Result<Self, CodecError> {
        if shape.rank() != 4 {
            return Err(CodecError::Corrupt("SFPR shape must be rank 4"));
        }
        if !(2..=8).contains(&params.bits) {
            return Err(CodecError::Corrupt("SFPR bits out of 2..=8"));
        }
        if scales.len() != shape.c() {
            return Err(CodecError::Corrupt("SFPR scale count must equal channels"));
        }
        if !values.is_empty() && values.len() != shape.len() {
            return Err(CodecError::Corrupt(
                "SFPR value plane size disagrees with shape",
            ));
        }
        Ok(SfprEncoded {
            values,
            scales,
            shape,
            params,
        })
    }

    /// The quantized integer values in NCHW order.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// Takes the value plane out, leaving the scale/shape metadata behind.
    /// The JPEG pipelines use this to avoid storing the plane twice: after
    /// coding, values are reconstructed from the coded blocks.
    pub fn take_values(&mut self) -> Vec<i8> {
        std::mem::take(&mut self.values)
    }

    /// Consumes the encoding, returning the value and scale planes (the
    /// buffer-pool recycling path; shape and params are `Copy`-cheap and
    /// dropped).
    pub fn into_planes(self) -> (Vec<i8>, Vec<f32>) {
        (self.values, self.scales)
    }

    /// Per-channel scale factors.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Original tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Parameters used for encoding.
    pub fn params(&self) -> SfprParams {
        self.params
    }

    /// Compressed payload size: one byte per element plus the f32 scales.
    pub fn compressed_bytes(&self) -> usize {
        self.values.len() + self.scales.len() * 4
    }

    /// Fraction of the integer code space actually used, averaged over
    /// channels — the "integer utilization" the paper uses to explain why
    /// SFPR beats DPR on small-range channels (Sec. VI-B).
    pub fn integer_utilization(&self) -> f64 {
        let c = self.scales.len();
        if c == 0 {
            return 0.0;
        }
        let (n, h, w) = (self.shape.n(), self.shape.h(), self.shape.w());
        let plane = h * w;
        let mut total = 0.0f64;
        for ci in 0..c {
            // Values are i8, so a 256-slot bitmap counts distinct codes
            // without any iteration-order-sensitive container.
            let mut used = [false; 256];
            for ni in 0..n {
                let base = (ni * c + ci) * plane;
                for &v in &self.values[base..base + plane] {
                    used[v.cast_unsigned() as usize] = true;
                }
            }
            let distinct = used.iter().filter(|&&u| u).count();
            let levels = 1usize << self.params.bits;
            total += distinct as f64 / levels as f64;
        }
        total / c as f64
    }
}

/// Compresses an NCHW activation with SFPR.
///
/// Under an open observability capture this records the `stage.sfpr`
/// span (with the `stage.scale` scan nested inside), the stage byte
/// funnel, and one `sfpr.clipped` / `sfpr.elems` counter pair per call
/// behind the paper's clip-rate metric.
///
/// # Panics
///
/// Panics if `x` is not rank 4.
pub fn compress(x: &Tensor, params: SfprParams) -> SfprEncoded {
    obs::span("stage.sfpr", || compress_impl(x, params))
}

fn compress_impl(x: &Tensor, params: SfprParams) -> SfprEncoded {
    assert!(
        (2..=8).contains(&params.bits),
        "SFPR bits must be in 2..=8"
    );
    let (n, c, h, w) = (
        x.shape().n(),
        x.shape().c(),
        x.shape().h(),
        x.shape().w(),
    );
    let plane = h * w;
    let xv = x.as_slice();
    let maxes = obs::span("stage.scale", || channel_max_abs(xv, c, plane));
    // The scales escape into the encoded payload; only the scan scratch
    // recycles.
    let mut scales: Vec<f32> = jact_pool::take(maxes.len());
    scales.extend(
        maxes
            .iter()
            .map(|&m| if m == 0.0 { 0.0 } else { params.s / m }),
    );
    jact_pool::give(maxes);

    let half = 1i32 << (params.bits - 1);
    let (lo, hi) = (-half, half - 1);
    let mut values: Vec<i8> = jact_pool::take_zeroed(xv.len());
    if plane > 0 && c > 0 && n > 0 {
        // One scale per (ni, ci) plane.
        let mut clipped = 0u64;
        for (p, (seg, src)) in values.chunks_mut(plane).zip(xv.chunks(plane)).enumerate() {
            let sc = scales[p % c];
            if sc == 0.0 {
                continue;
            }
            let gain = half as f32 * sc;
            for (o, &v) in seg.iter_mut().zip(src) {
                let q = (gain * v).round() as i32;
                clipped += u64::from(q < lo || q > hi);
                *o = cast::sat_i8(q.clamp(lo, hi));
            }
        }
        if obs::is_active() {
            obs::count("sfpr.clipped", clipped);
            obs::count("sfpr.elems", xv.len() as u64);
        }
    }
    let enc = SfprEncoded {
        values,
        scales,
        shape: x.shape().clone(),
        params,
    };
    if obs::is_active() {
        obs::count("stage.sfpr.bytes_in", (xv.len() * 4) as u64);
        obs::count("stage.sfpr.bytes_out", enc.compressed_bytes() as u64);
    }
    enc
}

/// Decompresses an SFPR activation back to f32.
pub fn decompress(enc: &SfprEncoded) -> Tensor {
    decompress_values(enc.values(), enc)
}

/// Decompresses an explicit value plane using `enc`'s scales/shape —
/// used by the JPEG pipelines whose DCT stage recovered a modified plane.
/// Records the `stage.unsfpr` span under an open capture.
///
/// # Panics
///
/// Panics if `values.len()` differs from the encoded length.
pub fn decompress_values(values: &[i8], enc: &SfprEncoded) -> Tensor {
    obs::span("stage.unsfpr", || decompress_values_impl(values, enc))
}

fn decompress_values_impl(values: &[i8], enc: &SfprEncoded) -> Tensor {
    assert_eq!(values.len(), enc.shape.len(), "value plane size mismatch");
    let (n, c, h, w) = (
        enc.shape.n(),
        enc.shape.c(),
        enc.shape.h(),
        enc.shape.w(),
    );
    let plane = h * w;
    let half = (1i32 << (enc.params.bits - 1)) as f32;
    let mut out: Vec<f32> = jact_pool::take_zeroed(values.len());
    if plane > 0 && c > 0 && n > 0 {
        for (p, (seg, src)) in out.chunks_mut(plane).zip(values.chunks(plane)).enumerate() {
            let sc = enc.scales[p % c];
            if sc == 0.0 {
                continue;
            }
            let inv = 1.0 / (half * sc);
            for (o, &v) in seg.iter_mut().zip(src) {
                *o = v as f32 * inv;
            }
        }
    }
    Tensor::from_vec(enc.shape.clone(), out)
}

/// Number of independent accumulator lanes in the channel scan — wide
/// enough for the compiler to keep the reduction in vector registers.
const SCAN_LANES: usize = 8;

/// `max |x|` over one plane, seeded with `seed`.  Eight independent
/// lanes folded at the end: `f32::max` over absolute values is
/// associative and commutative here (no `-0.0`/`+0.0` ambiguity after
/// `abs`, and NaNs lose to any seed under both `max` and the old
/// `if a > best` scan), so the result is bitwise identical to the
/// sequential branchy loop while compiling to branch-free vector maxes.
fn plane_max_abs(seg: &[f32], seed: f32) -> f32 {
    let mut lanes = [seed; SCAN_LANES];
    let mut it = seg.chunks_exact(SCAN_LANES);
    for ch in it.by_ref() {
        for (l, &v) in lanes.iter_mut().zip(ch) {
            *l = l.max(v.abs());
        }
    }
    let mut best = lanes.iter().fold(seed, |a, &b| a.max(b));
    for &v in it.remainder() {
        best = best.max(v.abs());
    }
    best
}

/// Per-channel `max |x|` over NCHW data laid out as `(n·c)` planes of
/// `plane` elements — `Tensor::channel_max_abs` over a raw slice.  The
/// result comes from the thread-local buffer pool.
fn channel_max_abs(xv: &[f32], c: usize, plane: usize) -> Vec<f32> {
    if c == 0 {
        return Vec::new();
    }
    let mut m: Vec<f32> = jact_pool::take_zeroed(c);
    if plane == 0 {
        return m;
    }
    for (p, seg) in xv.chunks_exact(plane).enumerate() {
        let slot = p % c;
        m[slot] = plane_max_abs(seg, m[slot]);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_tensor() -> Tensor {
        let shape = Shape::nchw(2, 3, 4, 4);
        let data = (0..shape.len())
            .map(|i| (i as f32 / 10.0).sin() * ((i % 7) as f32 + 0.1))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn roundtrip_error_small_at_8bit() {
        let x = ramp_tensor();
        let enc = compress(&x, SfprParams::paper_default());
        let rec = decompress(&enc);
        // 8-bit quantization with S=1.125: error per element bounded by
        // roughly max/128 (plus clipping of the top 11% of the range).
        let max = x.max_abs();
        let tol = (max / 128.0 * 1.2 + 0.02) as f64;
        for (a, b) in x.iter().zip(rec.iter()) {
            // Values in the top 1/1.125 of the range clip by design; allow
            // the corresponding relative error there.
            let allowed = tol.max(a.abs() as f64 * 0.13);
            assert!(((a - b).abs() as f64) < allowed, "{a} vs {b}");
        }
    }

    #[test]
    fn s_one_never_clips() {
        // With S=1, the max element maps to exactly 2^(m-1), clipped to
        // 2^(m-1)-1 — only the single max value saturates.
        let x = ramp_tensor();
        let enc = compress(&x, SfprParams::with_scale(1.0));
        let hi = enc.values().iter().fold(i8::MIN, |m, &v| m.max(v));
        let lo = enc.values().iter().fold(i8::MAX, |m, &v| m.min(v));
        assert!(hi as i32 <= 127 && lo as i32 >= -128);
    }

    #[test]
    fn large_s_clips_many_values() {
        let x = ramp_tensor();
        let e1 = compress(&x, SfprParams::with_scale(1.0));
        let e4 = compress(&x, SfprParams::with_scale(4.0));
        let sat = |e: &SfprEncoded| {
            e.values()
                .iter()
                .filter(|&&v| v == 127 || v == -128)
                .count()
        };
        assert!(sat(&e4) > sat(&e1));
    }

    #[test]
    fn zero_channel_handled() {
        let mut x = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        x.set4(0, 1, 0, 0, 5.0);
        let enc = compress(&x, SfprParams::paper_default());
        assert_eq!(enc.scales()[0], 0.0);
        let rec = decompress(&enc);
        assert_eq!(rec.get4(0, 0, 0, 0), 0.0);
        // The channel max clips under S=1.125: recovered = 5·127/144.
        assert!((rec.get4(0, 1, 0, 0) - 5.0 * 127.0 / 144.0).abs() < 0.05);
    }

    #[test]
    fn per_channel_scaling_uses_full_range() {
        // One channel tiny, one huge: both should use most of the range.
        let mut x = Tensor::zeros(Shape::nchw(1, 2, 2, 2));
        for i in 0..4 {
            x.set4(0, 0, i / 2, i % 2, 0.001 * (i as f32 + 1.0));
            x.set4(0, 1, i / 2, i % 2, 1000.0 * (i as f32 + 1.0));
        }
        let enc = compress(&x, SfprParams::with_scale(1.0));
        let vmax = |ch: usize| {
            (0..4)
                .map(|i| enc.values()[ch * 4 + i].unsigned_abs())
                .max()
                .unwrap()
        };
        assert!(vmax(0) >= 120, "small channel underutilized: {}", vmax(0));
        assert!(vmax(1) >= 120, "large channel underutilized: {}", vmax(1));
    }

    #[test]
    fn reduced_bits_are_coarser() {
        let x = ramp_tensor();
        let e2 = compress(&x, SfprParams::with_bits(2));
        let e4 = compress(&x, SfprParams::with_bits(4));
        let e8 = compress(&x, SfprParams::with_bits(8));
        let err2 = x.mse(&decompress(&e2));
        let err4 = x.mse(&decompress(&e4));
        let err8 = x.mse(&decompress(&e8));
        assert!(err2 > err4 && err4 > err8, "{err2} {err4} {err8}");
        assert!(e2.values().iter().all(|&v| (-2..=1).contains(&v)));
    }

    #[test]
    fn compressed_bytes_accounting() {
        let x = ramp_tensor();
        let enc = compress(&x, SfprParams::paper_default());
        assert_eq!(enc.compressed_bytes(), x.len() + 3 * 4);
    }

    #[test]
    fn integer_utilization_higher_with_scaling() {
        // A channel with range 0.16 (the paper's observed minimum) uses
        // ~66% of levels under SFPR; without scale normalization (simulate
        // by S tuned to a global max of 1.0) it would use ~15%.
        let shape = Shape::nchw(1, 1, 16, 16);
        let data: Vec<f32> = (0..256).map(|i| (i as f32 / 255.0) * 0.16).collect();
        let x = Tensor::from_vec(shape, data);
        let enc = compress(&x, SfprParams::paper_default());
        // All-positive data can reach at most half the signed levels; the
        // point is that this beats DPR's ~15% utilization by a wide margin.
        assert!(
            enc.integer_utilization() > 0.4,
            "util={}",
            enc.integer_utilization()
        );
    }

    #[test]
    #[should_panic(expected = "bits must be in")]
    fn bad_bits_rejected() {
        let _ = SfprParams::with_bits(1);
    }
}
