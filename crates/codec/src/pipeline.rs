//! Composed compression pipelines.
//!
//! Each codec pairs a `compress` and `decompress` implementing one of the
//! paper's schemes end-to-end on an NCHW activation tensor:
//!
//! | Codec | Scheme | Paper |
//! |---|---|---|
//! | [`RawCodec`] | no compression (vDNN offload) | Rhu et al. 2016 |
//! | [`ZvcF32Codec`] | ZVC over f32 words (cDMA+) | Rhu et al. 2018 |
//! | [`DprCodec`] | f16/f8 precision cast (GIST DPR) | Jain et al. 2018 |
//! | [`GistCsrCodec`] | f8 DPR + CSR sparse storage | Jain et al. 2018 |
//! | [`SfprCodec`] | scaled fix-point reduction | Sec. III-B |
//! | [`JpegCodec`] | SFPR + DCT + {DIV,SH} + {RLE,ZVC} | Secs. III-D..F |
//!
//! [`JpegBaseCodec`] (DIV+RLE) and [`JpegActCodec`] (SH+ZVC) are the two
//! named corners of the [`JpegCodec`] matrix evaluated in Table III.

use crate::block::BlockLayout;
use crate::brc::BrcMask;
use crate::csr::Csr;
use crate::dct::{dct2d_i8, idct2d_to_i8};
use crate::dpr::{self, DprWidth};
use crate::dqt::Dqt;
use crate::error::CodecError;
use crate::quant::{QuantKind, QuantTables};
use crate::rle;
use crate::sfpr::{self, SfprEncoded, SfprParams};
use crate::tile;
use crate::zvc::Zvc;
use jact_obs as obs;
use jact_tensor::{Shape, Tensor};

/// Wraps one compression in the `codec.compress` span and records the
/// single-funnel byte counters (`codec.bytes_in` / `codec.bytes_out`)
/// the generative consistency test reconciles against
/// `CompressionStats`.  Zero-cost when no capture is open.  The
/// delegating named codecs (`JpegBaseCodec`, `JpegActCodec`) do *not*
/// call this — their inner [`JpegCodec`] records once on their behalf.
fn observed_compress(
    name: impl Fn() -> String,
    f: impl FnOnce() -> CompressedActivation,
) -> CompressedActivation {
    obs::span_with(
        "codec.compress",
        || vec![("codec".to_string(), obs::Value::Str(name()))],
        || {
            let c = f();
            if obs::is_active() {
                obs::count("codec.compressions", 1);
                obs::count("codec.bytes_in", c.uncompressed_bytes as u64);
                obs::count("codec.bytes_out", c.compressed_bytes as u64);
            }
            c
        },
    )
}

/// Decompression counterpart of [`observed_compress`].
fn observed_decompress(
    name: impl Fn() -> String,
    f: impl FnOnce() -> Result<Tensor, CodecError>,
) -> Result<Tensor, CodecError> {
    obs::span_with(
        "codec.decompress",
        || vec![("codec".to_string(), obs::Value::Str(name()))],
        || {
            let r = f();
            if obs::is_active() {
                obs::count("codec.decompressions", 1);
                if r.is_err() {
                    obs::count("codec.decompress_errors", 1);
                }
            }
            r
        },
    )
}

/// A codec-name `String` whose backing bytes come from the buffer pool,
/// so the per-compression name tag recycles with the rest of the payload
/// ([`CompressedActivation::recycle`] hands it back).  Falls back to a
/// plain copy if the pooled bytes are somehow not UTF-8 (impossible for
/// the ASCII literals this is called with, but panic-free by policy).
fn pooled_name(name: &str) -> String {
    let mut bytes: Vec<u8> = jact_pool::take(name.len());
    bytes.extend_from_slice(name.as_bytes());
    String::from_utf8(bytes).unwrap_or_else(|_| name.to_string())
}

/// Records one stage's byte funnel (`stage.<name>.bytes_in/out`).
fn note_stage(stage: &str, bytes_in: usize, bytes_out: usize) {
    if obs::is_active() {
        obs::count(&format!("stage.{stage}.bytes_in"), bytes_in as u64);
        obs::count(&format!("stage.{stage}.bytes_out"), bytes_out as u64);
    }
}

/// Which lossless coder terminates a JPEG pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoderKind {
    /// Zigzag run-length + Huffman coding (JPEG standard back end).
    Rle,
    /// Zero-value compression (JPEG-ACT back end).
    Zvc,
}

impl std::fmt::Display for CoderKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CoderKind::Rle => "RLE",
            CoderKind::Zvc => "ZVC",
        })
    }
}

/// The compressed form of one activation tensor, together with size
/// accounting.  Produced by a [`Codec`]; opaque to everything else.
#[derive(Debug, Clone)]
pub struct CompressedActivation {
    payload: Payload,
    uncompressed_bytes: usize,
    compressed_bytes: usize,
    codec_name: String,
}

#[derive(Debug, Clone)]
pub(crate) enum Payload {
    Raw(Tensor),
    ZvcF32 { z: Zvc, shape: Shape },
    Dpr { rounded: Tensor },
    GistCsr { csr: Csr, shape: Shape },
    Sfpr(SfprEncoded),
    SfprZvc { meta: SfprEncoded, z: Zvc },
    Jpeg(JpegPayload),
    Brc(BrcMask),
}

#[derive(Debug, Clone)]
pub(crate) struct JpegPayload {
    /// SFPR metadata (scales, shape, params) with an *empty* value plane;
    /// the values travel through the coded blocks instead.
    pub(crate) meta: SfprEncoded,
    pub(crate) coded: CodedBlocks,
    pub(crate) quant: QuantKind,
    pub(crate) dqt: Dqt,
}

#[derive(Debug, Clone)]
pub(crate) enum CodedBlocks {
    Rle { bytes: Vec<u8>, count: usize },
    Zvc(Zvc),
}

impl CompressedActivation {
    /// Compressed size in bytes, including per-channel scale metadata.
    pub fn compressed_bytes(&self) -> usize {
        self.compressed_bytes
    }

    /// The payload, for wire serialization.
    pub(crate) fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Rebuilds a compressed activation from wire-decoded parts.  The
    /// caller ([`crate::wire`]) is responsible for having validated every
    /// payload invariant first.
    pub(crate) fn from_wire_parts(
        payload: Payload,
        uncompressed_bytes: usize,
        compressed_bytes: usize,
        codec_name: String,
    ) -> Self {
        CompressedActivation {
            payload,
            uncompressed_bytes,
            compressed_bytes,
            codec_name,
        }
    }

    /// Original activation size in bytes (f32 elements).
    pub fn uncompressed_bytes(&self) -> usize {
        self.uncompressed_bytes
    }

    /// Compression ratio (uncompressed / compressed).  Degenerate sizes
    /// — an empty tensor or a zero-byte payload — report 1.0 so
    /// aggregates over many activations stay finite.
    pub fn ratio(&self) -> f64 {
        if self.uncompressed_bytes == 0 || self.compressed_bytes == 0 {
            return 1.0;
        }
        self.uncompressed_bytes as f64 / self.compressed_bytes as f64
    }

    /// Name of the codec that produced this payload.
    pub fn codec_name(&self) -> &str {
        &self.codec_name
    }

    /// Consumes the container, returning every pooled buffer inside it to
    /// the thread-local buffer pool.
    ///
    /// The steady-state validation pattern — `wire::deserialize` a frame
    /// purely to check it, then discard the result — would otherwise drop
    /// the pooled buffers the wire reader drew (tensor data, ZVC planes,
    /// SFPR values and scales, CSR planes, the codec-name bytes),
    /// draining the pool by one miss per validation.  BRC masks are not
    /// pooled and are simply dropped.
    pub fn recycle(self) {
        fn give_zvc(z: Zvc) {
            let (mask, values, _, _) = z.into_parts();
            jact_pool::give(mask);
            jact_pool::give(values);
        }
        fn give_sfpr(e: SfprEncoded) {
            let (values, scales) = e.into_planes();
            jact_pool::give(values);
            jact_pool::give(scales);
        }
        jact_pool::give(self.codec_name.into_bytes());
        match self.payload {
            Payload::Raw(t) | Payload::Dpr { rounded: t } => jact_pool::give(t.into_vec()),
            Payload::ZvcF32 { z, .. } => give_zvc(z),
            Payload::GistCsr { csr, .. } => {
                let (row_ptr, cols, vals) = csr.into_planes();
                jact_pool::give(row_ptr);
                jact_pool::give(cols);
                jact_pool::give(vals);
            }
            Payload::Brc(_) => {}
            Payload::Sfpr(e) => give_sfpr(e),
            Payload::SfprZvc { meta, z } => {
                give_sfpr(meta);
                give_zvc(z);
            }
            Payload::Jpeg(j) => {
                give_sfpr(j.meta);
                match j.coded {
                    CodedBlocks::Rle { bytes, .. } => jact_pool::give(bytes),
                    CodedBlocks::Zvc(z) => give_zvc(z),
                }
            }
        }
    }
}

/// A compression scheme for activation tensors.
///
/// Implementations are value objects: configure once, apply to many
/// activations.  `decompress` must accept exactly the payloads produced by
/// the same codec's `compress`.
pub trait Codec: Send + Sync {
    /// Compresses an activation.
    fn compress(&self, x: &Tensor) -> CompressedActivation;

    /// Decompresses a payload produced by this codec.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::WrongPayload`] if `c` was produced by a
    /// different codec, and [`CodecError::Corrupt`] if the coded byte
    /// stream is malformed.
    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError>;

    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// `true` if decompression reproduces the input bit-exactly.
    fn is_lossless(&self) -> bool {
        false
    }

    /// Compresses `x` and writes its wire frame into `out` (cleared
    /// first, capacity reused), returning the compressed form.  With a
    /// pooled `out`, the steady-state offload path serializes without
    /// touching the allocator; see [`crate::wire::serialize_into`].
    fn compress_into(&self, x: &Tensor, out: &mut Vec<u8>) -> CompressedActivation {
        let c = self.compress(x);
        crate::wire::serialize_into(&c, out);
        c
    }

    /// Decompresses into `out`'s storage and returns the tensor shape.
    /// The decoded plane replaces `out`'s contents without a copy; the
    /// previous backing buffer is recycled to the thread-local pool, so
    /// ping-ponging one pooled buffer through repeated loads is
    /// allocation-free once warm.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Codec::decompress`].
    fn decompress_into(
        &self,
        c: &CompressedActivation,
        out: &mut Vec<f32>,
    ) -> Result<Shape, CodecError> {
        let t = self.decompress(c)?;
        let shape = t.shape().clone();
        jact_pool::give(std::mem::replace(out, t.into_vec()));
        Ok(shape)
    }
}

fn wrong_payload(expected: &'static str, c: &CompressedActivation) -> CodecError {
    CodecError::WrongPayload {
        expected,
        actual: c.codec_name().to_string(),
    }
}

// ---------------------------------------------------------------------
// vDNN: raw offload.
// ---------------------------------------------------------------------

/// No compression — the vDNN baseline (activations offloaded as-is).
#[derive(Debug, Clone, Copy, Default)]
pub struct RawCodec;

impl Codec for RawCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let bytes = x.len() * 4;
                CompressedActivation {
                    payload: Payload::Raw(x.clone()),
                    uncompressed_bytes: bytes,
                    compressed_bytes: bytes,
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || match &c.payload {
                Payload::Raw(t) => Ok(t.clone()),
                _ => Err(wrong_payload("raw", c)),
            },
        )
    }

    fn name(&self) -> String {
        pooled_name("raw")
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// cDMA+: ZVC over f32 words.
// ---------------------------------------------------------------------

/// Zero-value compression of raw f32 activations — the cDMA+ baseline.
/// Lossless; effective only on sparse (ReLU/dropout) activations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZvcF32Codec;

impl Codec for ZvcF32Codec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let z = obs::span("stage.zvc", || Zvc::compress_f32(x.as_slice()));
                let compressed = z.compressed_bytes();
                note_stage("zvc", x.len() * 4, compressed);
                CompressedActivation {
                    payload: Payload::ZvcF32 {
                        z,
                        shape: x.shape().clone(),
                    },
                    uncompressed_bytes: x.len() * 4,
                    compressed_bytes: compressed,
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || match &c.payload {
                Payload::ZvcF32 { z, shape } => {
                    Ok(Tensor::from_vec(shape.clone(), z.decompress_f32()?))
                }
                _ => Err(wrong_payload("zvc-f32", c)),
            },
        )
    }

    fn name(&self) -> String {
        pooled_name("zvc-f32")
    }

    fn is_lossless(&self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------
// GIST DPR and DPR + CSR.
// ---------------------------------------------------------------------

/// GIST's Dynamic Precision Reduction: cast to f16 or f8.
#[derive(Debug, Clone, Copy)]
pub struct DprCodec {
    width: DprWidth,
}

impl DprCodec {
    /// Creates a DPR codec with the given float width.
    pub fn new(width: DprWidth) -> Self {
        DprCodec { width }
    }
}

impl Codec for DprCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let rounded = obs::span("stage.dpr", || dpr::dpr_round(x, self.width));
                note_stage("dpr", x.len() * 4, x.len() * self.width.bytes());
                CompressedActivation {
                    payload: Payload::Dpr { rounded },
                    uncompressed_bytes: x.len() * 4,
                    compressed_bytes: x.len() * self.width.bytes(),
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || match &c.payload {
                Payload::Dpr { rounded } => Ok(rounded.clone()),
                _ => Err(wrong_payload("dpr", c)),
            },
        )
    }

    fn name(&self) -> String {
        match self.width {
            DprWidth::F16 => pooled_name("dpr-f16"),
            DprWidth::F8 => pooled_name("dpr-f8"),
        }
    }
}

/// GIST's sparse path: 8-bit DPR cast followed by CSR storage
/// (value + column index per non-zero).
#[derive(Debug, Clone, Copy, Default)]
pub struct GistCsrCodec;

impl Codec for GistCsrCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let bits: Vec<i8> = obs::span("stage.dpr", || {
                    x.iter().map(|&v| dpr::f32_to_f8_bits(v).cast_signed()).collect()
                });
                note_stage("dpr", x.len() * 4, bits.len());
                let csr = obs::span("stage.csr", || Csr::compress_default(&bits));
                let compressed = csr.compressed_bytes();
                note_stage("csr", bits.len(), compressed);
                CompressedActivation {
                    payload: Payload::GistCsr {
                        csr,
                        shape: x.shape().clone(),
                    },
                    uncompressed_bytes: x.len() * 4,
                    compressed_bytes: compressed,
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || match &c.payload {
                Payload::GistCsr { csr, shape } => {
                    let data = csr
                        .decompress()
                        .into_iter()
                        .map(|b| dpr::f8_bits_to_f32(b.cast_unsigned()))
                        .collect();
                    Ok(Tensor::from_vec(shape.clone(), data))
                }
                _ => Err(wrong_payload("gist-csr", c)),
            },
        )
    }

    fn name(&self) -> String {
        pooled_name("gist-csr")
    }
}

// ---------------------------------------------------------------------
// SFPR.
// ---------------------------------------------------------------------

/// Standalone SFPR: 8-bit fix-point with per-channel scale normalization.
#[derive(Debug, Clone, Copy, Default)]
pub struct SfprCodec {
    params: SfprParams,
}

impl SfprCodec {
    /// SFPR with the paper's defaults (`S = 1.125`, 8 bits).
    pub fn new() -> Self {
        Self::default()
    }

    /// SFPR with explicit parameters.
    pub fn with_params(params: SfprParams) -> Self {
        SfprCodec { params }
    }
}

impl Codec for SfprCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let enc = sfpr::compress(x, self.params);
                let compressed = enc.compressed_bytes();
                CompressedActivation {
                    payload: Payload::Sfpr(enc),
                    uncompressed_bytes: x.len() * 4,
                    compressed_bytes: compressed,
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || match &c.payload {
                Payload::Sfpr(enc) => Ok(sfpr::decompress(enc)),
                _ => Err(wrong_payload("sfpr", c)),
            },
        )
    }

    fn name(&self) -> String {
        pooled_name("sfpr")
    }
}

// ---------------------------------------------------------------------
// JPEG pipelines.
// ---------------------------------------------------------------------

/// The full transform pipeline: SFPR → 8×8 blocks → DCT → quantize → code.
///
/// The quantizer/coder pair selects the paper's variants:
/// `(Div, Rle)` = JPEG-BASE, `(Shift, Zvc)` = JPEG-ACT, plus the two mixed
/// corners evaluated in Table III.
#[derive(Debug, Clone)]
pub struct JpegCodec {
    dqt: Dqt,
    quant: QuantKind,
    coder: CoderKind,
    sfpr: SfprParams,
}

impl JpegCodec {
    /// Creates a pipeline with explicit quantizer and coder back ends.
    pub fn new(dqt: Dqt, quant: QuantKind, coder: CoderKind) -> Self {
        JpegCodec {
            dqt,
            quant,
            coder,
            sfpr: SfprParams::paper_default(),
        }
    }

    /// Overrides the SFPR front-end parameters (Fig. 10 sweeps `S`).
    pub fn with_sfpr(mut self, params: SfprParams) -> Self {
        self.sfpr = params;
        self
    }

    /// The DQT in use.
    pub fn dqt(&self) -> &Dqt {
        &self.dqt
    }

    /// Quantized DCT blocks of an activation — exposed for the entropy /
    /// rate-distortion metrics (Sec. IV) that need `q` before coding.
    pub fn quantized_blocks(&self, x: &Tensor) -> Vec<[i8; 64]> {
        let enc = sfpr::compress(x, self.sfpr);
        let layout = BlockLayout::new(x.shape());
        let tables = QuantTables::new(self.quant, &self.dqt);
        let stage = Self::encode_stage(&layout, enc.values(), &tables);
        tile::collect_tiles(&stage, layout.num_blocks())
    }

    /// The fused encode front end: gather → DCT → quantize, one tile at a
    /// time, with per-tensor precomputed quantizer tables.
    fn encode_stage<'a>(
        layout: &'a BlockLayout,
        values: &'a [i8],
        tables: &'a QuantTables,
    ) -> impl Fn(usize) -> [i8; 64] + Sync + 'a {
        move |bi| tables.quantize_block(&dct2d_i8(&layout.gather_block(values, bi)))
    }
}

impl Codec for JpegCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let enc = sfpr::compress(x, self.sfpr);
                let layout = BlockLayout::new(x.shape());
                let tables = QuantTables::new(self.quant, &self.dqt);
                let num_blocks = layout.num_blocks();
                // One streaming pass: each tile flows gather → DCT →
                // quantize → coder without a materialized block tensor.
                // The per-stage byte funnels are all arithmetic over the
                // layout, so fusion reports the exact totals the staged
                // pipeline did.
                let coded = {
                    let stage = Self::encode_stage(&layout, enc.values(), &tables);
                    obs::span("stage.fused", || match self.coder {
                        CoderKind::Rle => CodedBlocks::Rle {
                            bytes: tile::encode_rle(&stage, num_blocks),
                            count: num_blocks,
                        },
                        CoderKind::Zvc => CodedBlocks::Zvc(tile::encode_zvc(&stage, num_blocks)),
                    })
                };
                let coded_bytes = match &coded {
                    CodedBlocks::Rle { bytes, .. } => bytes.len(),
                    CodedBlocks::Zvc(z) => z.compressed_bytes(),
                };
                note_stage("block", enc.values().len(), num_blocks * 64);
                note_stage("transform", num_blocks * 64, num_blocks * 64);
                note_stage("code", num_blocks * 64, coded_bytes);
                let scales_bytes = enc.scales().len() * 4;

                // The value plane is reconstructed from the coded blocks;
                // drop it from the stored metadata to avoid double storage.
                let mut meta = enc;
                let _ = meta.take_values();

                CompressedActivation {
                    payload: Payload::Jpeg(JpegPayload {
                        meta,
                        coded,
                        quant: self.quant,
                        dqt: self.dqt.clone(),
                    }),
                    uncompressed_bytes: x.len() * 4,
                    compressed_bytes: coded_bytes + scales_bytes,
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || {
                let p = match &c.payload {
                    Payload::Jpeg(p) => p,
                    _ => return Err(wrong_payload("jpeg", c)),
                };
                let layout = BlockLayout::new(p.meta.shape());
                let tables = QuantTables::new(p.quant, &p.dqt);
                // Mirrored streaming pass: each coded tile flows decode →
                // dequantize → inverse DCT → scatter straight into the
                // unpadded value plane.
                let dec = |q: [i8; 64]| idct2d_to_i8(&tables.dequantize_block(&q));
                let values = obs::span("stage.unfused", || match &p.coded {
                    CodedBlocks::Rle { bytes, count } => {
                        if *count != layout.num_blocks() {
                            return Err(CodecError::Corrupt(
                                "RLE block count disagrees with shape",
                            ));
                        }
                        let quantized = rle::decode_blocks(bytes, *count).ok_or(
                            CodecError::Corrupt("RLE stream truncated or inconsistent"),
                        )?;
                        Ok(tile::untile_blocks(&layout, &quantized, &dec))
                    }
                    CodedBlocks::Zvc(z) => tile::decode_zvc(&layout, z, &dec),
                })?;
                Ok(sfpr::decompress_values(&values, &p.meta))
            },
        )
    }

    fn name(&self) -> String {
        format!("jpeg[{}+{}:{}]", self.quant, self.coder, self.dqt.name())
    }
}

/// JPEG-BASE: the standard JPEG back end (DIV quantization + RLE/Huffman)
/// behind the SFPR front end.
#[derive(Debug, Clone)]
pub struct JpegBaseCodec(JpegCodec);

impl JpegBaseCodec {
    /// Creates JPEG-BASE with the given (image or optimized) DQT.
    pub fn new(dqt: Dqt) -> Self {
        JpegBaseCodec(JpegCodec::new(dqt, QuantKind::Div, CoderKind::Rle))
    }

    /// The underlying configurable pipeline.
    pub fn inner(&self) -> &JpegCodec {
        &self.0
    }
}

impl Codec for JpegBaseCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        self.0.compress(x)
    }
    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        self.0.decompress(c)
    }
    fn name(&self) -> String {
        format!("jpeg-base:{}", self.0.dqt.name())
    }
}

/// JPEG-ACT: the paper's hardware-optimized back end (SH shift
/// quantization + ZVC) behind the SFPR front end.
#[derive(Debug, Clone)]
pub struct JpegActCodec(JpegCodec);

impl JpegActCodec {
    /// Creates JPEG-ACT with the given (normally optimized) DQT.
    pub fn new(dqt: Dqt) -> Self {
        JpegActCodec(JpegCodec::new(dqt, QuantKind::Shift, CoderKind::Zvc))
    }

    /// The underlying configurable pipeline.
    pub fn inner(&self) -> &JpegCodec {
        &self.0
    }
}

impl Codec for JpegActCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        self.0.compress(x)
    }
    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        self.0.decompress(c)
    }
    fn name(&self) -> String {
        format!("jpeg-act:{}", self.0.dqt.name())
    }
}

/// SFPR followed by ZVC over the quantized bytes — JPEG-ACT's treatment of
/// sparse ReLU/pool/dropout activations (Table II): the 4× fix-point
/// reduction composes with zero packing for a further ~2× on sparse data.
#[derive(Debug, Clone, Copy, Default)]
pub struct SfprZvcCodec {
    params: SfprParams,
}

impl SfprZvcCodec {
    /// Creates the codec with the paper's SFPR defaults.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Codec for SfprZvcCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let mut enc = sfpr::compress(x, self.params);
                let values = enc.take_values();
                let z = obs::span("stage.zvc", || Zvc::compress_i8(&values));
                note_stage("zvc", values.len(), z.compressed_bytes());
                let compressed = z.compressed_bytes() + enc.scales().len() * 4;
                CompressedActivation {
                    payload: Payload::SfprZvc { meta: enc, z },
                    uncompressed_bytes: x.len() * 4,
                    compressed_bytes: compressed,
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || match &c.payload {
                Payload::SfprZvc { meta, z } => {
                    Ok(sfpr::decompress_values(&z.decompress_i8()?, meta))
                }
                _ => Err(wrong_payload("sfpr+zvc", c)),
            },
        )
    }

    fn name(&self) -> String {
        pooled_name("sfpr+zvc")
    }
}

/// BRC as a [`Codec`]: stores the positivity mask; decompression yields the
/// binary surrogate tensor.  Valid only where the backward pass needs the
/// mask alone (ReLU not feeding a conv — Table II).
#[derive(Debug, Clone, Copy, Default)]
pub struct BrcCodec;

impl Codec for BrcCodec {
    fn compress(&self, x: &Tensor) -> CompressedActivation {
        observed_compress(
            || self.name(),
            || {
                let m = obs::span("stage.brc", || BrcMask::compress(x));
                let compressed = m.compressed_bytes();
                note_stage("brc", x.len() * 4, compressed);
                CompressedActivation {
                    payload: Payload::Brc(m),
                    uncompressed_bytes: x.len() * 4,
                    compressed_bytes: compressed,
                    codec_name: self.name(),
                }
            },
        )
    }

    fn decompress(&self, c: &CompressedActivation) -> Result<Tensor, CodecError> {
        observed_decompress(
            || self.name(),
            || match &c.payload {
                Payload::Brc(m) => Ok(m.to_binary_tensor()),
                _ => Err(wrong_payload("brc", c)),
            },
        )
    }

    fn name(&self) -> String {
        pooled_name("brc")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spatially-smooth activation-like tensor (images stay correlated
    /// after convolution — the paper's core observation).
    fn smooth_tensor(n: usize, c: usize, h: usize, w: usize) -> Tensor {
        let shape = Shape::nchw(n, c, h, w);
        let data = (0..shape.len())
            .map(|i| {
                let x = (i % w) as f32;
                let y = ((i / w) % h) as f32;
                ((x * 0.3).sin() + (y * 0.2).cos()) * ((i / (h * w)) as f32 * 0.1 + 1.0)
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    /// A sparse ReLU-like tensor: ~60% zeros.
    fn sparse_tensor() -> Tensor {
        let shape = Shape::nchw(2, 4, 8, 8);
        let data = (0..shape.len())
            .map(|i| {
                if i % 5 < 3 {
                    0.0
                } else {
                    (i % 13) as f32 * 0.1
                }
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn raw_codec_is_identity() {
        let x = smooth_tensor(1, 2, 8, 8);
        let c = RawCodec.compress(&x);
        assert_eq!(c.ratio(), 1.0);
        assert_eq!(RawCodec.decompress(&c).unwrap(), x);
        assert!(RawCodec.is_lossless());
    }

    #[test]
    fn zvc_f32_lossless_and_sparse_wins() {
        let x = sparse_tensor();
        let c = ZvcF32Codec.compress(&x);
        assert_eq!(ZvcF32Codec.decompress(&c).unwrap(), x);
        assert!(c.ratio() > 1.3, "ratio={}", c.ratio());
    }

    #[test]
    fn sfpr_is_4x_with_small_error() {
        let x = smooth_tensor(2, 4, 16, 16);
        let codec = SfprCodec::new();
        let c = codec.compress(&x);
        assert!(c.ratio() > 3.5 && c.ratio() <= 4.0, "ratio={}", c.ratio());
        let rec = codec.decompress(&c).unwrap();
        // Quantization plus the deliberate S=1.125 clipping of the top of
        // the range: small relative to the signal power (~1.0).
        assert!(x.mse(&rec) < 5e-3, "mse={}", x.mse(&rec));
    }

    #[test]
    fn jpeg_act_beats_sfpr_on_smooth_data() {
        let x = smooth_tensor(2, 4, 16, 16);
        let sfpr = SfprCodec::new().compress(&x);
        let jact = JpegActCodec::new(Dqt::opt_h()).compress(&x);
        assert!(
            jact.ratio() > sfpr.ratio(),
            "jpeg-act {} vs sfpr {}",
            jact.ratio(),
            sfpr.ratio()
        );
    }

    #[test]
    fn jpeg_base_roundtrip_error_bounded() {
        let x = smooth_tensor(1, 2, 16, 16);
        let codec = JpegBaseCodec::new(Dqt::jpeg_quality(80));
        let rec = codec.decompress(&codec.compress(&x)).unwrap();
        let rel = x.mse(&rec).sqrt() / x.max_abs() as f64;
        assert!(rel < 0.1, "relative rms error {rel}");
    }

    #[test]
    fn jpeg_act_roundtrip_error_bounded() {
        let x = smooth_tensor(1, 2, 16, 16);
        let codec = JpegActCodec::new(Dqt::opt_l());
        let rec = codec.decompress(&codec.compress(&x)).unwrap();
        let rel = x.mse(&rec).sqrt() / x.max_abs() as f64;
        assert!(rel < 0.1, "relative rms error {rel}");
    }

    #[test]
    fn harder_dqt_compresses_more_with_more_error() {
        let x = smooth_tensor(2, 2, 16, 16);
        let low = JpegActCodec::new(Dqt::opt_l());
        let high = JpegActCodec::new(Dqt::opt_h());
        let cl = low.compress(&x);
        let ch = high.compress(&x);
        assert!(ch.ratio() > cl.ratio());
        let el = x.mse(&low.decompress(&cl).unwrap());
        let eh = x.mse(&high.decompress(&ch).unwrap());
        assert!(eh >= el);
    }

    #[test]
    fn all_four_backend_corners_roundtrip() {
        let x = smooth_tensor(1, 2, 8, 16);
        for quant in [QuantKind::Div, QuantKind::Shift] {
            for coder in [CoderKind::Rle, CoderKind::Zvc] {
                let codec = JpegCodec::new(Dqt::opt_l(), quant, coder);
                let c = codec.compress(&x);
                let rec = codec.decompress(&c).unwrap();
                let rel = x.mse(&rec).sqrt() / x.max_abs() as f64;
                assert!(rel < 0.12, "{quant}+{coder}: rel={rel}");
                assert!(c.ratio() > 1.0, "{quant}+{coder}: ratio={}", c.ratio());
            }
        }
    }

    #[test]
    fn dpr_f16_low_error_f8_higher() {
        let x = smooth_tensor(1, 2, 8, 8);
        let f16 = DprCodec::new(DprWidth::F16);
        let f8 = DprCodec::new(DprWidth::F8);
        let c16 = f16.compress(&x);
        let c8 = f8.compress(&x);
        assert_eq!(c16.ratio(), 2.0);
        assert_eq!(c8.ratio(), 4.0);
        assert!(x.mse(&f16.decompress(&c16).unwrap()) < x.mse(&f8.decompress(&c8).unwrap()));
    }

    #[test]
    fn gist_csr_on_sparse_relu() {
        let x = sparse_tensor();
        let codec = GistCsrCodec;
        let c = codec.compress(&x);
        assert!(c.ratio() > 4.0, "ratio={}", c.ratio()); // 60% sparse
        let rec = codec.decompress(&c).unwrap();
        // Lossless on zeros; f8-lossy on values.
        for (a, b) in x.iter().zip(rec.iter()) {
            if *a == 0.0 {
                assert_eq!(*b, 0.0);
            } else {
                assert!(((a - b) / a).abs() < 0.07);
            }
        }
    }

    #[test]
    fn brc_codec_ratio_and_mask() {
        let x = sparse_tensor();
        let c = BrcCodec.compress(&x);
        assert!((c.ratio() - 32.0).abs() < 0.01);
        let bin = BrcCodec.decompress(&c).unwrap();
        for (a, b) in x.iter().zip(bin.iter()) {
            assert_eq!(*a > 0.0, *b == 1.0);
        }
    }

    #[test]
    fn cross_codec_decompress_is_a_typed_error() {
        let x = smooth_tensor(1, 1, 8, 8);
        let c = RawCodec.compress(&x);
        let err = SfprCodec::new().decompress(&c).unwrap_err();
        assert_eq!(
            err,
            CodecError::WrongPayload {
                expected: "sfpr",
                actual: pooled_name("raw")
            }
        );
        assert!(err.to_string().contains("cannot decompress"));
    }

    #[test]
    fn quantized_blocks_counts() {
        let x = smooth_tensor(1, 2, 8, 16);
        let codec = JpegCodec::new(Dqt::opt_h(), QuantKind::Shift, CoderKind::Zvc);
        let blocks = codec.quantized_blocks(&x);
        assert_eq!(blocks.len(), BlockLayout::new(x.shape()).num_blocks());
    }

    #[test]
    fn degenerate_byte_totals_report_ratio_one() {
        // `Shape` forbids zero-sized dimensions, so zero-byte totals only
        // arise from wire-decoded or aggregated stats.  Either zero side
        // must report 1.0 instead of dividing by zero or claiming an
        // infinite win.
        let payload = || Payload::Raw(smooth_tensor(1, 1, 8, 8));
        let zero_out =
            CompressedActivation::from_wire_parts(payload(), 128, 0, "raw".to_string());
        assert_eq!(zero_out.ratio(), 1.0);
        let zero_in =
            CompressedActivation::from_wire_parts(payload(), 0, 64, "raw".to_string());
        assert_eq!(zero_in.ratio(), 1.0);
        let both_zero =
            CompressedActivation::from_wire_parts(payload(), 0, 0, "raw".to_string());
        assert_eq!(both_zero.ratio(), 1.0);
    }

    #[test]
    fn trace_counters_match_compression_stats() {
        let x = smooth_tensor(2, 3, 16, 16);
        let codec = JpegActCodec::new(Dqt::jpeg_quality(80));
        let (c, trace) = jact_obs::collect_with(false, || {
            let c = codec.compress(&x);
            codec.decompress(&c).unwrap();
            c
        });
        let totals = trace.counter_totals();
        assert_eq!(totals["codec.compressions"], 1);
        assert_eq!(totals["codec.decompressions"], 1);
        assert_eq!(totals["codec.bytes_in"], c.uncompressed_bytes as u64);
        assert_eq!(totals["codec.bytes_out"], c.compressed_bytes as u64);
        // The JPEG pipeline reports its internal stage funnel too.
        for stage in ["block", "transform", "code"] {
            assert!(
                totals.contains_key(&format!("stage.{stage}.bytes_in")),
                "missing stage funnel for {stage}"
            );
        }
    }

    /// Pre-fusion staged reference: materialize the block tensor, run the
    /// transform over it, then hand the whole quantized list to the staged
    /// coders — exactly what `JpegCodec::compress` did before the
    /// streaming tile pipeline.
    fn staged_coded(x: &Tensor, dqt: &Dqt, quant: QuantKind, coder: CoderKind) -> CodedBlocks {
        use crate::dct::dct2d_i8;
        use crate::quant::quantize;
        let enc = sfpr::compress(x, SfprParams::paper_default());
        let layout = BlockLayout::new(x.shape());
        let quantized: Vec<[i8; 64]> = layout
            .to_blocks(enc.values())
            .iter()
            .map(|b| quantize(quant, &dct2d_i8(b), dqt))
            .collect();
        match coder {
            CoderKind::Rle => CodedBlocks::Rle {
                bytes: rle::encode_blocks(&quantized),
                count: quantized.len(),
            },
            CoderKind::Zvc => {
                let flat: Vec<i8> = quantized.iter().flatten().copied().collect();
                CodedBlocks::Zvc(Zvc::compress_i8(&flat))
            }
        }
    }

    /// A seeded noisy tensor so the generative matrix also covers data with
    /// no spatial structure (worst case for RLE run lengths).
    fn noisy_tensor(seed: u64, n: usize, c: usize, h: usize, w: usize) -> Tensor {
        use jact_rng::{Rng, SeedableRng};
        let mut rng = jact_rng::rngs::StdRng::seed_from_u64(seed);
        let shape = Shape::nchw(n, c, h, w);
        let data = (0..shape.len()).map(|_| rng.sample_normal_f32()).collect();
        Tensor::from_vec(shape, data)
    }

    /// The fused streaming pipeline must produce byte-identical coded
    /// payloads to the staged reference for the full Table III codec
    /// matrix, at every thread count, and decompress to the same tensor.
    /// Shapes cross the 512-block parallel-coding threshold in both
    /// directions and include ragged (non-multiple-of-8) layouts.
    #[test]
    fn fused_pipeline_matches_staged_reference_bitwise() {
        let tensors = [
            smooth_tensor(1, 2, 8, 16),   // 4 blocks: sequential shortcut
            smooth_tensor(2, 3, 13, 17),  // ragged rows and columns
            noisy_tensor(0xf05e_d, 1, 4, 16, 16),
            smooth_tensor(4, 16, 32, 32), // 1024 blocks: parallel coders
        ];
        for x in &tensors {
            for dqt in [Dqt::jpeg_quality(80), Dqt::opt_l(), Dqt::opt_h()] {
                for quant in [QuantKind::Div, QuantKind::Shift] {
                    for coder in [CoderKind::Rle, CoderKind::Zvc] {
                        let want = staged_coded(x, &dqt, quant, coder);
                        for threads in [1usize, 2, 8] {
                            let codec = JpegCodec::new(dqt.clone(), quant, coder);
                            let c = jact_par::with_threads(threads, || codec.compress(x));
                            let ctx = format!(
                                "{quant}+{coder}:{} {:?} threads={threads}",
                                dqt.name(),
                                x.shape()
                            );
                            match (&want, match &c.payload {
                                Payload::Jpeg(p) => &p.coded,
                                _ => unreachable!("jpeg codec emits jpeg payloads"),
                            }) {
                                (
                                    CodedBlocks::Rle { bytes: a, count: na },
                                    CodedBlocks::Rle { bytes: b, count: nb },
                                ) => {
                                    assert_eq!(na, nb, "{ctx}");
                                    assert_eq!(a, b, "{ctx}");
                                }
                                (CodedBlocks::Zvc(a), CodedBlocks::Zvc(b)) => {
                                    assert_eq!(a, b, "{ctx}")
                                }
                                _ => panic!("coder kind mismatch: {ctx}"),
                            }
                            let rec = jact_par::with_threads(threads, || codec.decompress(&c))
                                .unwrap();
                            let rec1 = codec.decompress(&c).unwrap();
                            assert_eq!(rec, rec1, "thread-dependent decode: {ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn rle_count_mismatch_is_a_typed_error() {
        // A payload whose RLE block count disagrees with its shape must
        // surface as `Corrupt`, not a panic in the scatter path.
        let x = smooth_tensor(1, 2, 8, 16);
        let codec = JpegCodec::new(Dqt::opt_l(), QuantKind::Div, CoderKind::Rle);
        let c = codec.compress(&x);
        let p = match &c.payload {
            Payload::Jpeg(p) => p,
            _ => unreachable!("jpeg codec emits jpeg payloads"),
        };
        let (bytes, count) = match &p.coded {
            CodedBlocks::Rle { bytes, count } => (bytes.clone(), *count),
            _ => unreachable!("RLE coder emits RLE payloads"),
        };
        let forged = CompressedActivation {
            payload: Payload::Jpeg(JpegPayload {
                meta: p.meta.clone(),
                coded: CodedBlocks::Rle {
                    bytes,
                    count: count - 1,
                },
                quant: p.quant,
                dqt: p.dqt.clone(),
            }),
            uncompressed_bytes: c.uncompressed_bytes,
            compressed_bytes: c.compressed_bytes,
            codec_name: c.codec_name.clone(),
        };
        assert!(matches!(
            codec.decompress(&forged),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn sfpr_clip_counters_cover_every_element() {
        // One channel holds a large outlier so S = 1.125 clips the rest of
        // that channel's top of range: the clip counter must see it.
        let shape = Shape::nchw(1, 2, 8, 8);
        let data = (0..shape.len())
            .map(|i| if i == 0 { 100.0 } else { (i % 7) as f32 - 3.0 })
            .collect();
        let x = Tensor::from_vec(shape, data);
        let (c, trace) = jact_obs::collect_with(false, || SfprCodec::new().compress(&x));
        let totals = trace.counter_totals();
        assert_eq!(totals["sfpr.elems"], x.len() as u64);
        assert_eq!(totals["stage.sfpr.bytes_in"], (x.len() * 4) as u64);
        assert_eq!(totals["stage.sfpr.bytes_out"], c.compressed_bytes as u64);
        assert!(totals["sfpr.clipped"] > 0, "outlier channel must clip");
        assert!(totals["sfpr.clipped"] < totals["sfpr.elems"]);
    }
}
