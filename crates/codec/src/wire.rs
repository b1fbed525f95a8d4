//! Framed wire format for compressed activations (the offload DMA path).
//!
//! JPEG-ACT ships compressed activations across a PCIe DMA link
//! (Sec. III-G); once bytes cross that boundary, the decoder must assume
//! the wire can lie — truncated packets, flipped bits, payloads routed to
//! the wrong codec.  This module serializes every [`Payload`] variant into
//! a self-describing framed container and decodes **any** byte sequence
//! back into a `Result`: every length read is bounds-checked, every enum
//! tag is validated, and every structural invariant the downstream
//! decompressors rely on is re-established before a payload is rebuilt,
//! so there are zero panic paths for arbitrary input.
//!
//! ## Frame layout
//!
//! A `JACT` frame is a [`crate::seal`] container ([`LAYOUT`]): magic
//! `b"JACT"`, no address bytes (a 16-byte header), codec tags
//! 0=Raw .. 7=Brc.  The body starts with a common prelude — codec name
//! (u32-length UTF-8 string), uncompressed byte count, compressed byte
//! count — followed by the tag-specific payload encoding.  A short
//! buffer is a [`CodecError::Truncated`], a checksum disagreement is a
//! [`CodecError::ChecksumMismatch`], and every other malformation
//! (trailing garbage included) is a [`CodecError::BadFrame`].
//!
//! Version policy: [`VERSION`] bumps on any layout change; decoders reject
//! every version other than their own (offloaded activations never
//! outlive the process that wrote them, so no cross-version decode is
//! needed).

use crate::brc::BrcMask;
use crate::cast;
use crate::csr::Csr;
use crate::csr::MAX_ROW;
use crate::dqt::Dqt;
use crate::error::CodecError;
use crate::pipeline::{CodedBlocks, CompressedActivation, JpegPayload, Payload};
use crate::quant::QuantKind;
use crate::seal::{
    self, le_bytes, put_f32, put_f32s, put_u16, put_u32, put_u32s, put_u64, FrameError, Layout,
    Reader,
};
use crate::sfpr::{SfprEncoded, SfprParams};
use crate::zvc::Zvc;
use jact_tensor::{Shape, Tensor};

pub use crate::seal::crc32;

/// Frame magic: the first four bytes of every serialized activation.
pub const MAGIC: [u8; 4] = *b"JACT";

/// Wire format version; bumped on any layout change.
pub const VERSION: u16 = 1;

/// Header length in bytes (magic + version + tag + reserved + body length).
pub const HEADER_BYTES: usize = LAYOUT.header_bytes();

/// Upper bound on the element count of any shape accepted off the wire —
/// a denial-of-service guard so a mutated dimension field cannot demand
/// an absurd allocation (2^32 elements = 16 GiB of f32).
pub const MAX_WIRE_ELEMS: usize = 1 << 32;

/// Maximum tensor rank accepted off the wire.
pub const MAX_WIRE_RANK: usize = 8;

const TAG_RAW: u8 = 0;
const TAG_ZVC_F32: u8 = 1;
const TAG_DPR: u8 = 2;
const TAG_GIST_CSR: u8 = 3;
const TAG_SFPR: u8 = 4;
const TAG_SFPR_ZVC: u8 = 5;
const TAG_JPEG: u8 = 6;
const TAG_BRC: u8 = 7;

/// The sealed-container layout of a `JACT` frame.
pub const LAYOUT: Layout = Layout {
    magic: MAGIC,
    version: VERSION,
    addr_bytes: 0,
    min_tag: TAG_RAW,
    max_tag: TAG_BRC,
};

impl From<FrameError> for CodecError {
    fn from(e: FrameError) -> Self {
        let bad = |offset, what| CodecError::BadFrame { offset, what };
        match e {
            FrameError::BadMagic => bad(0, "bad magic"),
            FrameError::BadVersion { .. } => bad(4, "unsupported wire version"),
            FrameError::BadTag { .. } => bad(6, "unknown codec tag"),
            FrameError::BadReserved => bad(7, "reserved byte must be zero"),
            FrameError::BadLength { offset } => bad(offset, "length field overflows"),
            FrameError::Truncated {
                offset,
                needed,
                available,
            } => CodecError::Truncated {
                offset,
                needed,
                available,
            },
            FrameError::Incomplete { have, want } => CodecError::Truncated {
                offset: have,
                needed: want.saturating_sub(have),
                available: 0,
            },
            FrameError::Trailing { offset, .. } => bad(offset, "trailing bytes after frame"),
            FrameError::Checksum { expected, actual } => {
                CodecError::ChecksumMismatch { expected, actual }
            }
            FrameError::Oversize { .. } => bad(8, "frame exceeds assembler size cap"),
        }
    }
}

// ---------------------------------------------------------------------
// Payload writers.
// ---------------------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_shape(out: &mut Vec<u8>, shape: &Shape) {
    out.push(cast::exact_u8(shape.rank() as u32));
    for &d in shape.dims() {
        put_u64(out, d as u64);
    }
}

fn put_tensor(out: &mut Vec<u8>, t: &Tensor) {
    put_shape(out, t.shape());
    put_f32s(out, t.as_slice());
}

fn put_zvc(out: &mut Vec<u8>, z: &Zvc) {
    put_u64(out, z.words() as u64);
    out.push(cast::exact_u8(z.word_bytes() as u32));
    out.extend_from_slice(z.mask_bytes());
    out.extend_from_slice(z.value_bytes());
}

fn put_sfpr(out: &mut Vec<u8>, enc: &SfprEncoded) {
    put_f32(out, enc.params().s);
    put_u32(out, enc.params().bits);
    put_shape(out, enc.shape());
    put_f32s(out, enc.scales());
    if enc.values().is_empty() {
        out.push(0);
    } else {
        out.push(1);
        out.extend(enc.values().iter().map(|&v| v.cast_unsigned()));
    }
}

fn put_dqt(out: &mut Vec<u8>, dqt: &Dqt) {
    put_str(out, dqt.name());
    for &e in dqt.entries() {
        put_u16(out, e);
    }
}

// ---------------------------------------------------------------------
// Payload readers over the shared bounds-checked `seal::Reader`.
// ---------------------------------------------------------------------

/// A structural-validation error at the reader's cursor.
fn bad(r: &Reader<'_>, what: &'static str) -> CodecError {
    CodecError::BadFrame {
        offset: r.pos(),
        what,
    }
}

/// Copies the next `n` bytes into a pooled buffer.
fn read_bytes(r: &mut Reader<'_>, n: usize) -> Result<Vec<u8>, CodecError> {
    let src = r.take(n)?;
    let mut bytes: Vec<u8> = jact_pool::take(n);
    bytes.extend_from_slice(src);
    Ok(bytes)
}

/// Decodes the next `n` little-endian 32-bit words into a pooled buffer.
fn read_words<T: jact_pool::Poolable>(
    r: &mut Reader<'_>,
    n: usize,
    from_le_bytes: impl Fn([u8; 4]) -> T,
) -> Result<Vec<T>, CodecError> {
    let src = r.take(n * 4)?;
    let mut data: Vec<T> = jact_pool::take(n);
    data.extend(src.chunks_exact(4).map(|c| from_le_bytes(le_bytes(c))));
    Ok(data)
}

fn read_f32s(r: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, CodecError> {
    read_words(r, n, f32::from_le_bytes)
}

fn read_u32s(r: &mut Reader<'_>, n: usize) -> Result<Vec<u32>, CodecError> {
    read_words(r, n, u32::from_le_bytes)
}

/// Copies the next `n` bytes into a pooled buffer as `i8`s.
fn read_i8s(r: &mut Reader<'_>, n: usize) -> Result<Vec<i8>, CodecError> {
    let src = r.take(n)?;
    let mut data: Vec<i8> = jact_pool::take(n);
    data.extend(src.iter().map(|&b| b.cast_signed()));
    Ok(data)
}

fn read_string(r: &mut Reader<'_>) -> Result<String, CodecError> {
    let start = r.pos();
    let len = r.u32()? as usize;
    let bytes = read_bytes(r, len)?;
    String::from_utf8(bytes).map_err(|_| CodecError::BadFrame {
        offset: start,
        what: "string is not valid UTF-8",
    })
}

fn read_shape(r: &mut Reader<'_>) -> Result<Shape, CodecError> {
    let rank = r.u8()? as usize;
    if rank == 0 {
        return Err(bad(r, "shape rank must be positive"));
    }
    if rank > MAX_WIRE_RANK {
        return Err(bad(r, "shape rank too large"));
    }
    let mut dims = [0usize; MAX_WIRE_RANK];
    let mut elems = 1usize;
    for slot in dims.iter_mut().take(rank) {
        let d = r.len_u64()?;
        if d == 0 {
            return Err(bad(r, "shape dimension must be positive"));
        }
        elems = elems
            .checked_mul(d)
            .filter(|&e| e <= MAX_WIRE_ELEMS)
            .ok_or_else(|| bad(r, "shape element count too large"))?;
        *slot = d;
    }
    // `rank <= MAX_WIRE_RANK` was validated above, so the lookup
    // always succeeds; the typed fallback keeps this panic-free.
    let dims = dims
        .get(..rank)
        .ok_or_else(|| bad(r, "shape rank too large"))?;
    Ok(Shape::new(dims))
}

fn read_tensor(r: &mut Reader<'_>) -> Result<Tensor, CodecError> {
    let shape = read_shape(r)?;
    let data = read_f32s(r, shape.len())?;
    Ok(Tensor::from_vec(shape, data))
}

fn read_zvc(r: &mut Reader<'_>) -> Result<Zvc, CodecError> {
    let words = r.len_u64()?;
    let word_bytes = r.u8()? as usize;
    if word_bytes == 0 {
        return Err(bad(r, "ZVC word width must be positive"));
    }
    let mask = read_bytes(r, words.div_ceil(8))?;
    let popcount: usize = mask.iter().map(|b| b.count_ones() as usize).sum();
    let value_len = popcount
        .checked_mul(word_bytes)
        .ok_or_else(|| bad(r, "ZVC value size overflow"))?;
    let values = read_bytes(r, value_len)?;
    Zvc::from_parts(mask, values, words, word_bytes)
}

/// Reads an SFPR block.  When `require_values`, the value plane must
/// be present (the standalone SFPR payload decompresses it directly);
/// metadata-only forms (JPEG, SFPR+ZVC) may carry either.
fn read_sfpr(r: &mut Reader<'_>, require_values: bool) -> Result<SfprEncoded, CodecError> {
    let s = r.f32()?;
    let bits = r.u32()?;
    let shape = read_shape(r)?;
    if shape.rank() != 4 {
        return Err(bad(r, "SFPR shape must be rank 4"));
    }
    let scales = read_f32s(r, shape.c())?;
    let values = match r.u8()? {
        0 if require_values => {
            return Err(bad(r, "SFPR payload requires a value plane"));
        }
        // "No value plane": hand back a pooled empty vec so the
        // eventual recycle parks it for the next decode.
        0 => jact_pool::take(0),
        1 => read_i8s(r, shape.len())?,
        _ => return Err(bad(r, "SFPR value-plane flag must be 0 or 1")),
    };
    SfprEncoded::from_parts(values, scales, shape, SfprParams { s, bits })
}

fn read_dqt(r: &mut Reader<'_>) -> Result<Dqt, CodecError> {
    let name = read_string(r)?;
    let mut entries = [0u16; 64];
    for e in entries.iter_mut() {
        let v = r.u16()?;
        if !(1..=255).contains(&v) {
            return Err(CodecError::BadFrame {
                offset: r.pos() - 2,
                what: "DQT entry out of 1..=255",
            });
        }
        *e = v;
    }
    // Every entry was just range-checked, so this cannot fail; map the
    // typed rejection into this decoder's frame error anyway rather
    // than unwrapping in the panic-free wire path.
    Dqt::from_entries(name, entries).map_err(|_| bad(r, "DQT entries out of 1..=255"))
}

/// Number of 8×8 blocks the JPEG pipelines produce for `shape`, computed
/// with overflow-checked arithmetic (mirrors `BlockLayout` with the
/// paper's `NCH,W` padding).
fn checked_num_blocks(shape: &Shape) -> Option<usize> {
    let rows = shape.n().checked_mul(shape.c())?.checked_mul(shape.h())?;
    let block_rows = rows.checked_add(7)? / 8;
    let block_cols = shape.w().checked_add(7)? / 8;
    block_rows.checked_mul(block_cols)
}

// ---------------------------------------------------------------------
// Serialize.
// ---------------------------------------------------------------------

/// Serializes a compressed activation into a framed byte container
/// suitable for the offload DMA path.  Always succeeds — every payload a
/// codec can produce has a wire encoding.
///
/// Thin wrapper over [`serialize_into`]; steady-state callers should
/// serialize into a pooled buffer instead.
pub fn serialize(c: &CompressedActivation) -> Vec<u8> {
    let mut out = jact_pool::take(HEADER_BYTES + c.compressed_bytes() + 4);
    serialize_into(c, &mut out);
    out
}

/// Serializes a compressed activation into `out`, clearing it first and
/// reusing its capacity — with a pooled buffer the steady-state wire
/// path runs without touching the allocator.  The frame is written in
/// one pass: `seal::seal` patches the header's tag and body-length
/// fields in place once the body is down, then one CRC pass seals it.
pub fn serialize_into(c: &CompressedActivation, out: &mut Vec<u8>) {
    seal::begin(out, &LAYOUT, |_| {});

    put_str(out, c.codec_name());
    put_u64(out, c.uncompressed_bytes() as u64);
    put_u64(out, c.compressed_bytes() as u64);

    let tag = match c.payload() {
        Payload::Raw(t) => {
            put_tensor(out, t);
            TAG_RAW
        }
        Payload::ZvcF32 { z, shape } => {
            put_shape(out, shape);
            put_zvc(out, z);
            TAG_ZVC_F32
        }
        Payload::Dpr { rounded } => {
            put_tensor(out, rounded);
            TAG_DPR
        }
        Payload::GistCsr { csr, shape } => {
            put_shape(out, shape);
            put_u16(out, cast::exact_u16(csr.row_len() as u32));
            put_u32s(out, csr.row_ptr());
            out.extend_from_slice(csr.cols());
            out.extend(csr.vals().iter().map(|&v| v.cast_unsigned()));
            TAG_GIST_CSR
        }
        Payload::Sfpr(enc) => {
            put_sfpr(out, enc);
            TAG_SFPR
        }
        Payload::SfprZvc { meta, z } => {
            put_sfpr(out, meta);
            put_zvc(out, z);
            TAG_SFPR_ZVC
        }
        Payload::Jpeg(p) => {
            put_sfpr(out, &p.meta);
            out.push(match p.quant {
                QuantKind::Div => 0,
                QuantKind::Shift => 1,
            });
            put_dqt(out, &p.dqt);
            match &p.coded {
                CodedBlocks::Rle { bytes, count } => {
                    out.push(0);
                    put_u64(out, *count as u64);
                    put_u64(out, bytes.len() as u64);
                    out.extend_from_slice(bytes);
                }
                CodedBlocks::Zvc(z) => {
                    out.push(1);
                    put_zvc(out, z);
                }
            }
            TAG_JPEG
        }
        Payload::Brc(m) => {
            put_shape(out, m.shape());
            out.extend_from_slice(m.bits());
            TAG_BRC
        }
    };

    seal::seal(out, &LAYOUT, tag);
}

// ---------------------------------------------------------------------
// Deserialize.
// ---------------------------------------------------------------------

/// Decodes a framed byte container back into a compressed activation.
///
/// Total function over arbitrary input: any malformation — short buffer,
/// bad magic, unknown tag, checksum mismatch, inconsistent payload
/// structure — is a typed [`CodecError`]; there are no panic paths.
pub fn deserialize(bytes: &[u8]) -> Result<CompressedActivation, CodecError> {
    let (tag, _addr, mut r, body_end) = seal::open(bytes, &LAYOUT)?;

    // Body prelude.
    let codec_name = read_string(&mut r)?;
    let uncompressed_bytes = r.len_u64()?;
    let compressed_bytes = r.len_u64()?;

    let payload = match tag {
        TAG_RAW => Payload::Raw(read_tensor(&mut r)?),
        TAG_ZVC_F32 => {
            let shape = read_shape(&mut r)?;
            let z = read_zvc(&mut r)?;
            if z.word_bytes() != 4 {
                return Err(bad(&r, "ZVC-f32 payload requires 4-byte words"));
            }
            if z.words() != shape.len() {
                return Err(bad(&r, "ZVC word count disagrees with shape"));
            }
            Payload::ZvcF32 { z, shape }
        }
        TAG_DPR => Payload::Dpr {
            rounded: read_tensor(&mut r)?,
        },
        TAG_GIST_CSR => {
            let shape = read_shape(&mut r)?;
            let len = shape.len();
            let row_len = r.u16()? as usize;
            if !(1..=MAX_ROW).contains(&row_len) {
                return Err(bad(&r, "CSR row length out of 1..=256"));
            }
            let row_ptr = read_u32s(&mut r, len.div_ceil(row_len) + 1)?;
            let nnz = row_ptr.last().map(|&p| p as usize).unwrap_or(0);
            let cols = read_bytes(&mut r, nnz)?;
            let vals = read_i8s(&mut r, nnz)?;
            let csr = Csr::from_parts(row_ptr, cols, vals, len, row_len)?;
            Payload::GistCsr { csr, shape }
        }
        TAG_SFPR => Payload::Sfpr(read_sfpr(&mut r, true)?),
        TAG_SFPR_ZVC => {
            let meta = read_sfpr(&mut r, false)?;
            let z = read_zvc(&mut r)?;
            if z.word_bytes() != 1 {
                return Err(bad(&r, "SFPR+ZVC payload requires 1-byte words"));
            }
            if z.words() != meta.shape().len() {
                return Err(bad(&r, "ZVC word count disagrees with SFPR shape"));
            }
            Payload::SfprZvc { meta, z }
        }
        TAG_JPEG => {
            let meta = read_sfpr(&mut r, false)?;
            let quant = match r.u8()? {
                0 => QuantKind::Div,
                1 => QuantKind::Shift,
                _ => return Err(bad(&r, "unknown quantizer tag")),
            };
            let dqt = read_dqt(&mut r)?;
            let num_blocks = checked_num_blocks(meta.shape())
                .ok_or_else(|| bad(&r, "block count overflow"))?;
            let coded = match r.u8()? {
                0 => {
                    let count = r.len_u64()?;
                    let byte_len = r.len_u64()?;
                    let bytes = read_bytes(&mut r, byte_len)?;
                    if count != num_blocks {
                        return Err(bad(&r, "RLE block count disagrees with shape"));
                    }
                    // Every coded block consumes at least one bit, so a
                    // plausible count is bounded by the stream length —
                    // this caps the decoder's up-front allocation.
                    if count > bytes.len().saturating_mul(8) {
                        return Err(bad(&r, "RLE block count exceeds stream capacity"));
                    }
                    CodedBlocks::Rle { bytes, count }
                }
                1 => {
                    let z = read_zvc(&mut r)?;
                    if z.word_bytes() != 1 {
                        return Err(bad(&r, "JPEG ZVC payload requires 1-byte words"));
                    }
                    if Some(z.words()) != num_blocks.checked_mul(64) {
                        return Err(bad(&r, "ZVC word count disagrees with block count"));
                    }
                    CodedBlocks::Zvc(z)
                }
                _ => return Err(bad(&r, "unknown coded-blocks tag")),
            };
            Payload::Jpeg(JpegPayload {
                meta,
                coded,
                quant,
                dqt,
            })
        }
        TAG_BRC => {
            let shape = read_shape(&mut r)?;
            let bits = read_bytes(&mut r, shape.len().div_ceil(8))?;
            Payload::Brc(BrcMask::from_parts(bits, shape)?)
        }
        // `open` validated the tag range.
        _ => return Err(bad(&r, "unknown codec tag")),
    };

    if r.pos() != body_end {
        return Err(bad(&r, "body has trailing bytes"));
    }

    Ok(CompressedActivation::from_wire_parts(
        payload,
        uncompressed_bytes,
        compressed_bytes,
        codec_name,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dpr::DprWidth;
    use crate::pipeline::{
        BrcCodec, Codec, DprCodec, GistCsrCodec, JpegActCodec, JpegBaseCodec, RawCodec, SfprCodec,
        SfprZvcCodec, ZvcF32Codec,
    };

    fn smooth_tensor() -> Tensor {
        let shape = Shape::nchw(1, 2, 8, 16);
        let data = (0..shape.len())
            .map(|i| {
                if i % 4 == 0 {
                    0.0
                } else {
                    ((i % 16) as f32 * 0.3).sin() * 1.5
                }
            })
            .collect();
        Tensor::from_vec(shape, data)
    }

    fn all_codecs() -> Vec<Box<dyn Codec>> {
        vec![
            Box::new(RawCodec),
            Box::new(ZvcF32Codec),
            Box::new(DprCodec::new(DprWidth::F16)),
            Box::new(GistCsrCodec),
            Box::new(SfprCodec::new()),
            Box::new(SfprZvcCodec::new()),
            Box::new(JpegBaseCodec::new(Dqt::opt_l())),
            Box::new(JpegActCodec::new(Dqt::opt_h())),
            Box::new(BrcCodec),
        ]
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_all_codecs_bit_exact() {
        let x = smooth_tensor();
        for codec in all_codecs() {
            let c = codec.compress(&x);
            let wire = serialize(&c);
            let back = deserialize(&wire).unwrap_or_else(|e| {
                panic!("{}: deserialize failed: {e}", codec.name())
            });
            // Frame re-serialization is byte-identical...
            assert_eq!(serialize(&back), wire, "{}", codec.name());
            // ...and accounting plus decompression agree exactly.
            assert_eq!(back.codec_name(), c.codec_name());
            assert_eq!(back.compressed_bytes(), c.compressed_bytes());
            assert_eq!(back.uncompressed_bytes(), c.uncompressed_bytes());
            let a = codec.decompress(&c).expect("original decompresses");
            let b = codec.decompress(&back).expect("wire copy decompresses");
            assert_eq!(a.as_slice(), b.as_slice(), "{}", codec.name());
        }
    }

    /// The frame writer with every plane appended one element at a time,
    /// as `serialize_into` wrote them before `put_f32s` / `put_u32s`.
    fn serialize_per_element(c: &CompressedActivation) -> Vec<u8> {
        fn tensor(out: &mut Vec<u8>, t: &Tensor) {
            put_shape(out, t.shape());
            t.iter().for_each(|&v| put_f32(out, v));
        }
        fn sfpr(out: &mut Vec<u8>, enc: &SfprEncoded) {
            put_f32(out, enc.params().s);
            put_u32(out, enc.params().bits);
            put_shape(out, enc.shape());
            enc.scales().iter().for_each(|&s| put_f32(out, s));
            out.push(u8::from(!enc.values().is_empty()));
            out.extend(enc.values().iter().map(|&v| v.cast_unsigned()));
        }
        let mut out = Vec::new();
        seal::begin(&mut out, &LAYOUT, |_| {});
        put_str(&mut out, c.codec_name());
        put_u64(&mut out, c.uncompressed_bytes() as u64);
        put_u64(&mut out, c.compressed_bytes() as u64);
        let tag = match c.payload() {
            Payload::Raw(t) => {
                tensor(&mut out, t);
                TAG_RAW
            }
            Payload::ZvcF32 { z, shape } => {
                put_shape(&mut out, shape);
                put_zvc(&mut out, z);
                TAG_ZVC_F32
            }
            Payload::Dpr { rounded } => {
                tensor(&mut out, rounded);
                TAG_DPR
            }
            Payload::GistCsr { csr, shape } => {
                put_shape(&mut out, shape);
                put_u16(&mut out, csr.row_len() as u16);
                csr.row_ptr().iter().for_each(|&p| put_u32(&mut out, p));
                out.extend_from_slice(csr.cols());
                out.extend(csr.vals().iter().map(|&v| v.cast_unsigned()));
                TAG_GIST_CSR
            }
            Payload::Sfpr(enc) => {
                sfpr(&mut out, enc);
                TAG_SFPR
            }
            Payload::SfprZvc { meta, z } => {
                sfpr(&mut out, meta);
                put_zvc(&mut out, z);
                TAG_SFPR_ZVC
            }
            Payload::Jpeg(p) => {
                sfpr(&mut out, &p.meta);
                out.push(matches!(p.quant, QuantKind::Shift) as u8);
                put_dqt(&mut out, &p.dqt);
                match &p.coded {
                    CodedBlocks::Rle { bytes, count } => {
                        out.push(0);
                        put_u64(&mut out, *count as u64);
                        put_u64(&mut out, bytes.len() as u64);
                        out.extend_from_slice(bytes);
                    }
                    CodedBlocks::Zvc(z) => {
                        out.push(1);
                        put_zvc(&mut out, z);
                    }
                }
                TAG_JPEG
            }
            Payload::Brc(m) => {
                put_shape(&mut out, m.shape());
                out.extend_from_slice(m.bits());
                TAG_BRC
            }
        };
        seal::seal(&mut out, &LAYOUT, tag);
        out
    }

    #[test]
    fn plane_writers_leave_every_tag_byte_identical() {
        let x = smooth_tensor();
        let mut tags = Vec::new();
        for codec in all_codecs() {
            let c = codec.compress(&x);
            let wire = serialize(&c);
            assert_eq!(wire, serialize_per_element(&c), "{}", codec.name());
            tags.push(wire[6]);
        }
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags, (TAG_RAW..=TAG_BRC).collect::<Vec<_>>());
    }

    #[test]
    fn gist_frame_decodes_out_of_the_pool() {
        let wire = serialize(&GistCsrCodec.compress(&smooth_tensor()));
        // The first decode parks its planes; the second must find them.
        deserialize(&wire).unwrap().recycle();
        let misses = jact_pool::stats().misses;
        deserialize(&wire).unwrap().recycle();
        assert_eq!(jact_pool::stats().misses, misses);
    }

    #[test]
    fn empty_and_tiny_inputs_are_typed_errors() {
        assert!(matches!(
            deserialize(&[]),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            deserialize(b"JA"),
            Err(CodecError::Truncated { .. })
        ));
        assert!(matches!(
            deserialize(b"NOPE00000000000000000000"),
            Err(CodecError::BadFrame { offset: 0, .. })
        ));
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let wire = serialize(&SfprCodec::new().compress(&smooth_tensor()));
        for cut in 0..wire.len() {
            let err = deserialize(&wire[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated { .. })
                    || matches!(err, CodecError::ChecksumMismatch { .. })
                    || matches!(err, CodecError::BadFrame { .. }),
                "cut={cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = serialize(&RawCodec.compress(&smooth_tensor()));
        wire.push(0);
        assert!(matches!(
            deserialize(&wire),
            Err(CodecError::BadFrame {
                what: "trailing bytes after frame",
                ..
            })
        ));
    }

    #[test]
    fn single_bit_flip_is_detected() {
        let wire = serialize(&JpegActCodec::new(Dqt::opt_h()).compress(&smooth_tensor()));
        // Flip one bit in the body: the checksum catches it.
        let mut corrupt = wire.clone();
        corrupt[HEADER_BYTES + 3] ^= 0x10;
        assert!(matches!(
            deserialize(&corrupt),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn resealed_bad_tag_is_still_rejected() {
        // Recompute the CRC after mutating the tag, so the deep field
        // validation (not just the checksum) must reject the frame.
        let mut wire = serialize(&SfprCodec::new().compress(&smooth_tensor()));
        wire[6] = 99;
        let n = wire.len();
        let crc = crc32(&wire[..n - 4]);
        wire[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            deserialize(&wire),
            Err(CodecError::BadFrame {
                offset: 6,
                what: "unknown codec tag",
            })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = serialize(&RawCodec.compress(&smooth_tensor()));
        wire[4] = VERSION as u8 + 1;
        let n = wire.len();
        let crc = crc32(&wire[..n - 4]);
        wire[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            deserialize(&wire),
            Err(CodecError::BadFrame {
                offset: 4,
                what: "unsupported wire version",
            })
        ));
    }

    #[test]
    fn checksum_mismatch_reports_both_values() {
        let mut wire = serialize(&RawCodec.compress(&smooth_tensor()));
        let n = wire.len();
        wire[n - 1] ^= 0xFF;
        match deserialize(&wire) {
            Err(CodecError::ChecksumMismatch { expected, actual }) => {
                assert_ne!(expected, actual);
            }
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    // ---- seal::Assembler over the JACT layout ----

    use crate::seal::Assembler;

    fn assembler() -> Assembler {
        Assembler::new(LAYOUT, 1 << 20)
    }

    fn two_frames() -> (Vec<u8>, Vec<u8>) {
        (
            serialize(&RawCodec.compress(&smooth_tensor())),
            serialize(&SfprCodec::new().compress(&smooth_tensor())),
        )
    }

    #[test]
    fn assembler_reassembles_at_every_split_point() {
        let (a, b) = two_frames();
        let stream: Vec<u8> = [a.as_slice(), b.as_slice()].concat();
        for cut in 0..=stream.len() {
            let mut asm = assembler();
            let mut frames = asm.push(&stream[..cut]).unwrap();
            frames.extend(asm.push(&stream[cut..]).unwrap());
            assert_eq!(frames, vec![a.clone(), b.clone()], "cut={cut}");
            assert_eq!(asm.pending_bytes(), 0);
            asm.finish().unwrap();
        }
    }

    #[test]
    fn assembler_byte_at_a_time() {
        let (a, b) = two_frames();
        let mut asm = assembler();
        let mut frames = Vec::new();
        for &byte in a.iter().chain(b.iter()) {
            frames.extend(asm.push(&[byte]).unwrap());
        }
        assert_eq!(frames, vec![a, b]);
        asm.finish().unwrap();
    }

    #[test]
    fn assembler_one_chunk_many_frames() {
        let (a, b) = two_frames();
        let stream: Vec<u8> = [a.as_slice(), b.as_slice(), a.as_slice()].concat();
        let frames = assembler().push(&stream).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[2], a);
    }

    #[test]
    fn assembler_rejects_bad_magic_on_first_bytes() {
        assert_eq!(assembler().push(b"JUNK"), Err(FrameError::BadMagic));
        // Even a single wrong byte fails fast.
        assert_eq!(assembler().push(b"X"), Err(FrameError::BadMagic));
    }

    #[test]
    fn assembler_rejects_oversize_announcement() {
        let header = |body_len: u64| {
            let mut h = Vec::new();
            seal::begin(&mut h, &LAYOUT, |_| {});
            h[8..16].copy_from_slice(&body_len.to_le_bytes());
            h
        };
        // Total overflows usize math.
        assert_eq!(
            assembler().push(&header(u64::MAX - 8)),
            Err(FrameError::BadLength { offset: 8 })
        );
        // Over the 1 MiB cap.
        let err = assembler().push(&header(1 << 30)).unwrap_err();
        assert!(matches!(err, FrameError::Oversize { max: 1048576, .. }));
        assert!(matches!(
            CodecError::from(err),
            CodecError::BadFrame { offset: 8, .. }
        ));
    }

    #[test]
    fn assembler_finish_mid_frame_is_truncated() {
        let (a, _) = two_frames();
        let mut asm = assembler();
        assert!(asm.push(&a[..a.len() - 1]).unwrap().is_empty());
        match asm.finish().map_err(CodecError::from) {
            Err(CodecError::Truncated { needed, .. }) => assert_eq!(needed, 1),
            other => panic!("expected truncation, got {other:?}"),
        }
        // A bare partial header reports the distance to a full header.
        let mut asm = assembler();
        assert!(asm.push(&a[..5]).unwrap().is_empty());
        match asm.finish().map_err(CodecError::from) {
            Err(CodecError::Truncated { needed, .. }) => assert_eq!(needed, HEADER_BYTES - 5),
            other => panic!("expected truncation, got {other:?}"),
        }
    }

    #[test]
    fn assembler_yields_frames_that_deserialize() {
        let (a, b) = two_frames();
        let stream: Vec<u8> = [a.as_slice(), b.as_slice()].concat();
        for f in assembler().push(&stream).unwrap() {
            deserialize(&f).unwrap();
        }
    }
}
