//! The inference envelope: a length-prefixed, CRC-sealed container for
//! inference requests and responses.
//!
//! It is a `jact_codec::seal` container ([`LAYOUT`]): magic `b"JINF"`,
//! a 12-byte address (`client u32 | seq u64`, the serve envelope's
//! 28-byte header geometry), tags 1=Request .. 4=Error.
//!
//! `decode` is **total** over hostile bytes: every malformed input maps
//! to exactly one typed [`InferError`]; nothing panics.  All payload
//! buffers are drawn from `jact-pool`, and [`InferEnvelope::recycle`]
//! returns them, so the steady-state request loop never touches the
//! global allocator.

use crate::error::InferError;
use jact_codec::seal::{self, le_bytes, put_u16, put_u32, put_u64, Layout, Reader};

/// Frame magic: "JINF".
pub const INFER_MAGIC: [u8; 4] = *b"JINF";
/// Protocol version this build speaks.
pub const INFER_VERSION: u16 = 1;
/// Trailing CRC seal size in bytes.
pub const SEAL_BYTES: usize = seal::TRAILER_BYTES;

/// Tag: inference request (feature map in).
pub const TAG_INFER_REQ: u8 = 1;
/// Tag: successful inference response (logits out).
pub const TAG_INFER_OK: u8 = 2;
/// Tag: degraded response — a boundary fault zero-filled this sample.
pub const TAG_INFER_DEGRADED: u8 = 3;
/// Tag: typed error response.
pub const TAG_ERROR: u8 = 4;

/// The sealed-container layout of an inference envelope.
pub const LAYOUT: Layout = Layout {
    magic: INFER_MAGIC,
    version: INFER_VERSION,
    addr_bytes: 12,
    min_tag: TAG_INFER_REQ,
    max_tag: TAG_ERROR,
};
/// Fixed header size in bytes (before the body and CRC seal).
pub const HEADER_BYTES: usize = LAYOUT.header_bytes();

/// Largest pixel/logit count a frame may declare (16 MiB of f32s).
pub const MAX_ELEMS: usize = 4 << 20;

/// One inference message.
#[derive(Debug, Clone, PartialEq)]
pub enum InferMsg {
    /// A client request: one `[c, h, w]` feature map to classify.
    Request {
        /// Channels.
        c: u32,
        /// Height.
        h: u32,
        /// Width.
        w: u32,
        /// Row-major CHW pixels, `c*h*w` long (pooled).
        pixels: Vec<f32>,
    },
    /// The daemon's answer for one request.
    Response {
        /// `true` when a boundary fault forced zero-fill degradation.
        degraded: bool,
        /// Model output row for this request (pooled).
        logits: Vec<f32>,
    },
    /// A typed error, carried as the `InferError` wire tuple.
    Error {
        /// Error code.
        code: u16,
        /// First detail word.
        a: u64,
        /// Second detail word.
        b: u64,
        /// Third detail word.
        c: u64,
    },
}

impl InferMsg {
    /// The wire tag this message serializes under.
    pub fn tag(&self) -> u8 {
        match self {
            InferMsg::Request { .. } => TAG_INFER_REQ,
            InferMsg::Response { degraded: false, .. } => TAG_INFER_OK,
            InferMsg::Response { degraded: true, .. } => TAG_INFER_DEGRADED,
            InferMsg::Error { .. } => TAG_ERROR,
        }
    }

    fn body_len(&self) -> usize {
        match self {
            InferMsg::Request { pixels, .. } => 12 + pixels.len() * 4,
            InferMsg::Response { logits, .. } => 4 + logits.len() * 4,
            InferMsg::Error { .. } => 2 + 8 + 8 + 8,
        }
    }
}

/// One addressed inference envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct InferEnvelope {
    /// Client id the frame belongs to.
    pub client: u32,
    /// Client-scoped sequence number.
    pub seq: u64,
    /// The message.
    pub msg: InferMsg,
}

impl InferEnvelope {
    /// Returns every pooled payload buffer to the thread-local pool.
    pub fn recycle(self) {
        match self.msg {
            InferMsg::Request { pixels, .. } => jact_pool::give(pixels),
            InferMsg::Response { logits, .. } => jact_pool::give(logits),
            InferMsg::Error { .. } => {}
        }
    }
}

/// Serializes `env` into `out` (cleared first, capacity reused) and
/// seals it with a CRC.  With a pooled `out` the encode path is
/// allocation-free once warm.
pub fn encode_into(env: &InferEnvelope, out: &mut Vec<u8>) {
    seal::begin(out, &LAYOUT, |out| {
        put_u32(out, env.client);
        put_u64(out, env.seq);
    });
    match &env.msg {
        InferMsg::Request { c, h, w, pixels } => {
            put_u32(out, *c);
            put_u32(out, *h);
            put_u32(out, *w);
            for v in pixels {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        InferMsg::Response { logits, .. } => {
            put_u32(out, logits.len() as u32);
            for v in logits {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        InferMsg::Error { code, a, b, c } => {
            put_u16(out, *code);
            put_u64(out, *a);
            put_u64(out, *b);
            put_u64(out, *c);
        }
    }
    seal::seal(out, &LAYOUT, env.msg.tag());
}

/// Serializes `env` into a pooled buffer.
pub fn encode(env: &InferEnvelope) -> Vec<u8> {
    let mut out = jact_pool::take(HEADER_BYTES + env.msg.body_len() + SEAL_BYTES);
    encode_into(env, &mut out);
    out
}

/// Reads `count` little-endian f32s into a pooled buffer.
fn f32s(r: &mut Reader<'_>, count: usize) -> Result<Vec<f32>, InferError> {
    let bytes = r.take(count * 4)?;
    let mut out: Vec<f32> = jact_pool::take(count);
    for ch in bytes.chunks_exact(4) {
        out.push(f32::from_le_bytes(le_bytes(ch)));
    }
    Ok(out)
}

/// Decodes one sealed frame.  Total: every outcome is `Ok` or exactly
/// one typed [`InferError`]; hostile bytes can never panic, and no
/// pooled buffer leaks on the error paths.
pub fn decode(buf: &[u8]) -> Result<InferEnvelope, InferError> {
    let (tag, addr, mut r, body_end) = seal::open(buf, &LAYOUT)?;
    let mut addr = Reader::new(addr);
    let client = addr.u32()?;
    let seq = addr.u64()?;
    let msg = match tag {
        TAG_INFER_REQ => {
            let c = r.u32()?;
            let h = r.u32()?;
            let w = r.u32()?;
            if c == 0 || h == 0 || w == 0 {
                return Err(InferError::BadShape);
            }
            let count = (c as u64)
                .checked_mul(h as u64)
                .and_then(|p| p.checked_mul(w as u64))
                .ok_or(InferError::BadShape)?;
            if count > MAX_ELEMS as u64 {
                return Err(InferError::Oversize {
                    got: count.min(usize::MAX as u64) as usize,
                    max: MAX_ELEMS,
                });
            }
            let count = count as usize;
            if r.remaining() != count * 4 + SEAL_BYTES {
                return Err(InferError::BadShape);
            }
            let pixels = f32s(&mut r, count)?;
            InferMsg::Request { c, h, w, pixels }
        }
        TAG_INFER_OK | TAG_INFER_DEGRADED => {
            let n = r.u32()? as usize;
            if n > MAX_ELEMS {
                return Err(InferError::Oversize { got: n, max: MAX_ELEMS });
            }
            if r.remaining() != n * 4 + SEAL_BYTES {
                return Err(InferError::BadShape);
            }
            let logits = f32s(&mut r, n)?;
            InferMsg::Response {
                degraded: tag == TAG_INFER_DEGRADED,
                logits,
            }
        }
        _ => {
            let code = r.u16()?;
            let a = r.u64()?;
            let b = r.u64()?;
            let c = r.u64()?;
            InferMsg::Error { code, a, b, c }
        }
    };
    if r.pos() != body_end {
        // Reclaim any pooled payload before surfacing the error.
        InferEnvelope { client, seq, msg }.recycle();
        return Err(InferError::BadShape);
    }
    Ok(InferEnvelope { client, seq, msg })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_envelopes() -> Vec<InferEnvelope> {
        vec![
            InferEnvelope {
                client: 3,
                seq: 41,
                msg: InferMsg::Request {
                    c: 2,
                    h: 4,
                    w: 4,
                    pixels: (0..32).map(|i| i as f32 * 0.5 - 4.0).collect(),
                },
            },
            InferEnvelope {
                client: 7,
                seq: 1,
                msg: InferMsg::Response {
                    degraded: false,
                    logits: vec![0.25, -1.5, 3.0],
                },
            },
            InferEnvelope {
                client: 7,
                seq: 2,
                msg: InferMsg::Response {
                    degraded: true,
                    logits: vec![0.0; 10],
                },
            },
            InferEnvelope {
                client: 9,
                seq: 0,
                msg: InferMsg::Error { code: 12, a: 9, b: 1, c: 0 },
            },
        ]
    }

    #[test]
    fn round_trip_every_message_kind() {
        for env in sample_envelopes() {
            let bytes = encode(&env);
            let back = decode(&bytes).expect("round trip");
            assert_eq!(back, env);
        }
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        for env in sample_envelopes() {
            let bytes = encode(&env);
            for cut in 0..bytes.len() {
                let r = decode(&bytes[..cut]);
                assert!(r.is_err(), "cut at {cut} decoded");
            }
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let env = &sample_envelopes()[0];
        let bytes = encode(env);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut m = bytes.clone();
                m[i] ^= 1 << bit;
                assert!(decode(&m).is_err(), "flip at byte {i} bit {bit} decoded");
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let env = &sample_envelopes()[1];
        let mut bytes = encode(env);
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(InferError::TrailingBytes { extra: 1 }));
    }

    #[test]
    fn shape_payload_mismatch_rejected() {
        let env = InferEnvelope {
            client: 1,
            seq: 1,
            msg: InferMsg::Request {
                c: 2,
                h: 2,
                w: 2,
                pixels: vec![0.0; 9], // one too many for 2*2*2
            },
        };
        let bytes = encode(&env);
        assert!(decode(&bytes).is_err());
    }
}
