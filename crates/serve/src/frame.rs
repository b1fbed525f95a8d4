//! The serve envelope: multiplexing framed requests over one stream.
//!
//! A serve **envelope** wraps one request or response between a tenant
//! and the daemon.  It is a `jact_codec::seal` container ([`LAYOUT`]):
//! magic `b"JSRV"`, a 12-byte address (`tenant u32 | seq u64`, so a
//! 28-byte header), tags 1=SaveReq .. 6=Error.
//!
//! Bodies carry the [`Msg`] payloads; save/load payloads embed a full
//! `codec::wire` frame verbatim, so the inner activation container keeps
//! its own CRC and validators.  [`decode`] is a **total function** over
//! arbitrary bytes — every malformation is a typed
//! [`ServeError`](crate::error::ServeError), never a panic.
//!
//! This module is on the analyzer's wire surface (JA10): hostile bytes
//! flow through it, so it uses only bounds-checked access — no slice
//! indexing, no runtime division.

use crate::clock::Tick;
use crate::error::ServeError;
use jact_codec::seal::{self, put_u16, put_u32, put_u64, Layout, Reader};

/// Magic prefix of every serve envelope.
pub const SERVE_MAGIC: [u8; 4] = *b"JSRV";

/// Serve protocol version this build speaks.
pub const SERVE_VERSION: u16 = 1;

const TAG_SAVE_REQ: u8 = 1;
const TAG_LOAD_REQ: u8 = 2;
const TAG_SAVE_OK: u8 = 3;
const TAG_LOAD_OK: u8 = 4;
const TAG_DEGRADED: u8 = 5;
const TAG_ERROR: u8 = 6;

/// The sealed-container layout of a serve envelope.
pub const LAYOUT: Layout = Layout {
    magic: SERVE_MAGIC,
    version: SERVE_VERSION,
    addr_bytes: 12,
    min_tag: TAG_SAVE_REQ,
    max_tag: TAG_ERROR,
};

/// Fixed envelope header size: magic + version + tag + reserved +
/// tenant + seq + body_len.
pub const ENVELOPE_HEADER_BYTES: usize = LAYOUT.header_bytes();

/// One request or response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Client → server: store `frame` (a serialized `codec::wire`
    /// container) under `tensor`, answering by `deadline`.
    SaveReq {
        /// Tensor id within the tenant's namespace.
        tensor: u64,
        /// Virtual-tick deadline for the response.
        deadline: Tick,
        /// The serialized compressed-activation frame.
        frame: Vec<u8>,
    },
    /// Client → server: deliver the frame stored under `tensor` by
    /// `deadline`.
    LoadReq {
        /// Tensor id within the tenant's namespace.
        tensor: u64,
        /// Virtual-tick deadline for the response.
        deadline: Tick,
    },
    /// Server → client: the save was stored.
    SaveOk {
        /// The stored tensor id.
        tensor: u64,
    },
    /// Server → client: the load succeeded.
    LoadOk {
        /// The delivered tensor id.
        tensor: u64,
        /// `true` when served from the LRU cache (no bus traversal).
        cached: bool,
        /// The serialized compressed-activation frame.
        frame: Vec<u8>,
    },
    /// Server → client: retries exhausted, deliver zero-fill instead
    /// (the `RecoveryPolicy::ZeroFill` degradation arm).
    Degraded {
        /// The tensor that could not be delivered.
        tensor: u64,
        /// Delivery attempts made before degrading.
        attempts: u32,
    },
    /// Server → client: the request failed with a typed error.
    Error {
        /// The failure, reconstructed via
        /// [`ServeError::from_wire`](crate::error::ServeError::from_wire).
        err: ServeError,
    },
}

impl Msg {
    fn tag(&self) -> u8 {
        match self {
            Msg::SaveReq { .. } => TAG_SAVE_REQ,
            Msg::LoadReq { .. } => TAG_LOAD_REQ,
            Msg::SaveOk { .. } => TAG_SAVE_OK,
            Msg::LoadOk { .. } => TAG_LOAD_OK,
            Msg::Degraded { .. } => TAG_DEGRADED,
            Msg::Error { .. } => TAG_ERROR,
        }
    }
}

/// One framed envelope: addressing plus a [`Msg`] body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// The tenant this envelope belongs to.
    pub tenant: u32,
    /// Request sequence number; responses echo the request's `seq`.
    pub seq: u64,
    /// The body.
    pub msg: Msg,
}

// ---------------------------------------------------------------------
// Encode.
// ---------------------------------------------------------------------

/// Serializes an envelope: header, body, CRC trailer.
///
/// Thin wrapper over [`encode_into`] drawing its buffer from the pool;
/// steady-state callers that want to reuse one assembly buffer should
/// call [`encode_into`] directly.
pub fn encode(env: &Envelope) -> Vec<u8> {
    let mut out = jact_pool::take(ENVELOPE_HEADER_BYTES + msg_body_hint(&env.msg) + 4);
    encode_into(env, &mut out);
    out
}

fn msg_body_hint(msg: &Msg) -> usize {
    match msg {
        Msg::SaveReq { frame, .. } | Msg::LoadOk { frame, .. } => 32 + frame.len(),
        _ => 32,
    }
}

/// Serializes an envelope into `out`, clearing it first and reusing its
/// capacity.  Single pass: the body goes directly into `out` behind a
/// placeholder header, then `seal::seal` patches it and runs one CRC.
pub fn encode_into(env: &Envelope, out: &mut Vec<u8>) {
    seal::begin(out, &LAYOUT, |out| {
        put_u32(out, env.tenant);
        put_u64(out, env.seq);
    });

    match &env.msg {
        Msg::SaveReq {
            tensor,
            deadline,
            frame,
        } => {
            put_u64(out, *tensor);
            put_u64(out, *deadline);
            put_u64(out, frame.len() as u64);
            out.extend_from_slice(frame);
        }
        Msg::LoadReq { tensor, deadline } => {
            put_u64(out, *tensor);
            put_u64(out, *deadline);
        }
        Msg::SaveOk { tensor } => put_u64(out, *tensor),
        Msg::LoadOk {
            tensor,
            cached,
            frame,
        } => {
            put_u64(out, *tensor);
            out.push(u8::from(*cached));
            put_u64(out, frame.len() as u64);
            out.extend_from_slice(frame);
        }
        Msg::Degraded { tensor, attempts } => {
            put_u64(out, *tensor);
            put_u32(out, *attempts);
        }
        Msg::Error { err } => {
            let (code, a, b, c) = err.to_wire();
            put_u16(out, code);
            put_u64(out, a);
            put_u64(out, b);
            put_u64(out, c);
        }
    }

    seal::seal(out, &LAYOUT, env.msg.tag());
}

// ---------------------------------------------------------------------
// Decode.
// ---------------------------------------------------------------------

fn bad(r: &Reader<'_>, what: &'static str) -> ServeError {
    ServeError::BadEnvelope {
        offset: r.pos(),
        what,
    }
}

/// Reads a u64-length-prefixed embedded frame into a pooled buffer.
/// The bytes are bounds-checked before the buffer is sized, so a hostile
/// length can never drive an absurd allocation.
fn read_frame(r: &mut Reader<'_>) -> Result<Vec<u8>, ServeError> {
    let n = r.len_u64()?;
    let src = r.take(n)?;
    let mut frame: Vec<u8> = jact_pool::take(n);
    frame.extend_from_slice(src);
    Ok(frame)
}

/// Decodes one complete envelope.  Total over arbitrary input: short
/// buffers, bad magic, unknown tags, checksum mismatches, and
/// inconsistent bodies are all typed [`ServeError`]s.
pub fn decode(bytes: &[u8]) -> Result<Envelope, ServeError> {
    let (tag, addr, mut r, body_end) = seal::open(bytes, &LAYOUT)?;
    let mut addr = Reader::new(addr);
    let tenant = addr.u32()?;
    let seq = addr.u64()?;

    let msg = match tag {
        TAG_SAVE_REQ => {
            let tensor = r.u64()?;
            let deadline = r.u64()?;
            let frame = read_frame(&mut r)?;
            Msg::SaveReq {
                tensor,
                deadline,
                frame,
            }
        }
        TAG_LOAD_REQ => Msg::LoadReq {
            tensor: r.u64()?,
            deadline: r.u64()?,
        },
        TAG_SAVE_OK => Msg::SaveOk { tensor: r.u64()? },
        TAG_LOAD_OK => {
            let tensor = r.u64()?;
            let cached = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(bad(&r, "cached flag must be 0 or 1")),
            };
            let frame = read_frame(&mut r)?;
            Msg::LoadOk {
                tensor,
                cached,
                frame,
            }
        }
        TAG_DEGRADED => Msg::Degraded {
            tensor: r.u64()?,
            attempts: r.u32()?,
        },
        TAG_ERROR => {
            let code = r.u16()?;
            let a = r.u64()?;
            let b = r.u64()?;
            let c = r.u64()?;
            Msg::Error {
                err: ServeError::from_wire(code, a, b, c),
            }
        }
        // `open` validated the tag range.
        _ => return Err(bad(&r, "unknown message tag")),
    };

    if r.pos() != body_end {
        return Err(bad(&r, "body has trailing bytes"));
    }
    Ok(Envelope { tenant, seq, msg })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OverloadReason;

    fn sample_envelopes() -> Vec<Envelope> {
        vec![
            Envelope {
                tenant: 1,
                seq: 10,
                msg: Msg::SaveReq {
                    tensor: 7,
                    deadline: 500,
                    frame: (0..200u32).map(|i| (i % 251) as u8).collect(),
                },
            },
            Envelope {
                tenant: 2,
                seq: 11,
                msg: Msg::LoadReq {
                    tensor: 7,
                    deadline: 600,
                },
            },
            Envelope {
                tenant: 1,
                seq: 10,
                msg: Msg::SaveOk { tensor: 7 },
            },
            Envelope {
                tenant: 2,
                seq: 11,
                msg: Msg::LoadOk {
                    tensor: 7,
                    cached: true,
                    frame: vec![1, 2, 3, 4],
                },
            },
            Envelope {
                tenant: 3,
                seq: 12,
                msg: Msg::Degraded {
                    tensor: 9,
                    attempts: 4,
                },
            },
            Envelope {
                tenant: 4,
                seq: 13,
                msg: Msg::Error {
                    err: ServeError::Overloaded {
                        tenant: 4,
                        reason: OverloadReason::QueueFull,
                    },
                },
            },
        ]
    }

    #[test]
    fn round_trip_every_message_kind() {
        for env in sample_envelopes() {
            let bytes = encode(&env);
            assert_eq!(decode(&bytes).unwrap(), env);
        }
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        for env in sample_envelopes() {
            let bytes = encode(&env);
            for cut in 0..bytes.len() {
                let err = decode(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(
                        err,
                        ServeError::Truncated { .. }
                            | ServeError::BadEnvelope { .. }
                            | ServeError::ChecksumMismatch { .. }
                            | ServeError::BadMagic { .. }
                    ),
                    "cut={cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let bytes = encode(&sample_envelopes()[0]);
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x04;
            assert!(decode(&corrupt).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode(&sample_envelopes()[1]);
        bytes.push(0);
        assert!(matches!(
            decode(&bytes),
            Err(ServeError::BadEnvelope { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_and_tag() {
        let good = encode(&sample_envelopes()[1]);
        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(ServeError::BadMagic { .. })));
        let mut bad = good.clone();
        bad[4] = 0xFF;
        assert!(matches!(
            decode(&bad),
            Err(ServeError::BadEnvelope { offset: 4, .. })
        ));
        let mut bad = good.clone();
        bad[6] = 200;
        assert!(matches!(
            decode(&bad),
            Err(ServeError::BadEnvelope { offset: 6, .. })
        ));
    }
}
