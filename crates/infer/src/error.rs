//! Typed errors for the inference daemon.
//!
//! Everything that can go wrong while decoding an inference envelope,
//! admitting a request, or executing a batch surfaces here as a variant
//! — the wire surface is total over hostile bytes and never panics.

use jact_codec::seal::FrameError;
use jact_serve::OverloadReason;
use std::fmt;

/// The inference daemon's error type.
///
/// Decode variants mirror the serve envelope contract: a frame either
/// decodes completely or yields exactly one typed reason.  `Overloaded`
/// reuses the serve admission-control taxonomy ([`OverloadReason`]) so
/// clients shed by either daemon see the same shape of rejection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The frame does not start with the `JINF` magic.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion {
        /// The version field the frame carried.
        got: u16,
    },
    /// Unknown message tag.
    BadTag {
        /// The tag byte the frame carried.
        got: u8,
    },
    /// The reserved header byte was non-zero.
    BadReserved,
    /// The frame ended before a field completed.
    Truncated {
        /// Which field was being read.
        what: &'static str,
    },
    /// Bytes remained after the sealed frame.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The CRC seal did not match the frame contents.
    ChecksumMismatch,
    /// A declared length exceeds the configured envelope cap.
    Oversize {
        /// Declared size in bytes.
        got: usize,
        /// Configured maximum in bytes.
        max: usize,
    },
    /// The request's declared feature-map shape is inconsistent with
    /// its payload length, or a dimension is zero.
    BadShape,
    /// The request's shape does not match the model the daemon serves.
    ShapeMismatch {
        /// Channel count the daemon expects.
        want_c: u32,
        /// Channel count the request declared.
        got_c: u32,
    },
    /// A response/error tag arrived where only requests are accepted.
    UnexpectedTag {
        /// The tag byte that arrived.
        got: u8,
    },
    /// The daemon shed the request under admission control.
    Overloaded {
        /// The client whose request was shed.
        client: u32,
        /// Which quota rejected it.
        reason: OverloadReason,
    },
    /// The configured model name is not in the registry.
    UnknownModel,
    /// An error frame decoded from the wire carried this code tuple.
    Remote {
        /// Wire code of the remote error.
        code: u16,
        /// First detail word.
        a: u64,
        /// Second detail word.
        b: u64,
    },
}

impl InferError {
    /// Encodes the error as a `(code, a, b, c)` wire tuple, mirroring
    /// `ServeError::to_wire`.
    pub fn to_wire(&self) -> (u16, u64, u64, u64) {
        match self {
            InferError::BadMagic => (1, 0, 0, 0),
            InferError::BadVersion { got } => (2, *got as u64, 0, 0),
            InferError::BadTag { got } => (3, *got as u64, 0, 0),
            InferError::BadReserved => (4, 0, 0, 0),
            InferError::Truncated { .. } => (5, 0, 0, 0),
            InferError::TrailingBytes { extra } => (6, *extra as u64, 0, 0),
            InferError::ChecksumMismatch => (7, 0, 0, 0),
            InferError::Oversize { got, max } => (8, *got as u64, *max as u64, 0),
            InferError::BadShape => (9, 0, 0, 0),
            InferError::ShapeMismatch { want_c, got_c } => {
                (10, *want_c as u64, *got_c as u64, 0)
            }
            InferError::UnexpectedTag { got } => (11, *got as u64, 0, 0),
            InferError::Overloaded { client, reason } => {
                (12, *client as u64, reason.code(), 0)
            }
            InferError::UnknownModel => (13, 0, 0, 0),
            InferError::Remote { code, a, b } => (*code, *a, *b, 0),
        }
    }

    /// Decodes a wire tuple back into an error; unknown codes collapse
    /// to [`InferError::Remote`] so the mapping is total.
    pub fn from_wire(code: u16, a: u64, b: u64, _c: u64) -> Self {
        match code {
            1 => InferError::BadMagic,
            2 => InferError::BadVersion { got: a as u16 },
            3 => InferError::BadTag { got: a as u8 },
            4 => InferError::BadReserved,
            5 => InferError::Truncated { what: "remote" },
            6 => InferError::TrailingBytes { extra: a as usize },
            7 => InferError::ChecksumMismatch,
            8 => InferError::Oversize {
                got: a as usize,
                max: b as usize,
            },
            9 => InferError::BadShape,
            10 => InferError::ShapeMismatch {
                want_c: a as u32,
                got_c: b as u32,
            },
            11 => InferError::UnexpectedTag { got: a as u8 },
            12 => InferError::Overloaded {
                client: a as u32,
                reason: OverloadReason::from_code(b),
            },
            13 => InferError::UnknownModel,
            other => InferError::Remote { code: other, a, b },
        }
    }
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::BadMagic => write!(f, "bad infer frame magic"),
            InferError::BadVersion { got } => write!(f, "unsupported infer version {got}"),
            InferError::BadTag { got } => write!(f, "unknown infer tag {got}"),
            InferError::BadReserved => write!(f, "non-zero reserved header byte"),
            InferError::Truncated { what } => write!(f, "frame truncated reading {what}"),
            InferError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after sealed frame")
            }
            InferError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            InferError::Oversize { got, max } => {
                write!(f, "declared size {got} exceeds cap {max}")
            }
            InferError::BadShape => write!(f, "inconsistent request shape"),
            InferError::ShapeMismatch { want_c, got_c } => {
                write!(f, "model expects {want_c} channels, request has {got_c}")
            }
            InferError::UnexpectedTag { got } => {
                write!(f, "unexpected non-request tag {got}")
            }
            InferError::Overloaded { client, reason } => {
                write!(f, "client {client} shed: {reason:?}")
            }
            InferError::UnknownModel => write!(f, "model name not in registry"),
            InferError::Remote { code, a, b } => {
                write!(f, "remote infer error code={code} a={a} b={b}")
            }
        }
    }
}

impl std::error::Error for InferError {}

impl From<FrameError> for InferError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadMagic => InferError::BadMagic,
            FrameError::BadVersion { got } => InferError::BadVersion { got },
            FrameError::BadTag { got } => InferError::BadTag { got },
            FrameError::BadReserved => InferError::BadReserved,
            FrameError::BadLength { .. } => InferError::Truncated { what: "total" },
            FrameError::Truncated { .. } => InferError::Truncated { what: "field" },
            FrameError::Incomplete { .. } => InferError::Truncated { what: "body" },
            FrameError::Trailing { extra, .. } => InferError::TrailingBytes { extra },
            FrameError::Checksum { .. } => InferError::ChecksumMismatch,
            FrameError::Oversize { len, max } => InferError::Oversize { got: len, max },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variants() -> Vec<InferError> {
        vec![
            InferError::BadMagic,
            InferError::BadVersion { got: 9 },
            InferError::BadTag { got: 77 },
            InferError::BadReserved,
            InferError::Truncated { what: "remote" },
            InferError::TrailingBytes { extra: 3 },
            InferError::ChecksumMismatch,
            InferError::Oversize { got: 10, max: 5 },
            InferError::BadShape,
            InferError::ShapeMismatch { want_c: 3, got_c: 1 },
            InferError::UnexpectedTag { got: 2 },
            InferError::Overloaded {
                client: 4,
                reason: OverloadReason::QueueFull,
            },
            InferError::UnknownModel,
            InferError::Remote { code: 999, a: 1, b: 2 },
        ]
    }

    #[test]
    fn wire_round_trip_is_lossless_modulo_truncation_detail() {
        for e in variants() {
            let (code, a, b, c) = e.to_wire();
            let back = InferError::from_wire(code, a, b, c);
            match e {
                InferError::Truncated { .. } => {
                    assert!(matches!(back, InferError::Truncated { .. }))
                }
                other => assert_eq!(other, back),
            }
        }
    }

    #[test]
    fn unknown_codes_collapse_to_remote() {
        assert_eq!(
            InferError::from_wire(5000, 7, 8, 0),
            InferError::Remote { code: 5000, a: 7, b: 8 }
        );
    }

    #[test]
    fn displays_are_nonempty() {
        for e in variants() {
            assert!(!e.to_string().is_empty());
        }
    }
}
