//! Typed errors for the serve layer.
//!
//! Every failure a peer, the daemon, or the transport can produce is a
//! [`ServeError`] value — the serving stack never panics on hostile
//! input and never hangs on a broken link.  Errors cross the wire as a
//! compact `(code, a, b, c)` tuple (see [`ServeError::to_wire`]), so a
//! client can distinguish a shed request from a poisoned payload from a
//! missed deadline without parsing strings.

use crate::clock::Tick;
use jact_codec::seal::FrameError;
use std::fmt;

/// Why a request was shed by admission control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// The server's shared bounded queue is full.
    QueueFull,
    /// The tenant is at its in-flight request quota.
    InflightQuota,
    /// Storing the payload would exceed the tenant's byte quota.
    ByteQuota,
}

impl OverloadReason {
    /// Stable wire code for this reason (shared with `jact-infer`,
    /// whose error envelope reuses the serve admission taxonomy).
    pub fn code(self) -> u64 {
        match self {
            OverloadReason::QueueFull => 0,
            OverloadReason::InflightQuota => 1,
            OverloadReason::ByteQuota => 2,
        }
    }

    /// Inverse of [`OverloadReason::code`]; unknown codes collapse to
    /// `QueueFull` so the mapping is total.
    pub fn from_code(c: u64) -> OverloadReason {
        match c {
            1 => OverloadReason::InflightQuota,
            2 => OverloadReason::ByteQuota,
            _ => OverloadReason::QueueFull,
        }
    }
}

impl fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OverloadReason::QueueFull => write!(f, "queue full"),
            OverloadReason::InflightQuota => write!(f, "in-flight quota"),
            OverloadReason::ByteQuota => write!(f, "byte quota"),
        }
    }
}

/// A typed serving failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// An envelope did not start with the serve magic.
    BadMagic {
        /// Stream offset of the offending bytes.
        offset: usize,
    },
    /// An envelope header or body field is malformed.
    BadEnvelope {
        /// Offset of the malformed field within the envelope.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
    /// The stream ended mid-envelope.
    Truncated {
        /// Bytes still required to complete the envelope.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// An envelope announced a size above the configured cap.
    Oversize {
        /// Announced total envelope size.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The envelope CRC did not match its contents.
    ChecksumMismatch {
        /// CRC announced by the trailer.
        expected: u32,
        /// CRC computed over the received bytes.
        actual: u32,
    },
    /// Admission control shed the request.
    Overloaded {
        /// The rejected tenant.
        tenant: u32,
        /// Which quota or bound was hit.
        reason: OverloadReason,
    },
    /// The envelope names a tenant the server has not registered.
    UnknownTenant {
        /// The unregistered tenant id.
        tenant: u32,
    },
    /// A load names a tensor the tenant never saved.
    UnknownTensor {
        /// The requesting tenant.
        tenant: u32,
        /// The unknown tensor id.
        tensor: u64,
    },
    /// The operation's deadline passed before it could complete.
    DeadlineExceeded {
        /// The tenant whose deadline lapsed.
        tenant: u32,
        /// The tensor being served.
        tensor: u64,
        /// The deadline, in virtual ticks.
        deadline: Tick,
    },
    /// Every retry attempt failed and the policy forbids degradation.
    RetriesExhausted {
        /// The tenant whose load failed.
        tenant: u32,
        /// The tensor being served.
        tensor: u64,
        /// Delivery attempts made.
        attempts: u32,
    },
    /// A save carried a payload that is not a valid codec frame.
    BadPayload {
        /// What the frame validator reported.
        what: &'static str,
    },
    /// The peer closed the transport.
    ChannelClosed,
    /// The transport's bounded buffer cannot accept more bytes.
    Backpressure {
        /// Bytes the send needed.
        needed: usize,
        /// Bytes of buffer capacity remaining.
        capacity: usize,
    },
    /// An error received over the wire whose code this build does not
    /// know (forward compatibility: never drop a typed failure on the
    /// floor just because the peer is newer).
    Remote {
        /// The unrecognised wire code.
        code: u16,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::BadMagic { offset } => {
                write!(f, "bad serve magic at stream offset {offset}")
            }
            ServeError::BadEnvelope { offset, what } => {
                write!(f, "bad envelope at offset {offset}: {what}")
            }
            ServeError::Truncated { needed, available } => write!(
                f,
                "truncated envelope: needed {needed} more bytes, {available} available"
            ),
            ServeError::Oversize { len, max } => {
                write!(f, "envelope of {len} bytes exceeds cap of {max}")
            }
            ServeError::ChecksumMismatch { expected, actual } => write!(
                f,
                "envelope checksum mismatch: announced {expected:#010x}, computed {actual:#010x}"
            ),
            ServeError::Overloaded { tenant, reason } => {
                write!(f, "tenant {tenant} shed by admission control: {reason}")
            }
            ServeError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            ServeError::UnknownTensor { tenant, tensor } => {
                write!(f, "tenant {tenant} has no stored tensor {tensor}")
            }
            ServeError::DeadlineExceeded {
                tenant,
                tensor,
                deadline,
            } => write!(
                f,
                "tenant {tenant} tensor {tensor}: deadline at tick {deadline} exceeded"
            ),
            ServeError::RetriesExhausted {
                tenant,
                tensor,
                attempts,
            } => write!(
                f,
                "tenant {tenant} tensor {tensor}: {attempts} delivery attempts exhausted"
            ),
            ServeError::BadPayload { what } => write!(f, "payload rejected: {what}"),
            ServeError::ChannelClosed => write!(f, "transport closed by peer"),
            ServeError::Backpressure { needed, capacity } => write!(
                f,
                "transport backpressure: {needed} bytes needed, {capacity} of capacity free"
            ),
            ServeError::Remote { code } => write!(f, "remote error with unknown code {code}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Framing failures of the `JSRV` envelope and the `JJRN` journal keep
/// the variants (and field values) they had before the containers shared
/// one `seal` module.
impl From<FrameError> for ServeError {
    fn from(e: FrameError) -> Self {
        let bad = |offset, what| ServeError::BadEnvelope { offset, what };
        match e {
            FrameError::BadMagic => ServeError::BadMagic { offset: 0 },
            FrameError::BadVersion { .. } => bad(4, "unsupported serve version"),
            FrameError::BadTag { .. } => bad(6, "unknown message tag"),
            FrameError::BadReserved => bad(7, "reserved byte must be zero"),
            FrameError::BadLength { offset } => bad(offset, "length overflows"),
            FrameError::Truncated {
                needed, available, ..
            } => ServeError::Truncated {
                needed: needed.saturating_sub(available),
                available,
            },
            FrameError::Incomplete { have, want } => ServeError::Truncated {
                needed: want.saturating_sub(have),
                available: have,
            },
            FrameError::Trailing { offset, .. } => bad(offset, "trailing bytes after envelope"),
            FrameError::Checksum { expected, actual } => {
                ServeError::ChecksumMismatch { expected, actual }
            }
            FrameError::Oversize { len, max } => ServeError::Oversize { len, max },
        }
    }
}

impl ServeError {
    /// Encodes the error as a `(code, a, b, c)` wire tuple.  Static
    /// message strings do not cross the wire; the code identifies the
    /// variant and the numeric fields carry its payload.
    pub fn to_wire(&self) -> (u16, u64, u64, u64) {
        match self {
            ServeError::BadMagic { offset } => (1, *offset as u64, 0, 0),
            ServeError::BadEnvelope { offset, .. } => (2, *offset as u64, 0, 0),
            ServeError::Truncated { needed, available } => {
                (3, *needed as u64, *available as u64, 0)
            }
            ServeError::Oversize { len, max } => (4, *len as u64, *max as u64, 0),
            ServeError::ChecksumMismatch { expected, actual } => {
                (5, *expected as u64, *actual as u64, 0)
            }
            ServeError::Overloaded { tenant, reason } => {
                (6, *tenant as u64, reason.code(), 0)
            }
            ServeError::UnknownTenant { tenant } => (7, *tenant as u64, 0, 0),
            ServeError::UnknownTensor { tenant, tensor } => (8, *tenant as u64, *tensor, 0),
            ServeError::DeadlineExceeded {
                tenant,
                tensor,
                deadline,
            } => (9, *tenant as u64, *tensor, *deadline),
            ServeError::RetriesExhausted {
                tenant,
                tensor,
                attempts,
            } => (10, *tenant as u64, *tensor, *attempts as u64),
            ServeError::BadPayload { .. } => (11, 0, 0, 0),
            ServeError::ChannelClosed => (12, 0, 0, 0),
            ServeError::Backpressure { needed, capacity } => {
                (13, *needed as u64, *capacity as u64, 0)
            }
            ServeError::Remote { code } => (*code, 0, 0, 0),
        }
    }

    /// Decodes a `(code, a, b, c)` wire tuple back into an error.
    /// Total: an unknown code becomes [`ServeError::Remote`], and
    /// variants whose static message cannot cross the wire come back
    /// with a fixed `"remote"` message.
    pub fn from_wire(code: u16, a: u64, b: u64, c: u64) -> ServeError {
        match code {
            1 => ServeError::BadMagic { offset: a as usize },
            2 => ServeError::BadEnvelope {
                offset: a as usize,
                what: "remote",
            },
            3 => ServeError::Truncated {
                needed: a as usize,
                available: b as usize,
            },
            4 => ServeError::Oversize {
                len: a as usize,
                max: b as usize,
            },
            5 => ServeError::ChecksumMismatch {
                expected: a as u32,
                actual: b as u32,
            },
            6 => ServeError::Overloaded {
                tenant: a as u32,
                reason: OverloadReason::from_code(b),
            },
            7 => ServeError::UnknownTenant { tenant: a as u32 },
            8 => ServeError::UnknownTensor {
                tenant: a as u32,
                tensor: b,
            },
            9 => ServeError::DeadlineExceeded {
                tenant: a as u32,
                tensor: b,
                deadline: c,
            },
            10 => ServeError::RetriesExhausted {
                tenant: a as u32,
                tensor: b,
                attempts: c as u32,
            },
            11 => ServeError::BadPayload { what: "remote" },
            12 => ServeError::ChannelClosed,
            13 => ServeError::Backpressure {
                needed: a as usize,
                capacity: b as usize,
            },
            other => ServeError::Remote { code: other },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_errors() -> Vec<ServeError> {
        vec![
            ServeError::BadMagic { offset: 3 },
            ServeError::BadEnvelope {
                offset: 9,
                what: "remote",
            },
            ServeError::Truncated {
                needed: 4,
                available: 1,
            },
            ServeError::Oversize { len: 10, max: 5 },
            ServeError::ChecksumMismatch {
                expected: 1,
                actual: 2,
            },
            ServeError::Overloaded {
                tenant: 7,
                reason: OverloadReason::ByteQuota,
            },
            ServeError::UnknownTenant { tenant: 9 },
            ServeError::UnknownTensor {
                tenant: 9,
                tensor: 42,
            },
            ServeError::DeadlineExceeded {
                tenant: 1,
                tensor: 2,
                deadline: 300,
            },
            ServeError::RetriesExhausted {
                tenant: 1,
                tensor: 2,
                attempts: 5,
            },
            ServeError::BadPayload { what: "remote" },
            ServeError::ChannelClosed,
            ServeError::Backpressure {
                needed: 100,
                capacity: 10,
            },
            ServeError::Remote { code: 999 },
        ]
    }

    #[test]
    fn wire_round_trip_preserves_every_variant() {
        for e in all_errors() {
            let (code, a, b, c) = e.to_wire();
            assert_eq!(ServeError::from_wire(code, a, b, c), e, "{e}");
        }
    }

    #[test]
    fn wire_codes_are_distinct() {
        let mut codes: Vec<u16> = all_errors().iter().map(|e| e.to_wire().0).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all_errors().len());
    }

    #[test]
    fn unknown_code_is_remote() {
        assert_eq!(
            ServeError::from_wire(60000, 1, 2, 3),
            ServeError::Remote { code: 60000 }
        );
    }

    #[test]
    fn display_is_informative() {
        for e in all_errors() {
            assert!(!e.to_string().is_empty());
        }
    }
}
