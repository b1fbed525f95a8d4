//! The in-process duplex pipe: a byte stream of serve envelopes.
//!
//! The daemons are message-oriented (`Server::ingress` takes whole
//! envelopes); a byte transport has to delimit them first.  The one
//! transport today is the hermetic duplex [`pipe`] built on
//! `Rc<RefCell<…>>` (no threads, no sockets, no locks — lint JA07
//! holds): two [`PipeEnd`]s share a pair of bounded byte queues, and
//! each end reads in **seeded chunk sizes** so every read path exercises
//! resumable mid-envelope reassembly through `seal::Assembler`, the way
//! a real socket would deliver at arbitrary boundaries.
//!
//! Sends against a full buffer fail with a typed
//! [`ServeError::Backpressure`] — the pipe never buffers without bound —
//! and both ends observe a close as [`ServeError::ChannelClosed`] once
//! the remaining bytes drain.

use crate::error::ServeError;
use crate::frame::LAYOUT;
use jact_codec::seal::Assembler;
use jact_rng::rngs::StdRng;
use jact_rng::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// State shared by the two ends of a duplex pipe.
#[derive(Debug)]
struct PipeInner {
    /// Bytes travelling end 0 → end 1.
    a_to_b: VecDeque<u8>,
    /// Bytes travelling end 1 → end 0.
    b_to_a: VecDeque<u8>,
    closed: bool,
}

/// One end of an in-process duplex byte pipe.
#[derive(Debug)]
pub struct PipeEnd {
    inner: Rc<RefCell<PipeInner>>,
    /// `true` for the end created first (writes `a_to_b`).
    is_a: bool,
    asm: Assembler,
    chunk_rng: StdRng,
    capacity: usize,
}

/// Creates a connected duplex pipe.
///
/// * `capacity` bounds each direction's in-flight bytes;
/// * `max_envelope_bytes` caps a single envelope at the reassembly
///   layer;
/// * `chunk_seed` drives the seeded read-chunk sizes (both ends derive
///   distinct streams from it), making partial-read schedules
///   reproducible.
pub fn pipe(capacity: usize, max_envelope_bytes: usize, chunk_seed: u64) -> (PipeEnd, PipeEnd) {
    let inner = Rc::new(RefCell::new(PipeInner {
        a_to_b: VecDeque::new(),
        b_to_a: VecDeque::new(),
        closed: false,
    }));
    let a = PipeEnd {
        inner: Rc::clone(&inner),
        is_a: true,
        asm: Assembler::new(LAYOUT, max_envelope_bytes),
        chunk_rng: StdRng::seed_from_u64(chunk_seed ^ 0xA5A5_A5A5_A5A5_A5A5),
        capacity,
    };
    let b = PipeEnd {
        inner,
        is_a: false,
        asm: Assembler::new(LAYOUT, max_envelope_bytes),
        chunk_rng: StdRng::seed_from_u64(chunk_seed.wrapping_add(0x5EED)),
        capacity,
    };
    (a, b)
}

impl PipeEnd {
    /// Writes raw bytes toward the peer without envelope framing — the
    /// hostile-peer hook chaos tests use to inject garbage mid-stream.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        let mut inner = self.inner.borrow_mut();
        if inner.closed {
            return Err(ServeError::ChannelClosed);
        }
        let dir = if self.is_a {
            &mut inner.a_to_b
        } else {
            &mut inner.b_to_a
        };
        let free = self.capacity.saturating_sub(dir.len());
        if bytes.len() > free {
            return Err(ServeError::Backpressure {
                needed: bytes.len(),
                capacity: free,
            });
        }
        dir.extend(bytes.iter().copied());
        Ok(())
    }

    /// Closes the pipe for both directions.  Already-queued bytes stay
    /// readable; once drained, polls fail with
    /// [`ServeError::ChannelClosed`].
    pub fn close(&mut self) {
        self.inner.borrow_mut().closed = true;
    }

    /// Bytes currently queued toward this end.
    pub fn incoming_len(&self) -> usize {
        let inner = self.inner.borrow();
        if self.is_a {
            inner.b_to_a.len()
        } else {
            inner.a_to_b.len()
        }
    }

    /// Queues one encoded envelope for the peer.  Fails typed when the
    /// bounded buffer cannot take it or the peer is gone.
    pub fn send_frame(&mut self, envelope: &[u8]) -> Result<(), ServeError> {
        self.send_raw(envelope)
    }

    /// Drains available bytes and returns every complete envelope they
    /// finish.  Non-blocking: an empty or mid-envelope buffer returns
    /// an empty vec.  Fails typed on stream corruption or a closed,
    /// fully-drained peer.
    pub fn poll_frames(&mut self) -> Result<Vec<Vec<u8>>, ServeError> {
        let mut out = Vec::new();
        loop {
            // Pop a seeded-size chunk from the incoming queue; small odd
            // sizes guarantee mid-header and mid-body splits are
            // routinely exercised.
            let want = self.chunk_rng.gen_range(0..61usize) + 3;
            let chunk: Vec<u8> = {
                let mut inner = self.inner.borrow_mut();
                let dir = if self.is_a {
                    &mut inner.b_to_a
                } else {
                    &mut inner.a_to_b
                };
                let n = want.min(dir.len());
                dir.drain(..n).collect()
            };
            if chunk.is_empty() {
                break;
            }
            out.extend(self.asm.push(&chunk)?);
        }
        if out.is_empty()
            && self.asm.pending_bytes() == 0
            && self.incoming_len() == 0
            && self.inner.borrow().closed
        {
            return Err(ServeError::ChannelClosed);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, Envelope, Msg};

    fn env(seq: u64, frame_len: usize) -> Vec<u8> {
        encode(&Envelope {
            tenant: 1,
            seq,
            msg: Msg::SaveReq {
                tensor: seq,
                deadline: 100,
                frame: (0..frame_len).map(|i| (i % 251) as u8).collect(),
            },
        })
    }

    #[test]
    fn duplex_round_trip_with_chunked_reads() {
        let (mut client, mut server) = pipe(1 << 16, 1 << 16, 42);
        let frames: Vec<Vec<u8>> = (0..5).map(|i| env(i, 100 + i as usize * 37)).collect();
        for f in &frames {
            client.send_frame(f).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..100 {
            got.extend(server.poll_frames().unwrap());
            if got.len() == frames.len() {
                break;
            }
        }
        assert_eq!(got, frames);
        // And the reverse direction is independent.
        server.send_frame(&frames[0]).unwrap();
        let back = client.poll_frames().unwrap();
        assert_eq!(back, vec![frames[0].clone()]);
    }

    #[test]
    fn bounded_buffer_sheds_with_backpressure() {
        let (mut client, _server) = pipe(64, 1 << 16, 1);
        let big = env(0, 512);
        match client.send_frame(&big) {
            Err(ServeError::Backpressure { needed, capacity }) => {
                assert_eq!(needed, big.len());
                assert_eq!(capacity, 64);
            }
            other => panic!("expected backpressure, got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let (mut client, mut server) = pipe(1 << 16, 1 << 16, 7);
        let f = env(3, 50);
        client.send_frame(&f).unwrap();
        client.close();
        // Queued bytes still deliver.
        let mut got = Vec::new();
        while got.is_empty() {
            match server.poll_frames() {
                Ok(fs) => got.extend(fs),
                Err(e) => panic!("premature close: {e}"),
            }
        }
        assert_eq!(got, vec![f]);
        assert!(matches!(
            server.poll_frames(),
            Err(ServeError::ChannelClosed)
        ));
        assert!(matches!(
            server.send_frame(&[1, 2, 3]),
            Err(ServeError::ChannelClosed)
        ));
    }

    #[test]
    fn garbage_on_the_stream_is_a_typed_error() {
        let (mut client, mut server) = pipe(1 << 16, 1 << 16, 9);
        client.send_raw(b"NOT A SERVE ENVELOPE").unwrap();
        assert!(matches!(
            server.poll_frames(),
            Err(ServeError::BadMagic { .. })
        ));
    }

    #[test]
    fn chunked_reads_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let (mut c, mut s) = pipe(1 << 16, 1 << 16, seed);
            for i in 0..4 {
                c.send_frame(&env(i, 200)).unwrap();
            }
            let mut sizes = Vec::new();
            loop {
                let got = s.poll_frames().unwrap();
                if got.is_empty() && s.incoming_len() == 0 {
                    break;
                }
                sizes.push(got.len());
            }
            sizes
        };
        assert_eq!(run(5), run(5));
    }
}
