//! Session journal and deterministic replay.
//!
//! The journal records the daemon's **ingress boundary**: every
//! client→server envelope that survived the chaos links, with the tick
//! it was delivered and the tenant link it arrived on, plus the set of
//! registered tenants.  Because the [`Server`] is a deterministic state
//! machine over (configuration, tick stream, ingress bytes), replaying
//! a journal against the same [`ServeConfig`] reproduces the original
//! run **byte-identically**: the same egress envelopes in the same
//! order, and the same final [`ServeCounters`] — the property the
//! pinned fixture in `tests/serve_replay.rs` locks at 1/2/8 threads.
//!
//! The on-disk format is a CRC-sealed binary container (`JJRN`): an
//! 8-byte header (magic, version, a zero u16), the tenant and entry
//! tables, and the `jact_codec::seal` CRC trailer.  It has no length
//! field — a file ends where it ends — so it shares the seal writers,
//! `Reader` and trailer check rather than `seal::open`.  The total
//! [`Journal::from_bytes`] types every malformation; the file comes from
//! outside the program, so this module is on the analyzer's wire
//! surface (JA10): no slice indexing, no runtime division.

use crate::clock::Tick;
use crate::error::ServeError;
use crate::server::{ServeConfig, ServeCounters, Server};
use jact_codec::seal::{self, put_u16, put_u32, put_u64, Reader};
use std::collections::BTreeSet;

/// Magic prefix of a serialized journal.
pub const JOURNAL_MAGIC: [u8; 4] = *b"JJRN";

/// Journal format version this build reads and writes.
pub const JOURNAL_VERSION: u16 = 1;

/// One journaled ingress delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Virtual tick the envelope was delivered to the daemon.
    pub tick: Tick,
    /// The tenant link it arrived on.
    pub tenant: u32,
    /// The raw envelope bytes, exactly as ingressed.
    pub bytes: Vec<u8>,
}

/// A recorded run: registered tenants plus the ordered ingress stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    tenants: BTreeSet<u32>,
    entries: Vec<JournalEntry>,
}

/// What a replay reproduced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayResult {
    /// Every egress envelope, in production order.
    pub egress: Vec<(u32, Vec<u8>)>,
    /// Final server counters.
    pub counters: ServeCounters,
    /// The tick the replay quiesced at.
    pub final_tick: Tick,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Declares a tenant as registered in the recorded run.
    pub fn note_tenant(&mut self, tenant: u32) {
        self.tenants.insert(tenant);
    }

    /// Records one ingress delivery.
    pub fn record(&mut self, tick: Tick, tenant: u32, bytes: &[u8]) {
        self.entries.push(JournalEntry {
            tick,
            tenant,
            bytes: bytes.to_vec(),
        });
    }

    /// The registered tenants.
    pub fn tenants(&self) -> impl Iterator<Item = u32> + '_ {
        self.tenants.iter().copied()
    }

    /// The recorded deliveries, in order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// Serializes the journal as a CRC-sealed binary container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&JOURNAL_MAGIC);
        put_u16(&mut out, JOURNAL_VERSION);
        put_u16(&mut out, 0);
        put_u32(&mut out, self.tenants.len() as u32);
        for &t in &self.tenants {
            put_u32(&mut out, t);
        }
        put_u64(&mut out, self.entries.len() as u64);
        for e in &self.entries {
            put_u64(&mut out, e.tick);
            put_u32(&mut out, e.tenant);
            put_u32(&mut out, e.bytes.len() as u32);
            out.extend_from_slice(&e.bytes);
        }
        let crc = seal::crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Deserializes a journal.  Total over arbitrary bytes: every
    /// malformation — bad magic, wrong version, truncation, checksum
    /// mismatch, trailing bytes — is a typed [`ServeError`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Journal, ServeError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != JOURNAL_MAGIC {
            return Err(ServeError::BadMagic { offset: 0 });
        }
        if r.u16()? != JOURNAL_VERSION {
            return Err(ServeError::BadEnvelope {
                offset: 4,
                what: "unsupported journal version",
            });
        }
        if r.u16()? != 0 {
            return Err(ServeError::BadEnvelope {
                offset: 6,
                what: "reserved field must be zero",
            });
        }
        let body_end = seal::check_trailer(bytes)?;
        let n_tenants = r.u32()? as usize;
        let mut tenants = BTreeSet::new();
        for _ in 0..n_tenants {
            tenants.insert(r.u32()?);
        }
        let n_entries = r.len_u64()?;
        let mut entries = Vec::new();
        for _ in 0..n_entries {
            let tick = r.u64()?;
            let tenant = r.u32()?;
            let len = r.u32()? as usize;
            let payload = r.take(len)?.to_vec();
            entries.push(JournalEntry {
                tick,
                tenant,
                bytes: payload,
            });
        }
        if r.pos() != body_end {
            return Err(ServeError::BadEnvelope {
                offset: r.pos(),
                what: "trailing bytes after journal entries",
            });
        }
        Ok(Journal { tenants, entries })
    }
}

/// Re-executes a recorded run against a fresh server.
///
/// The replay mirrors the cluster's per-tick discipline — deliver the
/// tick's ingress entries in recorded order, then advance the clock —
/// and afterwards drives the clock through every pending retry timer
/// until the daemon is idle.  Because the server never reads anything
/// but (config, ticks, ingress bytes), the produced egress is
/// byte-identical to the recorded run's.
pub fn replay(cfg: &ServeConfig, journal: &Journal) -> ReplayResult {
    let mut server = Server::new(cfg.clone());
    for t in journal.tenants() {
        server.register_tenant(t);
    }
    let mut egress: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut i = 0usize;
    let entries = journal.entries();
    while i < entries.len() {
        let tick = entries.get(i).map(|e| e.tick).unwrap_or(0);
        // Fire any retries due strictly before this tick's ingress.
        while let Some(due) = server.next_timer() {
            if due >= tick {
                break;
            }
            server.advance_to(due);
            egress.extend(server.drain_egress());
        }
        while let Some(e) = entries.get(i) {
            if e.tick != tick {
                break;
            }
            server.ingress(&e.bytes);
            i += 1;
        }
        server.advance_to(tick);
        egress.extend(server.drain_egress());
    }
    // Quiesce: run every remaining retry timer at its exact due tick.
    while let Some(due) = server.next_timer() {
        server.advance_to(due);
        egress.extend(server.drain_egress());
    }
    ReplayResult {
        final_tick: server.now(),
        counters: server.counters().clone(),
        egress,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{encode, Envelope, Msg};
    use crate::session::plan_payload;

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        j.note_tenant(1);
        j.note_tenant(2);
        for (i, tenant) in [1u32, 2, 1].iter().enumerate() {
            let env = encode(&Envelope {
                tenant: *tenant,
                seq: i as u64 + 1,
                msg: Msg::SaveReq {
                    tensor: i as u64,
                    deadline: 100,
                    frame: plan_payload(*tenant, i as u64),
                },
            });
            j.record(i as Tick, *tenant, &env);
        }
        j
    }

    #[test]
    fn container_round_trips() {
        let j = sample_journal();
        let bytes = j.to_bytes();
        assert_eq!(Journal::from_bytes(&bytes).unwrap(), j);
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let bytes = sample_journal().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Journal::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x20;
            assert!(Journal::from_bytes(&corrupt).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn replay_is_self_consistent() {
        let j = sample_journal();
        let cfg = ServeConfig::default();
        let a = replay(&cfg, &j);
        let b = replay(&cfg, &j);
        assert_eq!(a, b);
        assert_eq!(a.counters.saves, 3);
        assert_eq!(a.egress.len(), 3);
    }

    #[test]
    fn empty_journal_replays_to_nothing() {
        let r = replay(&ServeConfig::default(), &Journal::new());
        assert!(r.egress.is_empty());
        assert_eq!(r.counters, ServeCounters::default());
    }
}
