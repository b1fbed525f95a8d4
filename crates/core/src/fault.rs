//! Deterministic fault injection for the offload wire path.
//!
//! The offload transport in a real JPEG-ACT deployment is a DMA engine
//! moving compressed frames over PCIe; this module models that link as a
//! lossy channel so the rest of the stack can be tested under corruption.
//! A [`FaultInjector`] is a seeded, reproducible channel: it delivers a
//! serialized [`wire`](jact_codec::wire) frame with a configurable
//! expected number of faults per byte, drawn from a [`FaultModel`] mix of
//! bit flips, stuck-at-zero regions, truncations, and packet-level
//! duplication or drop (packets are the 128 B DMA granularity of
//! [`stream`](jact_codec::stream)).
//!
//! What happens when a corrupted frame is detected is decided by a
//! [`RecoveryPolicy`], consulted by
//! [`OffloadStore`](crate::offload::OffloadStore) when a wire load fails
//! to decode.

use jact_rng::rngs::StdRng;
use jact_rng::{Rng, SeedableRng};

/// DMA packet granularity for packet-level faults, matching the 128 B
/// packets of `jact_codec::stream`.
pub const PACKET_BYTES: usize = 128;

/// Longest stuck-at-zero run a single fault can produce, in bytes.
pub const MAX_STUCK_RUN: usize = 64;

/// One concrete transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// One random bit inverted.
    BitFlip,
    /// A short region forced to zero (stuck data lines).
    StuckZero,
    /// The frame cut short at a random offset.
    Truncate,
    /// One 128 B packet delivered twice.
    DuplicatePacket,
    /// One 128 B packet lost entirely.
    PacketDrop,
}

/// The fault mix a channel draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModel {
    /// Only bit flips.
    BitFlip,
    /// Only stuck-at-zero regions.
    StuckZero,
    /// Only truncations.
    Truncate,
    /// Only duplicated packets.
    DuplicatePacket,
    /// Only dropped packets.
    PacketDrop,
    /// A weighted mixture: 60 % bit flips, 15 % stuck-at-zero, 10 %
    /// truncations, 10 % duplicated packets, 5 % dropped packets —
    /// single-bit upsets dominating, whole-packet loss rare.
    Mixed,
}

impl FaultModel {
    /// Draws one concrete fault kind from the mix.
    fn draw(&self, rng: &mut StdRng) -> FaultKind {
        match self {
            FaultModel::BitFlip => FaultKind::BitFlip,
            FaultModel::StuckZero => FaultKind::StuckZero,
            FaultModel::Truncate => FaultKind::Truncate,
            FaultModel::DuplicatePacket => FaultKind::DuplicatePacket,
            FaultModel::PacketDrop => FaultKind::PacketDrop,
            FaultModel::Mixed => {
                let r = rng.gen_range(0..100u32);
                if r < 60 {
                    FaultKind::BitFlip
                } else if r < 75 {
                    FaultKind::StuckZero
                } else if r < 85 {
                    FaultKind::Truncate
                } else if r < 95 {
                    FaultKind::DuplicatePacket
                } else {
                    FaultKind::PacketDrop
                }
            }
        }
    }
}

/// Configuration of a fault channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Expected faults per delivered **byte** (so a 16 KiB frame at
    /// `rate = 1e-3` sees ~16 faults per delivery; at `1e-6`, one fault
    /// every ~60 frames).
    pub rate: f64,
    /// The fault mix.
    pub model: FaultModel,
    /// Seed for the channel's deterministic RNG.
    pub seed: u64,
}

impl FaultConfig {
    /// Creates a configuration.
    pub fn new(rate: f64, model: FaultModel, seed: u64) -> Self {
        FaultConfig { rate, model, seed }
    }

    /// Derives the per-delivery channel configuration for one keyed
    /// delivery (the `jact-serve` bus keys on tenant, tensor and
    /// attempt).
    ///
    /// A server answers loads in whatever order its tenants issue them,
    /// so its deliveries cannot share one sequential [`FaultInjector`]
    /// without making the fault pattern depend on that order.  Instead
    /// each delivery gets its own child channel whose seed is a
    /// SplitMix64 expansion of `(self.seed, key)` — fully determined by
    /// the configuration and the key, independent of thread count and of
    /// the order loads are issued in.
    pub fn for_delivery(&self, key: u64) -> FaultConfig {
        let mut sm = jact_rng::SplitMix64::new(self.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        FaultConfig {
            rate: self.rate,
            model: self.model,
            seed: sm.next_u64(),
        }
    }
}

/// What the store does when a wire load is detected as corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Surface the decode error to the trainer.
    Fail,
    /// Redeliver from the pristine shadow copy up to `attempts` more
    /// times (each redelivery draws fresh faults), then fail.
    Retry {
        /// Maximum redeliveries after the initial corrupt one.
        attempts: u32,
    },
    /// Replace the activation with an all-zero tensor of the original
    /// shape and keep training (recorded as a zero-filled recovery).
    ZeroFill,
}

// ---------------------------------------------------------------------
// Transport-level (frame-granularity) faults.
//
// The byte-level `FaultInjector` above models corruption *within* one
// delivered frame; the serve layer additionally needs faults of the
// *link itself* — whole frames lost, repeated, re-ordered, or held back.
// These are the classic misbehaviours of a shared PCIe/host channel
// under contention (Sec. III-G collector/splitter) and they are what
// admission control, deadlines, and client retry in `jact-serve` are
// tested against.
// ---------------------------------------------------------------------

/// One concrete frame-level transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFaultKind {
    /// This frame and up to [`TransportFaultConfig::max_burst`]` - 1`
    /// following frames are lost (a stalled DMA window).
    DropBurst,
    /// The frame is delivered twice.
    Duplicate,
    /// The frame is swapped with the next frame on the link.
    Reorder,
    /// Delivery is postponed by 1..=`max_delay_ticks` virtual ticks.
    Delay,
}

/// The frame-fault mix a link draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportFaultModel {
    /// Only drop bursts.
    DropBurst,
    /// Only duplicated frames.
    Duplicate,
    /// Only re-ordered frames.
    Reorder,
    /// Only delayed frames.
    Delay,
    /// A weighted mixture: 35 % drop bursts, 20 % duplicates, 15 %
    /// re-orders, 30 % delays — loss and latency dominating, since a
    /// CRC-framed payload makes silent reorder/duplication detectable
    /// downstream anyway.
    Mixed,
}

impl TransportFaultModel {
    /// Draws one concrete frame-fault kind from the mix.
    fn draw(&self, rng: &mut StdRng) -> TransportFaultKind {
        match self {
            TransportFaultModel::DropBurst => TransportFaultKind::DropBurst,
            TransportFaultModel::Duplicate => TransportFaultKind::Duplicate,
            TransportFaultModel::Reorder => TransportFaultKind::Reorder,
            TransportFaultModel::Delay => TransportFaultKind::Delay,
            TransportFaultModel::Mixed => {
                let r = rng.gen_range(0..100u32);
                if r < 35 {
                    TransportFaultKind::DropBurst
                } else if r < 55 {
                    TransportFaultKind::Duplicate
                } else if r < 70 {
                    TransportFaultKind::Reorder
                } else {
                    TransportFaultKind::Delay
                }
            }
        }
    }
}

/// Configuration of a frame-level lossy link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaultConfig {
    /// Probability that one delivered **frame** draws a fault (so at
    /// `rate = 1e-3`, one frame in ~a thousand is dropped, duplicated,
    /// re-ordered, or delayed).
    pub rate: f64,
    /// The frame-fault mix.
    pub model: TransportFaultModel,
    /// Seed for the link's deterministic RNG.
    pub seed: u64,
    /// Largest number of consecutive frames one [`TransportFaultKind::DropBurst`]
    /// removes (at least 1).
    pub max_burst: u32,
    /// Largest delivery postponement one [`TransportFaultKind::Delay`]
    /// applies, in virtual ticks (at least 1).
    pub max_delay_ticks: u64,
}

impl TransportFaultConfig {
    /// Creates a configuration with the default burst/delay bounds
    /// (bursts of up to 3 frames, delays of up to 8 ticks).
    pub fn new(rate: f64, model: TransportFaultModel, seed: u64) -> Self {
        TransportFaultConfig {
            rate,
            model,
            seed,
            max_burst: 3,
            max_delay_ticks: 8,
        }
    }

    /// Derives the per-link configuration for one keyed link (e.g. one
    /// (tenant, direction) pair in a multi-tenant server), mirroring
    /// [`FaultConfig::for_delivery`]: the child seed is a SplitMix64
    /// expansion of `(self.seed, key)`, fully determined by the
    /// configuration and the key, independent of thread count and of
    /// the order links are created in.
    pub fn for_link(&self, key: u64) -> TransportFaultConfig {
        let mut sm = jact_rng::SplitMix64::new(self.seed ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        TransportFaultConfig {
            seed: sm.next_u64(),
            ..*self
        }
    }
}

/// What a [`TransportInjector`] decides for one outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportAction {
    /// Deliver normally.
    Deliver,
    /// Lose the frame (either the head of a fresh burst or the
    /// continuation of one).
    Drop,
    /// Deliver the frame twice.
    Duplicate,
    /// Swap the frame with the next one sent on this link.
    Reorder,
    /// Deliver after `ticks` additional virtual ticks.
    Delay {
        /// Extra delivery latency in virtual ticks (1..=`max_delay_ticks`).
        ticks: u64,
    },
}

/// A deterministic frame-level fault source for one transport link.
///
/// The injector decides an action per frame; *applying* the action
/// (holding delayed frames, swapping re-ordered ones) is the link's job
/// — `jact-serve`'s chaos harness keeps the pending-frame state so the
/// injector stays a pure seeded decision stream and chaos runs replay
/// exactly.
#[derive(Debug)]
pub struct TransportInjector {
    cfg: TransportFaultConfig,
    rng: StdRng,
    /// Frames still to be lost from an in-progress drop burst.
    burst_remaining: u32,
    injected: u64,
}

impl TransportInjector {
    /// Creates a link fault source seeded from `cfg.seed`.
    pub fn new(cfg: TransportFaultConfig) -> Self {
        TransportInjector {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            burst_remaining: 0,
            injected: 0,
        }
    }

    /// The link configuration.
    pub fn config(&self) -> &TransportFaultConfig {
        &self.cfg
    }

    /// Total frame faults decided across the link's lifetime (each frame
    /// of a drop burst counts individually).
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// Decides the action for the next outbound frame.
    pub fn on_frame(&mut self) -> TransportAction {
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            self.injected += 1;
            return TransportAction::Drop;
        }
        if self.cfg.rate <= 0.0 || self.rng.gen::<f64>() >= self.cfg.rate {
            return TransportAction::Deliver;
        }
        self.injected += 1;
        match self.cfg.model.draw(&mut self.rng) {
            TransportFaultKind::DropBurst => {
                let max = self.cfg.max_burst.max(1);
                // This frame plus 0..max-1 followers.
                self.burst_remaining = self.rng.gen_range(0..max);
                TransportAction::Drop
            }
            TransportFaultKind::Duplicate => TransportAction::Duplicate,
            TransportFaultKind::Reorder => TransportAction::Reorder,
            TransportFaultKind::Delay => {
                let max = self.cfg.max_delay_ticks.max(1);
                let ticks = self.rng.gen_range(0..max) + 1;
                TransportAction::Delay { ticks }
            }
        }
    }
}

/// A deterministic lossy delivery channel for serialized frames.
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: StdRng,
    injected: u64,
}

impl FaultInjector {
    /// Creates a channel seeded from `cfg.seed`.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            injected: 0,
        }
    }

    /// Total individual faults applied across all deliveries.
    pub fn faults_injected(&self) -> u64 {
        self.injected
    }

    /// Delivers `frame` through the channel: returns the received copy
    /// and the number of faults applied to it.  The fault count is
    /// Poisson-distributed with mean `rate · len` — faults are
    /// independent rare events per byte, so a clean delivery always has
    /// probability `e^(-rate·len) > 0` and a retry policy can make
    /// progress at any fault rate.
    ///
    /// The received copy is drawn from the thread-local buffer pool;
    /// steady-state callers should `jact_pool::give` it back once the
    /// decode attempt is over, making repeated deliveries
    /// allocation-free (faults that grow the frame aside).
    pub fn deliver(&mut self, frame: &[u8]) -> (Vec<u8>, u64) {
        let mut out: Vec<u8> = jact_pool::take(frame.len());
        out.extend_from_slice(frame);
        let n = Self::poisson(&mut self.rng, self.cfg.rate * frame.len() as f64);
        let mut applied = 0u64;
        for _ in 0..n {
            if self.apply_one(&mut out) {
                applied += 1;
            }
        }
        self.injected += applied;
        (out, applied)
    }

    /// One Poisson draw with mean `lambda`: Knuth's product-of-uniforms
    /// method for small means, a normal approximation above 30 (where
    /// `e^(-lambda)` underflow would bias Knuth's method).
    fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        if lambda > 30.0 {
            let n = lambda + lambda.sqrt() * rng.sample_normal_f32() as f64;
            return n.round().max(0.0) as u64;
        }
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Applies one fault in place; returns `false` if the buffer has
    /// shrunk to nothing (earlier truncations/drops) and no fault can
    /// land.
    fn apply_one(&mut self, buf: &mut Vec<u8>) -> bool {
        if buf.is_empty() {
            return false;
        }
        match self.cfg.model.draw(&mut self.rng) {
            FaultKind::BitFlip => {
                let i = self.rng.gen_range(0..buf.len());
                let bit = self.rng.gen_range(0..8u32);
                buf[i] ^= 1 << bit;
            }
            FaultKind::StuckZero => {
                let start = self.rng.gen_range(0..buf.len());
                let max_run = MAX_STUCK_RUN.min(buf.len() - start);
                let run = self.rng.gen_range(0..max_run) + 1;
                for b in &mut buf[start..start + run] {
                    *b = 0;
                }
            }
            FaultKind::Truncate => {
                let keep = self.rng.gen_range(0..buf.len());
                buf.truncate(keep);
            }
            FaultKind::DuplicatePacket => {
                let packets = buf.len().div_ceil(PACKET_BYTES);
                let p = self.rng.gen_range(0..packets);
                let start = p * PACKET_BYTES;
                let end = (start + PACKET_BYTES).min(buf.len());
                let mut copy: Vec<u8> = jact_pool::take(end - start);
                copy.extend_from_slice(&buf[start..end]);
                // Re-delivered packet lands immediately after the original.
                buf.splice(end..end, copy.iter().copied());
                jact_pool::give(copy);
            }
            FaultKind::PacketDrop => {
                let packets = buf.len().div_ceil(PACKET_BYTES);
                let p = self.rng.gen_range(0..packets);
                let start = p * PACKET_BYTES;
                let end = (start + PACKET_BYTES).min(buf.len());
                buf.drain(start..end);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn zero_rate_is_identity() {
        let mut inj = FaultInjector::new(FaultConfig::new(0.0, FaultModel::Mixed, 7));
        let f = frame(4096);
        let (out, n) = inj.deliver(&f);
        assert_eq!(out, f);
        assert_eq!(n, 0);
        assert_eq!(inj.faults_injected(), 0);
    }

    #[test]
    fn same_seed_same_faults() {
        let cfg = FaultConfig::new(1e-3, FaultModel::Mixed, 42);
        let f = frame(8192);
        let (a, na) = FaultInjector::new(cfg).deliver(&f);
        let (b, nb) = FaultInjector::new(cfg).deliver(&f);
        assert_eq!(a, b);
        assert_eq!(na, nb);
        assert!(na > 0, "1e-3 over 8 KiB should fault");
    }

    #[test]
    fn for_delivery_is_deterministic_and_key_separated() {
        let cfg = FaultConfig::new(1e-3, FaultModel::Mixed, 42);
        // Same (config, key) → same child config, every time.
        assert_eq!(cfg.for_delivery(7), cfg.for_delivery(7));
        // Different keys → decorrelated child seeds.
        assert_ne!(cfg.for_delivery(7).seed, cfg.for_delivery(8).seed);
        // Rate and model pass through unchanged.
        let child = cfg.for_delivery(7);
        assert_eq!(child.rate, cfg.rate);
        assert_eq!(child.model, cfg.model);
        // Key 0 does not collapse onto the parent seed.
        assert_ne!(cfg.for_delivery(0).seed, cfg.seed);
    }

    #[test]
    fn different_seeds_differ() {
        let f = frame(8192);
        let (a, _) =
            FaultInjector::new(FaultConfig::new(1e-3, FaultModel::BitFlip, 1)).deliver(&f);
        let (b, _) =
            FaultInjector::new(FaultConfig::new(1e-3, FaultModel::BitFlip, 2)).deliver(&f);
        assert_ne!(a, b);
    }

    #[test]
    fn rate_matches_expectation() {
        // 1e-3 per byte over 200 deliveries of 4 KiB: expect ~819 faults.
        let mut inj = FaultInjector::new(FaultConfig::new(1e-3, FaultModel::BitFlip, 9));
        let f = frame(4096);
        for _ in 0..200 {
            inj.deliver(&f);
        }
        let got = inj.faults_injected() as f64;
        let expect = 1e-3 * 4096.0 * 200.0;
        assert!(
            (got - expect).abs() < expect * 0.25,
            "expected ~{expect}, got {got}"
        );
    }

    #[test]
    fn clean_deliveries_remain_possible_at_high_mean() {
        // Mean 2 faults per delivery: a clean window still arrives with
        // probability e^-2 ~ 0.135, which is what lets Retry make
        // progress at any rate.
        let f = frame(4096);
        let mut inj =
            FaultInjector::new(FaultConfig::new(2.0 / 4096.0, FaultModel::BitFlip, 12));
        let clean = (0..200)
            .filter(|_| {
                let (out, n) = inj.deliver(&f);
                n == 0 && out == f
            })
            .count();
        assert!(clean > 5, "expected ~27 clean of 200, got {clean}");
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut inj = FaultInjector::new(FaultConfig::new(0.0, FaultModel::BitFlip, 3));
        let f = frame(256);
        let mut out = f.clone();
        assert!(inj.apply_one(&mut out));
        let flipped: u32 = f
            .iter()
            .zip(&out)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1);
    }

    #[test]
    fn truncate_shortens() {
        let mut inj = FaultInjector::new(FaultConfig::new(0.0, FaultModel::Truncate, 4));
        let mut out = frame(512);
        assert!(inj.apply_one(&mut out));
        assert!(out.len() < 512);
    }

    #[test]
    fn duplicate_grows_by_at_most_one_packet() {
        let mut inj =
            FaultInjector::new(FaultConfig::new(0.0, FaultModel::DuplicatePacket, 5));
        let mut out = frame(1000);
        assert!(inj.apply_one(&mut out));
        assert!(out.len() > 1000 && out.len() <= 1000 + PACKET_BYTES);
    }

    #[test]
    fn drop_shrinks_by_at_most_one_packet() {
        let mut inj = FaultInjector::new(FaultConfig::new(0.0, FaultModel::PacketDrop, 6));
        let mut out = frame(1000);
        assert!(inj.apply_one(&mut out));
        assert!(out.len() < 1000 && out.len() >= 1000 - PACKET_BYTES);
    }

    #[test]
    fn stuck_zero_zeroes_a_bounded_run() {
        let mut inj = FaultInjector::new(FaultConfig::new(0.0, FaultModel::StuckZero, 8));
        let f = vec![0xFFu8; 512];
        let mut out = f.clone();
        assert!(inj.apply_one(&mut out));
        let zeros = out.iter().filter(|&&b| b == 0).count();
        assert!(zeros >= 1 && zeros <= MAX_STUCK_RUN, "zeros={zeros}");
        // The zeroed bytes are contiguous.
        let first = out.iter().position(|&b| b == 0).unwrap();
        let last = out.iter().rposition(|&b| b == 0).unwrap();
        assert_eq!(last - first + 1, zeros);
    }

    #[test]
    fn empty_and_exhausted_buffers_never_panic() {
        for model in [
            FaultModel::BitFlip,
            FaultModel::StuckZero,
            FaultModel::Truncate,
            FaultModel::DuplicatePacket,
            FaultModel::PacketDrop,
            FaultModel::Mixed,
        ] {
            let mut inj = FaultInjector::new(FaultConfig::new(1.0, model, 11));
            let (out, n) = inj.deliver(&[]);
            assert!(out.is_empty());
            assert_eq!(n, 0);
            // A huge rate on a tiny frame exercises repeated faulting of
            // a shrinking (possibly emptied) buffer.
            let _ = inj.deliver(&frame(3));
        }
    }

    #[test]
    fn mixed_model_draws_every_kind() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            match FaultModel::Mixed.draw(&mut rng) {
                FaultKind::BitFlip => seen[0] = true,
                FaultKind::StuckZero => seen[1] = true,
                FaultKind::Truncate => seen[2] = true,
                FaultKind::DuplicatePacket => seen[3] = true,
                FaultKind::PacketDrop => seen[4] = true,
            }
        }
        assert!(seen.iter().all(|&s| s), "seen={seen:?}");
    }

    // ---- transport-level (frame-granularity) faults ----

    #[test]
    fn transport_zero_rate_always_delivers() {
        let mut inj =
            TransportInjector::new(TransportFaultConfig::new(0.0, TransportFaultModel::Mixed, 7));
        for _ in 0..10_000 {
            assert_eq!(inj.on_frame(), TransportAction::Deliver);
        }
        assert_eq!(inj.faults_injected(), 0);
    }

    #[test]
    fn transport_same_seed_same_actions() {
        let cfg = TransportFaultConfig::new(0.05, TransportFaultModel::Mixed, 42);
        let a: Vec<_> = {
            let mut inj = TransportInjector::new(cfg);
            (0..5000).map(|_| inj.on_frame()).collect()
        };
        let b: Vec<_> = {
            let mut inj = TransportInjector::new(cfg);
            (0..5000).map(|_| inj.on_frame()).collect()
        };
        assert_eq!(a, b);
        assert!(
            a.iter().any(|act| *act != TransportAction::Deliver),
            "5 % over 5000 frames should fault"
        );
    }

    #[test]
    fn for_link_is_deterministic_and_key_separated() {
        let cfg = TransportFaultConfig::new(1e-3, TransportFaultModel::Mixed, 42);
        assert_eq!(cfg.for_link(7), cfg.for_link(7));
        assert_ne!(cfg.for_link(7).seed, cfg.for_link(8).seed);
        let child = cfg.for_link(7);
        assert_eq!(child.rate, cfg.rate);
        assert_eq!(child.model, cfg.model);
        assert_eq!(child.max_burst, cfg.max_burst);
        assert_eq!(child.max_delay_ticks, cfg.max_delay_ticks);
        assert_ne!(cfg.for_link(0).seed, cfg.seed);
    }

    #[test]
    fn transport_mixed_model_draws_every_kind() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            match TransportFaultModel::Mixed.draw(&mut rng) {
                TransportFaultKind::DropBurst => seen[0] = true,
                TransportFaultKind::Duplicate => seen[1] = true,
                TransportFaultKind::Reorder => seen[2] = true,
                TransportFaultKind::Delay => seen[3] = true,
            }
        }
        assert!(seen.iter().all(|&s| s), "seen={seen:?}");
    }

    #[test]
    fn drop_bursts_are_bounded_by_max_burst() {
        // Rate low enough that two independent bursts never land on
        // adjacent frames for this seed, so a run of consecutive drops
        // is always a single burst.
        let mut cfg = TransportFaultConfig::new(1e-3, TransportFaultModel::DropBurst, 5);
        cfg.max_burst = 4;
        let mut inj = TransportInjector::new(cfg);
        let mut run = 0u32;
        let mut longest = 0u32;
        let mut drops = 0u64;
        for _ in 0..100_000 {
            match inj.on_frame() {
                TransportAction::Drop => {
                    run += 1;
                    drops += 1;
                    longest = longest.max(run);
                }
                _ => run = 0,
            }
        }
        assert!(drops > 0);
        assert!(longest <= 4, "burst of {longest} exceeds max_burst=4");
        assert_eq!(inj.faults_injected(), drops);
    }

    #[test]
    fn delays_stay_within_max_delay_ticks() {
        let mut cfg = TransportFaultConfig::new(0.1, TransportFaultModel::Delay, 5);
        cfg.max_delay_ticks = 6;
        let mut inj = TransportInjector::new(cfg);
        let mut delayed = 0u64;
        for _ in 0..10_000 {
            if let TransportAction::Delay { ticks } = inj.on_frame() {
                delayed += 1;
                assert!((1..=6).contains(&ticks), "delay of {ticks} ticks");
            }
        }
        assert!(delayed > 0);
    }

    #[test]
    fn transport_rate_matches_expectation() {
        // Duplicate-only keeps the decision stream one-draw-per-frame, so
        // the fault count over 100k frames should sit near rate * n.
        let mut inj = TransportInjector::new(TransportFaultConfig::new(
            1e-3,
            TransportFaultModel::Duplicate,
            9,
        ));
        for _ in 0..100_000 {
            let _ = inj.on_frame();
        }
        let n = inj.faults_injected();
        assert!((50..=200).contains(&n), "expected ~100 faults, got {n}");
    }
}
