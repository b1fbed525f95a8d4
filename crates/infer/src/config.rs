//! Inference daemon configuration.

use jact_codec::pipeline::{Codec, JpegActCodec, RawCodec, ZvcF32Codec};
use jact_codec::dqt::Dqt;

/// Which codec runs at the layer boundaries.
///
/// All three configurations flow through the same `Payload`/wire
/// pipeline — "uncompressed" is [`RawCodec`], so even the baseline
/// exercises the full serialize/deserialize boundary the paper's
/// offload path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryMode {
    /// Raw offload — the vDNN-style uncompressed baseline.
    Uncompressed,
    /// Zero-value compression (lossless).
    Zvc,
    /// The paper's full JPEG-ACT transform codec (lossy).
    JpegAct,
}

impl BoundaryMode {
    /// Stable name used in benches and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            BoundaryMode::Uncompressed => "uncompressed",
            BoundaryMode::Zvc => "zvc",
            BoundaryMode::JpegAct => "jpeg-act",
        }
    }

    /// Parses a mode name; unknown names fall back to `Uncompressed`,
    /// the safe baseline.
    pub fn from_name(name: &str) -> Self {
        match name {
            "zvc" => BoundaryMode::Zvc,
            "jpeg-act" | "jpeg_act" | "jpegact" => BoundaryMode::JpegAct,
            _ => BoundaryMode::Uncompressed,
        }
    }

    /// Builds the codec this mode runs at each boundary.
    pub fn build_codec(self) -> Box<dyn Codec> {
        match self {
            BoundaryMode::Uncompressed => Box::new(RawCodec),
            BoundaryMode::Zvc => Box::new(ZvcF32Codec),
            BoundaryMode::JpegAct => Box::new(JpegActCodec::new(Dqt::opt_h())),
        }
    }

    /// `true` when the boundary round trip reproduces inputs bit-exactly.
    pub fn is_lossless(self) -> bool {
        !matches!(self, BoundaryMode::JpegAct)
    }
}

/// Configuration for one inference daemon instance.
#[derive(Debug, Clone)]
pub struct InferConfig {
    /// Model registry name (`mini-vgg`, `mini-resnet`, …).
    pub model: String,
    /// Seed for the deterministic weight initialization.
    pub seed: u64,
    /// Input channels the model is built for.
    pub in_channels: usize,
    /// Classifier width (ignored by `vdsr`).
    pub classes: usize,
    /// Input height/width (the mini models are built for 32×32).
    pub input_hw: usize,
    /// Boundary compression configuration.
    pub boundary: BoundaryMode,
    /// Largest batch the front-end coalesces.
    pub max_batch: usize,
    /// Ticks a queued request may wait before a partial batch fires.
    pub max_wait_ticks: u64,
    /// Queue capacity; beyond it requests shed with `QueueFull`.
    pub queue_cap: usize,
    /// Per-client queued-request quota (`InflightQuota` sheds).
    pub max_inflight_per_client: usize,
    /// Total queued payload byte quota (`ByteQuota` sheds).
    pub max_queued_bytes: usize,
    /// Per-byte fault rate injected into each boundary frame (0 = off).
    pub fault_rate: f64,
    /// Seed for the boundary fault injector.
    pub fault_seed: u64,
}

impl Default for InferConfig {
    fn default() -> Self {
        InferConfig {
            model: "mini-vgg".to_string(),
            seed: 0x1A2F_0001,
            in_channels: 3,
            classes: 10,
            input_hw: 32,
            boundary: BoundaryMode::JpegAct,
            max_batch: 8,
            max_wait_ticks: 4,
            queue_cap: 256,
            max_inflight_per_client: 64,
            max_queued_bytes: 64 << 20,
            fault_rate: 0.0,
            fault_seed: 0x5EED_F417,
        }
    }
}

impl InferConfig {
    /// Sets the batching knobs (builder-style, for harnesses).
    pub fn with_batching(mut self, max_batch: usize, max_wait_ticks: u64) -> Self {
        self.max_batch = max_batch.max(1);
        self.max_wait_ticks = max_wait_ticks;
        self
    }

    /// Elements in one request feature map (`c*h*w`).
    pub fn request_plane(&self) -> usize {
        self.in_channels * self.input_hw * self.input_hw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_round_trips_names() {
        for m in [BoundaryMode::Uncompressed, BoundaryMode::Zvc, BoundaryMode::JpegAct] {
            assert_eq!(BoundaryMode::from_name(m.name()), m);
        }
        assert_eq!(BoundaryMode::from_name("garbage"), BoundaryMode::Uncompressed);
    }

    #[test]
    fn codecs_match_modes() {
        assert_eq!(BoundaryMode::Uncompressed.build_codec().name(), "raw");
        assert!(BoundaryMode::Zvc.is_lossless());
        assert!(!BoundaryMode::JpegAct.is_lossless());
    }

    #[test]
    fn batching_builder_clamps_zero_batch() {
        let c = InferConfig::default().with_batching(0, 2);
        assert_eq!(c.max_batch, 1);
    }
}
