//! Tier-1 determinism gate for the parallel runtime (JA04 discipline at
//! the system level): every codec of the Table III matrix — and every
//! baseline codec — must produce bitwise-identical compressed bytes and
//! round-trip tensors at any thread count, and the fault-tolerant
//! offload path must report thread-count-invariant recovery counters for
//! a fixed seed.
//!
//! Thread counts are pinned per-closure with [`jact_par::with_threads`],
//! the same override the `JACT_THREADS` environment variable feeds.

use jact_codec::dpr::DprWidth;
use jact_codec::dqt::Dqt;
use jact_codec::pipeline::{
    BrcCodec, Codec, CoderKind, DprCodec, GistCsrCodec, JpegActCodec, JpegBaseCodec, JpegCodec,
    RawCodec, SfprCodec, SfprZvcCodec, ZvcF32Codec,
};
use jact_codec::quant::QuantKind;
use jact_codec::wire;
use jact_core::fault::{FaultConfig, FaultModel, RecoveryPolicy};
use jact_core::method::Scheme;
use jact_core::offload::OffloadStore;
use jact_dnn::act::{ActKind, ActivationId, ActivationStore};
use jact_tensor::{Shape, Tensor};

/// A dense activation large enough to cross every parallel-path
/// threshold in the codec crate (channel scan, block gather, DCT, ZVC,
/// RLE), with enough zeros to exercise the sparse coders.
fn activation() -> Tensor {
    let shape = Shape::nchw(8, 16, 32, 32);
    let data = (0..shape.len())
        .map(|i| {
            if i % 5 == 0 {
                0.0
            } else {
                ((i % 64) as f32 * 0.21).sin() * ((i / 4096 % 7) as f32 + 0.4)
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// The full codec roster: the four corners of the Table III
/// quantizer × coder matrix plus every baseline pipeline.
fn all_codecs() -> Vec<(String, Box<dyn Codec>)> {
    let mut v: Vec<(String, Box<dyn Codec>)> = vec![
        ("raw".into(), Box::new(RawCodec)),
        ("zvc_f32".into(), Box::new(ZvcF32Codec)),
        ("dpr_f16".into(), Box::new(DprCodec::new(DprWidth::F16))),
        ("gist_csr".into(), Box::new(GistCsrCodec)),
        ("sfpr".into(), Box::new(SfprCodec::new())),
        ("sfpr_zvc".into(), Box::new(SfprZvcCodec::new())),
        ("brc".into(), Box::new(BrcCodec)),
        ("jpeg_base_q80".into(), Box::new(JpegBaseCodec::new(Dqt::jpeg_quality(80)))),
        ("jpeg_act_optH".into(), Box::new(JpegActCodec::new(Dqt::opt_h()))),
    ];
    for quant in [QuantKind::Div, QuantKind::Shift] {
        for coder in [CoderKind::Rle, CoderKind::Zvc] {
            v.push((
                format!("jpeg_{quant:?}_{coder:?}"),
                Box::new(JpegCodec::new(Dqt::opt_h(), quant, coder)),
            ));
        }
    }
    v
}

#[test]
fn every_codec_is_bitwise_identical_across_thread_counts() {
    let x = activation();
    for (name, codec) in all_codecs() {
        let (base_bytes, base_rt) = jact_par::with_threads(1, || {
            let c = codec.compress(&x);
            let rt = codec.decompress(&c).expect("same-codec payload");
            (wire::serialize(&c), rt)
        });
        for threads in [2usize, 8] {
            let (bytes, rt) = jact_par::with_threads(threads, || {
                let c = codec.compress(&x);
                let rt = codec.decompress(&c).expect("same-codec payload");
                (wire::serialize(&c), rt)
            });
            assert_eq!(
                bytes, base_bytes,
                "{name}: serialized bytes differ at {threads} threads"
            );
            assert_eq!(
                rt, base_rt,
                "{name}: round-trip tensor differs at {threads} threads"
            );
        }
    }
}

#[test]
fn decompressing_a_sequential_payload_in_parallel_is_identical() {
    // Cross-thread-count asymmetry: a frame compressed at one thread
    // count must decode identically at another.
    let x = activation();
    for (name, codec) in all_codecs() {
        let frame = jact_par::with_threads(1, || wire::serialize(&codec.compress(&x)));
        let base = jact_par::with_threads(1, || {
            codec
                .decompress(&wire::deserialize(&frame).expect("own frame"))
                .expect("own payload")
        });
        let par = jact_par::with_threads(8, || {
            codec
                .decompress(&wire::deserialize(&frame).expect("own frame"))
                .expect("own payload")
        });
        assert_eq!(base, par, "{name}: parallel decode of a sequential frame differs");
    }
}

/// Saves and loads a batch through a fault-injected wire with the given
/// worker count; returns the recovered tensors and the store's final
/// counters.
fn faulty_batch_roundtrip(
    threads: usize,
    policy: RecoveryPolicy,
) -> (Vec<Tensor>, jact_dnn::act::FaultReport) {
    // ~0.3 expected faults per delivered frame: a mix of clean, corrupt
    // recovered, and (under ZeroFill) zero-filled loads.
    let mut store = OffloadStore::through_wire(
        Scheme::sfpr(),
        FaultConfig::new(0.3 / 2200.0, FaultModel::Mixed, 77),
        policy,
    );
    let shape = Shape::nchw(2, 4, 16, 16);
    let items: Vec<(ActivationId, ActKind, Tensor)> = (0..16u64)
        .map(|id| {
            let data = (0..shape.len())
                .map(|i| (((i + id as usize) % 32) as f32 * 0.2).sin() + 0.3)
                .collect();
            (id, ActKind::Conv, Tensor::from_vec(shape.clone(), data))
        })
        .collect();
    let ids: Vec<ActivationId> = items.iter().map(|(id, _, _)| *id).collect();
    jact_par::with_threads(threads, || {
        store.save_batch(items);
        let tensors = store.load_batch(&ids).expect("retry/zero-fill policies recover");
        (tensors, store.fault_report())
    })
}

#[test]
fn fault_recovery_counts_are_thread_count_invariant() {
    for policy in [
        RecoveryPolicy::Retry { attempts: 50 },
        RecoveryPolicy::ZeroFill,
    ] {
        let (tensors_1, report_1) = faulty_batch_roundtrip(1, policy);
        assert_eq!(report_1.wire_loads, 16, "{policy:?}: every id crosses the wire");
        for threads in [2usize, 8] {
            let (tensors, report) = faulty_batch_roundtrip(threads, policy);
            assert_eq!(
                tensors, tensors_1,
                "{policy:?}: recovered tensors differ at {threads} threads"
            );
            assert_eq!(
                report, report_1,
                "{policy:?}: fault counters differ at {threads} threads"
            );
        }
    }
}

/// `(codec, wire frame length, CRC-32 of the frame before its trailer)`
/// for every codec of [`all_codecs`] on [`activation`]. Together the rows
/// cover all eight `Payload` tags, so any change to a codec's bytes,
/// however the work inside a call is scheduled, shows up here. The
/// trailer is left out because the CRC of a whole sealed frame is the
/// same constant residue for every frame.
const FROZEN_FRAMES: [(&str, usize, u32); 13] = [
    ("raw", 524_364, 0xb2264d53),
    ("zvc_f32", 429_349, 0xd06e716f),
    ("dpr_f16", 524_368, 0x7b814a5b),
    ("gist_csr", 208_573, 0xd674ee16),
    ("sfpr", 131_222, 0x55a35633),
    ("sfpr_zvc", 118_230, 0x1ec75d0d),
    ("brc", 16_460, 0x25721aae),
    ("jpeg_base_q80", 44_453, 0xac1f3ba9),
    ("jpeg_act_optH", 47_371, 0xf8e58ad9),
    ("jpeg_Div_Rle", 29_423, 0x615ea638),
    ("jpeg_Div_Zvc", 55_625, 0x4ae97fa3),
    ("jpeg_Shift_Rle", 25_355, 0x92ae4cad),
    ("jpeg_Shift_Zvc", 47_371, 0xf8e58ad9),
];

#[test]
fn every_codec_matches_its_frozen_frame_digest() {
    let x = activation();
    let got: Vec<(String, usize, u32)> = all_codecs()
        .into_iter()
        .map(|(name, codec)| {
            let frame = wire::serialize(&codec.compress(&x));
            let sealed = &frame[..frame.len() - jact_codec::seal::TRAILER_BYTES];
            (name, frame.len(), jact_codec::seal::crc32(sealed))
        })
        .collect();
    let want: Vec<(String, usize, u32)> = FROZEN_FRAMES
        .iter()
        .map(|&(name, len, crc)| (name.to_string(), len, crc))
        .collect();
    assert_eq!(got, want, "a codec's frame bytes changed");
}
