//! Hostile-input fuzzing of every sealed container and of the fused
//! pipeline below the wire.
//!
//! One table ([`containers`]) lists the four CRC-sealed formats — the
//! `JACT` wire frame, the `JSRV` serve envelope, the `JINF` inference
//! envelope and the `JJRN` session journal — each as pristine samples
//! plus its total decoder.  Every generator runs over every row: pure
//! random bytes, random bytes behind a valid magic/version prelude,
//! byte-mutated valid containers (corruption must be *detected*),
//! mutated containers **re-sealed with a valid CRC** (so the structural
//! validators, not the checksum, are on the hook), and truncation at
//! every byte.  Every outcome is a clean decode or a typed error, never
//! a panic; whatever `wire::deserialize` accepts is additionally driven
//! through every codec's `decompress`.  A second table-driven suite
//! feeds `seal::Assembler` streams of the three length-prefixed layouts.
//!
//! A third family targets the fused tile pipeline below the wire
//! container: seeded mutations of the collected multi-CDU DMA stream
//! must surface as typed [`CodecError::Stream`], mutated ZVC mask/value
//! planes as typed [`CodecError::Corrupt`], and whatever the validators
//! accept must flow through the fused decode (payload → dequantize →
//! inverse DCT → scatter) without panicking.

use jact_codec::block::BlockLayout;
use jact_codec::dct::idct2d_to_i8;
use jact_codec::dpr::DprWidth;
use jact_codec::dqt::Dqt;
use jact_codec::pipeline::{
    BrcCodec, Codec, DprCodec, GistCsrCodec, JpegActCodec, JpegBaseCodec, RawCodec, SfprCodec,
    SfprZvcCodec, ZvcF32Codec,
};
use jact_codec::quant::{QuantKind, QuantTables};
use jact_codec::rle;
use jact_codec::seal::{self, Assembler, FrameError, Layout};
use jact_codec::stream::{self, BlockPayload};
use jact_codec::tile::{decode_zvc, untile_blocks};
use jact_codec::wire;
use jact_codec::zvc::Zvc;
use jact_codec::CodecError;
use jact_rng::rngs::StdRng;
use jact_rng::{Rng, SeedableRng};
use jact_serve::journal::{Journal, JOURNAL_MAGIC, JOURNAL_VERSION};
use jact_tensor::{Shape, Tensor};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Cases per sample and per generator.
const CASES_PER_GENERATOR: usize = 128;

fn codecs() -> Vec<(&'static str, Box<dyn Codec>)> {
    vec![
        ("raw", Box::new(RawCodec) as Box<dyn Codec>),
        ("zvc-f32", Box::new(ZvcF32Codec)),
        ("dpr-f16", Box::new(DprCodec::new(DprWidth::F16))),
        ("gist-csr", Box::new(GistCsrCodec)),
        ("sfpr", Box::new(SfprCodec::new())),
        ("sfpr-zvc", Box::new(SfprZvcCodec::new())),
        ("jpeg-base", Box::new(JpegBaseCodec::new(Dqt::opt_l()))),
        ("jpeg-act", Box::new(JpegActCodec::new(Dqt::opt_h()))),
        ("brc", Box::new(BrcCodec)),
    ]
}

/// A mixed-sparsity activation-like tensor every codec accepts.
fn sample_tensor() -> Tensor {
    let shape = Shape::nchw(1, 4, 16, 16);
    let data = (0..shape.len())
        .map(|i| {
            if i % 3 == 0 {
                0.0
            } else {
                ((i % 16) as f32 * 0.35).sin() * 0.8
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// Applies `1..=n` seeded byte mutations (bit flip, overwrite, truncate,
/// extend) to `bytes`.
fn mutate_bytes(rng: &mut StdRng, bytes: &mut Vec<u8>, max_mutations: usize) {
    let mutations = rng.gen_range(0..max_mutations) + 1;
    for _ in 0..mutations {
        if bytes.is_empty() {
            bytes.push(rng.gen_range(0..256u32) as u8);
            continue;
        }
        match rng.gen_range(0..4u32) {
            0 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(0..256u32) as u8;
            }
            2 => {
                let keep = rng.gen_range(0..bytes.len());
                bytes.truncate(keep);
            }
            _ => bytes.push(rng.gen_range(0..256u32) as u8),
        }
    }
}

// ---------------------------------------------------------------------
// The container table.
// ---------------------------------------------------------------------

/// One sealed container format under fuzz.
struct Container {
    name: &'static str,
    /// Magic, version and tag range; the journal's (whose byte 6 is
    /// reserved, so only tag 0) exists for the prelude generator alone.
    layout: Layout,
    /// `false` for the length-less journal, which cannot be streamed.
    length_prefixed: bool,
    /// Pristine containers, one per message kind / codec.
    samples: Vec<Vec<u8>>,
    /// The format's total decoder, driving whatever sits behind a
    /// successful decode; `true` when the bytes were accepted.
    decode: fn(&[u8]) -> bool,
}

impl Container {
    /// Decodes under `catch_unwind`: a panic fails the test with context.
    fn decode_no_panic(&self, bytes: &[u8], what: &str, case: usize) -> bool {
        catch_unwind(AssertUnwindSafe(|| (self.decode)(bytes)))
            .unwrap_or_else(|_| panic!("{} {what} case {case}: decode panicked", self.name))
    }

    fn seed(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(salt ^ u32::from_le_bytes(self.layout.magic) as u64)
    }
}

fn decode_jact(bytes: &[u8]) -> bool {
    match wire::deserialize(bytes) {
        Ok(c) => {
            // A hostile frame names its own codec; every decompressor
            // must absorb it (typed `WrongPayload` included).
            for (_, codec) in codecs() {
                let _ = codec.decompress(&c);
            }
            true
        }
        Err(_) => false,
    }
}

fn decode_jsrv(bytes: &[u8]) -> bool {
    jact_serve::frame::decode(bytes).is_ok()
}

fn decode_jinf(bytes: &[u8]) -> bool {
    // Recycle accepted envelopes so the pool stays balanced.
    jact_infer::frame::decode(bytes).map(|env| env.recycle()).is_ok()
}

fn decode_jjrn(bytes: &[u8]) -> bool {
    Journal::from_bytes(bytes).is_ok()
}

/// One valid serve envelope of every message kind; the save/load
/// payloads embed a real wire frame.
fn serve_envelopes() -> Vec<jact_serve::Envelope> {
    use jact_serve::{Envelope, Msg, OverloadReason, ServeError};
    let frame = wire::serialize(&SfprCodec::new().compress(&sample_tensor()));
    let overloaded = ServeError::Overloaded { tenant: 4, reason: OverloadReason::QueueFull };
    let msgs = vec![
        Msg::SaveReq { tensor: 7, deadline: 500, frame: frame.clone() },
        Msg::LoadReq { tensor: 7, deadline: 600 },
        Msg::SaveOk { tensor: 7 },
        Msg::LoadOk { tensor: 7, cached: true, frame },
        Msg::Degraded { tensor: 9, attempts: 4 },
        Msg::Error { err: overloaded },
    ];
    let addressed = |(i, msg)| Envelope { tenant: i as u32 + 1, seq: 10 + i as u64, msg };
    msgs.into_iter().enumerate().map(addressed).collect()
}

/// One valid inference envelope of every message kind, with
/// activation-scale payloads (a request plane, a logit row, an error
/// tuple).
fn infer_envelopes() -> Vec<jact_infer::InferEnvelope> {
    use jact_infer::{InferEnvelope, InferMsg};
    let pixels = (0..3 * 8 * 8).map(|i| (i % 13) as f32 * 0.125 - 0.75).collect();
    let logits = (0..10).map(|i| i as f32 * 0.5 - 2.0).collect();
    let msgs = vec![
        InferMsg::Request { c: 3, h: 8, w: 8, pixels },
        InferMsg::Response { degraded: false, logits },
        InferMsg::Response { degraded: true, logits: vec![0.0; 10] },
        InferMsg::Error { code: 12, a: 2, b: 1, c: 0 },
    ];
    let addressed = |(i, msg)| InferEnvelope { client: i as u32 + 1, seq: 40 + i as u64, msg };
    msgs.into_iter().enumerate().map(addressed).collect()
}

/// A journal of two tenants and the request envelopes of
/// [`serve_envelopes`].
fn sample_journal() -> Vec<u8> {
    let mut j = Journal::new();
    j.note_tenant(1);
    j.note_tenant(2);
    for (tick, env) in serve_envelopes().iter().take(2).enumerate() {
        j.record(tick as u64, env.tenant, &jact_serve::frame::encode(env));
    }
    j.to_bytes()
}

fn containers() -> Vec<Container> {
    let jact = codecs()
        .iter()
        .map(|(_, codec)| wire::serialize(&codec.compress(&sample_tensor())))
        .collect();
    let jsrv = serve_envelopes().iter().map(jact_serve::frame::encode).collect();
    let jinf = infer_envelopes().iter().map(jact_infer::frame::encode).collect();
    let jjrn = Layout {
        magic: JOURNAL_MAGIC,
        version: JOURNAL_VERSION,
        addr_bytes: 0,
        min_tag: 0,
        max_tag: 0,
    };
    let row = |name, layout, length_prefixed, samples, decode| Container {
        name,
        layout,
        length_prefixed,
        samples,
        decode,
    };
    vec![
        row("JACT", wire::LAYOUT, true, jact, decode_jact),
        row("JSRV", jact_serve::frame::LAYOUT, true, jsrv, decode_jsrv),
        row("JINF", jact_infer::frame::LAYOUT, true, jinf, decode_jinf),
        row("JJRN", jjrn, false, vec![sample_journal()], decode_jjrn),
    ]
}

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..256u32) as u8).collect()
}

// ---------------------------------------------------------------------
// Decoder suite: every generator over every container.
// ---------------------------------------------------------------------

#[test]
fn random_bytes_never_panic() {
    for c in containers() {
        let mut rng = c.seed(0xF00D);
        for case in 0..CASES_PER_GENERATOR {
            let len = rng.gen_range(0..4096usize);
            c.decode_no_panic(&random_bytes(&mut rng, len), "random", case);
        }
    }
}

#[test]
fn random_bytes_with_valid_magic_never_panic() {
    // Start past the magic so more of the parser is reached.
    for c in containers() {
        let mut rng = c.seed(0xBEEF);
        for case in 0..CASES_PER_GENERATOR {
            let len = rng.gen_range(0..2048usize);
            let mut bytes = c.layout.magic.to_vec();
            bytes.extend(random_bytes(&mut rng, len));
            // Half the cases also carry the right version + a plausible
            // tag + a zero reserved byte.
            if case % 2 == 0 && bytes.len() >= 8 {
                bytes[4..6].copy_from_slice(&c.layout.version.to_le_bytes());
                bytes[6] = (case % (c.layout.max_tag as usize + 2)) as u8;
                bytes[7] = 0;
            }
            c.decode_no_panic(&bytes, "magic-prefixed", case);
        }
    }
}

#[test]
fn mutated_valid_frames_never_panic_and_corruption_is_detected() {
    for c in containers() {
        for (si, frame) in c.samples.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xCAFE ^ frame.len() as u64);
            let mut detected = 0usize;
            for case in 0..CASES_PER_GENERATOR {
                let mut bytes = frame.clone();
                mutate_bytes(&mut rng, &mut bytes, 8);
                let accepted = c.decode_no_panic(&bytes, "mutated", case);
                if bytes != *frame && !accepted {
                    detected += 1;
                }
            }
            // The CRC makes silent acceptance of a mutation astronomically
            // unlikely; demand near-total detection.
            assert!(
                detected >= CASES_PER_GENERATOR - 1,
                "{} sample {si}: only {detected}/{CASES_PER_GENERATOR} mutations detected",
                c.name
            );
        }
    }
}

#[test]
fn resealed_mutations_never_panic() {
    // Corrupt the contents, then recompute a valid CRC: the checksum no
    // longer protects, so every structural validator is on the hook.
    for c in containers() {
        for frame in &c.samples {
            let mut rng = StdRng::seed_from_u64(0xD00D ^ frame.len() as u64);
            for case in 0..CASES_PER_GENERATOR {
                let mut bytes = frame.clone();
                let sealed = bytes.len() - seal::TRAILER_BYTES;
                for _ in 0..rng.gen_range(0..6usize) + 1 {
                    let i = rng.gen_range(0..sealed);
                    if rng.gen_bool(0.5) {
                        bytes[i] ^= 1 << rng.gen_range(0..8u32);
                    } else {
                        bytes[i] = rng.gen_range(0..256u32) as u8;
                    }
                }
                let crc = seal::crc32(&bytes[..sealed]);
                bytes[sealed..].copy_from_slice(&crc.to_le_bytes());
                c.decode_no_panic(&bytes, "resealed", case);
            }
        }
    }
}

#[test]
fn truncation_at_every_byte_is_typed() {
    for c in containers() {
        for (si, frame) in c.samples.iter().enumerate() {
            for cut in 0..frame.len() {
                assert!(
                    !c.decode_no_panic(&frame[..cut], "truncated", cut),
                    "{} sample {si}: truncation to {cut}/{} bytes accepted",
                    c.name,
                    frame.len()
                );
            }
            assert!((c.decode)(frame), "{} sample {si}: pristine rejected", c.name);
        }
    }
}

#[test]
fn pristine_frames_round_trip_bit_exactly() {
    for (name, codec) in codecs() {
        let compressed = codec.compress(&sample_tensor());
        let frame = wire::serialize(&compressed);
        let back = wire::deserialize(&frame)
            .unwrap_or_else(|e| panic!("{name}: pristine frame rejected: {e}"));
        assert_eq!(wire::serialize(&back), frame, "{name}: re-serialization differs");
        let a = codec.decompress(&compressed).expect("original decodes");
        let b = codec.decompress(&back).expect("wire copy decodes");
        assert_eq!(a, b, "{name}: decompressed tensors differ");
    }
}

// ---------------------------------------------------------------------
// Assembler suite: `seal::Assembler` over the three length-prefixed
// layouts.
// ---------------------------------------------------------------------

/// Per length-prefixed container: the row, `n` pristine frames (cycling
/// through its samples) and their concatenation.
fn streams(n: usize) -> Vec<(Container, Vec<Vec<u8>>, Vec<u8>)> {
    let streamed = containers().into_iter().filter(|c| c.length_prefixed);
    streamed
        .map(|c| {
            let frames: Vec<Vec<u8>> = c.samples.iter().cycle().take(n).cloned().collect();
            let stream = frames.concat();
            (c, frames, stream)
        })
        .collect()
}

/// Feeds `stream` in chunks of `step()` bytes, then finishes.
fn reassemble(
    layout: Layout,
    stream: &[u8],
    step: &mut dyn FnMut() -> usize,
) -> Result<Vec<Vec<u8>>, FrameError> {
    let mut asm = Assembler::new(layout, 1 << 20);
    let mut got = Vec::new();
    let mut pos = 0usize;
    while pos < stream.len() {
        let end = (pos + step().max(1)).min(stream.len());
        got.extend(asm.push(&stream[pos..end])?);
        pos = end;
    }
    asm.finish().map(|()| got)
}

#[test]
fn reassembly_at_adversarial_split_points_is_exact() {
    // Whatever the chunk boundaries — every two-chunk split, one byte at
    // a time, seeded random chunking — the assembler yields exactly the
    // original frame sequence and accepts `finish()`.
    for (c, frames, stream) in streams(3) {
        let exact = |what: &str, step: &mut dyn FnMut() -> usize| {
            let got = reassemble(c.layout, &stream, step)
                .unwrap_or_else(|e| panic!("{} {what}: valid stream rejected: {e:?}", c.name));
            assert_eq!(got, frames, "{} {what}: frame sequence differs", c.name);
        };
        for cut in 0..=stream.len() {
            let mut sizes = [cut, stream.len()].into_iter();
            exact(&format!("cut {cut}"), &mut || sizes.next().unwrap_or(1));
        }
        exact("byte-at-a-time", &mut || 1);
        let mut rng = c.seed(0xA55E_3B1E);
        for case in 0..CASES_PER_GENERATOR {
            exact(&format!("case {case}"), &mut || rng.gen_range(0..97usize) + 1);
        }
    }
}

#[test]
fn truncated_streams_finish_with_typed_truncation() {
    // Cutting the stream mid-frame must surface as Incomplete at finish,
    // with only the fully-delivered prefix of frames yielded.
    for (c, frames, stream) in streams(3) {
        let mut rng = c.seed(0x7123_4CA7);
        for case in 0..CASES_PER_GENERATOR {
            let cut = rng.gen_range(0..stream.len());
            let mut asm = Assembler::new(c.layout, 1 << 20);
            let got = catch_unwind(AssertUnwindSafe(|| asm.push(&stream[..cut])))
                .unwrap_or_else(|_| panic!("{} case {case}: push panicked", c.name))
                .unwrap_or_else(|e| panic!("{} case {case}: valid prefix rejected: {e:?}", c.name));
            assert_eq!(got, frames[..got.len()], "{} case {case}: wrong prefix", c.name);
            let pending = cut - got.iter().map(Vec::len).sum::<usize>();
            match asm.finish() {
                Ok(()) => assert_eq!(pending, 0, "{} case {case}: partial frame accepted", c.name),
                Err(FrameError::Incomplete { have, want }) => {
                    assert!(have == pending && want > have, "{} case {case}", c.name)
                }
                Err(e) => panic!("{} case {case}: mid-frame cut reported as {e:?}", c.name),
            }
        }
    }
}

#[test]
fn oversize_announcements_fail_as_soon_as_the_header_is_in() {
    for (c, frames, _) in streams(1) {
        let header_bytes = c.layout.header_bytes();
        let push_header = |cap: usize, body_len: u64| {
            let mut h = frames[0][..header_bytes].to_vec();
            h[header_bytes - 8..].copy_from_slice(&body_len.to_le_bytes());
            Assembler::new(c.layout, cap).push(&h)
        };
        // The cap is on the *total* size, and needs no body bytes.
        let total = header_bytes + 100 + seal::TRAILER_BYTES;
        assert_eq!(push_header(total, 100), Ok(vec![]), "{}", c.name);
        let oversize = FrameError::Oversize { len: total, max: total - 1 };
        assert_eq!(push_header(total - 1, 100), Err(oversize), "{}", c.name);
        // A length that overflows the size arithmetic is typed too.
        let overflow = FrameError::BadLength { offset: header_bytes - 8 };
        assert_eq!(push_header(1 << 20, u64::MAX - 8), Err(overflow), "{}", c.name);
    }
}

#[test]
fn garbage_interleaved_streams_fail_typed_never_panic() {
    // Inject garbage bytes at seeded offsets (desynchronising the
    // stream) and feed the result in seeded chunks: every outcome must
    // be a typed FrameError or a clean (possibly shorter) reassembly —
    // never a panic, and never a hang past the input length.  A wrong
    // byte inside the first four fails on that very push.
    for (c, _, stream) in streams(3) {
        assert_eq!(Assembler::new(c.layout, 1 << 20).push(b"X"), Err(FrameError::BadMagic));
        let mut rng = c.seed(0x6A2B_A6E5);
        for case in 0..CASES_PER_GENERATOR {
            let mut bytes = stream.clone();
            for _ in 0..rng.gen_range(0..4usize) + 1 {
                let at = rng.gen_range(0..bytes.len());
                let len = rng.gen_range(0..32usize) + 1;
                let junk = random_bytes(&mut rng, len);
                bytes.splice(at..at, junk);
            }
            let res = catch_unwind(AssertUnwindSafe(|| {
                reassemble(c.layout, &bytes, &mut || rng.gen_range(0..257usize) + 1)
            }))
            .unwrap_or_else(|_| panic!("{} case {case}: reassembly panicked", c.name));
            // Whatever frames survived delimiting must still decode or
            // fail typed.
            for f in res.iter().flatten() {
                c.decode_no_panic(f, "assembled", case);
            }
        }
    }
}

#[test]
fn pure_random_chunks_into_assembler_never_panic() {
    for (c, _, _) in streams(1) {
        let mut rng = c.seed(0xFEED_FACE);
        for case in 0..CASES_PER_GENERATOR {
            let mut asm = Assembler::new(c.layout, 1 << 16);
            let _ = catch_unwind(AssertUnwindSafe(|| {
                for _ in 0..rng.gen_range(0..8usize) + 1 {
                    let len = rng.gen_range(0..512usize);
                    asm.push(&random_bytes(&mut rng, len))?;
                }
                asm.finish()
            }))
            .unwrap_or_else(|_| panic!("{} case {case}: assembler panicked", c.name));
        }
    }
}

// ---------------------------------------------------------------------
// The fused tile pipeline below the wire container.
// ---------------------------------------------------------------------

/// Deterministic sparse quantized tiles covering the whole layout.
fn sample_blocks(layout: &BlockLayout, seed: u64) -> Vec<[i8; 64]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..layout.num_blocks())
        .map(|_| {
            let mut b = [0i8; 64];
            for v in b.iter_mut() {
                if rng.gen_bool(0.3) {
                    *v = (rng.gen_range(0..181u32) as i32 - 90) as i8;
                }
            }
            b
        })
        .collect()
}

#[test]
fn mutated_cdu_streams_split_to_typed_stream_errors_and_decode_fused() {
    // The collected multi-CDU DMA stream is the transport of the fused
    // tile pipeline (Sec. III-G): mutating it must yield either a clean
    // split or a typed `CodecError::Stream` — never a panic and never a
    // different error variant.  Every successful split is then driven
    // through the fused decode (payload -> tile -> dequantize -> inverse
    // DCT -> scatter), which must also never panic on corrupted-but-
    // structurally-valid tiles.
    let shape = Shape::nchw(1, 4, 16, 16);
    let layout = BlockLayout::new(&shape);
    let blocks = sample_blocks(&layout, 0x7135);
    let n_cdus = 4usize;
    let mut streams: Vec<Vec<BlockPayload>> = vec![Vec::new(); n_cdus];
    for (bi, b) in blocks.iter().enumerate() {
        streams[bi % n_cdus].push(BlockPayload::from_block(b));
    }
    let counts: Vec<usize> = streams.iter().map(|s| s.len()).collect();
    let frame = stream::collect(&streams).expect("valid payloads collect");
    let tables = QuantTables::new(QuantKind::Shift, &Dqt::opt_h());
    let dec = |q: [i8; 64]| idct2d_to_i8(&tables.dequantize_block(&q));

    let mut rng = StdRng::seed_from_u64(0x57A7_0CD0);
    let mut stream_errors = 0usize;
    for case in 0..CASES_PER_GENERATOR {
        let mut bytes = frame.clone();
        mutate_bytes(&mut rng, &mut bytes, 6);
        let res = catch_unwind(AssertUnwindSafe(|| stream::split(&bytes, &counts)))
            .unwrap_or_else(|_| panic!("case {case}: split panicked"));
        match res {
            Ok(cdus) => {
                // Re-derive the round-robin block order and run the fused
                // decode; split's per-block reads guarantee `to_block`
                // succeeds, so the whole layout is always covered.
                let total: usize = counts.iter().sum();
                let mut quantized = Vec::with_capacity(total);
                let mut next = vec![0usize; n_cdus];
                while quantized.len() < total {
                    for (c, s) in cdus.iter().enumerate() {
                        if next[c] < s.len() {
                            let q = s[next[c]]
                                .to_block()
                                .unwrap_or_else(|e| panic!("case {case}: split payload rejected: {e}"));
                            quantized.push(q);
                            next[c] += 1;
                        }
                    }
                }
                catch_unwind(AssertUnwindSafe(|| untile_blocks(&layout, &quantized, &dec)))
                    .unwrap_or_else(|_| panic!("case {case}: fused decode panicked"));
            }
            Err(CodecError::Stream { .. }) => stream_errors += 1,
            Err(e) => panic!("case {case}: split returned a non-Stream error: {e}"),
        }
    }
    // Truncating mutations must actually reach the typed validation.
    assert!(
        stream_errors > 0,
        "no mutation ever hit CodecError::Stream ({CASES_PER_GENERATOR} cases)"
    );
}

#[test]
fn mutated_zvc_parts_are_rejected_typed_or_decode_fused_without_panic() {
    // Mutate the raw mask/value planes of a valid ZVC stream and rebuild
    // through the validating constructor: every inconsistent rebuild must
    // be a typed `CodecError::Corrupt`, and every accepted rebuild must
    // survive the fused streaming decode without panicking.
    let shape = Shape::nchw(1, 4, 16, 16);
    let layout = BlockLayout::new(&shape);
    let blocks = sample_blocks(&layout, 0x2BAD);
    let flat: Vec<i8> = blocks.iter().flatten().copied().collect();
    let z = Zvc::compress_i8(&flat);
    let words = layout.num_blocks() * 64;
    let tables = QuantTables::new(QuantKind::Shift, &Dqt::opt_h());
    let dec = |q: [i8; 64]| idct2d_to_i8(&tables.dequantize_block(&q));

    let mut rng = StdRng::seed_from_u64(0x2BAD_CAFE);
    let mut accepted = 0usize;
    for case in 0..CASES_PER_GENERATOR {
        let mut mask = z.mask_bytes().to_vec();
        let mut values = z.value_bytes().to_vec();
        if rng.gen_bool(0.5) {
            mutate_bytes(&mut rng, &mut mask, 4);
        } else {
            mutate_bytes(&mut rng, &mut values, 4);
        }
        match Zvc::from_parts(mask, values, words, 1) {
            Err(CodecError::Corrupt(_)) => {}
            Err(e) => panic!("case {case}: from_parts returned a non-Corrupt error: {e}"),
            Ok(z2) => {
                accepted += 1;
                let res = catch_unwind(AssertUnwindSafe(|| decode_zvc(&layout, &z2, &dec)))
                    .unwrap_or_else(|_| panic!("case {case}: fused ZVC decode panicked"));
                res.unwrap_or_else(|e| panic!("case {case}: consistent ZVC rejected: {e}"));
            }
        }
    }
    // Popcount-preserving mutations do slip past the structural checks
    // (they are valid streams of different data) — the fused decode must
    // absorb them; make sure the suite exercises that arm too.
    assert!(accepted > 0, "no mutation ever produced a consistent ZVC");
}

#[test]
fn mutated_rle_streams_decode_fused_without_panic() {
    // The RLE/Huffman arm of the fused pipeline reports corruption as a
    // typed `None -> CodecError::Corrupt` at the pipeline layer; at this
    // layer the contract is: `decode_blocks` never panics, and whatever
    // block list it does accept must flow through the fused decode
    // without panicking.
    let shape = Shape::nchw(1, 4, 16, 16);
    let layout = BlockLayout::new(&shape);
    let blocks = sample_blocks(&layout, 0x0E11);
    let frame = rle::encode_blocks(&blocks);
    let tables = QuantTables::new(QuantKind::Div, &Dqt::opt_l());
    let dec = |q: [i8; 64]| idct2d_to_i8(&tables.dequantize_block(&q));

    let mut rng = StdRng::seed_from_u64(0x0E11_0BAD);
    for case in 0..CASES_PER_GENERATOR {
        let mut bytes = frame.clone();
        mutate_bytes(&mut rng, &mut bytes, 6);
        let decoded =
            catch_unwind(AssertUnwindSafe(|| rle::decode_blocks(&bytes, layout.num_blocks())))
                .unwrap_or_else(|_| panic!("case {case}: RLE decode panicked"));
        if let Some(quantized) = decoded {
            assert_eq!(quantized.len(), layout.num_blocks(), "case {case}: short block list");
            catch_unwind(AssertUnwindSafe(|| untile_blocks(&layout, &quantized, &dec)))
                .unwrap_or_else(|_| panic!("case {case}: fused decode panicked"));
        }
    }
}
