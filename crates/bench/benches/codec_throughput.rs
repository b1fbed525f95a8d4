//! Throughput benchmarks for the compression primitives — the per-stage
//! costs behind the CDU pipeline design (Sec. III).  Runs on the in-repo
//! [`jact_bench::timing`] harness (hermetic-build policy: no criterion).
//!
//! Everything lands in one `BENCH_codec.json` record (harness "codec"):
//!
//! * `codec_stages`   — staged per-primitive costs on a shared activation,
//!   including the `quant_div` vs `quant_sh` pair Sec. III-F predicts
//!   (SH must not be slower than DIV — `bench_check` gates on this);
//! * `fused_stages`   — the streaming tile pipeline's stages pinned to one
//!   worker thread, in activation (f32) bytes per second;
//! * `wire_stages`    — checksum, serialize and deserialize of one
//!   uncompressed 2.5 MiB frame, in frame bytes per second (`bench_check`
//!   holds `crc32` to a 1 GiB/s floor);
//! * `dct_ablation`   — matrix-form vs factored fast DCT;
//! * `threads_*`      — whole-codec compress/decompress thread scaling.

use jact_bench::timing::{black_box, Harness};
use jact_codec::block::BlockLayout;
use jact_codec::brc::BrcMask;
use jact_codec::csr::Csr;
use jact_codec::dct::{dct2d_i8, idct2d_to_i8};
use jact_codec::dqt::Dqt;
use jact_codec::pipeline::{
    Codec, JpegActCodec, JpegBaseCodec, RawCodec, SfprCodec, ZvcF32Codec,
};
use jact_codec::quant::{QuantKind, QuantTables};
use jact_codec::rle;
use jact_codec::sfpr::{self, SfprParams};
use jact_codec::tile;
use jact_codec::wire;
use jact_codec::zvc::Zvc;
use jact_tensor::{Shape, Tensor};

fn activation(n: usize, c: usize, hw: usize) -> Tensor {
    let shape = Shape::nchw(n, c, hw, hw);
    let data = (0..shape.len())
        .map(|i| ((i % hw) as f32 * 0.3).sin() * ((i / hw % 7) as f32 + 0.2))
        .collect();
    Tensor::from_vec(shape, data)
}

fn quantized_blocks(x: &Tensor) -> Vec<[i8; 64]> {
    let enc = sfpr::compress(x, SfprParams::paper_default());
    let layout = BlockLayout::new(x.shape());
    let tables = QuantTables::new(QuantKind::Shift, &Dqt::opt_h());
    layout
        .to_blocks(enc.values())
        .iter()
        .map(|b| tables.quantize_block(&dct2d_i8(b)))
        .collect()
}

fn main() {
    let mut h = Harness::new("codec").sample_size(20);

    let x = activation(4, 16, 32);
    let bytes = (x.len() * 4) as u64;

    let mut g = h.group("codec_stages");
    g.throughput_bytes(bytes);

    g.bench_function("sfpr_compress", || {
        sfpr::compress(black_box(&x), SfprParams::paper_default())
    });

    let enc = sfpr::compress(&x, SfprParams::paper_default());
    let layout = BlockLayout::new(x.shape());
    g.bench_function("block_gather", || layout.to_blocks(black_box(enc.values())));

    let blocks = layout.to_blocks(enc.values());
    g.bench_function("dct2d_fixed_point", || {
        blocks
            .iter()
            .map(|blk| dct2d_i8(black_box(blk)))
            .collect::<Vec<_>>()
    });

    // The Sec. III-F cost comparison: DIV (multiply-shift against the
    // precomputed per-tensor magic table) vs SH (pure shifts against the
    // cached log2 table).  `bench_check` fails the build if SH comes out
    // slower than DIV — the inverted-cost bug this pair exists to catch.
    let coefs: Vec<[i16; 64]> = blocks.iter().map(dct2d_i8).collect();
    let tables_div = QuantTables::new(QuantKind::Div, &Dqt::jpeg_quality(80));
    g.bench_function("quant_div", || {
        coefs
            .iter()
            .map(|cf| tables_div.quantize_block(black_box(cf)))
            .collect::<Vec<_>>()
    });
    let tables_sh = QuantTables::new(QuantKind::Shift, &Dqt::opt_h());
    g.bench_function("quant_sh", || {
        coefs
            .iter()
            .map(|cf| tables_sh.quantize_block(black_box(cf)))
            .collect::<Vec<_>>()
    });

    let q = quantized_blocks(&x);
    g.bench_function("rle_encode", || rle::encode_blocks(black_box(&q)));
    let flat: Vec<i8> = q.iter().flatten().copied().collect();
    g.bench_function("zvc_encode", || Zvc::compress_i8(black_box(&flat)));

    let rle_bytes = rle::encode_blocks(&q);
    g.bench_function("rle_decode", || {
        rle::decode_blocks(black_box(&rle_bytes), q.len()).expect("valid stream")
    });
    let zvc_stream = Zvc::compress_i8(&flat);
    g.bench_function("zvc_decode", || {
        black_box(&zvc_stream).decompress_i8().expect("i8 stream")
    });

    g.bench_function("idct2d_fixed_point", || {
        coefs
            .iter()
            .map(|cf| idct2d_to_i8(black_box(cf)))
            .collect::<Vec<_>>()
    });

    g.bench_function("brc_mask", || BrcMask::compress(black_box(&x)));
    g.bench_function("csr_compress", || Csr::compress_default(black_box(enc.values())));
    g.finish();

    // Streaming tile pipeline stages, pinned to one worker thread.
    // Throughput is in activation (f32) bytes — the unit the CDU must
    // sustain against the PCIe link (Sec. III-G / Fig. 21) — over the
    // same tensor as `codec_stages`.  `bench_check` reports each row
    // against the 2 GiB/s single-thread floor.
    let num_blocks = layout.num_blocks();
    let mut f = h.group("fused_stages");
    f.throughput_bytes(bytes);
    // One `with_threads` region around the whole group: the pin applies to
    // every measurement without paying the pool-reconfiguration cost
    // inside each timed iteration.
    jact_par::with_threads(1, || {
        f.bench_function("gather", || {
            (0..num_blocks)
                .map(|bi| layout.gather_block(black_box(enc.values()), bi))
                .collect::<Vec<_>>()
        });
        f.bench_function("dct", || {
            blocks
                .iter()
                .map(|blk| dct2d_i8(black_box(blk)))
                .collect::<Vec<_>>()
        });
        f.bench_function("quant_div", || {
            coefs
                .iter()
                .map(|cf| tables_div.quantize_block(black_box(cf)))
                .collect::<Vec<_>>()
        });
        f.bench_function("quant_sh", || {
            coefs
                .iter()
                .map(|cf| tables_sh.quantize_block(black_box(cf)))
                .collect::<Vec<_>>()
        });
        f.bench_function("zvc_pack", || {
            tile::encode_zvc(black_box(&|bi| q[bi]), num_blocks)
        });
    });
    f.finish();

    // The wire path around one uncompressed frame — what vDNN-style
    // offload pays per save (serialize, which ends in one CRC pass) and
    // per load (deserialize, which starts with one) on top of the copy.
    let raw = RawCodec.compress(&activation(8, 80, 32));
    let frame = wire::serialize(&raw);
    let mut w = h.group("wire_stages");
    w.throughput_bytes(frame.len() as u64);
    w.bench_function("crc32", || wire::crc32(black_box(&frame)));
    let mut out = Vec::with_capacity(frame.len());
    w.bench_function("serialize_raw", || {
        wire::serialize_into(black_box(&raw), &mut out)
    });
    w.bench_function("deserialize_raw", || {
        wire::deserialize(black_box(&frame))
            .expect("own frame round-trips")
            .recycle()
    });
    w.finish();

    // Ablation: matrix-form 8-point DCT vs the factored fast DCT (the
    // hardware's LLM-style butterfly structure).
    let rows: Vec<[f32; 8]> = (0..512)
        .map(|r| {
            let mut row = [0.0f32; 8];
            for (i, v) in row.iter_mut().enumerate() {
                *v = (((r * 8 + i) as f32) * 0.1).sin() * 50.0;
            }
            row
        })
        .collect();
    let mut a = h.group("dct_ablation");
    a.bench_function("dct8_matrix", || {
        rows.iter()
            .map(|r| jact_codec::dct::dct8(black_box(r)))
            .collect::<Vec<_>>()
    });
    a.bench_function("dct8_fast", || {
        rows.iter()
            .map(|r| jact_codec::fast_dct::fast_dct8(black_box(r)))
            .collect::<Vec<_>>()
    });
    a.finish();

    // Thread-scaling axis: whole-codec compress/decompress throughput at
    // 1/2/4/max worker threads, pinned per-measurement with
    // `jact_par::with_threads` (outputs are bitwise identical across the
    // axis; only the wall-clock changes).
    let dense = activation(8, 16, 32);
    let mut sparse = dense.clone();
    sparse.map_in_place(|v| if v > 0.0 { v } else { 0.0 });
    let bytes = (dense.len() * 4) as u64;

    let max_threads = jact_par::Pool::global().threads();
    let axis: Vec<(String, usize)> = [1usize, 2, 4]
        .iter()
        .map(|&t| (t.to_string(), t))
        .chain(std::iter::once(("max".to_string(), max_threads)))
        .collect();

    for (label, threads) in &axis {
        let mut g = h.group(format!("threads_{label}"));
        g.throughput_bytes(bytes);

        macro_rules! scaling {
            ($name:literal, $codec:expr, $input:expr) => {
                let codec = $codec;
                let input = $input;
                g.bench_function(concat!($name, "/compress"), || {
                    jact_par::with_threads(*threads, || codec.compress(black_box(input)))
                });
                let compressed = codec.compress(input);
                g.bench_function(concat!($name, "/decompress"), || {
                    jact_par::with_threads(*threads, || {
                        codec
                            .decompress(black_box(&compressed))
                            .expect("payload produced by the same codec")
                    })
                });
            };
        }

        scaling!("sfpr", SfprCodec::new(), &dense);
        scaling!("zvc_f32", ZvcF32Codec, &sparse);
        scaling!("jpeg_base", JpegBaseCodec::new(Dqt::jpeg_quality(80)), &dense);
        scaling!("jpeg_act", JpegActCodec::new(Dqt::opt_h()), &dense);
        g.finish();
    }

    h.finish();
}
