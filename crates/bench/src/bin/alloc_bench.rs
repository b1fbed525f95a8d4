//! Allocation-per-operation audit: the `BENCH_alloc.json` record.
//!
//! A counting shim around the system allocator measures how many heap
//! allocations (and bytes) one steady-state operation performs after a
//! warmup that fills the `jact-pool` per-thread shelves.  Three groups:
//!
//! * `fused/*` — the streaming tile-pipeline stages with caller-held
//!   output buffers, mirroring `fused_stages` in `BENCH_codec.json`.
//!   **Gated at exactly 0 allocations/op** by `bench_check`: every
//!   scratch buffer must come from the pool and go back to it.
//! * `serve/session_loop` — one save + load round per stored tensor
//!   through a fault-free `jact_serve::Server`, with the client giving
//!   every egress envelope back to the pool.  **Gated at 0.**
//! * `infer/*` — the inference daemon's steady-state machinery: the
//!   `JINF` envelope round trip, one batcher admission + dispatch tick,
//!   and the per-sample boundary compress → wire → decompress loop.
//!   **Gated at exactly 0 allocations/op** by `bench_check`.
//! * `infer_model/*` — a full batched forward through the engine.
//!   Informational: the model's layers return fresh tensors, which are
//!   not on the pooled machinery path.
//! * `dnn/conv_fwd`, `dnn/conv_bwd` — one `Conv2d` pass (mini-resnet's
//!   16→16 3×3 at 32×32, batch 8).  The lowering scratch lives in the
//!   layer, so a steady-state pass allocates only what it returns or
//!   hands on: forward `y`; backward `dW`, `dX` and the input the store
//!   loads (plus `db` with a bias).  **Gated at exactly those counts** by
//!   `bench_check` (`ALLOC_GATES` there).
//! * `codec/*` — whole-codec compress → wire → decompress round trips
//!   for the Table III backend matrix, with full recycling.  These rows
//!   are informational (some payloads hold non-pooled structures), but
//!   they make regressions visible in CI diffs.
//!
//! The inputs are deliberately below the parallel-dispatch threshold so
//! every stage runs on the calling thread — cross-thread handoff would
//! otherwise recycle buffers into a different thread's shelves and the
//! numbers would measure scheduling, not the codec.
//!
//! Results print to stderr and, when `JACT_BENCH_JSON=<dir>` is set,
//! land in `BENCH_alloc.json` for `bench_check`'s zero-alloc gate.

use jact_bench::json::Json;
use jact_bench::timing::black_box;
use jact_codec::block::BlockLayout;
use jact_codec::dct::dct2d_i8;
use jact_codec::dpr::DprWidth;
use jact_codec::dqt::Dqt;
use jact_codec::pipeline::{
    BrcCodec, Codec, DprCodec, GistCsrCodec, JpegActCodec, JpegBaseCodec, RawCodec, SfprCodec,
    SfprZvcCodec, ZvcF32Codec,
};
use jact_codec::quant::{QuantKind, QuantTables};
use jact_codec::sfpr::{self, SfprParams};
use jact_codec::tile;
use jact_codec::wire;
use jact_serve::frame::encode_into;
use jact_serve::{Envelope, Msg, ServeConfig, Server};
use jact_tensor::{Shape, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
// The counting-allocator shim is the one place outside jact-par that
// needs atomics: the allocator trait is global state by definition, and
// the bench only reads relaxed totals.
// jact-analyze: allow(JA12)
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every heap allocation routed through the global allocator.
/// Only `alloc`/`alloc_zeroed`/`realloc` count — frees are not charged,
/// since the gate is "no new memory in steady state", not "no drops".
struct CountingAlloc;

// jact-analyze: allow(JA12)
static ALLOCS: AtomicU64 = AtomicU64::new(0);
// jact-analyze: allow(JA12)
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured row.
struct AllocRow {
    id: String,
    allocs_per_op: f64,
    bytes_per_op: f64,
}

/// Runs `f` for `warmup` untimed iterations (filling the pool shelves),
/// then `iters` counted iterations, and returns the per-op deltas:
/// (allocations, bytes, pool misses).
fn measure<T>(warmup: usize, iters: usize, mut f: impl FnMut() -> T) -> (f64, f64, f64) {
    for _ in 0..warmup {
        black_box(f());
    }
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    let m0 = jact_pool::stats().misses;
    for _ in 0..iters {
        black_box(f());
    }
    let da = ALLOCS.load(Ordering::Relaxed).saturating_sub(a0);
    let db = BYTES.load(Ordering::Relaxed).saturating_sub(b0);
    let dm = jact_pool::stats().misses.saturating_sub(m0);
    (
        da as f64 / iters as f64,
        db as f64 / iters as f64,
        dm as f64 / iters as f64,
    )
}

fn row<T>(rows: &mut Vec<AllocRow>, id: &str, warmup: usize, iters: usize, f: impl FnMut() -> T) {
    let (allocs_per_op, bytes_per_op, misses_per_op) = measure(warmup, iters, f);
    eprintln!(
        "{id:<28} {allocs_per_op:>10.2} allocs/op {bytes_per_op:>12.1} bytes/op \
         {misses_per_op:>8.2} pool-misses/op"
    );
    rows.push(AllocRow {
        id: id.to_string(),
        allocs_per_op,
        bytes_per_op,
    });
}

/// A small deterministic activation, sized below the parallel-dispatch
/// threshold (16 blocks ≪ 512) so every fused stage stays sequential.
fn activation(n: usize, c: usize, hw: usize) -> Tensor {
    let shape = Shape::nchw(n, c, hw, hw);
    let data = (0..shape.len())
        .map(|i| ((i % hw) as f32 * 0.3).sin() * ((i / hw % 7) as f32 + 0.2))
        .collect();
    Tensor::from_vec(shape, data)
}

fn fused_rows(rows: &mut Vec<AllocRow>, warmup: usize, iters: usize) {
    let x = activation(1, 4, 16);
    let enc = sfpr::compress(&x, SfprParams::paper_default());
    let layout = BlockLayout::new(x.shape());
    let num_blocks = layout.num_blocks();

    // Caller-held output buffers: clear + refill each op, so after the
    // first iteration the capacity is already there and a zero-alloc
    // stage stays at exactly zero.
    let mut gathered: Vec<[i8; 64]> = Vec::with_capacity(num_blocks);
    row(rows, "fused/gather", warmup, iters, || {
        gathered.clear();
        for bi in 0..num_blocks {
            gathered.push(layout.gather_block(black_box(enc.values()), bi));
        }
        gathered.len()
    });

    let blocks = layout.to_blocks(enc.values());
    let mut coefs: Vec<[i16; 64]> = Vec::with_capacity(num_blocks);
    row(rows, "fused/dct", warmup, iters, || {
        coefs.clear();
        for blk in &blocks {
            coefs.push(dct2d_i8(black_box(blk)));
        }
        coefs.len()
    });

    let coef_blocks: Vec<[i16; 64]> = blocks.iter().map(dct2d_i8).collect();
    let tables_div = QuantTables::new(QuantKind::Div, &Dqt::jpeg_quality(80));
    let tables_sh = QuantTables::new(QuantKind::Shift, &Dqt::opt_h());
    let mut quantized: Vec<[i8; 64]> = Vec::with_capacity(num_blocks);
    row(rows, "fused/quant_div", warmup, iters, || {
        quantized.clear();
        for cf in &coef_blocks {
            quantized.push(tables_div.quantize_block(black_box(cf)));
        }
        quantized.len()
    });
    row(rows, "fused/quant_sh", warmup, iters, || {
        quantized.clear();
        for cf in &coef_blocks {
            quantized.push(tables_sh.quantize_block(black_box(cf)));
        }
        quantized.len()
    });

    let q: Vec<[i8; 64]> = coef_blocks
        .iter()
        .map(|cf| tables_sh.quantize_block(cf))
        .collect();
    row(rows, "fused/zvc_pack", warmup, iters, || {
        let z = tile::encode_zvc(black_box(&|bi| q[bi]), num_blocks);
        let (mask, values, words, _) = z.into_parts();
        jact_pool::give(mask);
        jact_pool::give(values);
        words
    });

    row(rows, "fused/sfpr_compress", warmup, iters, || {
        let e = sfpr::compress(black_box(&x), SfprParams::paper_default());
        let (values, scales) = e.into_planes();
        jact_pool::give(values);
        jact_pool::give(scales);
    });
}

/// Whole-codec round trips with full recycling.  Informational: payloads
/// holding non-pooled structures (GIST-CSR, BRC) report their real cost.
fn codec_rows(rows: &mut Vec<AllocRow>, warmup: usize, iters: usize) {
    let dense = activation(1, 4, 16);
    let mut sparse = dense.clone();
    sparse.map_in_place(|v| if v > 0.0 { v } else { 0.0 });

    let mut bench = |id: &str, codec: &dyn Codec, input: &Tensor| {
        row(rows, id, warmup, iters, || {
            let c = codec.compress(black_box(input));
            let bytes = wire::serialize(&c);
            let back = wire::deserialize(&bytes).expect("own frame round-trips");
            let t = codec.decompress(&back).expect("own payload decompresses");
            jact_pool::give(bytes);
            c.recycle();
            back.recycle();
            jact_pool::give(t.into_vec());
        });
    };

    bench("codec/raw", &RawCodec, &dense);
    bench("codec/zvc_f32", &ZvcF32Codec, &sparse);
    bench("codec/dpr_f16", &DprCodec::new(DprWidth::F16), &dense);
    bench("codec/gist_csr", &GistCsrCodec, &sparse);
    bench("codec/sfpr", &SfprCodec::new(), &dense);
    bench("codec/sfpr_zvc", &SfprZvcCodec::new(), &sparse);
    bench("codec/jpeg_base", &JpegBaseCodec::new(Dqt::jpeg_quality(80)), &dense);
    bench("codec/jpeg_act", &JpegActCodec::new(Dqt::opt_h()), &dense);
    bench("codec/brc", &BrcCodec, &sparse);
}

/// One steady-state daemon round: save + load every tensor, drain and
/// recycle the responses.  Uses the fault-free default config, so every
/// load takes the full bus-delivery + validation + cache-repopulation
/// path (each save invalidates the cache entry it overwrites).
fn serve_rows(rows: &mut Vec<AllocRow>, warmup: usize, iters: usize) {
    const TENANT: u32 = 1;
    const TENSORS: u64 = 4;

    let mut server = Server::new(ServeConfig::default());
    server.register_tenant(TENANT);

    let codec = SfprCodec::new();
    let mut save_envs: Vec<Envelope> = (0..TENSORS)
        .map(|t| {
            let x = activation(1, 2, 16);
            let frame = wire::serialize(&codec.compress(&x));
            Envelope {
                tenant: TENANT,
                seq: 0,
                msg: Msg::SaveReq {
                    tensor: t,
                    deadline: 0,
                    frame,
                },
            }
        })
        .collect();
    let mut load_envs: Vec<Envelope> = (0..TENSORS)
        .map(|t| Envelope {
            tenant: TENANT,
            seq: 0,
            msg: Msg::LoadReq {
                tensor: t,
                deadline: 0,
            },
        })
        .collect();

    let mut buf: Vec<u8> = Vec::new();
    let mut seq: u64 = 0;
    let mut tick: u64 = 0;
    row(rows, "serve/session_loop", warmup, iters, || {
        for env in save_envs.iter_mut().chain(load_envs.iter_mut()) {
            seq += 1;
            env.seq = seq;
            encode_into(env, &mut buf);
            server.ingress(&buf);
        }
        tick += 1;
        server.advance_to(tick);
        let mut responses = 0usize;
        while let Some((_, bytes)) = server.pop_egress() {
            responses += 1;
            jact_pool::give(bytes);
        }
        responses
    });
}

/// Steady-state machinery of the inference daemon, all drawing from the
/// pool: envelope round trip, one batcher tick, one per-sample boundary
/// compress → wire → decompress loop.  Gated at 0 allocs/op.
fn infer_rows(rows: &mut Vec<AllocRow>, warmup: usize, iters: usize) {
    use jact_infer::frame as iframe;
    use jact_infer::{Batcher, InferEnvelope, InferMsg, PendingRequest};

    let plane = 3 * 8 * 8;
    let mut buf: Vec<u8> = Vec::new();
    row(rows, "infer/envelope_roundtrip", warmup, iters, || {
        let mut pixels: Vec<f32> = jact_pool::take(plane);
        for i in 0..plane {
            pixels.push(jact_infer::session::lattice_pixel(1, 2, i));
        }
        let env = InferEnvelope {
            client: 1,
            seq: 2,
            msg: InferMsg::Request {
                c: 3,
                h: 8,
                w: 8,
                pixels,
            },
        };
        iframe::encode_into(&env, &mut buf);
        env.recycle();
        let back = iframe::decode(black_box(&buf)).expect("own frame decodes");
        back.recycle();
        buf.len()
    });

    let mut batcher = Batcher::new(8, 2, 64, 64, 1 << 20);
    let mut tick: u64 = 0;
    let mut batch: Vec<PendingRequest> = Vec::with_capacity(8);
    row(rows, "infer/batcher_tick", warmup, iters, || {
        tick += 1;
        for i in 0..8u32 {
            let mut pixels: Vec<f32> = jact_pool::take(16);
            pixels.resize(16, 0.5);
            let req = PendingRequest {
                client: i,
                seq: tick,
                c: 1,
                h: 4,
                w: 4,
                pixels,
                enqueued_at: tick,
            };
            if let Err((req, _)) = batcher.enqueue(req) {
                jact_pool::give(req.pixels);
            }
        }
        let mut dispatched = 0usize;
        while batcher.ready(tick) {
            batcher.pop_batch(&mut batch);
            dispatched += batch.len();
            while let Some(r) = batch.pop() {
                jact_pool::give(r.pixels);
            }
        }
        dispatched
    });

    let mut sparse = activation(1, 2, 16);
    sparse.map_in_place(|v| if v > 0.0 { v } else { 0.0 });
    let codec = ZvcF32Codec;
    let mut frame_buf: Vec<u8> = Vec::new();
    let mut sample: Vec<f32> = Vec::new();
    row(rows, "infer/boundary_roundtrip", warmup, iters, || {
        let c = codec.compress_into(black_box(&sparse), &mut frame_buf);
        c.recycle();
        let back = wire::deserialize(&frame_buf).expect("own frame round-trips");
        let shape = codec
            .decompress_into(&back, &mut sample)
            .expect("own payload decompresses");
        back.recycle();
        shape.len()
    });
}

/// One `Conv2d` forward and one backward pass at a mini-resnet geometry,
/// against a `PassthroughStore` that already holds the input (the layer's
/// save is the store's allocation, not the layer's).
fn dnn_rows(rows: &mut Vec<AllocRow>) {
    use jact_dnn::act::{ActKind, ActivationStore, Context, PassthroughStore};
    use jact_dnn::layers::{Conv2d, Layer};
    use jact_rng::SeedableRng;

    let x = activation(8, 16, 32);
    let gy = activation(8, 16, 32);
    let mut weights = jact_tensor::init::seeded_rng(7);
    let mut conv = Conv2d::new("conv", 16, 16, 3, 1, 1, false, 0, &mut weights);
    let mut store = PassthroughStore::new();
    store.save(0, ActKind::Conv, &x);
    let mut rng = jact_rng::rngs::StdRng::seed_from_u64(0);
    let mut ctx = Context::new(false, &mut rng, &mut store);
    row(rows, "dnn/conv_fwd", 2, 8, || conv.forward(black_box(&x), &mut ctx));
    row(rows, "dnn/conv_bwd", 2, 8, || {
        conv.backward(black_box(&gy), &mut ctx).expect("the store holds the input")
    });
}

/// A full batched forward through the engine — informational only: the
/// layers' output tensors are not on the pooled path.
fn infer_model_rows(rows: &mut Vec<AllocRow>) {
    use jact_infer::{BoundaryMode, Engine, InferConfig, PendingRequest};
    let cfg = InferConfig {
        model: "mini-vgg".to_string(),
        boundary: BoundaryMode::Zvc,
        ..InferConfig::default()
    };
    let mut engine = Engine::new(&cfg).expect("registry model builds");
    let plane = cfg.request_plane();
    let batch: Vec<PendingRequest> = (0..2u32)
        .map(|i| PendingRequest {
            client: i,
            seq: 0,
            c: cfg.in_channels as u32,
            h: cfg.input_hw as u32,
            w: cfg.input_hw as u32,
            pixels: (0..plane)
                .map(|j| jact_infer::session::lattice_pixel(i, 1, j))
                .collect(),
            enqueued_at: 0,
        })
        .collect();
    let mut out = Vec::new();
    row(rows, "infer_model/batch_forward", 2, 8, || {
        out.clear();
        engine.infer_batch(black_box(&batch), &mut out);
        out.len()
    });
}

fn main() {
    let quick = jact_bench::quick_mode();
    let (warmup, iters) = if quick { (8, 32) } else { (32, 256) };
    eprintln!("alloc_bench: warmup={warmup} iters={iters}\n");

    let mut rows: Vec<AllocRow> = Vec::new();
    fused_rows(&mut rows, warmup, iters);
    serve_rows(&mut rows, warmup, iters);
    infer_rows(&mut rows, warmup, iters);
    infer_model_rows(&mut rows);
    dnn_rows(&mut rows);
    codec_rows(&mut rows, warmup, iters);

    let pool = jact_pool::stats();
    eprintln!(
        "\npool: {} acquires, {} recycles, {} misses, high water {} bytes",
        pool.acquires, pool.recycles, pool.misses, pool.high_water_bytes
    );

    let doc = Json::obj()
        .field("harness", "alloc")
        .field("quick", quick)
        .field("warmup", warmup)
        .field("iters", iters)
        .field(
            "results",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj()
                            .field("id", r.id.as_str())
                            .field("allocs_per_op", r.allocs_per_op)
                            .field("bytes_per_op", r.bytes_per_op)
                    })
                    .collect(),
            ),
        );
    jact_bench::out::archive_bench_json("alloc", &doc);
}
