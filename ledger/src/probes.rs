//! Replay probes: one op's data pushed through a layer's public
//! functions directly, to split the time a daemon or the store spends
//! inside calls the benchmark cannot wrap from outside.

use crate::stats::median;
use crate::Traced;
use jact_codec::pipeline::Codec;
use jact_codec::wire;
use jact_core::fault::{FaultConfig, FaultInjector, FaultModel};
use jact_dnn::act::{ActKind, ActivationStore, Context, PassthroughStore};
use jact_dnn::layers::{Conv2d, Layer};
use jact_rng::rngs::StdRng;
use jact_rng::SeedableRng;
use jact_tensor::init::{normal_tensor, seeded_rng, uniform_tensor};
use jact_tensor::ops::{col2im, im2col, matmul, transpose, ConvGeom};
use jact_tensor::{Shape, Tensor};
use std::hint::black_box;
use std::time::Instant;

fn ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = black_box(f());
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// One row of a model's conv-geometry table (README "Conv geometry").
pub struct ConvCase {
    pub in_c: usize,
    pub out_c: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
    /// Input height and width.
    pub hw: usize,
    pub bias: bool,
    /// Share of the conv's incoming gradient that is exactly zero, from
    /// the layers after it (0.5 behind a ReLU, 0.91 behind ReLU, dropout
    /// 0.25 and a 2x2 max pool).  `matmul` skips zero left-hand entries,
    /// so the weight-gradient GEMM speeds up with it.
    pub gy_zero: f32,
    /// Convolutions of this geometry per forward pass.
    pub count: usize,
}

const fn conv(
    in_c: usize,
    out_c: usize,
    kernel: usize,
    stride: usize,
    hw: usize,
    count: usize,
) -> ConvCase {
    ConvCase {
        in_c,
        out_c,
        kernel,
        stride,
        pad: kernel / 2,
        hw,
        bias: false,
        gy_zero: 0.0,
        count,
    }
}

/// `mini-resnet` (2 blocks per stage, widths 16/32/64, 32x32 input):
/// every conv is bias-free and feeds a batch norm.
pub const RESNET_CONVS: &[ConvCase] = &[
    conv(3, 16, 3, 1, 32, 1),  // stem
    conv(16, 16, 3, 1, 32, 4), // s0b{0,1}.conv{1,2}
    conv(16, 32, 3, 2, 32, 1), // s1b0.conv1
    conv(16, 32, 1, 2, 32, 1), // s1b0.down
    conv(32, 32, 3, 1, 16, 3), // s1b0.conv2, s1b1.conv{1,2}
    conv(32, 64, 3, 2, 16, 1), // s2b0.conv1
    conv(32, 64, 1, 2, 16, 1), // s2b0.down
    conv(64, 64, 3, 1, 8, 3),  // s2b0.conv2, s2b1.conv{1,2}
];

const fn vgg_conv(in_c: usize, out_c: usize, hw: usize, gy_zero: f32) -> ConvCase {
    ConvCase {
        bias: true,
        gy_zero,
        ..conv(in_c, out_c, 3, 1, hw, 1)
    }
}

/// `mini-vgg` (widths 32/64, 32x32 input): every conv has a bias and
/// feeds a ReLU; each stage's second one also dropout and the max pool.
pub const VGG_CONVS: &[ConvCase] = &[
    vgg_conv(3, 32, 32, 0.5),   // s0.conv1
    vgg_conv(32, 32, 32, 0.91), // s0.conv2
    vgg_conv(32, 64, 16, 0.5),  // s1.conv1
    vgg_conv(64, 64, 16, 0.91), // s1.conv2
];

/// Dense-math time of one op, from standalone probes over a conv table.
#[derive(Debug, Default)]
pub struct DenseMath {
    conv_fwd_ms: f64,
    conv_bwd_ms: f64,
    matmul_ms: f64,
    matmul_flops: f64,
    im2col_ms: f64,
    col2im_ms: f64,
    transpose_ms: f64,
}

/// Times `Conv2d` and the `tensor::ops` calls it makes, once per table
/// row at batch `n`, scaled by the row's count.  Each value is the
/// median of `reps` runs.  `backward = false` is the inference case.
pub fn dense_math(cases: &[ConvCase], n: usize, backward: bool, reps: usize) -> DenseMath {
    let mut total = DenseMath::default();
    let mut rng = seeded_rng(0x1ED6E2);
    for c in cases {
        let geom = ConvGeom::new(c.kernel, c.stride, c.pad);
        let out_hw = geom.out_extent(c.hw);
        // Inputs are post-ReLU in both models: non-negative, half zero.
        let x =
            normal_tensor(Shape::nchw(n, c.in_c, c.hw, c.hw), 1.0, &mut rng).map(|v| v.max(0.0));
        let gy = normal_tensor(Shape::nchw(n, c.out_c, out_hw, out_hw), 1.0, &mut rng);
        let keep = uniform_tensor(*gy.shape(), 0.0, 1.0, &mut rng);
        let gy = gy.zip(&keep, |g, u| if u >= c.gy_zero { g } else { 0.0 });
        let gy_mat = gy.reshape(Shape::mat(c.out_c, n * out_hw * out_hw));
        let mut layer = Conv2d::new(
            "probe", c.in_c, c.out_c, c.kernel, c.stride, c.pad, c.bias, 0, &mut rng,
        );
        let w = layer.params()[0].value.clone();
        // The layer's save and load of its input are the store's time, not
        // the layer's: save up front, then run forward without saving.
        let mut store = PassthroughStore::new();
        store.save(0, ActKind::Conv, &x);
        let mut layer_rng = StdRng::seed_from_u64(0);

        let mut t = [const { Vec::new() }; 6];
        for _ in 0..reps {
            let mut ctx = Context::new(false, &mut layer_rng, &mut store);
            t[0].push(ms(|| layer.forward(&x, &mut ctx)).1);
            let (cols, im2col_ms) = ms(|| im2col(&x, geom));
            let mut mm = ms(|| matmul(&w, &cols)).1;
            let (mut i2c, mut c2i, mut tr) = (im2col_ms, 0.0, 0.0);
            if backward {
                t[1].push(ms(|| layer.backward(&gy, &mut ctx)).1);
                i2c += im2col_ms;
                let (cols_t, t1) = ms(|| transpose(&cols));
                mm += ms(|| matmul(&gy_mat, &cols_t)).1;
                let (w_t, t2) = ms(|| transpose(&w));
                let (dcols, t3) = ms(|| matmul(&w_t, &gy_mat));
                mm += t3;
                tr = t1 + t2;
                c2i = ms(|| col2im(&dcols, x.shape(), geom)).1;
            }
            t[2].push(mm);
            t[3].push(i2c);
            t[4].push(c2i);
            t[5].push(tr);
        }
        let k = c.count as f64;
        let gemms = if backward { 3.0 } else { 1.0 };
        total.conv_fwd_ms += k * median(&t[0]);
        total.conv_bwd_ms += k * median(&t[1]);
        total.matmul_ms += k * median(&t[2]);
        total.matmul_flops +=
            k * gemms * 2.0 * (c.out_c * c.in_c * c.kernel * c.kernel * n * out_hw * out_hw) as f64;
        total.im2col_ms += k * median(&t[3]);
        total.col2im_ms += k * median(&t[4]);
        total.transpose_ms += k * median(&t[5]);
    }
    total
}

impl DenseMath {
    /// Writes the `dnn.conv_*` and `tensor.*` rows; `net_ms` is the
    /// traced self time of the network passes the convs are part of.
    pub fn report(&self, out: &mut Traced, net_ms: f64) {
        out.set("dnn.conv_fwd_ms", self.conv_fwd_ms);
        out.set("dnn.conv_bwd_ms", self.conv_bwd_ms);
        out.set(
            "dnn.nonconv_ms",
            net_ms - self.conv_fwd_ms - self.conv_bwd_ms,
        );
        out.set("tensor.matmul_ms", self.matmul_ms);
        out.set(
            "tensor.matmul_gflops",
            self.matmul_flops / (self.matmul_ms * 1e6),
        );
        out.set("tensor.im2col_ms", self.im2col_ms);
        out.set("tensor.col2im_ms", self.col2im_ms);
        out.set("tensor.transpose_ms", self.transpose_ms);
    }
}

/// The rank-4 view the offload store compresses (`OffloadStore::to_rank4`).
pub fn to_rank4(x: &Tensor) -> Tensor {
    match x.shape().rank() {
        4 => x.clone(),
        2 => x.reshape(Shape::nchw(x.shape().dim(0), x.shape().dim(1), 1, 1)),
        _ => x.reshape(Shape::nchw(1, x.len(), 1, 1)),
    }
}

/// Stage times of one op's tensors through codec, wire and fault channel.
#[derive(Debug, Default)]
pub struct CodecReplay {
    compress_ms: f64,
    decompress_ms: f64,
    serialize_ms: f64,
    deserialize_ms: f64,
    pub crc32_ms: f64,
    pub deliver_ms: f64,
    pub raw_bytes: u64,
    pub wire_bytes: u64,
}

/// Pushes every `(codec, tensor)` through compress, serialize, a
/// fault-free delivery, deserialize and decompress, timing each call.
/// Each value is the median over `reps` of the sum over the tensors.
///
/// `RawCodec` is the bypass (a copy, no transform): its compress and
/// decompress calls are not counted as codec time, so the `codec.*` rows
/// read 0 on a workload that offloads uncompressed.
pub fn replay_codec(items: &[(Box<dyn Codec>, Tensor)], reps: usize) -> CodecReplay {
    let mut channel = FaultInjector::new(FaultConfig::new(0.0, FaultModel::Mixed, 0));
    let mut out = CodecReplay::default();
    let mut t = [const { Vec::new() }; 6];
    for rep in 0..reps {
        let mut sum = [0.0f64; 6];
        for (codec, x) in items {
            let transform = if codec.name() == "raw" { 0.0 } else { 1.0 };
            let (c, t0) = ms(|| codec.compress(x));
            let (frame, t1) = ms(|| wire::serialize(&c));
            let (_, t2) = ms(|| wire::crc32(&frame));
            let ((rx, _), t3) = ms(|| channel.deliver(&frame));
            let (back, t4) = ms(|| wire::deserialize(&rx));
            let back = back.expect("a fault-free frame deserializes");
            let (y, t5) = ms(|| codec.decompress(&back));
            let y = y.expect("a fault-free frame decompresses");
            assert_eq!(y.shape(), x.shape(), "round trip keeps the shape");
            for (s, v) in sum
                .iter_mut()
                .zip([t0 * transform, t1, t2, t3, t4, t5 * transform])
            {
                *s += v;
            }
            if rep == 0 {
                out.raw_bytes += x.len() as u64 * 4;
                out.wire_bytes += frame.len() as u64;
            }
            jact_pool::give(rx);
            jact_pool::give(frame);
            c.recycle();
            back.recycle();
        }
        for (v, s) in t.iter_mut().zip(sum) {
            v.push(s);
        }
    }
    out.compress_ms = median(&t[0]);
    out.serialize_ms = median(&t[1]);
    out.crc32_ms = median(&t[2]);
    out.deliver_ms = median(&t[3]);
    out.deserialize_ms = median(&t[4]);
    out.decompress_ms = median(&t[5]);
    out
}

impl CodecReplay {
    /// Everything but `crc32`, which runs inside serialize and
    /// deserialize and is listed for its share of them.
    pub fn total_ms(&self) -> f64 {
        self.compress_ms
            + self.serialize_ms
            + self.deliver_ms
            + self.deserialize_ms
            + self.decompress_ms
    }

    /// Writes the `codec.*`, `wire.*` and `core.fault.*` rows, each
    /// divided by `ops` (the ops the replayed tensors belong to).
    pub fn report(&self, out: &mut Traced, ops: f64) {
        out.set("codec.compress_ms", self.compress_ms / ops);
        out.set("codec.decompress_ms", self.decompress_ms / ops);
        out.set("wire.serialize_ms", self.serialize_ms / ops);
        out.set("wire.deserialize_ms", self.deserialize_ms / ops);
        out.set("wire.crc32_ms", self.crc32_ms / ops);
        out.set("core.fault.deliver_ms", self.deliver_ms / ops);
    }
}

/// Writes the `pool.*` rows: `jact_pool::stats()` deltas since `before`
/// over `ops` ops of the traced loop, and the cost of one warm pair.
pub fn report_pool(out: &mut Traced, before: jact_pool::PoolStats, ops: f64) {
    let now = jact_pool::stats();
    let acquires = (now.acquires - before.acquires).max(1);
    out.set(
        "pool.hit_ratio",
        (now.recycles - before.recycles) as f64 / acquires as f64,
    );
    out.set(
        "pool.misses_per_op",
        (now.misses - before.misses) as f64 / ops,
    );
    out.set("pool.take_give_ns", pool_take_give_ns());
}

/// Cost of one warm `jact_pool::take` + `give` pair, in ns.
fn pool_take_give_ns() -> f64 {
    const PAIRS: u32 = 20_000;
    jact_pool::give(jact_pool::take::<u8>(4096));
    let start = Instant::now();
    for _ in 0..PAIRS {
        jact_pool::give(black_box(jact_pool::take::<u8>(4096)));
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}
