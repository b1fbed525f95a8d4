//! # jact-codec
//!
//! Compression primitives for the JPEG-ACT reproduction (Evans, Liu,
//! Aamodt, *JPEG-ACT: Accelerating Deep Learning via Transform-based Lossy
//! Compression*, ISCA 2020).
//!
//! This crate implements, from scratch, every compression building block
//! the paper uses or compares against:
//!
//! | Module | Paper section | What it is |
//! |---|---|---|
//! | [`sfpr`] | III-B | Scaled Fix-point Precision Reduction: f32 → i8 with per-channel max scaling |
//! | [`block`] | III-C | NCHW → `(N·C·H) × W` reshape, zero padding, 8×8 block gather (alignment buffer) |
//! | [`dct`] | III-D | 8-point / 8×8 2-D DCT and inverse, float reference + fixed-point datapath |
//! | [`dqt`] | II-B5, IV | Discrete quantization tables: JPEG quality tables, optimized `optL`/`optH`, zigzag order |
//! | [`quant`] | III-E, III-F | DIV (divide) and SH (shift) quantization of DCT coefficients |
//! | [`rle`] | III-E | Zigzag run-length encoding + Huffman coding (JPEG-BASE back end) |
//! | [`zvc`] | II-B4, III-F | Zero-value compression: non-zero mask + packed values (cDMA / JPEG-ACT back end) |
//! | [`brc`] | II-B1 | Binary ReLU compression: 1-bit sign masks |
//! | [`csr`] | II-B2 | GIST-style sparse storage (value + column index per non-zero) |
//! | [`dpr`] | II-B2 | Dynamic precision reduction: f32 → f16 / f8 casts |
//! | [`pipeline`] | III | Composed codecs: SFPR-only, JPEG-BASE, JPEG-ACT, and the DIV/SH × RLE/ZVC matrix |
//! | [`tile`] | III, Fig. 11 | Streaming tile pipeline: five drivers pulling gather → DCT → quantize → code closures per 8×8 block |
//! | [`stream`] | III-G | Collector / splitter: round-robin multi-CDU stream aggregation into 128 B DMA packets |
//! | [`seal`] | III-G | The one sealed-container layout (magic + version + tag + length + CRC32): writers, bounds-checked reader, `open`, streaming assembler |
//! | [`wire`] | III-G | Framed wire format: the `JACT` sealed container of every payload, panic-free decode of arbitrary bytes |
//! | [`bits`] | — | Bit-level I/O shared by the entropy coders |
//!
//! ## Quick start
//!
//! ```
//! use jact_codec::pipeline::{Codec, JpegActCodec};
//! use jact_codec::dqt::Dqt;
//! use jact_tensor::{Tensor, Shape};
//!
//! // A smooth activation-like tensor compresses well.
//! let shape = Shape::nchw(1, 4, 16, 16);
//! let data: Vec<f32> = (0..shape.len())
//!     .map(|i| ((i % 16) as f32 * 0.2).sin())
//!     .collect();
//! let x = Tensor::from_vec(shape, data);
//!
//! let codec = JpegActCodec::new(Dqt::opt_h());
//! let compressed = codec.compress(&x);
//! let recovered = codec.decompress(&compressed).expect("same codec");
//!
//! assert!(compressed.ratio() > 2.0);
//! assert!(x.mse(&recovered) < 1e-2);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bits;
pub mod block;
pub mod brc;
pub mod cacheline;
pub mod cast;
pub mod csr;
pub mod dct;
pub mod dpr;
pub mod dqt;
pub mod error;
pub mod fast_dct;
pub mod pipeline;
pub mod quant;
pub mod rle;
pub mod seal;
pub mod sfpr;
pub mod stream;
pub mod tile;
pub mod wire;
pub mod zvc;

pub use error::CodecError;
pub use pipeline::{Codec, CompressedActivation};
