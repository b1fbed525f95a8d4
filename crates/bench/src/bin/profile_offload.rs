//! Stage-breakdown profile of the offload codecs (Fig. 15 flavor).
//!
//! Compresses and decompresses the golden-corpus activation under an
//! observability capture with every Table III codec (all four
//! quantizer × coder corners at both DQTs) plus every baseline pipeline,
//! then prints the per-stage byte funnel the trace recorded: bytes in,
//! bytes out, and the stage's reduction ratio — the data behind the
//! paper's "where does the compression come from" breakdown.
//!
//! Set `JACT_QUICK=1` to profile a smaller activation, and
//! `JACT_BENCH_JSON=<dir>` to also write the machine-readable
//! `BENCH_obs.json` report.

use jact_bench::json::Json;
use jact_bench::obs_corpus::{corpus_tensor, golden_matrix};
use jact_bench::tables;
use jact_codec::dpr::DprWidth;
use jact_codec::dqt::Dqt;
use jact_codec::pipeline::{
    BrcCodec, Codec, DprCodec, GistCsrCodec, JpegActCodec, JpegBaseCodec, RawCodec, SfprCodec,
    SfprZvcCodec, ZvcF32Codec,
};
use jact_obs as obs;
use jact_tensor::{Shape, Tensor};

/// The profiled input: the golden corpus tensor, or a shrunken variant
/// of the same integer-lattice recipe under `JACT_QUICK=1`.
fn profile_tensor() -> Tensor {
    if !jact_bench::quick_mode() {
        return corpus_tensor();
    }
    let shape = Shape::nchw(1, 4, 16, 16);
    let data = (0..shape.len())
        .map(|i| {
            if i % 5 == 0 {
                0.0
            } else {
                (((i as i64 * 7) % 47) - 23) as f32 * 0.0625
            }
        })
        .collect();
    Tensor::from_vec(shape, data)
}

/// The full roster: every baseline pipeline plus the Table III matrix.
fn roster() -> Vec<(String, Box<dyn Codec>)> {
    let mut v: Vec<(String, Box<dyn Codec>)> = vec![
        ("raw".into(), Box::new(RawCodec)),
        ("zvc_f32".into(), Box::new(ZvcF32Codec)),
        ("dpr_f16".into(), Box::new(DprCodec::new(DprWidth::F16))),
        ("dpr_f8".into(), Box::new(DprCodec::new(DprWidth::F8))),
        ("gist_csr".into(), Box::new(GistCsrCodec)),
        ("sfpr".into(), Box::new(SfprCodec::new())),
        ("sfpr_zvc".into(), Box::new(SfprZvcCodec::new())),
        ("brc".into(), Box::new(BrcCodec)),
        (
            "jpeg_base_q80".into(),
            Box::new(JpegBaseCodec::new(Dqt::jpeg_quality(80))),
        ),
        (
            "jpeg_act_opth".into(),
            Box::new(JpegActCodec::new(Dqt::opt_h())),
        ),
    ];
    v.extend(golden_matrix());
    v
}

/// One profiled codec: the overall funnel plus the per-stage funnels
/// pulled out of the trace's counter totals.
struct Profile {
    name: String,
    bytes_in: u64,
    bytes_out: u64,
    stages: Vec<(String, u64, u64)>,
}

fn ratio(bytes_in: u64, bytes_out: u64) -> f64 {
    if bytes_in == 0 || bytes_out == 0 {
        1.0
    } else {
        bytes_in as f64 / bytes_out as f64
    }
}

fn profile(name: &str, codec: &dyn Codec, x: &Tensor) -> Profile {
    let (_, trace) = obs::collect(|| {
        let c = codec.compress(x);
        codec.decompress(&c).expect("profile roundtrip");
    });
    let totals = trace.counter_totals();
    let mut stages = Vec::new();
    for (key, &bytes_in) in &totals {
        if let Some(stage) = key
            .strip_prefix("stage.")
            .and_then(|r| r.strip_suffix(".bytes_in"))
        {
            let bytes_out = totals
                .get(&format!("stage.{stage}.bytes_out"))
                .copied()
                .unwrap_or(0);
            stages.push((stage.to_string(), bytes_in, bytes_out));
        }
    }
    Profile {
        name: name.to_string(),
        bytes_in: totals.get("codec.bytes_in").copied().unwrap_or(0),
        bytes_out: totals.get("codec.bytes_out").copied().unwrap_or(0),
        stages,
    }
}

fn main() {
    let x = profile_tensor();
    let profiles: Vec<Profile> = roster()
        .iter()
        .map(|(name, codec)| profile(name, codec.as_ref(), &x))
        .collect();

    tables::print_header("Offload stage profile (per-stage byte funnel)");
    println!("input: {:?} ({} bytes)", x.shape(), x.len() * 4);
    let mut rows = Vec::new();
    for p in &profiles {
        rows.push(vec![
            p.name.clone(),
            p.bytes_in.to_string(),
            p.bytes_out.to_string(),
            tables::ratio(ratio(p.bytes_in, p.bytes_out)),
        ]);
        for (stage, si, so) in &p.stages {
            rows.push(vec![
                format!("  stage.{stage}"),
                si.to_string(),
                so.to_string(),
                tables::ratio(ratio(*si, *so)),
            ]);
        }
    }
    tables::print_table(&["codec / stage", "bytes in", "bytes out", "ratio"], &rows);

    let codecs: Vec<Json> = profiles
        .iter()
        .map(|p| {
            let stages: Vec<Json> = p
                .stages
                .iter()
                .map(|(stage, si, so)| {
                    Json::obj()
                        .field("stage", stage.as_str())
                        .field("bytes_in", *si as f64)
                        .field("bytes_out", *so as f64)
                        .field("ratio", ratio(*si, *so))
                })
                .collect();
            Json::obj()
                .field("codec", p.name.as_str())
                .field("bytes_in", p.bytes_in as f64)
                .field("bytes_out", p.bytes_out as f64)
                .field("ratio", ratio(p.bytes_in, p.bytes_out))
                .field("stages", Json::Arr(stages))
        })
        .collect();
    let doc = Json::obj()
        .field("schema", "jact-obs/v1")
        .field("kind", "stage-profile")
        .field("input_bytes", (x.len() * 4) as f64)
        .field("codecs", Json::Arr(codecs));
    jact_bench::out::archive_bench_json("obs", &doc);
}
