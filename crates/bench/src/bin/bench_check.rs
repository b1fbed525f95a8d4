//! Gates on the benchmark records (`BENCH_codec.json`, and optionally
//! `BENCH_alloc.json`).
//!
//! Checks rooted in Sec. III-F's cost model and the zero-allocation
//! steady-state contract:
//!
//! 1. **SH vs DIV (hard fail):** the shift quantizer exists because it is
//!    cheaper than division; if `codec_stages/quant_sh` has a higher
//!    median than `codec_stages/quant_div`, the shift path has regressed
//!    into recomputing its tables (the bug this PR fixed) and the check
//!    exits non-zero.
//! 2. **Fused-stage floor (warn):** every `fused_stages/*` row should
//!    sustain ≥ 2 GiB/s of activation bytes on one worker thread.  A
//!    shortfall on this and the next two floors prints a warning, so
//!    noisy CI boxes don't flake the build but a real regression is
//!    still visible; a missing row fails the run.
//! 3. **SFPR scan floor (warn):** `codec_stages/sfpr_compress` must hold
//!    the vectorized channel-scan rate — ≥ 0.9 GiB/s — so the slow-path
//!    regression the 8-lane scan fixed cannot silently return.
//! 4. **Checksum floor (warn):** `wire_stages/crc32` must hold ≥ 1 GiB/s:
//!    slicing-by-16 reads above 2 and the byte-at-a-time loop it
//!    replaced read 0.38, so a shortfall means the sealed containers are
//!    back to one table lookup per byte.
//! 5. **Zero-allocation gate (hard fail):** when a second path names a
//!    `BENCH_alloc.json`, every `fused/*`, `serve/*`, and `infer/*` row
//!    in it must report exactly 0 allocations per steady-state
//!    operation.  The buffer-pool layer exists to make these paths
//!    allocation-free; any nonzero count is a recycling leak, not noise.
//!    (`infer_model/*` rows are informational — dense model math is not
//!    on the pooled machinery path.)  `dnn/conv_fwd` and `dnn/conv_bwd`
//!    are gated at the tensors a `Conv2d` pass returns or hands on
//!    ([`ALLOC_GATES`]): the lowering scratch is the layer's, so one more
//!    is a temporary that came back.
//! 6. **Inference throughput floor (hard fail):** when a third path
//!    names a `BENCH_infer.json`, every matrix cell's `requests_per_s`
//!    must clear a deliberately conservative floor of 1 request/s.  The
//!    floor catches a daemon that stops completing work (0 rps) without
//!    flaking on slow CI boxes.
//!
//! Usage: `bench_check [BENCH_codec.json [BENCH_alloc.json [BENCH_infer.json]]]`
//! (first path defaults to `./BENCH_codec.json`; the alloc and infer
//! records are only checked when named).

use std::process::ExitCode;

/// The gated `BENCH_alloc.json` rows: an id prefix and the allocations
/// per steady-state op its rows must report.  The pooled paths allocate
/// nothing.  A `Conv2d::forward` allocates its output tensor; a bias-free
/// `Conv2d::backward` allocates `dW`, `dX` and the input tensor the
/// activation store hands back.
const ALLOC_GATES: [(&str, f64); 5] = [
    ("fused/", 0.0),
    ("serve/", 0.0),
    ("infer/", 0.0),
    ("dnn/conv_fwd", 1.0),
    ("dnn/conv_bwd", 3.0),
];

/// Single-thread floor for the fused tile stages, in GiB/s.
const FUSED_FLOOR_GIBS: f64 = 2.0;

/// Floor for the whole-codec SFPR compress row, in GiB/s — below the
/// fused stages because it includes the channel max-abs scan and scale
/// derivation on top of the quantize loop.
const SFPR_FLOOR_GIBS: f64 = 0.9;

/// Floor for `wire_stages/crc32`, in GiB/s.
const CRC_FLOOR_GIBS: f64 = 1.0;

/// Floor for every `BENCH_infer.json` matrix cell, in requests/s.
const INFER_FLOOR_RPS: f64 = 1.0;

/// One benchmark row pulled out of the JSON record.
#[derive(Debug)]
struct Row {
    id: String,
    median_ns: f64,
    mib_per_s: Option<f64>,
    allocs_per_op: Option<f64>,
}

/// Extracts the string value following `"<key>": "` in `obj`.
fn str_field(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = obj.find(&pat)? + pat.len();
    let end = obj[start..].find('"')?;
    Some(obj[start..start + end].to_string())
}

/// Extracts the numeric value following `"<key>": ` in `obj`.
fn num_field(obj: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a harness JSON into rows by scanning for `"id"` fields — the
/// record layouts are fixed by `jact_bench::timing` and `alloc_bench`,
/// so a full JSON parser would be overkill for a CI gate.
fn parse_rows(json: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut rest = json;
    while let Some(pos) = rest.find("\"id\": \"") {
        let obj = &rest[pos..];
        let next = obj[1..]
            .find("\"id\": \"")
            .map(|p| p + 1)
            .unwrap_or(obj.len());
        let obj = &obj[..next];
        if let Some(id) = str_field(obj, "id") {
            rows.push(Row {
                id,
                median_ns: num_field(obj, "median_ns").unwrap_or(f64::NAN),
                mib_per_s: num_field(obj, "mib_per_s"),
                allocs_per_op: num_field(obj, "allocs_per_op"),
            });
        }
        rest = &rest[pos + next..];
    }
    rows
}

/// Applies one throughput floor to `row`: a shortfall warns, a row
/// without a throughput field returns `true` (a failure).
fn check_floor(row: &Row, floor_gibs: f64) -> bool {
    let floor_mib_s = floor_gibs * 1024.0;
    match row.mib_per_s {
        Some(t) if t >= floor_mib_s => {
            eprintln!("bench_check: {} {:.0} MiB/s — ok", row.id, t);
            false
        }
        Some(t) => {
            eprintln!(
                "bench_check: {} {:.0} MiB/s — below the {:.0} MiB/s single-thread floor (warning)",
                row.id, t, floor_mib_s
            );
            false
        }
        None => {
            eprintln!("bench_check: {} has no throughput field", row.id);
            true
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let path = args.next().unwrap_or_else(|| "BENCH_codec.json".to_string());
    let alloc_path = args.next();
    let infer_path = args.next();
    let json = match std::fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let rows = parse_rows(&json);
    let find = |id: &str| rows.iter().find(|r| r.id == id);

    let mut failed = false;

    // Check 1: SH must not cost more than DIV.
    match (find("codec_stages/quant_div"), find("codec_stages/quant_sh")) {
        (Some(div), Some(sh)) => {
            let verdict = if sh.median_ns <= div.median_ns {
                "ok"
            } else {
                failed = true;
                "FAIL (inverted quantizer cost: SH slower than DIV)"
            };
            eprintln!(
                "bench_check: quant_sh {:.0} ns vs quant_div {:.0} ns — {verdict}",
                sh.median_ns, div.median_ns
            );
        }
        _ => {
            eprintln!("bench_check: {path} is missing codec_stages/quant_div or quant_sh");
            failed = true;
        }
    }

    // Check 2: fused single-thread stages against the 2 GiB/s floor.
    let fused: Vec<&Row> = rows
        .iter()
        .filter(|r| r.id.starts_with("fused_stages/"))
        .collect();
    if fused.is_empty() {
        eprintln!("bench_check: {path} has no fused_stages rows");
        failed = true;
    }
    for r in fused {
        failed |= check_floor(r, FUSED_FLOOR_GIBS);
    }

    // Checks 3 and 4: the SFPR compress row against its scan floor and
    // the container checksum against its own.
    for (id, floor) in [
        ("codec_stages/sfpr_compress", SFPR_FLOOR_GIBS),
        ("wire_stages/crc32", CRC_FLOOR_GIBS),
    ] {
        match find(id) {
            Some(r) => failed |= check_floor(r, floor),
            None => {
                eprintln!("bench_check: {path} is missing {id}");
                failed = true;
            }
        }
    }

    // Check 5: steady-state allocation counts, when an alloc record is
    // named.  Hard gate — the pool either recycles or it doesn't.
    if let Some(alloc_path) = alloc_path {
        let alloc_json = match std::fs::read_to_string(&alloc_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench_check: cannot read {alloc_path}: {e}");
                return ExitCode::from(2);
            }
        };
        let alloc_rows = parse_rows(&alloc_json);
        let gate = |id: &str| ALLOC_GATES.iter().find(|(prefix, _)| id.starts_with(prefix));
        for (prefix, _) in ALLOC_GATES {
            if !alloc_rows.iter().any(|r| r.id.starts_with(prefix)) {
                eprintln!("bench_check: {alloc_path} has no {prefix} rows");
                failed = true;
            }
        }
        let gated = alloc_rows
            .iter()
            .filter_map(|r| Some((r, gate(&r.id)?.1)));
        for (r, want) in gated {
            match r.allocs_per_op {
                Some(a) if a == want => {
                    eprintln!("bench_check: {} {a} allocs/op — ok", r.id);
                }
                Some(a) => {
                    eprintln!(
                        "bench_check: {} {a} allocs/op — FAIL (steady state allocates {want})",
                        r.id
                    );
                    failed = true;
                }
                None => {
                    eprintln!("bench_check: {} has no allocs_per_op field", r.id);
                    failed = true;
                }
            }
        }
    }

    // Check 6: inference daemon throughput floor, when an infer record
    // is named.  Hard gate at a floor conservative enough for any host.
    if let Some(infer_path) = infer_path {
        let infer_json = match std::fs::read_to_string(&infer_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench_check: cannot read {infer_path}: {e}");
                return ExitCode::from(2);
            }
        };
        // Matrix cells are the objects carrying a requests_per_s field;
        // split_inference rows share the "codec" key but have none.
        let mut cells = 0usize;
        let mut rest = infer_json.as_str();
        while let Some(pos) = rest.find("\"codec\": \"") {
            let obj = &rest[pos..];
            let next = obj[1..]
                .find("\"codec\": \"")
                .map(|p| p + 1)
                .unwrap_or(obj.len());
            let obj = &obj[..next];
            if let Some(rps) = num_field(obj, "requests_per_s") {
                cells += 1;
                let codec = str_field(obj, "codec").unwrap_or_default();
                let batch = num_field(obj, "max_batch").unwrap_or(0.0);
                if rps >= INFER_FLOOR_RPS {
                    eprintln!(
                        "bench_check: infer {codec}/batch{batch:.0} {rps:.1} requests/s — ok"
                    );
                } else {
                    eprintln!(
                        "bench_check: infer {codec}/batch{batch:.0} {rps:.1} requests/s — \
                         below the {INFER_FLOOR_RPS} requests/s floor — FAIL"
                    );
                    failed = true;
                }
            }
            rest = &rest[pos + next..];
        }
        if cells == 0 {
            eprintln!("bench_check: {infer_path} has no matrix cells with requests_per_s");
            failed = true;
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!("bench_check: all gates passed");
        ExitCode::SUCCESS
    }
}
