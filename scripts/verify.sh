#!/usr/bin/env bash
# Tier-1 verification gate, run fully offline.
#
# The workspace follows a hermetic-build policy (README "Hermetic build"):
# zero registry/git dependencies, so a clean checkout with an empty cargo
# registry cache must build and test without network access.  This script
# is the command CI and reviewers run; `tests/hermetic.rs` enforces the
# policy from inside the test suite as well.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo build --release --offline --benches (bench targets) =="
cargo build --release --offline --benches

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== ledger smoke (the benchmark's own tests: all four workloads with their output checks) =="
# The benchmark is a package outside the workspace that imports
# ops::{matmul, transpose, im2col, col2im, ConvGeom}, Conv2d::{new, forward,
# backward}, Context::new and more; a signature change must fail here, not
# in the benchmark run.  Its lock file is under the benchmark's paths and
# must come out of the build as it went in.
cargo test -q --offline --manifest-path ledger/Cargo.toml
git diff --exit-code --stat -- ledger/Cargo.lock

echo "== jact-analyze (exits non-zero on any finding, archives BENCH_analyze.json) =="
# The jact-analyze/v1 JSON report (per-code diagnostic counts, per-crate
# loc table) is archived next to the BENCH_*.json stores.  The CLI prints
# the workspace loc total first.
cargo run -q -p jact-analyze --release --offline -- --report "$PWD/BENCH_analyze.json"

echo "== fault_sweep (smoke fault rates over the offload wire path) =="
JACT_QUICK=1 cargo run -q -p jact-bench --release --offline --bin fault_sweep

echo "== codec_throughput (writes BENCH_codec.json: staged + fused stages, whole codec) =="
# Absolute path: cargo runs the bench with cwd = crates/bench, not here.
JACT_QUICK=1 JACT_BENCH_JSON="$PWD" cargo bench -q -p jact-bench --offline --bench codec_throughput

echo "== alloc_bench (counting-allocator pass, writes BENCH_alloc.json) =="
# Steady-state allocation counts for the fused tile stages, whole-codec
# round trips, and the serve/infer daemon loops; bench_check gates the
# fused/*, serve/*, and infer/* rows at exactly 0 allocations/op.
JACT_QUICK=1 JACT_BENCH_JSON="$PWD" cargo run -q -p jact-bench --release --offline --bin alloc_bench

echo "== serve_infer (batching x compression matrix smoke, writes BENCH_infer.json) =="
JACT_QUICK=1 JACT_BENCH_JSON="$PWD" cargo run -q -p jact-bench --release --offline --bin serve_infer > /dev/null

echo "== bench_check (SH <= DIV cost, throughput floors, zero-alloc + infer gates) =="
cargo run -q -p jact-bench --release --offline --bin bench_check -- \
  "$PWD/BENCH_codec.json" "$PWD/BENCH_alloc.json" "$PWD/BENCH_infer.json"

echo "== profile_offload (stage-breakdown profile, writes BENCH_obs.json) =="
JACT_QUICK=1 JACT_BENCH_JSON="$PWD" cargo run -q -p jact-bench --release --offline --bin profile_offload

echo "== golden observability traces (byte-equal at 1/2/8 threads: no library call forks, so the thread count cannot reach a trace) =="
cargo test -q --offline -p jact-bench --test obs_golden

echo "== serve_load (1/8-tenant daemon smoke under seeded chaos, writes BENCH_serve.json) =="
JACT_QUICK=1 JACT_BENCH_JSON="$PWD" cargo run -q -p jact-bench --release --offline --bin serve_load

echo "verify: OK"
