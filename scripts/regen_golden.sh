#!/usr/bin/env bash
# Regenerates the golden observability traces in tests/golden/.
#
# This script is the ONLY sanctioned way to update the corpus: the traces
# are pinned byte-for-byte by tests/obs_golden.rs, so a diff in any
# regenerated file is an intentional pipeline change that must be reviewed
# together with the code that caused it. Never hand-edit the JSON.
#
# The generator records with wall-clock capture disabled, and no library
# call forks, so every event comes from the calling thread in program
# order: the output is identical on any machine and at any JACT_THREADS.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

cargo run -q -p jact-bench --release --offline --bin gen_golden_traces

# The pool.* counters are wall-gated (emitted only when wall-clock capture
# is on), so they must never appear in the deterministic golden corpus —
# but they must stay registered in the schema for JA13 and the wall path.
for name in pool.acquire pool.recycle pool.miss pool.high_water_bytes; do
  if ! grep -qx "$name" crates/obs/obs_schema.txt; then
    echo "regen_golden: FAIL — $name missing from crates/obs/obs_schema.txt" >&2
    exit 1
  fi
  if grep -rql "$name" tests/golden/; then
    echo "regen_golden: FAIL — wall-gated $name leaked into tests/golden/" >&2
    exit 1
  fi
done

echo "regen_golden: tests/golden/ refreshed; review the diff before committing"
