#!/usr/bin/env bash
# Alternating A/B pairs of the ledger benchmark, judged by `ledger --agree`.
#
#   scripts/pairs.sh A B [N [workload...]]
#
# A and B are two checkouts of this repository (a `git archive` or
# `git clone` of each commit; pass the same directory twice for an A/A).
# Each tree's ledger is built in its own target directory under
# target/pairs/, so neither build reuses the other's artifacts.  Then, for
# every pair i = 1..N (default 11) and every workload (default: all four in
# BENCHMARK.json), the two ledgers run one seeded 20 s run each, seed i,
# A first on odd pairs and B first on even ones, appending to
# target/pairs/a.log and target/pairs/b.log.  Around each run the host's
# steal share (steal ticks over all ticks in /proc/stat) is written to
# target/pairs/steal.tsv.  Last, `ledger --agree a.log b.log` prints one
# row per workload and end-to-end metric against BENCHMARK.json's bounds.
# The script fails if a row disagrees or a run failed its output check.
# With A = B the table is the noise floor of this host at this time.
#
# Numbers from different sessions are not comparable: only pairs run
# back to back on one host count.

set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 A B [N [workload...]]" >&2
  exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
tree_a=$(cd "$1" && pwd)
tree_b=$(cd "$2" && pwd)
pairs=${3:-11}
shift $(($# < 3 ? $# : 3))
if [ $# -gt 0 ]; then
  workloads=("$@")
else
  workloads=(train_resnet_jact train_vgg_raw infer_vgg_jact serve_offload)
fi

out="$repo/target/pairs"
mkdir -p "$out"
rm -f "$out/a.log" "$out/b.log"
printf 'pair\tworkload\ttree\tsteal_share\n' > "$out/steal.tsv"

export CARGO_NET_OFFLINE=true
build() { # tree label -> path of the built ledger binary
  local target="$out/target-$2"
  CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$1/ledger/Cargo.toml" >&2
  echo "$target/release/ledger"
}
echo "pairs: building A ($tree_a) and B ($tree_b)" >&2
ledger_a=$(build "$tree_a" a)
ledger_b=$(build "$tree_b" b)

# Prints "steal total" summed over all CPUs from /proc/stat's cpu line.
ticks() {
  awk '/^cpu / { t = 0; for (i = 2; i <= 9; i++) t += $i; print $9, t; exit }' /proc/stat
}

run() { # label pair workload
  local tree ledger
  if [ "$1" = a ]; then tree=$tree_a ledger=$ledger_a; else tree=$tree_b ledger=$ledger_b; fi
  local before after
  before=$(ticks)
  (cd "$tree" && "$ledger" --workload "$3" --seed "$2" --seconds 20 --trace 0 \
    --log "$out/$1.log" > /dev/null) || {
    echo "pairs: $1 $3 seed $2 failed its output check" >&2
    failed=1
  }
  after=$(ticks)
  awk -v p="$2" -v w="$3" -v t="$1" -v b="$before" -v a="$after" 'BEGIN {
    split(b, x, " "); split(a, y, " ");
    dt = y[2] - x[2];
    printf "%s\t%s\t%s\t%.4f\n", p, w, t, (dt > 0 ? (y[1] - x[1]) / dt : 0)
  }' >> "$out/steal.tsv"
}

failed=0
for i in $(seq 1 "$pairs"); do
  for w in "${workloads[@]}"; do
    echo "pairs: pair $i/$pairs $w" >&2
    if [ $((i % 2)) -eq 1 ]; then
      run a "$i" "$w"
      run b "$i" "$w"
    else
      run b "$i" "$w"
      run a "$i" "$w"
    fi
  done
done

awk -F'\t' 'NR > 1 { n++; s += $4; if ($4 > m) m = $4 }
  END { if (n) printf "pairs: steal share over %d runs: mean %.2f%%, max %.2f%%\n", n, 100 * s / n, 100 * m }' \
  "$out/steal.tsv"
"$ledger_a" --agree "$out/a.log" "$out/b.log"
exit "$failed"
