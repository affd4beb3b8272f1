#!/usr/bin/env bash
# Regenerates the committed benchmark baselines in bench/baselines/.
#
# Every JSON-emitting bench binary is run with pinned flags (fixed seeds
# are compiled in; thread sweeps are pinned here) so successive runs on
# the same machine are comparable and later PRs can diff the numbers.
# Timings are machine-dependent — a baseline is a reference point for
# the machine that produced it, not a portable truth; the config block
# of each JSON records the dispatch kernel (sha_ni/scalar) and thread
# count that produced it (see docs/PERFORMANCE.md).
#
# Usage: scripts/bench.sh [--smoke] [--out DIR]
#   --smoke   run the tiny grids (JSON plumbing only; for CI and the
#             check.sh --bench-smoke gate, NOT for committed baselines)
#   --out DIR write BENCH_*.json to DIR (default: bench/baselines)
set -euo pipefail
cd "$(dirname "$0")/.."

SMOKE=0
OUT="bench/baselines"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1; shift ;;
    --out) OUT="$2"; shift 2 ;;
    *) echo "unknown flag: $1" >&2; exit 2 ;;
  esac
done

# The JSON-emitting benches that feed the perf trajectory. batched_crypto
# sweeps --threads itself (pinned to 1,2,4 so the scaling rows are
# stable across regenerations).
BENCHES=(micro_crypto fig6a_querier_vs_n telemetry_overhead
         engine_multiquery batched_crypto predicate_ranges)

cmake -B build > /dev/null
cmake --build build -j"$(nproc)" --target "${BENCHES[@]}"

mkdir -p "$OUT"
RUN_DIR="$(mktemp -d)"
trap 'rm -rf "$RUN_DIR"' EXIT

for b in "${BENCHES[@]}"; do
  args=()
  [[ $SMOKE -eq 1 ]] && args+=(--smoke)
  [[ $b == batched_crypto ]] && args+=(--threads=1,2,4)
  echo "== $b ${args[*]:-} =="
  (cd "$RUN_DIR" && "$OLDPWD/build/bench/$b" "${args[@]}")
done

for j in "$RUN_DIR"/BENCH_*.json; do
  python3 -m json.tool "$j" > /dev/null  # refuse to commit broken JSON
  cp "$j" "$OUT/"
  echo "baseline: $OUT/$(basename "$j")"
done
