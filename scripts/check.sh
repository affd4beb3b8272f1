#!/usr/bin/env bash
# Full local check: configure, build, run every test (including the
# SIES_NATIVE=scalar `_portable` twins and the `example_*` runs of every
# example) and bench, plus the repo benchmark's equivalence check
# (bench_e2e/run.py --check).
# Usage: scripts/check.sh [--skip-bench] [--sanitize] [--tsan] [--tidy]
#                         [--lint] [--bench-smoke] [--fuzz] [--coverage]
#   --skip-bench       skip the full (slow) bench binaries; the JSON smoke
#                      pass below always runs
#   --bench-smoke      ONLY run the bench JSON smoke (tiny-N --smoke runs
#                      of the JSON-emitting benches, outputs validated
#                      with python3 and diffed against bench/baselines/
#                      by scripts/bench_compare.py — structural checks
#                      only; full bench runs get the --strict ratio
#                      gate); the smoke also runs as part of the full
#                      check
#   --sanitize         build + test under ASan/UBSan (-DSIES_SANITIZE=ON) in
#                      a separate build-sanitize/ tree; implies --skip-bench
#   --tsan             ONLY build the concurrency-sensitive test subset
#                      under ThreadSanitizer (-DSIES_TSAN=ON) in a separate
#                      build-tsan/ tree and run the race/engine/telemetry/
#                      threadpool/loss/ops ctest labels with suppressions
#                      from scripts/tsan.supp (policy: docs/DEVELOPING.md)
#   --tidy             ONLY run the static-analysis gate over src/:
#                      clang-tidy against the compile database when a
#                      clang-tidy binary exists, otherwise the strict
#                      g++ -Wshadow -Wconversion -Werror syntax-only pass
#   --lint             ONLY run the secret-hygiene linter
#                      (scripts/lint_secrets.py: self-test + full src/
#                      scan) followed by the --tidy gate; nonzero on any
#                      finding
#   --fuzz             ONLY run the fuzz smoke: the `fuzz`-labeled
#                      corpus-replay ctests (committed corpora +
#                      regressions through every harness in fuzz/)
#                      followed by a short fixed-budget scripts/fuzz.sh
#                      campaign (libFuzzer when clang exists, replay
#                      fallback otherwise); the replay ctests also run
#                      as part of the full check and under --sanitize
#   --coverage         ONLY run the parser-coverage gate
#                      (scripts/coverage.sh): line coverage of the
#                      untrusted-input parser TUs measured from the
#                      committed corpora + parser unit tests must stay
#                      at or above the floors in fuzz/coverage_floors.tsv
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_BENCH=0
SANITIZE=0
TSAN_ONLY=0
TIDY_ONLY=0
LINT_ONLY=0
BENCH_SMOKE_ONLY=0
FUZZ_ONLY=0
COVERAGE_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --skip-bench) SKIP_BENCH=1 ;;
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN_ONLY=1 ;;
    --tidy) TIDY_ONLY=1 ;;
    --lint) LINT_ONLY=1 ;;
    --bench-smoke) BENCH_SMOKE_ONLY=1 ;;
    --fuzz) FUZZ_ONLY=1 ;;
    --coverage) COVERAGE_ONLY=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

# Configures a build tree. New trees get Ninja; a tree that already has
# a cache keeps whatever generator created it (the tier-1 flow uses the
# default Makefiles generator on build/, and cmake refuses to switch
# generators in place).
configure() {
  local dir="$1"
  shift
  if [[ -f "$dir/CMakeCache.txt" ]]; then
    cmake -B "$dir" "$@"
  else
    cmake -B "$dir" -G Ninja "$@"
  fi
}

# Static-analysis gate over src/. Prefers clang-tidy (any versioned
# binary) with the tuned .clang-tidy config against the build tree's
# compile database; containers without LLVM fall back to an equally
# blocking strict-warning pass (g++ -Wshadow -Wconversion -Werror,
# syntax-only so it is fast and build-tree independent). The tree is
# kept clean under BOTH gates.
tidy_gate() {
  local tidy=""
  for candidate in clang-tidy clang-tidy-{21,20,19,18,17,16,15,14}; do
    if command -v "$candidate" > /dev/null 2>&1; then
      tidy="$candidate"
      break
    fi
  done
  mapfile -t sources < <(find src -name '*.cc' | sort)
  if [[ -n "$tidy" ]]; then
    echo "== clang-tidy gate ($tidy, ${#sources[@]} files) =="
    configure build > /dev/null
    "$tidy" -p build --quiet --warnings-as-errors='*' "${sources[@]}"
  else
    echo "== tidy gate: clang-tidy not installed; strict g++ fallback" \
         "(${#sources[@]} files) =="
    local failed=0
    for f in "${sources[@]}"; do
      g++ -std=c++20 -Isrc -fsyntax-only \
          -Wall -Wextra -Wshadow -Wconversion -Werror "$f" || failed=1
    done
    if [[ $failed -ne 0 ]]; then
      echo "tidy gate FAILED" >&2
      return 1
    fi
  fi
  echo "tidy gate OK"
}

# Tiny-N (--smoke) runs of every JSON-emitting bench, outputs validated
# as parseable JSON and diffed against the committed baselines by the
# regression gate (structural mode: schema, metric presence, boolean
# invariants — smoke timings are too noisy for value comparison). The
# smoke catches broken bench plumbing in seconds; the committed
# baselines are regenerated by scripts/bench.sh instead.
bench_smoke() {
  local build="$1" dir b j
  dir="$(mktemp -d)"
  echo "== bench smoke (JSON output) =="
  for b in micro_crypto fig6a_querier_vs_n telemetry_overhead \
           engine_multiquery batched_crypto transport_pipeline \
           predicate_ranges; do
    echo "-- $b --smoke"
    (cd "$dir" && "$OLDPWD/$build/bench/$b" --smoke > /dev/null)
  done
  for j in "$dir"/BENCH_*.json; do
    echo "-- validating $(basename "$j")"
    python3 -m json.tool "$j" > /dev/null
  done
  echo "-- bench_compare (structural) vs bench/baselines"
  python3 scripts/bench_compare.py "$dir" > /dev/null
  rm -rf "$dir"
}

BUILD=build
EXTRA=()
if [[ $SANITIZE -eq 1 ]]; then
  # Sanitized objects live in their own tree so the fast build stays warm.
  BUILD=build-sanitize
  EXTRA+=(-DSIES_SANITIZE=ON)
fi

if [[ $TIDY_ONLY -eq 1 ]]; then
  tidy_gate
  echo "TIDY GATE PASSED"
  exit 0
fi

if [[ $LINT_ONLY -eq 1 ]]; then
  echo "== secret-hygiene linter =="
  python3 scripts/lint_secrets.py --self-test
  # No path args: the linter's default roots (src/, bench/, examples/).
  python3 scripts/lint_secrets.py
  tidy_gate
  echo "LINT GATE PASSED"
  exit 0
fi

if [[ $FUZZ_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target fuzz_wire_envelope_replay \
      fuzz_datagram_replay fuzz_query_spec_replay fuzz_http_request_replay \
      fuzz_flags_replay fuzz_hex_replay
  echo "== fuzz smoke: corpus-replay ctests =="
  ctest --test-dir "$BUILD" -L fuzz --output-on-failure
  echo "== fuzz smoke: short campaign (fixed 10s budget) =="
  scripts/fuzz.sh --time 10
  echo "FUZZ SMOKE PASSED"
  exit 0
fi

if [[ $COVERAGE_ONLY -eq 1 ]]; then
  scripts/coverage.sh
  echo "COVERAGE GATE PASSED"
  exit 0
fi

if [[ $TSAN_ONLY -eq 1 ]]; then
  # TSan objects live in their own tree; only the concurrency-sensitive
  # test subset is built (the full suite under TSan is needlessly slow).
  # The build list is whatever the selected labels run: ctest -N names
  # the tests, and each test's binary is the one its generated add_test
  # line starts (ctest leaves commands out of its JSON until the binary
  # exists). So a `_portable` twin maps to its base test and
  # example_sies_sim_engine to sies_sim, and a test that joins one of
  # the labels is built without editing this script.
  BUILD=build-tsan
  TSAN_LABELS='race|engine|telemetry|threadpool|loss|ops|net|predicate|fuzz'
  configure "$BUILD" -DSIES_TSAN=ON
  # A command substitution, not a process substitution, so that a test
  # with no add_test line fails the script (set -e, pipefail).
  tsan_targets=$(
    ctest --test-dir "$BUILD" -N -L "$TSAN_LABELS" --show-only=json-v1 |
      python3 -c 'import json, pathlib, re, sys
binary = {}
for testfile in pathlib.Path(sys.argv[1]).rglob("CTestTestfile.cmake"):
    for name, command in re.findall(
            r"^add_test\((?:\[=\[)?([^\s\]]+)(?:\]=\])? \"([^\"]+)\"",
            testfile.read_text(), re.M):
        binary[name] = pathlib.Path(command).name
for test in json.load(sys.stdin)["tests"]:
    print(binary[test["name"]])' "$BUILD" | sort -u)
  if [[ -z $tsan_targets ]]; then
    echo "no tests carry the labels $TSAN_LABELS" >&2
    exit 1
  fi
  # shellcheck disable=SC2086  # one target name per word
  cmake --build "$BUILD" --target $tsan_targets
  echo "== TSan run (labels: $TSAN_LABELS) =="
  TSAN_OPTIONS="suppressions=$PWD/scripts/tsan.supp halt_on_error=1 second_deadlock_stack=1" \
      ctest --test-dir "$BUILD" -L "$TSAN_LABELS" --output-on-failure
  echo "TSAN CHECKS PASSED"
  exit 0
fi

if [[ $BENCH_SMOKE_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target micro_crypto fig6a_querier_vs_n \
      telemetry_overhead engine_multiquery batched_crypto \
      transport_pipeline predicate_ranges
  bench_smoke "$BUILD"
  echo "BENCH SMOKE PASSED"
  exit 0
fi

configure "$BUILD" "${EXTRA[@]}"
cmake --build "$BUILD"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

# The repo benchmark's own equivalence check (bench_e2e/README.md):
# benchmark == runner outcomes, UDP == simulator, traced == untraced, every
# BENCHMARK.json metric emitted. It builds its own tree (.bench_build/)
# from src/, and nothing else reruns it after src/ changes.
echo "== bench_e2e check =="
python3 bench_e2e/run.py --check

bench_smoke "$BUILD"

# Parser-coverage gate: the committed corpora must keep exercising the
# untrusted-input TUs (floors in fuzz/coverage_floors.tsv). Skipped in
# the sanitized pass — the gate owns its own instrumented tree.
if [[ $SANITIZE -eq 0 ]]; then
  scripts/coverage.sh
fi

if [[ $SKIP_BENCH -eq 0 && $SANITIZE -eq 0 ]]; then
  echo "== benches =="
  RUN_DIR="$(mktemp -d)"
  trap 'rm -rf "$RUN_DIR"' EXIT
  for b in "$BUILD"/bench/*; do
    echo "-- $b"
    (cd "$RUN_DIR" && "$OLDPWD/$b" > /dev/null)
  done
  echo "== bench_compare (--strict) vs bench/baselines =="
  python3 scripts/bench_compare.py --strict "$RUN_DIR" > /dev/null
fi
echo "ALL CHECKS PASSED"
