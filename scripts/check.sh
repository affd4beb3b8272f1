#!/usr/bin/env bash
# Full local check: configure, build, run every test (including the
# SIES_NATIVE=scalar `_portable` twins), example, and bench, plus the
# repo benchmark's equivalence check (bench_e2e/run.py --check).
# Usage: scripts/check.sh [--skip-bench] [--sanitize] [--tsan] [--tidy]
#                         [--lint] [--telemetry-smoke] [--bench-smoke]
#                         [--ops-smoke] [--predicate-smoke] [--fuzz]
#                         [--coverage]
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
#   --telemetry-smoke  ONLY run the telemetry smoke (sies_sim with
#                      --metrics-out/--trace-out/--audit-out on a tiny
#                      topology, outputs validated with python3); the
#                      smoke also runs as part of the full check
#   --ops-smoke        ONLY run the live ops-plane smoke (sies_sim
#                      --queries with --ops-port=0 on a paced
#                      single-threaded run; every admin endpoint scraped
#                      mid-run and validated: 200s, parseable bodies,
#                      critical path <= wall, and the phase probes
#                      explaining >= 90% of the best epoch's wall); the
#                      smoke also runs as part of the full check
#   --predicate-smoke  ONLY run the predicate-compiler smoke (sies_sim
#                      with a band-query mix across a loss-rate x
#                      adversary matrix — per-query channel counts
#                      bounded by 2*ceil(log2 D), dedup accounting —
#                      plus the --histogram / --group-by demos and the
#                      grammar's inverted/strict-bound rejections) plus
#                      the `predicate`-labeled ctest subset; the smoke
#                      also runs as part of the full check
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
TELEMETRY_ONLY=0
BENCH_SMOKE_ONLY=0
OPS_ONLY=0
PREDICATE_ONLY=0
FUZZ_ONLY=0
COVERAGE_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --skip-bench) SKIP_BENCH=1 ;;
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN_ONLY=1 ;;
    --tidy) TIDY_ONLY=1 ;;
    --lint) LINT_ONLY=1 ;;
    --telemetry-smoke) TELEMETRY_ONLY=1 ;;
    --bench-smoke) BENCH_SMOKE_ONLY=1 ;;
    --ops-smoke) OPS_ONLY=1 ;;
    --predicate-smoke) PREDICATE_ONLY=1 ;;
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

# Runs sies_sim on a tiny 2-level/8-source topology under a tampering
# adversary with all three telemetry exports, then validates that the
# metrics/trace/audit files parse and contain what the run implies.
telemetry_smoke() {
  local build="$1" dir
  dir="$(mktemp -d)"
  echo "== telemetry smoke =="
  "./$build/examples/sies_sim" --scheme=sies --sources=8 --fanout=2 \
      --epochs=3 --threads=2 --adversary=tamper \
      --metrics-out="$dir/metrics.json" --trace-out="$dir/trace.json" \
      --audit-out="$dir/audit.json" > /dev/null
  python3 - "$dir" <<'PYEOF'
import json, sys
d = sys.argv[1]
m = json.load(open(d + "/metrics.json"))
hists = {(h["name"], h["labels"].get("phase")): h for h in m["histograms"]}
for phase in ("source_init", "merge", "evaluate"):
    assert hists[("sies_phase_seconds", phase)]["count"] > 0, phase
t = json.load(open(d + "/trace.json"))
names = {e["name"] for e in t["traceEvents"]}
assert {"source-init", "merge", "evaluate", "epoch"} <= names, names
assert len({e["tid"] for e in t["traceEvents"]}) > 1, "expected >1 thread"
a = json.load(open(d + "/audit.json"))
kinds = [e["kind"] for e in a["events"]]
assert kinds.count("tamper") > 0, "no tamper events recorded"
assert kinds.count("verification_failure") == 3, kinds
print(f"telemetry smoke OK: {len(m['counters'])} counters, "
      f"{len(t['traceEvents'])} spans, {len(a['events'])} audit events")
PYEOF
  rm -rf "$dir"
}

# Compiled range queries end-to-end: a band-query mix across a
# loss-rate x adversary matrix (per-query CSV channel counts bounded by
# 2*ceil(log2 D), dyadic-node dedup strictly beating the naive layout),
# the --histogram and --group-by demos with every cell verified, and
# the grammar's distinct inverted/strict-bound rejections.
predicate_smoke() {
  local build="$1" dir rc loss adversary bad
  dir="$(mktemp -d)"
  echo "== predicate smoke (band mix x loss x adversary matrix) =="
  cat > "$dir/bands.txt" <<'EOF'
count temperature where 20 <= temperature <= 30
count temperature where 20 <= temperature <= 35
avg humidity between 35 and 55
sum temperature
EOF
  for loss in 0 0.3; do
    for adversary in none tamper; do
      rc=0
      "./$build/examples/sies_sim" --queries-file="$dir/bands.txt" \
          --sources=16 --fanout=4 --epochs=8 --seed=5 \
          --loss-rate="$loss" --max-retries=2 --adversary="$adversary" \
          --csv > "$dir/$loss-$adversary.csv" || rc=$?
      if [[ $rc -ne 0 ]]; then
        echo "sies_sim band mix --loss-rate=$loss --adversary=$adversary" \
             "exited $rc" >&2
        exit 1
      fi
    done
  done
  "./$build/examples/sies_sim" --histogram=temperature:20:30:8 \
      --sources=32 --epochs=6 --seed=5 > "$dir/histogram.txt"
  "./$build/examples/sies_sim" --group-by=avg:temperature:humidity:30:60:4 \
      --sources=32 --epochs=6 --seed=5 > "$dir/groupby.txt"
  # The grammar's rejections must fail loudly, not run a wrong query.
  for bad in "sum temperature where 30 <= temperature <= 20" \
             "sum temperature where 20 < temperature <= 30"; do
    echo "$bad" > "$dir/bad.txt"
    if "./$build/examples/sies_sim" --queries-file="$dir/bad.txt" \
        --sources=16 --epochs=1 > /dev/null 2>&1; then
      echo "malformed band must be rejected: $bad" >&2
      exit 1
    fi
  done
  python3 - "$dir" <<'PYEOF'
import csv, math, sys
d = sys.argv[1]
# Scaled (10^-2) domain sizes of the three band queries, and how many
# channel kinds each aggregate reads (AVG = SUM + COUNT).
bands = {0: (1001, 1), 1: (1501, 1), 2: (2001, 2)}
for loss in ("0", "0.3"):
    for adversary in ("none", "tamper"):
        with open(f"{d}/{loss}-{adversary}.csv") as f:
            rows = list(csv.DictReader(f))
        label = f"loss={loss} adversary={adversary}"
        assert len(rows) == 4, label
        ch = int(rows[0]["channel_epochs"])
        naive = int(rows[0]["naive_channel_epochs"])
        # The overlapping [20,30]/[20,35] COUNT bands share dyadic
        # prefix nodes: the engine MUST beat per-query compilation.
        assert ch < naive, (label, ch, naive)
        for row in rows:
            qid = int(row["query_id"])
            channels = int(row["channels"])
            if qid in bands:
                domain, kinds = bands[qid]
                cap = kinds * 2 * math.ceil(math.log2(domain))
                assert 0 < channels <= cap, (label, qid, channels, cap)
            else:
                assert channels == 1, (label, qid)  # plain SUM
            if adversary == "none":
                assert int(row["query_unverified"]) == 0, label
            if loss == "0" and adversary == "none":
                assert float(row["query_coverage"]) == 1.0, label
hist = open(f"{d}/histogram.txt").read()
assert "all cells verified" in hist and "quantiles" in hist, "histogram"
assert "BAD" not in hist, "histogram has unverified cells"
gb = open(f"{d}/groupby.txt").read()
assert "all cells verified" in gb and "BAD" not in gb, "group-by"
print("predicate smoke OK: 4 matrix cells + histogram/GROUP-BY demos "
      "validated")
PYEOF
  rm -rf "$dir"
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

# Boots sies_sim's live ops plane on an ephemeral port and scrapes every
# admin endpoint mid-run. The run is paced (--epoch-ms) and
# single-threaded so wall time is meaningful: beyond the 200/parse
# checks, the epoch timeline must satisfy critical <= wall on every
# record and the phase probes must explain >= 90% of the wall on the
# best-attributed epoch.
ops_smoke() {
  local build="$1" dir port sim_pid
  dir="$(mktemp -d)"
  echo "== ops smoke (live admin server scrape) =="
  "./$build/examples/sies_sim" --queries=4 --sources=64 --epochs=40 \
      --threads=1 --epoch-ms=50 --seed=5 --ops-port=0 \
      > "$dir/stdout" 2> "$dir/stderr" &
  sim_pid=$!
  # The sim announces the kernel-assigned port on stderr once bound.
  port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's|^ops: serving http://127\.0\.0\.1:||p' "$dir/stderr")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "ops smoke: server never announced its port" >&2
    cat "$dir/stderr" >&2
    kill "$sim_pid" 2> /dev/null || true
    exit 1
  fi
  if ! python3 - "$port" <<'PYEOF'
import json, sys, time, urllib.error, urllib.request

port = sys.argv[1]
base = f"http://127.0.0.1:{port}"

def get(path):
    try:
        with urllib.request.urlopen(base + path, timeout=5) as r:
            return r.status, r.read().decode()
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode()

status, body = get("/healthz")
assert status == 200 and body.strip() == "ok", (status, body)

# Readiness flips once epoch 1 finishes (keys warm) and stays fresh.
for _ in range(100):
    status, body = get("/readyz")
    if status == 200:
        break
    time.sleep(0.05)
assert status == 200, (status, body)
ready = json.loads(body)
assert ready["ready"] is True, ready

status, body = get("/queries")
assert status == 200, (status, body)
queries = json.loads(body)
assert queries["count"] == 4, queries
for q in queries["queries"]:
    assert q["slots"], q

# Scrape /metrics twice: the first response must be visible as a
# counted 200 in the second (the server observes itself).
status, body = get("/metrics")
assert status == 200 and "# TYPE" in body, (status, body[:200])
status, body = get("/metrics")
assert 'ops_http_responses_total{code="200"}' in body, body[:400]

status, body = get("/nope")
assert status == 404, (status, body)

# Let a few paced epochs land, then check the timeline arithmetic.
time.sleep(0.5)
status, body = get("/epochs?last=16")
assert status == 200, (status, body)
timeline = json.loads(body)
epochs = timeline["epochs"]
assert epochs, timeline
best = 0.0
for rec in epochs:
    wall = rec["wall_seconds"]
    attributed = rec["attributed_seconds"]
    critical = rec["critical_path_seconds"]
    assert wall > 0.0, rec
    assert 0.0 < critical <= wall, rec
    assert critical <= attributed, rec
    assert rec["verified"] is True, rec
    assert rec["tampered_channels"] == 0, rec
    assert sum(p["total_seconds"] for p in rec["phases"]) > 0.0, rec
    best = max(best, attributed / wall)
assert best >= 0.9, f"best attribution {best:.3f} < 0.9 of wall"
print(f"ops smoke OK: {len(epochs)} epochs scraped, "
      f"best attribution {100.0 * best:.1f}% of wall")
PYEOF
  then
    echo "ops smoke FAILED" >&2
    kill "$sim_pid" 2> /dev/null || true
    exit 1
  fi
  if ! wait "$sim_pid"; then
    echo "ops smoke: sies_sim exited nonzero" >&2
    cat "$dir/stderr" >&2
    exit 1
  fi
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

if [[ $TELEMETRY_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target sies_sim
  telemetry_smoke "$BUILD"
  echo "TELEMETRY SMOKE PASSED"
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

if [[ $OPS_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD" --target sies_sim
  ops_smoke "$BUILD"
  echo "OPS SMOKE PASSED"
  exit 0
fi

if [[ $PREDICATE_ONLY -eq 1 ]]; then
  configure "$BUILD" "${EXTRA[@]}"
  cmake --build "$BUILD"
  ctest --test-dir "$BUILD" -L predicate --output-on-failure
  predicate_smoke "$BUILD"
  echo "PREDICATE SMOKE PASSED"
  exit 0
fi

configure "$BUILD" "${EXTRA[@]}"
cmake --build "$BUILD"
ctest --test-dir "$BUILD" -j"$(nproc)" --output-on-failure

echo "== examples =="
for e in quickstart factory_monitoring battlefield_audit scheme_comparison \
         outsourced_aggregation climate_dashboard mixed_aggregates; do
  echo "-- $e"
  "./$BUILD/examples/$e" > /dev/null
done
"./$BUILD/examples/keygen" --sources=4 --out="$(mktemp -u)" > /dev/null
"./$BUILD/examples/sies_sim" --scheme=sies --sources=64 --epochs=2 > /dev/null
"./$BUILD/examples/sies_sim" --scheme=sies --sources=64 --epochs=2 \
    --threads=1 > /dev/null

# The repo benchmark's own equivalence check (bench_e2e/README.md):
# benchmark == runner outcomes, UDP == simulator, traced == untraced, every
# BENCHMARK.json metric emitted. It builds its own tree (.bench_build/)
# from src/, and nothing else reruns it after src/ changes.
echo "== bench_e2e check =="
python3 bench_e2e/run.py --check

telemetry_smoke "$BUILD"
ops_smoke "$BUILD"
predicate_smoke "$BUILD"

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
