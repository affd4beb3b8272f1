#!/usr/bin/env python3
"""Parser-coverage gate (driven by scripts/coverage.sh).

Reads per-line execution counts for the untrusted-input parser TUs out
of ``gcov --json-format`` and fails when any TU's line coverage drops
below its committed floor in fuzz/coverage_floors.tsv.

The floors are a ratchet, not a target: they were measured from the
committed fuzz corpora + parser unit tests and set a few points below
the observed value, so routine churn passes but deleting corpus seeds,
disconnecting a harness, or landing a swath of never-exercised parser
branches fails loudly. When coverage genuinely improves, raise the
floor in the same commit.

Usage (normally via scripts/coverage.sh):
    coverage_gate.py --build BUILD_DIR [--report-only]
    coverage_gate.py --list-targets      # build targets the gate needs
    coverage_gate.py --list-tests        # extra ctest names to run
"""
import argparse
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLOORS_TSV = os.path.join(REPO_ROOT, "fuzz", "coverage_floors.tsv")

# Build targets whose execution produces the .gcda files the gate reads.
TARGETS = [
    "fuzz_wire_envelope_replay",
    "fuzz_datagram_replay",
    "fuzz_query_spec_replay",
    "fuzz_http_request_replay",
    "fuzz_flags_replay",
    "fuzz_hex_replay",
    "sies_message_format_test",
    "sies_contributor_set_test",
    "engine_query_spec_test",
    "ops_http_server_test",
    "fuzz_robustness_test",
]

# Unit tests run in addition to the fuzz-label replay tests. These cover
# the happy paths the corpora alone may miss (e.g. live-socket handling
# around the request parser).
EXTRA_TESTS = [
    "sies_message_format_test",
    "sies_contributor_set_test",
    "engine_query_spec_test",
    "ops_http_server_test",
    "fuzz_robustness_test",
]


def load_floors():
    floors = {}
    with open(FLOORS_TSV, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            source, floor = line.split("\t")
            floors[source] = float(floor)
    return floors


def find_gcda(build_dir, source):
    """Locates the .gcda for a repo-relative source file, e.g.
    src/sies/message_format.cc ->
    BUILD/src/CMakeFiles/sies_core.dir/sies/message_format.cc.gcda."""
    needle = os.path.basename(source) + ".gcda"
    rel_tail = os.path.relpath(source, "src")  # sies/message_format.cc
    hits = []
    for dirpath, _, filenames in os.walk(build_dir):
        for name in filenames:
            if name == needle:
                path = os.path.join(dirpath, name)
                if path.replace(os.sep, "/").endswith(
                        rel_tail.replace(os.sep, "/") + ".gcda"):
                    hits.append(path)
    return hits


def line_coverage(build_dir, source):
    """Returns (covered, total) executable-line counts for `source`,
    merged across every object that compiled it."""
    gcdas = find_gcda(build_dir, source)
    if not gcdas:
        return None
    covered_lines = set()
    all_lines = set()
    for gcda in gcdas:
        # gcov resolves its argument relative to cwd, so hand it the
        # basename with cwd pinned to the gcda's own directory — works
        # whether build_dir came in relative or absolute.
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout", os.path.basename(gcda)],
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.abspath(gcda)), check=False)
        if out.returncode != 0:
            continue
        for doc_line in out.stdout.splitlines():
            doc_line = doc_line.strip()
            if not doc_line.startswith("{"):
                continue
            doc = json.loads(doc_line)
            for unit in doc.get("files", []):
                if not unit.get("file", "").endswith(
                        source.replace("src/", "", 1)):
                    continue
                for line in unit.get("lines", []):
                    number = line["line_number"]
                    all_lines.add(number)
                    if line["count"] > 0:
                        covered_lines.add(number)
    if not all_lines:
        return None
    return len(covered_lines), len(all_lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", help="coverage build directory")
    parser.add_argument("--report-only", action="store_true")
    parser.add_argument("--list-targets", action="store_true")
    parser.add_argument("--list-tests", action="store_true")
    args = parser.parse_args(argv)

    if args.list_targets:
        print("\n".join(TARGETS))
        return 0
    if args.list_tests:
        print("\n".join(f"^{name}$" for name in EXTRA_TESTS))
        return 0
    if not args.build:
        parser.error("--build is required unless listing")

    floors = load_floors()
    failures = []
    print(f"{'parser TU':44} {'lines':>11} {'cov%':>7} {'floor':>7}")
    for source, floor in sorted(floors.items()):
        result = line_coverage(args.build, source)
        if result is None:
            print(f"{source:44} {'-':>11} {'-':>7} {floor:>6.1f}%")
            failures.append(f"{source}: no coverage data "
                            "(TU not built or never executed)")
            continue
        covered, total = result
        percent = 100.0 * covered / total
        marker = "" if percent >= floor else "  << BELOW FLOOR"
        print(f"{source:44} {covered:>5}/{total:<5} {percent:>6.1f}% "
              f"{floor:>6.1f}%{marker}")
        if percent < floor:
            failures.append(
                f"{source}: {percent:.1f}% < floor {floor:.1f}%")
    if failures and not args.report_only:
        print("\ncoverage gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\ncoverage gate " +
          ("report only" if args.report_only else "passed"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
