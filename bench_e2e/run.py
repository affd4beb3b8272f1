#!/usr/bin/env python3
"""Harness of the epoch_e2e benchmark (see README.md next to this file).

Builds bench_e2e/ into .bench_build/ at the repository root, then runs
every workload as its own process, so that peak RSS is per workload.

  run.py --workload W --seed N --seconds S --trace 0|1
      one run; prints one `workload metric value unit` line per metric of
      BENCHMARK.json (end_to_end for --trace 0, per_layer for --trace 1)
      and, last, one JSON object {correct, attempted, failed, metrics}
  run.py [--seed N] [--seconds S] [--traced] [--sets K]
      every workload of BENCHMARK.json (untraced, plus traced with
      --traced); K sets alternate the workload order and use seeds
      N..N+K-1; prints each metric's median and quartiles across sets and
      flags any end-to-end metric whose sets differ by more than its
      bound; writes BENCH_epoch_e2e.json (schema 2) to the current
      directory
  run.py --check [--binary PATH]
      the bench_e2e_check test: the binary's equivalence checks, then a
      smoke run of every workload that must emit every metric of
      BENCHMARK.json with its unit
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BENCHMARK = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def build():
    """Configures (once) and builds epoch_e2e; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise BenchError("the repository's src/ is missing; nothing to build")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "epoch_e2e", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD / "epoch_e2e"


def run_binary(binary, args):
    """Runs epoch_e2e once; returns its result object (last stdout line)."""
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise BenchError(f"epoch_e2e {' '.join(args)} printed no result "
                         f"(exit {proc.returncode})")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def workload_run(binary, workload, seed, seconds, traced, extra=()):
    args = [f"--workload={workload}", f"--seed={seed}",
            f"--seconds={seconds}"] + list(extra)
    if traced:
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--traced", f"--trace-out={traces / (workload + '.trace.json')}"]
    return run_binary(binary, args)


def select(result, specs):
    """The metrics named in `specs`; raises when one is missing."""
    out = {}
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None or metric["value"] is None:
            raise BenchError(f"{result['workload']}: metric {spec['name']} missing")
        if metric["unit"] != spec["unit"]:
            raise BenchError(f"{result['workload']}: {spec['name']} has unit "
                             f"{metric['unit']}, BENCHMARK.json says {spec['unit']}")
        out[spec["name"]] = metric
    return out


def print_lines(workload, metrics, samples=None):
    for name, m in metrics.items():
        note = f"  (n={samples})" if samples and name.startswith("epoch_ms") else ""
        print(f"{workload} {name} {m['value']!r} {m['unit']}{note}")


def single_run_mode(args, bench):
    binary = build()
    traced = args.trace == 1
    specs = bench["per_layer"] if traced else bench["end_to_end"]
    result = workload_run(binary, args.workload, args.seed, args.seconds, traced)
    metrics = select(result, specs)
    print_lines(args.workload, metrics, result["config"]["timed_epochs"])
    if result.get("first_failure"):
        print(f"first wrong answer: {result['first_failure']}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if result["correct"] and result["exit_code"] == 0 else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def human_mode(args, bench):
    binary = build()
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    # values[(workload, metric)] -> one value per set
    values, configs, ok = {}, {}, True
    for s in range(args.sets):
        seed = args.seed + s
        order = workloads if s % 2 == 0 else list(reversed(workloads))
        for w in order:
            modes = [False, True] if args.traced else [False]
            for traced in modes:
                result = workload_run(binary, w, seed, args.seconds, traced)
                specs = bench["per_layer"] if traced else bench["end_to_end"]
                metrics = select(result, specs)
                print_lines(w, metrics, result["config"]["timed_epochs"])
                sys.stdout.flush()
                ok = ok and result["correct"] and result["exit_code"] == 0
                if not result["correct"]:
                    print(f"{w}: {result['failed']} of {result['attempted']} "
                          f"answers wrong: {result.get('first_failure')}")
                configs.setdefault(w, result["config"])
                for name, m in metrics.items():
                    values.setdefault((w, name), []).append(m["value"])
                if traced and metrics["trace.reconcile_dev_pct"]["value"] > 5.0:
                    print(f"{w}: bench-side party busy differs from EpochReport "
                          f"by {metrics['trace.reconcile_dev_pct']['value']:.2f}%")

    rows = []
    if args.sets > 1:
        print(f"\n{'workload':<14} {'metric':<34} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'iqr/med':>8} {'range/med':>9}")
    for w in workloads:
        row = {"workload": w}
        row.update({k: v for k, v in configs[w].items()
                    if k in ("num_sources", "transport")})
        for (vw, name), vals in values.items():
            if vw != w:
                continue
            median = statistics.median(vals)
            row[name] = median
            if args.sets < 2:
                continue
            q1, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(median) if median else 0.0
            diff = (max(vals) - min(vals)) / abs(median) if median else 0.0
            # Few sets: their range must stay within the bound. Four or
            # more: their inter-quartile spread, the rule a gate applies.
            flag = ""
            if name in bounds and (spread if args.sets >= 4 else diff) > bounds[name]:
                flag = f"  > bound {bounds[name]}"
                if name != "setup_s":
                    ok = False
            print(f"{w:<14} {name:<34} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {diff:>9.4f}{flag}")
        rows.append(row)
    first = next(iter(configs.values()))
    report = {
        "bench": "epoch_e2e",
        "schema": 2,
        "config": {"seed": args.seed, "sets": args.sets, "seconds": args.seconds,
                   "traced": args.traced, "nproc": first["nproc"],
                   "kernel": first["kernel"], "key_seed": first["key_seed"],
                   "loss_seed": first["loss_seed"]},
        "rows": rows,
    }
    with open("BENCH_epoch_e2e.json", "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    return 0 if ok else 1


def check_mode(args, bench):
    binary = Path(args.binary) if args.binary else build()
    proc = subprocess.run([str(binary), "--check"], stdout=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    print(proc.stdout, end="")
    failures = 0 if proc.returncode == 0 else 1
    for spec in bench["workloads"]:
        for traced, specs in ((False, bench["end_to_end"]),
                              (True, bench["per_layer"])):
            label = f"{spec['name']} ({'traced' if traced else 'untraced'})"
            try:
                result = workload_run(binary, spec["name"], 1, 1, traced,
                                      ["--smoke", "--epochs=12"])
                metrics = select(result, specs)
                good = result["correct"] and result["exit_code"] == 0 and all(
                    math.isfinite(m["value"]) for m in metrics.values())
                print(f"{'PASS' if good else 'FAIL'} {label}: "
                      f"{len(metrics)} metrics emitted, answers correct")
                failures += 0 if good else 1
            except (BenchError, ValueError, subprocess.SubprocessError) as e:
                print(f"FAIL {label}: {e}")
                failures += 1
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--binary", help="prebuilt epoch_e2e (skips the build)")
    args = parser.parse_args()
    try:
        bench = load_benchmark()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.check:
            return check_mode(args, bench)
        if args.workload:
            return single_run_mode(args, bench)
        return human_mode(args, bench)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
