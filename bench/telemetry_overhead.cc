// Telemetry overhead guard: the instrumentation added to the SIES hot
// path must be invisible when nobody is reading it.
//
// Two measurements over the fig6a warm-querier hot path (N sources,
// cached epoch keys — the cheapest, most probe-sensitive evaluation in
// the repo):
//
//   1. Per-evaluation probe cost: the exact disabled-telemetry probe
//      sequence one warm evaluation executes (counter increments, cache
//      stat atomics, the tracer enabled-check that gates RunEpoch's
//      `evaluate` span, the audit and epoch-timeline enabled-checks),
//      timed tightly. The guard asserts that sequence costs < 2% of the
//      warm evaluation itself.
//   2. End-to-end A/B: warm evaluations with tracer+audit disabled vs
//      enabled, reported for context. The querier itself records no
//      span (its caller's one stopwatch feeds the trace), so the two
//      should read alike.
//   3. Ops-plane guard: the same warm evaluations with an idle
//      AdminServer bound on loopback. A server nobody scrapes sits in
//      poll() on another thread; the guard asserts the hot path slows
//      by < 15% (a loose bound — the real cost is ~0, but containers
//      share cores). The not-started case costs exactly one relaxed
//      atomic load (the EpochTimeline enabled check, folded into the
//      probe sequence of measurement 1).
//
// Exit code 1 when either guard fails, so scripts/check.sh can gate on
// it.
//
//   ./build/bench/telemetry_overhead            # full run
//   ./build/bench/telemetry_overhead --smoke    # fewer reps, same guard
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include <numeric>
#include <vector>

#include "bench_json.h"
#include "common/timer.h"
#include "ops/admin_server.h"
#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/source.h"
#include "telemetry/telemetry.h"
#include "workload/workload.h"

namespace {
constexpr uint64_t kSeed = 7;
}  // namespace

int main(int argc, char** argv) {
  using namespace sies;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // N stays at the fig6a/paper default even in smoke mode: the guard is
  // a ratio against the real hot path, and shrinking N would shrink the
  // denominator without shrinking the probes. Smoke only cuts reps.
  const uint32_t n = 1024;
  const int reps = smoke ? 30 : 500;

  telemetry::DisableAll();

  // Warm fig6a-style querier: build one honest final PSR, evaluate it
  // once to populate the epoch-key cache, then time cache-hit runs.
  workload::TraceConfig tc;
  tc.num_sources = n;
  tc.scale_pow10 = 2;
  tc.seed = kSeed;
  workload::TraceGenerator trace(tc);
  workload::EpochSnapshot snap = Snapshot(trace, 1);

  auto params = core::MakeParams(n, kSeed).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(kSeed));
  core::Aggregator agg(params);
  core::Querier querier(params, keys);
  Bytes final_psr;
  for (uint32_t i = 0; i < n; ++i) {
    core::Source src(params, i, core::KeysForSource(keys, i).value());
    Bytes psr = src.CreatePsr(snap.values[i], 1).value();
    final_psr = final_psr.empty() ? psr : agg.Merge({final_psr, psr}).value();
  }
  std::vector<uint32_t> all(n);
  std::iota(all.begin(), all.end(), 0u);

  auto evaluate_or_die = [&] {
    auto eval = querier.Evaluate(final_psr, 1, all);
    if (!eval.ok() || !eval.value().verified) {
      std::fprintf(stderr, "verification failed during overhead bench\n");
      std::exit(1);
    }
  };
  evaluate_or_die();  // populate the cache

  Stopwatch watch;
  auto time_evals = [&]() -> double {  // ns per warm evaluation, best of 3
    double best_us = 1e300;
    for (int b = 0; b < 3; ++b) {
      watch.Restart();
      for (int r = 0; r < reps; ++r) evaluate_or_die();
      if (watch.ElapsedMicros() < best_us) best_us = watch.ElapsedMicros();
    }
    return best_us * 1e3 / reps;
  };

  const double eval_disabled_ns = time_evals();
  telemetry::Tracer::Global().Enable();
  telemetry::AuditTrail::Global().Enable();
  const double eval_enabled_ns = time_evals();
  telemetry::DisableAll();
  telemetry::Tracer::Global().Reset();  // drop the recorded spans

  // Tight loop over the exact disabled-telemetry probe sequence one warm
  // evaluation executes: the evaluations counter, the two epoch-key-cache
  // hit counters plus their local stat atomics, one tracer enabled-check
  // (the gate of RunEpoch's `evaluate` span, which reuses the querier
  // call's stopwatch), one audit enabled-check (the network layer's
  // gate), and one epoch-timeline enabled-check (the engine's per-phase
  // attribution gate — what an evaluation pays when no ops plane was
  // ever started).
  telemetry::Counter* evals =
      telemetry::MetricsRegistry::Global().GetCounter(
          "telemetry_overhead_bench_evals");
  telemetry::Counter* hits_a =
      telemetry::MetricsRegistry::Global().GetCounter(
          "telemetry_overhead_bench_hits", {{"table", "global"}});
  telemetry::Counter* hits_b =
      telemetry::MetricsRegistry::Global().GetCounter(
          "telemetry_overhead_bench_hits", {{"table", "sources"}});
  std::atomic<uint64_t> stat_a{0}, stat_b{0};
  const int probe_iters = smoke ? 100000 : 1000000;
  double probe_best_us = 1e300;
  for (int b = 0; b < 3; ++b) {
    watch.Restart();
    for (int i = 0; i < probe_iters; ++i) {
      evals->Increment();
      if (telemetry::Tracer::Global().enabled()) std::abort();
      hits_a->Increment();
      stat_a.fetch_add(1, std::memory_order_relaxed);
      hits_b->Increment();
      stat_b.fetch_add(1, std::memory_order_relaxed);
      if (telemetry::AuditTrail::Global().enabled()) std::abort();
      if (telemetry::EpochTimeline::Global().enabled()) std::abort();
    }
    if (watch.ElapsedMicros() < probe_best_us) {
      probe_best_us = watch.ElapsedMicros();
    }
  }
  const double probe_ns = probe_best_us * 1e3 / probe_iters;

  const double overhead_pct = 100.0 * probe_ns / eval_disabled_ns;
  const bool guard_met = overhead_pct < 2.0;

  // Ops-plane A/B: the same warm evaluations with an idle AdminServer
  // bound on loopback (never scraped). Its thread sits in poll(), so
  // the hot path should not notice it. Measured pairwise like fig6a's
  // wire overhead: each round times a server-less batch and an
  // idle-server batch back to back, so both sides of a ratio see the
  // same host contention, and the overhead is the median of per-round
  // ratios — robust even when the whole machine is busy. 15% slack
  // absorbs what little scheduler noise survives that.
  const int ops_rounds = smoke ? 8 : 24;
  const int ops_batch = 10;
  std::vector<double> ops_ratios;
  std::vector<double> ops_idle_ns;
  ops_ratios.reserve(static_cast<size_t>(ops_rounds));
  ops_idle_ns.reserve(static_cast<size_t>(ops_rounds));
  auto time_batch = [&]() -> double {  // ns per evaluation, one batch
    watch.Restart();
    for (int r = 0; r < ops_batch; ++r) evaluate_or_die();
    return watch.ElapsedMicros() * 1e3 / ops_batch;
  };
  for (int round = 0; round < ops_rounds; ++round) {
    const double base_ns = time_batch();
    auto server = ops::AdminServer::Start(ops::AdminOptions{}, nullptr);
    if (!server.ok()) {
      std::fprintf(stderr, "admin server failed to start: %s\n",
                   server.status().ToString().c_str());
      return 1;
    }
    const double idle_ns = time_batch();
    ops_ratios.push_back(idle_ns / base_ns);
    ops_idle_ns.push_back(idle_ns);
  }
  std::sort(ops_ratios.begin(), ops_ratios.end());
  std::sort(ops_idle_ns.begin(), ops_idle_ns.end());
  const double ops_median_ratio =
      ops_ratios[ops_ratios.size() / 2];
  const double eval_ops_idle_ns = ops_idle_ns[ops_idle_ns.size() / 2];
  const double ops_idle_overhead_pct = 100.0 * (ops_median_ratio - 1.0);
  const bool ops_guard_met = ops_idle_overhead_pct < 15.0;

  std::printf("=== telemetry overhead on the warm querier path (N=%u) ===\n",
              n);
  std::printf("warm evaluate, telemetry disabled : %10.1f ns\n",
              eval_disabled_ns);
  std::printf("warm evaluate, tracer+audit on    : %10.1f ns\n",
              eval_enabled_ns);
  std::printf("disabled probes per evaluation    : %10.2f ns\n", probe_ns);
  std::printf("probe cost / warm evaluation      : %10.3f%% "
              "(budget 2%%): %s\n",
              overhead_pct, guard_met ? "OK" : "EXCEEDED");
  std::printf("warm evaluate, idle admin server  : %10.1f ns\n",
              eval_ops_idle_ns);
  std::printf("idle ops plane / warm evaluation  : %10.3f%% "
              "(budget 15%%): %s\n",
              ops_idle_overhead_pct, ops_guard_met ? "OK" : "EXCEEDED");

  bench::BenchReport report("telemetry_overhead");
  report.config().Add("n", n);
  report.config().Add("reps", reps);
  report.config().Add("smoke", smoke);
  report.config().Add("budget_pct", 2.0);
  bench::JsonObject row;
  row.Add("eval_disabled_ns", eval_disabled_ns);
  row.Add("eval_enabled_ns", eval_enabled_ns);
  row.Add("probe_ns", probe_ns);
  row.Add("overhead_pct", overhead_pct);
  row.Add("guard_met", guard_met);
  row.Add("eval_ops_idle_ns", eval_ops_idle_ns);
  row.Add("ops_idle_overhead_pct", ops_idle_overhead_pct);
  row.Add("ops_guard_met", ops_guard_met);
  report.AddRow(std::move(row));
  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  return (guard_met && ops_guard_met) ? 0 : 1;
}
