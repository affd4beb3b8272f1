// Transport backends + epoch pipelining (the real-transport tentpole).
//
// Two claims, measured separately:
//
//   1. Pipelining: with epochs paced (a real deployment ticks on a
//      clock), deriving epoch t+1's querier keys in the pacing gap
//      removes the key-derive phase from the next round's critical
//      path, so the PIPELINED per-epoch round wall drops below the
//      SERIAL sum of the attributed phases. Measured via the
//      EpochTimeline (its per-epoch wall excludes the pacing sleep,
//      so the rows compare busy time, not sleep).
//
//   2. Transport: the UDP backend's rounds stay fully attributed
//      (phase probes explain >= 90% of the best epoch's wall, with
//      the new `transport` phase carrying the socket time) and its
//      outcomes are bit-identical to the simulator's.
//
// Emits BENCH_transport.json, one row per mode:
//   serial / pipelined       pacing-gap pipelining at N (10^4 full)
//   sim_engine / udp_engine  attribution + equivalence at engine N
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "bench_json.h"
#include "engine/query_spec.h"
#include "runner/runner.h"
#include "telemetry/epoch_timeline.h"

namespace {

using sies::telemetry::EpochPhase;
using sies::telemetry::EpochRecord;

/// Mean of one phase's per-epoch attributed total, in ms.
double MeanPhaseMs(const std::vector<EpochRecord>& records,
                   EpochPhase phase) {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const EpochRecord& r : records) {
    sum += r.phases[static_cast<size_t>(phase)].total_seconds;
  }
  return sum * 1e3 / static_cast<double>(records.size());
}

double MeanWallMs(const std::vector<EpochRecord>& records) {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const EpochRecord& r : records) sum += r.wall_seconds;
  return sum * 1e3 / static_cast<double>(records.size());
}

double MeanAttributedMs(const std::vector<EpochRecord>& records) {
  if (records.empty()) return 0.0;
  double sum = 0.0;
  for (const EpochRecord& r : records) sum += r.attributed_seconds;
  return sum * 1e3 / static_cast<double>(records.size());
}

/// Best (max over epochs) attributed/wall share — the attribution
/// criterion of the ops_attribution_guard ctest.
double BestAttributionShare(const std::vector<EpochRecord>& records) {
  double best = 0.0;
  for (const EpochRecord& r : records) {
    if (r.wall_seconds > 0.0) {
      best = std::max(best, r.attributed_seconds / r.wall_seconds);
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sies;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";

  // Pipelining rows want N large enough that key derivation is a real
  // slice of the epoch; the attribution rows want a full tree quickly.
  const uint32_t pipe_n = smoke ? 512 : 10000;
  const uint32_t pipe_epochs = smoke ? 4 : 5;
  const uint32_t engine_n = smoke ? 64 : 256;
  const uint32_t engine_epochs = smoke ? 6 : 12;
  constexpr uint64_t kSeed = 7;

  bench::BenchReport report("transport");
  report.config().Add("pipe_sources", pipe_n);
  report.config().Add("engine_sources", engine_n);
  report.config().Add("seed", kSeed);
  report.config().Add("smoke", smoke);
  report.config().Add("mix", "DefaultQueryMix(2) (avg + variance)");

  auto& timeline = telemetry::EpochTimeline::Global();
  timeline.SetCapacity(64);
  timeline.Enable();

  auto base_config = [&](uint32_t n, uint32_t epochs) {
    runner::ExperimentConfig config;
    config.num_sources = n;
    config.epochs = epochs;
    config.seed = kSeed;
    config.threads = 1;
    for (const core::Query& q : engine::DefaultQueryMix(2)) {
      config.queries.push_back({q});
    }
    return config;
  };

  auto timed_run = [&](runner::ExperimentConfig config,
                       runner::ExperimentResult& out,
                       std::vector<EpochRecord>& records) {
    timeline.Reset();
    auto result = runner::RunExperiment(config);
    if (!result.ok()) {
      std::fprintf(stderr, "run failed: %s\n",
                   result.status().ToString().c_str());
      return false;
    }
    out = std::move(result).value();
    records = timeline.Last(config.epochs);
    return true;
  };

  // ---- 1. Pipelining: serial vs prefetch-in-the-pacing-gap ----
  // Probe the serial key-derive cost first to size the pacing gap: the
  // prefetch thread runs SCHED_IDLE, so it only makes progress while
  // the run thread sleeps — the gap must cover the derivation.
  runner::ExperimentResult probe_result;
  std::vector<EpochRecord> probe_records;
  if (!timed_run(base_config(pipe_n, 2), probe_result, probe_records)) {
    return 1;
  }
  const double probe_derive_ms =
      MeanPhaseMs(probe_records, EpochPhase::kKeyDerive);
  const uint32_t pacing_ms = static_cast<uint32_t>(
      std::max(5.0, std::ceil(probe_derive_ms * 1.5 + 2.0)));

  runner::ExperimentResult serial_result, pipelined_result;
  std::vector<EpochRecord> serial_records, pipelined_records;
  runner::ExperimentConfig pipe_config =
      base_config(pipe_n, pipe_epochs);
  pipe_config.epoch_pacing_ms = pacing_ms;
  if (!timed_run(pipe_config, serial_result, serial_records)) return 1;
  pipe_config.pipeline = true;
  if (!timed_run(pipe_config, pipelined_result, pipelined_records)) return 1;

  const double serial_wall_ms = MeanWallMs(serial_records);
  const double serial_phase_sum_ms = MeanAttributedMs(serial_records);
  const double serial_derive_ms =
      MeanPhaseMs(serial_records, EpochPhase::kKeyDerive);
  const double serial_verify_ms =
      MeanPhaseMs(serial_records, EpochPhase::kVerify);
  const double pipelined_wall_ms = MeanWallMs(pipelined_records);
  const bool overlap_won = pipelined_wall_ms < serial_phase_sum_ms;

  std::printf("=== Epoch pipelining (N=%u, %u epochs, pacing %u ms) ===\n",
              pipe_n, pipe_epochs, pacing_ms);
  std::printf("serial    : wall %.3f ms/epoch (derive %.3f, verify %.3f, "
              "phase sum %.3f)\n", serial_wall_ms, serial_derive_ms,
              serial_verify_ms, serial_phase_sum_ms);
  std::printf("pipelined : wall %.3f ms/epoch, prefetched %llu epochs, "
              "overlap %s\n", pipelined_wall_ms,
              static_cast<unsigned long long>(
                  pipelined_result.prefetched_epochs),
              overlap_won ? "WON" : "lost");

  {
    bench::JsonObject row;
    row.Add("mode", "serial");
    row.Add("n", pipe_n);
    row.Add("epochs", pipe_epochs);
    row.Add("gap_ms", static_cast<uint64_t>(pacing_ms));
    row.Add("epoch_wall_ms", serial_wall_ms);
    row.Add("derive_ms", serial_derive_ms);
    row.Add("verify_ms", serial_verify_ms);
    row.Add("serial_phase_sum_ms", serial_phase_sum_ms);
    row.Add("all_verified", serial_result.all_verified);
    report.AddRow(std::move(row));
  }
  {
    bench::JsonObject row;
    row.Add("mode", "pipelined");
    row.Add("n", pipe_n);
    row.Add("epochs", pipe_epochs);
    row.Add("gap_ms", static_cast<uint64_t>(pacing_ms));
    row.Add("epoch_wall_ms", pipelined_wall_ms);
    row.Add("speedup_vs_serial",
            pipelined_wall_ms > 0 ? serial_wall_ms / pipelined_wall_ms : 0.0);
    row.Add("prefetched", pipelined_result.prefetched_epochs);
    row.Add("overlap_won", overlap_won);
    row.Add("all_verified", pipelined_result.all_verified);
    report.AddRow(std::move(row));
  }

  // ---- 2. Transport attribution + sim/udp equivalence ----
  std::string sim_print, udp_print;
  runner::ExperimentResult sim_result, udp_result;
  std::vector<EpochRecord> sim_records, udp_records;
  for (int pass = 0; pass < 2; ++pass) {
    runner::ExperimentConfig config =
        base_config(engine_n, engine_epochs);
    std::ostringstream os;
    config.on_epoch_outcomes =
        [&os](uint64_t epoch, bool answered,
              const std::vector<engine::QueryEpochOutcome>& outcomes) {
          if (!answered) return;
          for (const engine::QueryEpochOutcome& qo : outcomes) {
            os << epoch << ":" << qo.query_id << "="
               << qo.outcome.result.value << "/" << qo.outcome.verified
               << ";";
          }
        };
    if (pass == 1) config.transport = runner::TransportKind::kUdp;
    auto& result = pass == 0 ? sim_result : udp_result;
    auto& records = pass == 0 ? sim_records : udp_records;
    if (!timed_run(config, result, records)) return 1;
    (pass == 0 ? sim_print : udp_print) = os.str();
  }
  const bool outcomes_match = !sim_print.empty() && sim_print == udp_print;

  std::printf("=== Transport attribution (N=%u, %u epochs) ===\n",
              engine_n, engine_epochs);
  for (int pass = 0; pass < 2; ++pass) {
    const char* mode = pass == 0 ? "sim_engine" : "udp_engine";
    const auto& result = pass == 0 ? sim_result : udp_result;
    const auto& records = pass == 0 ? sim_records : udp_records;
    const double wall_ms = MeanWallMs(records);
    const double transport_ms =
        MeanPhaseMs(records, EpochPhase::kTransport);
    const double best_share = BestAttributionShare(records);
    const bool attribution_ok = best_share >= 0.9;
    std::printf("%-10s: wall %.3f ms/epoch, transport %.3f ms, best "
                "attribution %.1f%%%s\n", mode, wall_ms, transport_ms,
                100.0 * best_share,
                pass == 1 ? (outcomes_match ? ", outcomes == sim"
                                            : ", OUTCOME MISMATCH")
                          : "");
    bench::JsonObject row;
    row.Add("mode", mode);
    row.Add("n", engine_n);
    row.Add("epochs", engine_epochs);
    row.Add("epoch_wall_ms", wall_ms);
    row.Add("transport_ms", transport_ms);
    row.Add("attribution_best_share", best_share);
    row.Add("attribution_ok", attribution_ok);
    row.Add("all_verified", result.all_verified);
    if (pass == 1) {
      row.Add("outcomes_match_sim", outcomes_match);
      row.Add("datagrams", result.udp_datagrams_sent);
      row.Add("malformed", result.udp_malformed_datagrams);
    }
    report.AddRow(std::move(row));
  }

  timeline.Disable();
  timeline.Reset();

  const std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf("wrote %s\n", path.c_str());
  const bool udp_attr_ok = BestAttributionShare(udp_records) >= 0.9;
  if (!overlap_won || !outcomes_match || !udp_attr_ok) {
    std::fprintf(stderr, "transport bench guard FAILED (overlap_won=%d, "
                 "outcomes_match=%d, udp_attribution_ok=%d)\n",
                 overlap_won, outcomes_match, udp_attr_ok);
    return 1;
  }
  return 0;
}
