// Building-climate dashboard: ties the operational layers together —
// wall-clock epochs (EpochClock), a verified temperature histogram per
// epoch (predicate::CompileHistogram cells through the multi-query
// engine, assembled by predicate::AssembleCells), quantile tracking, a
// smooth random-walk workload, and the querier's ResultLog with its
// under-attack alarm.
#include <cstdio>
#include <memory>
#include <vector>

#include "engine/epoch_scheduler.h"
#include "net/adversary.h"
#include "predicate/answer.h"
#include "sies/epoch_clock.h"
#include "sies/result_log.h"
#include "workload/workload.h"

using namespace sies;

namespace {

void PrintBar(uint64_t count, uint64_t total) {
  int width = total == 0 ? 0 : static_cast<int>(40.0 * count / total);
  for (int i = 0; i < width; ++i) std::putchar('#');
  std::putchar('\n');
}

}  // namespace

int main() {
  constexpr uint32_t kN = 48;
  constexpr uint64_t kSeed = 11;

  // Wall-clock epochs: 1 s period, genesis at t=0.
  auto clock = core::EpochClock::Create(1000, 0).value();

  // COUNT per cell of temperature over [18, 50]: 8 band queries, each
  // compiled to the dyadic bucket channels that cover its cell.
  predicate::HistogramSpec spec;
  spec.field = core::Field::kTemperature;
  spec.lo = 18.0;
  spec.hi = 50.0;
  spec.buckets = 8;
  auto cells = predicate::CompileHistogram(spec, /*first_query_id=*/0);
  if (!cells.ok()) return 1;

  auto topology = net::Topology::BuildCompleteTree(kN, 4).value();
  net::Network network(topology);
  auto params = core::MakeParams(kN, kSeed).value();
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = kSeed;
  tc.temporal_model = workload::TemporalModel::kRandomWalk;
  workload::TraceGenerator trace(tc);
  engine::EpochScheduler scheduler(
      std::make_shared<engine::MultiQueryEngine>(
          params, core::GenerateKeys(params, EncodeUint64(kSeed))),
      topology,
      [&trace](uint32_t i, uint64_t e) { return trace.ReadingAt(i, e); });
  for (const core::Query& cell : cells.value()) {
    if (!scheduler.Admit(cell, 1).ok()) return 1;
  }
  core::ResultLog log(/*window=*/16);

  std::printf("building climate dashboard: %u sensors, verified %u-bucket "
              "histogram of temperature per 1 s epoch (%u wire channels)\n\n",
              kN, spec.buckets, scheduler.engine().registry().plan().Count());

  uint64_t now_ms = 1000;  // simulation wall clock
  for (int tick = 0; tick < 6; ++tick, now_ms += 1000) {
    uint64_t epoch = clock.EpochAt(now_ms);
    // Epoch 4 is attacked in flight.
    net::BitFlipAdversary adversary(topology.root(), 17);
    if (epoch == 4) network.SetAdversary(&adversary);
    auto report = network.RunEpoch(scheduler, epoch);
    network.SetAdversary(nullptr);
    if (!report.ok() || !report.value().answered) continue;
    // Cells are admitted in order, so outcomes come back in cell order.
    std::vector<core::EpochOutcome> outcomes;
    for (const engine::QueryEpochOutcome& qo : scheduler.last_outcomes()) {
      outcomes.push_back(qo.outcome);
    }
    auto histogram = predicate::AssembleCells(
        spec.lo, spec.hi, spec.buckets, spec.scale_pow10, outcomes);
    if (!histogram.ok()) return 1;
    const predicate::ShapeAnswer& h = histogram.value();
    auto median = h.Quantile(0.5);
    if (!log.Record(epoch, median.ok() ? median.value() : 0.0,
                    h.all_verified)
             .ok()) {
      return 1;
    }
    std::printf("epoch %llu (t=%llums) %s\n",
                static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(now_ms),
                h.all_verified ? "[verified]" : "[REJECTED - tampering]");
    if (h.all_verified) {
      for (const predicate::AnswerCell& cell : h.cells) {
        std::printf("  [%5.2f,%5.2f] %2llu ", cell.lo, cell.hi,
                    static_cast<unsigned long long>(cell.count));
        PrintBar(cell.count, h.total_count);
      }
      std::printf("  median ~ %.1f C, p90 ~ %.1f C\n\n", median.value(),
                  h.Quantile(0.9).value());
    } else {
      std::printf("  (result discarded)\n\n");
    }
  }

  core::RollingStats stats = log.Stats();
  std::printf("log: %llu epochs, %llu rejected, %llu missed; median of "
              "medians %.1f C; under attack: %s\n",
              static_cast<unsigned long long>(log.recorded_epochs()),
              static_cast<unsigned long long>(log.rejected_epochs()),
              static_cast<unsigned long long>(log.missed_epochs()),
              stats.mean, log.UnderAttack() ? "YES" : "no");
  // Exactly one epoch (the attacked one) must have been rejected.
  return log.rejected_epochs() == 1 ? 0 : 1;
}
