// Multi-query engine: batching + dedup vs K independent sessions.
//
// The engine's pitch is that K concurrent continuous queries cost ONE
// wire round per epoch and share deduplicated channels, where K
// independent single-query deployments would each run their own round
// with their own channels. This bench measures both sides for
// K = 1, 2, 4, 8 over the same trace and network:
//
//   * engine:   one RunEngineExperiment carrying the whole K-query mix;
//   * sessions: K single-query runs, costs summed — what the pre-engine
//               deployment model would pay.
//
// Emits BENCH_engine_multiquery.json; the claims to check are
// engine_channel_epochs < sessions_channel_epochs (strict, K > 1) and
// engine querier ms/query decreasing in K.
#include <cstdio>

#include "bench_json.h"
#include "engine/query_spec.h"
#include "runner/engine_runner.h"

int main() {
  using namespace sies;
  constexpr uint32_t kSources = 256;
  constexpr uint32_t kEpochs = 12;
  constexpr uint64_t kSeed = 7;

  bench::BenchReport report("engine_multiquery");
  report.config().Add("sources", kSources);
  report.config().Add("epochs", kEpochs);
  report.config().Add("seed", kSeed);
  report.config().Add("mix", "DefaultQueryMix (avg/variance/stddev/sum/count"
                             " over temperature)");

  std::printf("=== Multi-query engine vs K independent sessions "
              "(N=%u, %u epochs) ===\n", kSources, kEpochs);
  std::printf("%-4s | %14s %14s | %14s %14s | %12s\n", "K",
              "engine ch-ep", "sessions ch-ep", "engine ms/q",
              "sessions ms/q", "src us/ep");

  for (uint32_t k : {1u, 2u, 4u, 8u}) {
    std::vector<core::Query> mix = engine::DefaultQueryMix(k);

    runner::EngineExperimentConfig config;
    config.num_sources = kSources;
    config.epochs = kEpochs;
    config.seed = kSeed;
    config.threads = 1;
    for (const core::Query& q : mix) config.queries.push_back({q});
    auto engine_run = runner::RunEngineExperiment(config);
    if (!engine_run.ok()) {
      std::fprintf(stderr, "engine run failed: %s\n",
                   engine_run.status().ToString().c_str());
      return 1;
    }
    const runner::EngineExperimentResult& er = engine_run.value();

    // The pre-engine model: each query runs alone (its own round, its
    // own channels) over the same trace; total cost is the sum.
    uint64_t sessions_channel_epochs = 0;
    double sessions_querier_seconds = 0;
    double sessions_source_seconds = 0;
    bool sessions_verified = true;
    for (const core::Query& q : mix) {
      runner::EngineExperimentConfig solo = config;
      solo.queries.clear();
      solo.queries.push_back({q});
      auto solo_run = runner::RunEngineExperiment(solo);
      if (!solo_run.ok()) {
        std::fprintf(stderr, "session run failed: %s\n",
                     solo_run.status().ToString().c_str());
        return 1;
      }
      sessions_channel_epochs += solo_run.value().channel_epochs;
      sessions_querier_seconds += solo_run.value().querier_cpu_seconds;
      sessions_source_seconds += solo_run.value().source_cpu_seconds;
      sessions_verified &= solo_run.value().all_verified;
    }

    double engine_ms_per_query = er.querier_cpu_seconds * 1e3 / k;
    double sessions_ms_per_query = sessions_querier_seconds * 1e3 / k;
    std::printf("%-4u | %14llu %14llu | %14.4f %14.4f | %12.3f\n", k,
                static_cast<unsigned long long>(er.channel_epochs),
                static_cast<unsigned long long>(sessions_channel_epochs),
                engine_ms_per_query, sessions_ms_per_query,
                er.source_cpu_seconds * 1e6);
    if (!er.all_verified || !sessions_verified) {
      std::fprintf(stderr, "a run failed verification at K=%u\n", k);
      return 1;
    }

    bench::JsonObject row;
    row.Add("k", k);
    row.Add("engine_channel_epochs", er.channel_epochs);
    row.Add("sessions_channel_epochs", sessions_channel_epochs);
    row.Add("naive_channel_epochs", er.naive_channel_epochs);
    row.Add("engine_querier_ms_per_query", engine_ms_per_query);
    row.Add("sessions_querier_ms_per_query", sessions_ms_per_query);
    row.Add("engine_querier_ms", er.querier_cpu_seconds * 1e3);
    row.Add("engine_source_us", er.source_cpu_seconds * 1e6);
    row.Add("sessions_source_us", sessions_source_seconds * 1e6);
    row.Add("engine_aggregator_us", er.aggregator_cpu_seconds * 1e6);
    row.Add("all_verified", er.all_verified && sessions_verified);
    report.AddRow(std::move(row));
  }

  std::string path = report.Write();
  if (path.empty()) return 1;
  std::printf(
      "\nshape check: engine channel-epochs stay flat (the mix shares 3 "
      "physical channels at every K) while sessions grow ~linearly; the "
      "engine's fixed per-round querier cost amortizes, so ms/query "
      "falls as K grows.\nwrote %s\n", path.c_str());
  return 0;
}
