// Epoch-key cache sizing regression for compiled range queries: a
// range-heavy mix multiplies the per-epoch channel count (each band
// query holds up to 2 * ceil(log2 D) bucket channels per kind), so the
// engine must re-reserve its caches from the live plan — otherwise the
// default capacity thrashes and every epoch re-derives keys it just
// dropped. Asserts ZERO premature evictions, per-instance and on the
// global metric, over multi-epoch plain and pipelined runs.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "runner/runner.h"
#include "telemetry/metrics.h"
#include "workload/workload.h"

namespace sies::engine {
namespace {

constexpr uint32_t kN = 16;
constexpr uint64_t kSeed = 31;

core::Query BandQuery(core::Aggregate aggregate, uint32_t id, double lo,
                      double hi) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = core::Field::kTemperature;
  q.scale_pow10 = 2;
  q.query_id = id;
  core::Band band;
  band.field = core::Field::kTemperature;
  band.lo = lo;
  band.hi = hi;
  q.band = band;
  return q;
}

/// A channel-heavy range mix: three band queries plus a plain AVG —
/// comfortably beyond the cache's default capacity of 32 channels.
std::vector<core::Query> RangeMix() {
  core::Query avg;
  avg.aggregate = core::Aggregate::kAvg;
  avg.scale_pow10 = 2;
  avg.query_id = 0;
  return {avg, BandQuery(core::Aggregate::kCount, 1, 20.0, 30.0),
          BandQuery(core::Aggregate::kSum, 2, 25.0, 45.0),
          BandQuery(core::Aggregate::kAvg, 3, 18.5, 42.25)};
}

uint64_t GlobalEvictions() {
  return telemetry::MetricsRegistry::Global()
      .GetCounter("sies_epoch_key_cache_evictions_total", {})
      ->Value();
}

TEST(PredicateCacheTest, RangeMixRunsWithZeroPrematureEvictions) {
  const uint64_t before = GlobalEvictions();

  auto params = core::MakeParams(kN, kSeed, /*value_bytes=*/8).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(kSeed));
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = kSeed;
  workload::TraceGenerator trace(tc);

  MultiQueryEngine eng(params, keys);
  // One root with every source as a direct child.
  std::vector<net::SourceRange> star;
  for (uint32_t i = 0; i < kN; ++i) star.push_back({i, i + 1});
  for (const core::Query& q : RangeMix()) {
    ASSERT_TRUE(eng.Admit(q, 1).ok());
  }
  ASSERT_GT(eng.registry().plan().Count(), 32u)
      << "the mix must exceed the cache's default capacity to regress";

  for (uint64_t epoch = 1; epoch <= 6; ++epoch) {
    // Prefetch t+1 like the pipelined runner does: both epochs' keys
    // must fit the reserved window simultaneously.
    eng.PrefetchEpochKeys(epoch + 1);
    std::vector<Bytes> payloads;
    for (uint32_t i = 0; i < kN; ++i) {
      auto p = eng.CreateSourcePayload(i, trace.ReadingAt(i, epoch), epoch);
      ASSERT_TRUE(p.ok());
      payloads.push_back(std::move(p).value());
    }
    auto merged = eng.Merge(star, payloads);
    ASSERT_TRUE(merged.ok());
    auto outcomes = eng.Evaluate(merged.value(), epoch);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    for (const QueryEpochOutcome& qo : outcomes.value()) {
      EXPECT_TRUE(qo.outcome.verified) << "query " << qo.query_id;
    }
  }

  EXPECT_EQ(eng.SourceCacheStats().evictions, 0u)
      << "source cache dropped keys inside the live epoch window";
  EXPECT_EQ(eng.QuerierCacheStats().evictions, 0u)
      << "querier cache dropped keys inside the live epoch window";
  EXPECT_EQ(GlobalEvictions() - before, 0u)
      << "sies_epoch_key_cache_evictions_total must not move";
}

TEST(PredicateCacheTest, PipelinedRunnerKeepsEvictionsAtZero) {
  const uint64_t before = GlobalEvictions();

  runner::ExperimentConfig config;
  for (const core::Query& q : RangeMix()) {
    config.queries.push_back({q});
  }
  config.num_sources = kN;
  config.epochs = 5;
  config.seed = kSeed;
  config.threads = 1;
  config.pipeline = true;
  auto result = runner::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().all_verified);

  EXPECT_EQ(GlobalEvictions() - before, 0u)
      << "a plan-sized cache never evicts prematurely, even pipelined";
}

}  // namespace
}  // namespace sies::engine
