// Epoch pipelining: deriving epoch t+1's querier keys in the background
// and routing the control plane through the boundary queue must change
// LATENCY only — every outcome, verdict and counter stays bit-identical
// to the serial engine.
#include "engine/epoch_scheduler.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "runner/runner.h"

namespace sies::engine {
namespace {

core::Query MakeQuery(core::Aggregate aggregate, uint32_t id) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = core::Field::kTemperature;
  q.scale_pow10 = 2;
  q.query_id = id;
  return q;
}

runner::ExperimentConfig BaseConfig() {
  runner::ExperimentConfig config;
  config.num_sources = 32;
  config.fanout = 4;
  config.epochs = 10;
  config.seed = 7;
  config.threads = 1;
  config.queries.push_back({MakeQuery(core::Aggregate::kAvg, 0)});
  config.queries.push_back({MakeQuery(core::Aggregate::kVariance, 1)});
  return config;
}

/// Runs the experiment capturing (epoch -> per-query outcomes).
using OutcomeLog =
    std::map<uint64_t, std::vector<std::pair<uint32_t, double>>>;

runner::ExperimentResult RunLogged(
    runner::ExperimentConfig config, OutcomeLog& log) {
  config.on_epoch_outcomes = [&log](uint64_t epoch, bool answered,
                                    const std::vector<QueryEpochOutcome>&
                                        outcomes) {
    if (!answered) return;
    for (const QueryEpochOutcome& qo : outcomes) {
      log[epoch].emplace_back(qo.query_id, qo.outcome.result.value);
    }
  };
  auto result = runner::RunExperiment(config);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.value();
}

TEST(PipelineTest, PipelinedOutcomesAreBitIdenticalToSerial) {
  OutcomeLog serial_log, pipelined_log;
  runner::ExperimentConfig config = BaseConfig();
  auto serial = RunLogged(config, serial_log);
  config.pipeline = true;
  auto pipelined = RunLogged(config, pipelined_log);

  EXPECT_EQ(serial.answered_epochs, pipelined.answered_epochs);
  EXPECT_EQ(serial.channel_epochs, pipelined.channel_epochs);
  EXPECT_TRUE(pipelined.all_verified);
  ASSERT_EQ(serial_log.size(), pipelined_log.size());
  // Prefetch is purely a cache warm: every epoch's every query value
  // must match exactly.
  EXPECT_EQ(serial_log, pipelined_log);
  EXPECT_EQ(serial.prefetched_epochs, 0u);
  EXPECT_GT(pipelined.prefetched_epochs, 0u)
      << "the prefetch thread must actually have run";
}

TEST(PipelineTest, PipelinedUnderLossMatchesSerial) {
  // Loss draws happen on the run thread inside the transport; the
  // prefetch thread consumes no RNG. The delivered/lost pattern and the
  // partial sums must be identical.
  OutcomeLog serial_log, pipelined_log;
  runner::ExperimentConfig config = BaseConfig();
  config.loss_rate = 0.2;
  config.max_retries = 1;
  auto serial = RunLogged(config, serial_log);
  config.pipeline = true;
  auto pipelined = RunLogged(config, pipelined_log);
  EXPECT_EQ(serial.answered_epochs, pipelined.answered_epochs);
  EXPECT_EQ(serial.retransmits, pipelined.retransmits);
  EXPECT_EQ(serial.lost_messages, pipelined.lost_messages);
  EXPECT_EQ(serial_log, pipelined_log);
}

TEST(PipelineTest, PipelinedAdmissionAndTeardownAtBoundaries) {
  // Plan mutations land exactly at their scheduled epoch even with a
  // prefetch in flight (ApplyPending joins it first). The prefetched
  // t+1 list was captured from the t plan, so the admitted query's
  // first epoch simply derives cold — and still verifies.
  runner::ExperimentConfig config = BaseConfig();
  config.queries.push_back(
      {MakeQuery(core::Aggregate::kSum, 2), /*admit_epoch=*/4,
       /*teardown_epoch=*/8});
  config.pipeline = true;
  auto result = runner::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().all_verified);
  ASSERT_EQ(result.value().queries.size(), 3u);
  EXPECT_EQ(result.value().queries[2].answered_epochs, 4u)
      << "live exactly for epochs 4..7";
  EXPECT_EQ(result.value().queries[2].verified_epochs, 4u);
}

TEST(PipelineTest, QueuedControlPlaneAppliesAtTheBoundary) {
  auto params = core::MakeParams(8, 7, /*value_bytes=*/8);
  ASSERT_TRUE(params.ok());
  core::QuerierKeys keys = core::GenerateKeys(params.value(), EncodeUint64(7));
  auto engine = std::make_shared<MultiQueryEngine>(params.value(), keys);
  auto topology = net::Topology::BuildCompleteTree(8, 4);
  ASSERT_TRUE(topology.ok());
  EpochScheduler scheduler(engine, topology.value(),
                           [](uint32_t, uint64_t) {
                             return core::SensorReading{};
                           });
  // Queued ops do NOT touch the plan until ApplyPending.
  scheduler.QueueAdmit(MakeQuery(core::Aggregate::kSum, 0));
  scheduler.QueueAdmit(MakeQuery(core::Aggregate::kCount, 1));
  EXPECT_FALSE(engine->HasLiveChannels());
  ASSERT_TRUE(scheduler.ApplyPending(3).ok());
  EXPECT_TRUE(engine->HasLiveChannels());
  EXPECT_EQ(engine->registry().plan().Count(), 2u);
  auto snapshot = scheduler.SnapshotQueries();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].admitted_epoch, 3u);
  // Teardown through the queue as well; the drained queue is empty, so
  // a second ApplyPending is a no-op.
  scheduler.QueueTeardown(0);
  scheduler.QueueTeardown(1);
  ASSERT_TRUE(scheduler.ApplyPending(5).ok());
  EXPECT_FALSE(engine->HasLiveChannels());
  ASSERT_TRUE(scheduler.ApplyPending(6).ok());
  // A failed queued admission surfaces as the Status.
  scheduler.QueueAdmit(MakeQuery(core::Aggregate::kSum, 0));
  scheduler.QueueAdmit(MakeQuery(core::Aggregate::kSum, 0));  // duplicate id
  EXPECT_FALSE(scheduler.ApplyPending(7).ok());
}

TEST(PipelineTest, PrefetchWarmsTheQuerierCache) {
  // After a prefetch of epoch t+1, the querier-side derivations for
  // t+1 must be cache hits. Drive the engine directly: warm via
  // WarmSaltedEpochs (what the prefetch thread runs) and compare cache
  // stats across an Evaluate of the warmed epoch.
  auto params = core::MakeParams(16, 7, /*value_bytes=*/8);
  ASSERT_TRUE(params.ok());
  core::QuerierKeys keys = core::GenerateKeys(params.value(), EncodeUint64(7));
  MultiQueryEngine engine(params.value(), keys);
  ASSERT_TRUE(engine.Admit(MakeQuery(core::Aggregate::kVariance, 0), 1).ok());

  const std::vector<uint64_t> salted = engine.SaltedEpochsFor(2);
  ASSERT_EQ(salted.size(), engine.registry().plan().Count());
  engine.WarmSaltedEpochs(salted);
  const auto warm = engine.QuerierCacheStats();
  engine.WarmSaltedEpochs(salted);  // idempotent: pure hits now
  const auto rewarm = engine.QuerierCacheStats();
  EXPECT_EQ(rewarm.global_misses, warm.global_misses);
  EXPECT_EQ(rewarm.source_misses, warm.source_misses);
  EXPECT_GT(rewarm.global_hits, warm.global_hits);
}

}  // namespace
}  // namespace sies::engine
