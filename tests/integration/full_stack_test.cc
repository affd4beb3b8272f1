// Capstone integration: one long-lived deployment exercising every layer
// together — provisioning blobs, μTesla query registration, epochs over
// a lossy radio, a node failure with topology repair, an in-flight
// attack, a query switch without re-keying, and the querier's log at the
// end. If the layers compose, this test is quiet; any seam failure
// surfaces here even when the per-module tests pass.
#include <gtest/gtest.h>

#include <algorithm>

#include "engine/epoch_scheduler.h"
#include "net/adversary.h"
#include "runner/deployment.h"
#include "runner/runner.h"
#include "sies/message_format.h"
#include "sies/provisioning.h"

namespace sies::runner {
namespace {

TEST(FullStackTest, LifecycleAcrossAllLayers) {
  constexpr uint32_t kN = 32;
  constexpr uint64_t kSeed = 2026;

  // --- Provisioning: keys survive a serialization round trip. ---
  auto params = core::MakeParams(kN, kSeed).value();
  core::Deployment provisioned;
  provisioned.params = params;
  provisioned.keys = core::GenerateKeys(params, EncodeUint64(kSeed));
  Bytes blob = core::SerializeDeployment(provisioned).value();
  ASSERT_TRUE(core::ParseDeployment(blob).ok());

  // --- Deployment over an irregular topology. ---
  Xoshiro256 topo_rng(kSeed);
  auto topology = net::Topology::BuildRandomTree(kN, 4, topo_rng).value();
  workload::TraceConfig tc;
  tc.seed = kSeed;
  tc.temporal_model = workload::TemporalModel::kRandomWalk;
  auto deployment =
      ContinuousDeployment::Create(topology, kSeed, tc).value();

  core::Query sum_query;
  sum_query.aggregate = core::Aggregate::kSum;
  sum_query.query_id = 1;
  ASSERT_TRUE(deployment.RegisterQuery(sum_query).ok());

  // --- Epochs 1-3: clean. ---
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    auto out = deployment.RunEpoch(epoch).value();
    EXPECT_TRUE(out.verified) << "epoch " << epoch;
  }

  // --- Epoch 4: in-flight tampering is rejected. ---
  net::BitFlipAdversary tamper(deployment.network().topology().root(), 9);
  deployment.network().SetAdversary(&tamper);
  auto attacked = deployment.RunEpoch(4);
  deployment.network().SetAdversary(nullptr);
  if (attacked.ok() && tamper.tampered_count() > 0) {
    EXPECT_FALSE(attacked.value().verified);
  }

  // --- Epoch 5: a source fails, is reported, and the epoch verifies
  // --- against the reduced participant set. ---
  net::NodeId victim = deployment.network().topology().sources()[3];
  deployment.network().FailSource(victim);
  EXPECT_TRUE(deployment.RunEpoch(5).value().verified);
  deployment.network().HealAllSources();

  // --- Epoch 6+: lossy radio; every answered epoch verifies over the
  // --- contributor set it declares, and loss shows up as coverage. ---
  ASSERT_TRUE(deployment.network().SetLossRate(0.2, kSeed).ok());
  int clean = 0;
  for (uint64_t epoch = 6; epoch <= 12; ++epoch) {
    auto out = deployment.RunEpoch(epoch);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    if (!out.value().answered) continue;  // the final payload was lost
    EXPECT_TRUE(out.value().verified) << "epoch " << epoch;
    EXPECT_EQ(out.value().contributors == kN, out.value().coverage == 1.0);
    if (out.value().coverage == 1.0) ++clean;
  }
  ASSERT_TRUE(deployment.network().SetLossRate(0.0, kSeed).ok());

  // --- Query switch WITHOUT re-keying, then more clean epochs. ---
  core::Query avg_query;
  avg_query.aggregate = core::Aggregate::kAvg;
  avg_query.attribute = core::Field::kHumidity;
  avg_query.scale_pow10 = 1;
  avg_query.query_id = 2;
  ASSERT_TRUE(deployment.RegisterQuery(avg_query).ok());
  auto avg_out = deployment.RunEpoch(13).value();
  EXPECT_TRUE(avg_out.verified);
  EXPECT_GT(avg_out.result.value, 30.0);
  EXPECT_LT(avg_out.result.value, 70.0);

  // --- The log saw everything: some rejections, maybe gaps, and a
  // --- recovering tail. ---
  const core::ResultLog& log = deployment.log();
  EXPECT_GE(log.recorded_epochs(), 6u);
  EXPECT_FALSE(log.UnderAttack(0.9)) << "the clean tail should dominate";
  (void)clean;
}

// The same end-to-end flow holds at every supported prime width.
class PrimeWidthEndToEnd : public ::testing::TestWithParam<size_t> {};

TEST_P(PrimeWidthEndToEnd, FullNetworkExactAtWidth) {
  size_t bits = GetParam();
  constexpr uint32_t kN = 12;
  auto params = core::MakeParams(kN, bits, 4, bits).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(bits));
  auto topology = net::Topology::BuildCompleteTree(kN, 3).value();
  net::Network network(topology);
  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = bits;
  workload::TraceGenerator trace(tc);
  SiesProtocol protocol(params, keys, topology,
                        [&trace](uint32_t i, uint64_t e) {
                          return trace.ValueAt(i, e);
                        });
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    auto report = network.RunEpoch(protocol, epoch).value();
    EXPECT_TRUE(report.outcome.verified) << bits << " bits";
    EXPECT_EQ(report.outcome.value,
              static_cast<double>(Snapshot(trace, epoch).exact_sum));
    // Lossless: every edge carries the bare PSR, at any prime width.
    for (const net::EdgeTraffic* edge :
         {&report.source_to_aggregator, &report.aggregator_to_aggregator,
          &report.aggregator_to_querier}) {
      EXPECT_DOUBLE_EQ(edge->MeanBytes(), static_cast<double>((bits + 7) / 8))
          << bits << " bits";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PrimeWidthEndToEnd,
                         ::testing::Values(224, 256, 320, 512));

// Paper Table V at any N: with nothing lost, every SIES edge carries
// exactly channels × 32 B on each of the three bindings (the engine, the
// figure runner's SiesProtocol, and the deployment's sessions).
class LosslessEdgeWidth : public ::testing::TestWithParam<uint32_t> {
 protected:
  // Sees every delivered message; records the narrowest and widest.
  class WidthProbe : public net::Adversary {
   public:
    bool OnMessage(net::Message& msg) override {
      min_bytes = std::min(min_bytes, msg.payload.size());
      max_bytes = std::max(max_bytes, msg.payload.size());
      ++messages;
      return true;
    }
    size_t min_bytes = SIZE_MAX;
    size_t max_bytes = 0;
    size_t messages = 0;
  };

  static void ExpectEveryEdge(const WidthProbe& probe,
                              const net::EpochReport& report,
                              size_t channels) {
    EXPECT_EQ(probe.min_bytes, channels * 32);
    EXPECT_EQ(probe.max_bytes, channels * 32);
    EXPECT_EQ(probe.messages,
              report.source_to_aggregator.messages +
                  report.aggregator_to_aggregator.messages +
                  report.aggregator_to_querier.messages);
    EXPECT_TRUE(report.outcome.verified);
    EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  }
};

TEST_P(LosslessEdgeWidth, EngineBinding) {
  const uint32_t n = GetParam();
  auto topology = net::Topology::BuildCompleteTree(n, 4).value();
  auto params = core::MakeParams(n, 11, /*value_bytes=*/8).value();
  auto engine = std::make_shared<engine::MultiQueryEngine>(
      params, core::GenerateKeys(params, EncodeUint64(11)));
  workload::TraceConfig tc;
  tc.num_sources = n;
  workload::TraceGenerator trace(tc);
  engine::EpochScheduler scheduler(
      engine, topology,
      [&trace](uint32_t i, uint64_t e) { return trace.ReadingAt(i, e); });
  core::Query avg;
  avg.aggregate = core::Aggregate::kAvg;  // SUM + COUNT channels
  ASSERT_TRUE(scheduler.Admit(avg, 1).ok());
  net::Network network(topology);
  WidthProbe probe;
  network.SetAdversary(&probe);
  auto report = network.RunEpoch(scheduler, 1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectEveryEdge(probe, report.value(), 2);
}

TEST_P(LosslessEdgeWidth, RunnerBinding) {
  const uint32_t n = GetParam();
  auto topology = net::Topology::BuildCompleteTree(n, 4).value();
  auto params = core::MakeParams(n, 12).value();
  workload::TraceConfig tc;
  tc.num_sources = n;
  workload::TraceGenerator trace(tc);
  SiesProtocol protocol(params, core::GenerateKeys(params, EncodeUint64(12)),
                        topology, [&trace](uint32_t i, uint64_t e) {
                          return trace.ValueAt(i, e);
                        });
  net::Network network(topology);
  WidthProbe probe;
  network.SetAdversary(&probe);
  auto report = network.RunEpoch(protocol, 1);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectEveryEdge(probe, report.value(), 1);
}

TEST_P(LosslessEdgeWidth, DeploymentBinding) {
  const uint32_t n = GetParam();
  auto deployment = ContinuousDeployment::Create(
                        net::Topology::BuildCompleteTree(n, 4).value(), 13,
                        workload::TraceConfig{})
                        .value();
  core::Query variance;
  variance.aggregate = core::Aggregate::kVariance;  // three channels
  variance.attribute = core::Field::kHumidity;
  ASSERT_TRUE(deployment.RegisterQuery(variance).ok());
  WidthProbe probe;
  deployment.network().SetAdversary(&probe);
  auto out = deployment.RunEpoch(1);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(out.value().verified);
  EXPECT_DOUBLE_EQ(out.value().coverage, 1.0);
  EXPECT_EQ(probe.min_bytes, 3u * 32);
  EXPECT_EQ(probe.max_bytes, 3u * 32);
}

INSTANTIATE_TEST_SUITE_P(N, LosslessEdgeWidth,
                         ::testing::Values(16, 1024, 16384));

}  // namespace
}  // namespace sies::runner
