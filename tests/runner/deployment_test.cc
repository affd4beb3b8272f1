#include "runner/deployment.h"

#include <gtest/gtest.h>

#include "net/adversary.h"

namespace sies::runner {
namespace {

ContinuousDeployment MakeDeployment(uint32_t n = 16, uint64_t seed = 8) {
  workload::TraceConfig tc;
  tc.seed = seed;
  return ContinuousDeployment::Create(
             net::Topology::BuildCompleteTree(n, 4).value(), seed, tc)
      .value();
}

core::Query SumTempQuery() {
  core::Query q;
  q.aggregate = core::Aggregate::kSum;
  q.attribute = core::Field::kTemperature;
  q.query_id = 1;
  return q;
}

core::Query AvgHumidityQuery() {
  core::Query q;
  q.aggregate = core::Aggregate::kAvg;
  q.attribute = core::Field::kHumidity;
  q.scale_pow10 = 1;
  q.query_id = 2;
  return q;
}

TEST(DeploymentTest, EpochBeforeRegistrationFails) {
  auto deployment = MakeDeployment();
  EXPECT_FALSE(deployment.RunEpoch(1).ok());
}

TEST(DeploymentTest, RegisterAndRun) {
  auto deployment = MakeDeployment();
  ASSERT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    auto out = deployment.RunEpoch(epoch).value();
    EXPECT_TRUE(out.verified) << "epoch " << epoch;
    EXPECT_EQ(out.query_id, 1u);
    EXPECT_GT(out.result.value, 0.0);
  }
  EXPECT_EQ(deployment.log().recorded_epochs(), 3u);
  EXPECT_EQ(deployment.log().rejected_epochs(), 0u);
}

TEST(DeploymentTest, QuerySwitchWithoutRekeying) {
  // The paper's lifecycle: issue a NEW query mid-stream via muTesla —
  // no key re-establishment — and keep verifying.
  auto deployment = MakeDeployment();
  ASSERT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  auto sum_epoch = deployment.RunEpoch(1).value();
  EXPECT_TRUE(sum_epoch.verified);

  ASSERT_TRUE(deployment.RegisterQuery(AvgHumidityQuery()).ok());
  EXPECT_EQ(deployment.queries_registered(), 2u);
  auto avg_epoch = deployment.RunEpoch(2).value();
  EXPECT_TRUE(avg_epoch.verified);
  EXPECT_EQ(avg_epoch.query_id, 2u);
  // AVG(humidity) lands in the generator's humidity range.
  EXPECT_GT(avg_epoch.result.value, 30.0);
  EXPECT_LT(avg_epoch.result.value, 70.0);
  // Back to the first query: still no rekeying, still verifying.
  ASSERT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  EXPECT_TRUE(deployment.RunEpoch(3).value().verified);
}

TEST(DeploymentTest, ReRegisteringTheLiveIdSwapsTheAggregate) {
  // Same id, different aggregate: the swap tears the live query down
  // before admitting the new one, so the id (and the channels its
  // teardown freed) is reused cleanly and the very next epoch answers
  // the NEW query. Admitting before tearing down would find the id
  // still live and fail the registration.
  auto deployment = MakeDeployment();
  ASSERT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  auto sum_epoch = deployment.RunEpoch(1).value();
  ASSERT_TRUE(sum_epoch.verified);

  core::Query count = SumTempQuery();
  count.aggregate = core::Aggregate::kCount;
  ASSERT_EQ(count.query_id, sum_epoch.query_id);
  Status swapped = deployment.RegisterQuery(count);
  ASSERT_TRUE(swapped.ok()) << swapped.ToString();
  auto count_epoch = deployment.RunEpoch(2).value();
  EXPECT_TRUE(count_epoch.verified);
  EXPECT_EQ(count_epoch.query_id, count.query_id);
  EXPECT_EQ(count_epoch.result.value, 16.0);  // every one of the 16 sources
  EXPECT_EQ(count_epoch.result.count, 16u);
}

TEST(DeploymentTest, RejectedQueryLeavesTheLiveOneRunning) {
  // The broadcast authenticates, but the engine refuses an id beyond the
  // 14-bit salt field: the registration fails and the live query keeps
  // answering.
  auto deployment = MakeDeployment();
  ASSERT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  core::Query bad = AvgHumidityQuery();
  bad.query_id = 1u << 14;
  EXPECT_FALSE(deployment.RegisterQuery(bad).ok());
  auto out = deployment.RunEpoch(1).value();
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(out.query_id, SumTempQuery().query_id);
  EXPECT_GE(out.result.value, 16 * 18.0);  // a SUM over 16 sources >= 18 C
}

TEST(DeploymentTest, AttacksStillDetectedAfterQuerySwitch) {
  auto deployment = MakeDeployment();
  ASSERT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  ASSERT_TRUE(deployment.RunEpoch(1).value().verified);
  ASSERT_TRUE(deployment.RegisterQuery(AvgHumidityQuery()).ok());

  net::BitFlipAdversary adversary(
      deployment.network().topology().root(), 5);
  deployment.network().SetAdversary(&adversary);
  auto attacked = deployment.RunEpoch(2);
  deployment.network().SetAdversary(nullptr);
  if (attacked.ok()) {
    EXPECT_FALSE(attacked.value().verified);
  }
  EXPECT_TRUE(deployment.RunEpoch(3).value().verified);
  EXPECT_GE(deployment.log().rejected_epochs(), attacked.ok() ? 1u : 0u);
}

TEST(DeploymentTest, LogTracksGaps) {
  auto deployment = MakeDeployment();
  ASSERT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  ASSERT_TRUE(deployment.RunEpoch(1).ok());
  ASSERT_TRUE(deployment.RunEpoch(5).ok());  // epochs 2-4 never reported
  EXPECT_EQ(deployment.log().missed_epochs(), 3u);
}

TEST(DeploymentTest, ChainExhaustionReported) {
  workload::TraceConfig tc;
  tc.seed = 3;
  auto deployment =
      ContinuousDeployment::Create(
          net::Topology::BuildCompleteTree(4, 2).value(), 3, tc,
          /*chain_length=*/2)
          .value();
  EXPECT_TRUE(deployment.RegisterQuery(SumTempQuery()).ok());
  EXPECT_TRUE(deployment.RegisterQuery(AvgHumidityQuery()).ok());
  // Third registration exceeds the muTesla chain.
  EXPECT_FALSE(deployment.RegisterQuery(SumTempQuery()).ok());
}

}  // namespace
}  // namespace sies::runner
