// ChannelPlan: dedup correctness, wire-order stability, salt lifetime.
#include "engine/channel_plan.h"

#include <gtest/gtest.h>

#include "sies/query.h"

namespace sies::engine {
namespace {

core::Query MakeQuery(core::Aggregate aggregate, uint32_t id,
                      core::Field attribute = core::Field::kTemperature,
                      uint32_t scale = 2) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = attribute;
  q.scale_pow10 = scale;
  q.query_id = id;
  return q;
}

TEST(ChannelPlanTest, SingleQueryCreatesItsChannels) {
  ChannelPlan plan;
  plan.Admit(MakeQuery(core::Aggregate::kVariance, 3));
  ASSERT_EQ(plan.Count(), 3u);
  EXPECT_EQ(plan.DedupSavings(), 0u);
  for (const PhysicalChannel& ch : plan.channels()) {
    EXPECT_EQ(ch.salt_id, 3u);
    EXPECT_EQ(ch.refcount, 1u);
  }
}

TEST(ChannelPlanTest, IdenticalAggregatesShareEveryChannel) {
  ChannelPlan plan;
  plan.Admit(MakeQuery(core::Aggregate::kAvg, 0));
  plan.Admit(MakeQuery(core::Aggregate::kAvg, 1));
  // AVG = SUM + COUNT; the second query rides the first one's slots.
  EXPECT_EQ(plan.Count(), 2u);
  EXPECT_EQ(plan.DedupSavings(), 2u);
  for (const PhysicalChannel& ch : plan.channels()) {
    EXPECT_EQ(ch.salt_id, 0u) << "shared slots keep the creator's salt";
    EXPECT_EQ(ch.refcount, 2u);
  }
}

TEST(ChannelPlanTest, OverlappingAggregatesShareThePrefix) {
  ChannelPlan plan;
  plan.Admit(MakeQuery(core::Aggregate::kAvg, 0));       // SUM + COUNT
  plan.Admit(MakeQuery(core::Aggregate::kVariance, 1));  // + SUMSQ
  plan.Admit(MakeQuery(core::Aggregate::kSum, 2));       // all shared
  EXPECT_EQ(plan.Count(), 3u);
  EXPECT_EQ(plan.DedupSavings(), 3u);
}

TEST(ChannelPlanTest, CountChannelIgnoresAttributeAndScale) {
  ChannelPlan plan;
  // COUNT transmits 1{pred}: attribute and scaling are irrelevant, so
  // COUNT(temperature) and COUNT(humidity) share one slot.
  plan.Admit(MakeQuery(core::Aggregate::kCount, 0,
                       core::Field::kTemperature, 2));
  plan.Admit(MakeQuery(core::Aggregate::kCount, 1,
                       core::Field::kHumidity, 0));
  EXPECT_EQ(plan.Count(), 1u);
  EXPECT_EQ(plan.DedupSavings(), 1u);
}

TEST(ChannelPlanTest, DistinctPredicatesDoNotShare) {
  core::Query hot = MakeQuery(core::Aggregate::kCount, 0);
  hot.where = core::Predicate{core::Field::kTemperature,
                              core::CompareOp::kGreaterEqual, 30.0};
  core::Query cold = MakeQuery(core::Aggregate::kCount, 1);
  cold.where = core::Predicate{core::Field::kTemperature,
                               core::CompareOp::kLess, 30.0};
  ChannelPlan plan;
  plan.Admit(hot);
  plan.Admit(cold);
  EXPECT_EQ(plan.Count(), 2u);
  EXPECT_EQ(plan.DedupSavings(), 0u);
}

TEST(ChannelPlanTest, DistinctAttributesDoNotShareSum) {
  ChannelPlan plan;
  plan.Admit(MakeQuery(core::Aggregate::kSum, 0, core::Field::kTemperature));
  plan.Admit(MakeQuery(core::Aggregate::kSum, 1, core::Field::kHumidity));
  EXPECT_EQ(plan.Count(), 2u);
}

TEST(ChannelPlanTest, WireOrderIsAscendingSaltThenKind) {
  ChannelPlan plan;
  plan.Admit(MakeQuery(core::Aggregate::kSum, 5));
  plan.Admit(MakeQuery(core::Aggregate::kVariance, 2,
                       core::Field::kHumidity));
  const auto& chans = plan.channels();
  ASSERT_EQ(chans.size(), 4u);
  for (size_t i = 1; i < chans.size(); ++i) {
    const bool ordered =
        chans[i - 1].salt_id < chans[i].salt_id ||
        (chans[i - 1].salt_id == chans[i].salt_id &&
         static_cast<uint32_t>(chans[i - 1].spec.kind) <
             static_cast<uint32_t>(chans[i].spec.kind));
    EXPECT_TRUE(ordered) << "slot " << i << " out of wire order";
  }
}

TEST(ChannelPlanTest, TeardownReleasesOnlyUnsharedSlots) {
  ChannelPlan plan;
  core::Query avg = MakeQuery(core::Aggregate::kAvg, 0);
  core::Query var = MakeQuery(core::Aggregate::kVariance, 1);
  plan.Admit(avg);
  plan.Admit(var);
  ASSERT_EQ(plan.Count(), 3u);

  plan.Teardown(avg);
  // VARIANCE still reads SUM and COUNT: all three slots survive.
  EXPECT_EQ(plan.Count(), 3u);
  // ...under the original creator's salt, even though q0 is gone.
  EXPECT_TRUE(plan.SaltIdInUse(0));

  plan.Teardown(var);
  EXPECT_EQ(plan.Count(), 0u);
  EXPECT_FALSE(plan.SaltIdInUse(0));
  EXPECT_FALSE(plan.SaltIdInUse(1));
}

TEST(ChannelPlanTest, ChannelsOfMapsEveryActiveChannel) {
  ChannelPlan plan;
  core::Query avg = MakeQuery(core::Aggregate::kAvg, 0);
  core::Query var = MakeQuery(core::Aggregate::kVariance, 1);
  plan.Admit(avg);
  plan.Admit(var);
  auto slots = plan.ChannelsOf(var);
  ASSERT_TRUE(slots.ok());
  // One slot per active channel, in the query's own channel order.
  ASSERT_EQ(slots.value().size(), core::ActiveChannels(var).size());
  for (size_t i = 0; i < slots.value().size(); ++i) {
    EXPECT_EQ(plan.channels()[slots.value()[i]].spec.kind,
              core::ActiveChannels(var)[i]);
  }
}

TEST(ChannelPlanTest, ChannelsOfUnknownQueryIsNotFound) {
  ChannelPlan plan;
  plan.Admit(MakeQuery(core::Aggregate::kSum, 0));
  auto slots = plan.ChannelsOf(MakeQuery(core::Aggregate::kCount, 1));
  EXPECT_EQ(slots.status().code(), StatusCode::kNotFound);
}

TEST(ChannelPlanTest, ValueForMatchesSingleQueryChannelValue) {
  core::Query q = MakeQuery(core::Aggregate::kVariance, 0);
  q.where = core::Predicate{core::Field::kTemperature,
                            core::CompareOp::kGreaterEqual, 20.0};
  core::SensorReading hot{/*temperature=*/25.5, /*humidity=*/40.0,
                          /*light=*/100.0, /*voltage=*/2.7};
  core::SensorReading cold{/*temperature=*/10.0, 40.0, 100.0, 2.7};
  for (core::Channel kind : core::ActiveChannels(q)) {
    ChannelSpec spec = ChannelSpec::Canonical(q, kind);
    for (const core::SensorReading& r : {hot, cold}) {
      auto via_spec = spec.ValueFor(r);
      auto via_query = core::ChannelValue(q, kind, r);
      ASSERT_TRUE(via_spec.ok());
      ASSERT_TRUE(via_query.ok());
      EXPECT_EQ(via_spec.value(), via_query.value());
    }
  }
}

TEST(ChannelPlanTest, SaltedEpochInputsNeverCollideAcrossSlots) {
  ChannelPlan plan;
  plan.Admit(MakeQuery(core::Aggregate::kVariance, 0));
  plan.Admit(MakeQuery(core::Aggregate::kVariance, 1,
                       core::Field::kHumidity));
  std::vector<uint64_t> salted;
  for (const PhysicalChannel& ch : plan.channels()) {
    salted.push_back(ch.SaltedEpochFor(42));
  }
  std::sort(salted.begin(), salted.end());
  EXPECT_EQ(std::adjacent_find(salted.begin(), salted.end()), salted.end())
      << "two live channels share a PRF input";
}

}  // namespace
}  // namespace sies::engine
