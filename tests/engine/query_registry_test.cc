// QueryRegistry: admission validation, the salt-collision rule, and
// teardown bookkeeping.
#include "engine/query_registry.h"

#include <gtest/gtest.h>

namespace sies::engine {
namespace {

core::Query MakeQuery(core::Aggregate aggregate, uint32_t id) {
  core::Query q;
  q.aggregate = aggregate;
  q.scale_pow10 = 2;
  q.query_id = id;
  return q;
}

TEST(QueryRegistryTest, AdmitAndFind) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kAvg, 7), 3).ok());
  ASSERT_EQ(registry.active().size(), 1u);
  const ActiveQuery* aq = registry.Find(7);
  ASSERT_NE(aq, nullptr);
  EXPECT_EQ(aq->admitted_epoch, 3u);
  EXPECT_EQ(registry.Find(8), nullptr);
}

TEST(QueryRegistryTest, RejectsIdBeyondSaltField) {
  QueryRegistry registry;
  Status s = registry.Admit(MakeQuery(core::Aggregate::kSum, kMaxQueryId + 1),
                            1);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(
      registry.Admit(MakeQuery(core::Aggregate::kSum, kMaxQueryId), 1).ok());
}

TEST(QueryRegistryTest, RejectsDuplicateActiveId) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kSum, 1), 1).ok());
  Status s = registry.Admit(MakeQuery(core::Aggregate::kCount, 1), 2);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(QueryRegistryTest, RejectsIdThatStillSaltsALiveChannel) {
  QueryRegistry registry;
  // q0 creates the SUM+COUNT slots; q1 shares them; q0 leaves. The
  // slots live on salted with id 0, so re-admitting id 0 would derive
  // colliding PRF inputs for a DIFFERENT channel set — refuse it.
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kAvg, 0), 1).ok());
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kAvg, 1), 1).ok());
  ASSERT_TRUE(registry.Teardown(0, 2).ok());
  Status s = registry.Admit(MakeQuery(core::Aggregate::kSum, 0), 3);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  // Once the last reader leaves, the salt frees up again.
  ASSERT_TRUE(registry.Teardown(1, 4).ok());
  EXPECT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kSum, 0), 5).ok());
}

TEST(QueryRegistryTest, TeardownUnknownIdIsNotFound) {
  QueryRegistry registry;
  EXPECT_EQ(registry.Teardown(5, 1).code(), StatusCode::kNotFound);
}

TEST(QueryRegistryTest, TeardownKeepsRemainingQueriesInAdmissionOrder) {
  QueryRegistry registry;
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kSum, 2), 1).ok());
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kCount, 0), 1).ok());
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kAvg, 1), 2).ok());
  ASSERT_TRUE(registry.Teardown(0, 3).ok());
  ASSERT_EQ(registry.active().size(), 2u);
  EXPECT_EQ(registry.active()[0].query.query_id, 2u);
  EXPECT_EQ(registry.active()[1].query.query_id, 1u);
}

TEST(QueryRegistryTest, PlanTracksAdmissionsAndTeardowns) {
  QueryRegistry registry;
  ASSERT_TRUE(
      registry.Admit(MakeQuery(core::Aggregate::kVariance, 0), 1).ok());
  ASSERT_TRUE(registry.Admit(MakeQuery(core::Aggregate::kAvg, 1), 1).ok());
  EXPECT_EQ(registry.plan().Count(), 3u);
  EXPECT_EQ(registry.plan().DedupSavings(), 2u);
  ASSERT_TRUE(registry.Teardown(0, 2).ok());
  // AVG keeps SUM + COUNT alive; the SUMSQ slot dies with q0.
  EXPECT_EQ(registry.plan().Count(), 2u);
}

}  // namespace
}  // namespace sies::engine
