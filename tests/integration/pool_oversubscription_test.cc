// Oversubscription regression for the batched derivation path.
//
// ThreadPool runs nested ParallelFor calls inline on the issuing lane —
// safe, but the inner loop then serializes on one lane. The hot paths
// are therefore structured to fan out exactly once at the outermost
// level: EpochKeyCache::Sources batches per-source derivations into
// groups under ONE flat ParallelFor, and the engine warms each
// channel's epoch material from the driver thread before its
// per-channel Evaluate dispatch. ThreadPool::nested_inline_jobs()
// counts every nested dispatch, so these tests pin the invariant: the
// batched paths keep it at zero, while deliberate nesting completes
// without deadlock and is counted.
//
// Runs under check.sh --tsan (label: race) so the flat fan-out is also
// exercised for data races.
#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "engine/engine.h"
#include "sies/epoch_key_cache.h"
#include "workload/workload.h"

namespace sies {
namespace {

// Deliberate nesting: completes (no deadlock on the pool's own lanes)
// and every nested dispatch is counted.
TEST(PoolOversubscriptionTest, NestedParallelForRunsInlineAndIsCounted) {
  common::ThreadPool pool(4);
  ASSERT_EQ(pool.nested_inline_jobs(), 0u);
  std::atomic<size_t> calls{0};
  pool.ParallelFor(8, [&](size_t) {
    pool.ParallelFor(4, [&](size_t) {
      calls.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(calls.load(), 32u);
  EXPECT_EQ(pool.nested_inline_jobs(), 8u)
      << "every inner dispatch came from inside a lane";
}

// The cold N-way derivation itself: groups fan out in one flat
// ParallelFor, so nothing nests even for N spanning several groups.
TEST(PoolOversubscriptionTest, BatchedSourcesDerivationNeverNests) {
  core::Params params = core::MakeParams(600, 42).value();  // 3 groups
  core::QuerierKeys keys = core::GenerateKeys(params, EncodeUint64(42));
  common::ThreadPool pool(4);
  core::EpochKeyCache cache;
  auto entry = cache.Sources(params, crypto::ScheduleKeys(keys.source_keys),
                             1, &pool);
  ASSERT_EQ(entry->keys_fp.size(), 600u);
  EXPECT_EQ(pool.nested_inline_jobs(), 0u);
  EXPECT_GE(pool.max_job_size(), 3u) << "groups must reach the workers";
}

core::Query MakeQuery(core::Aggregate aggregate, uint32_t id) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = core::Field::kTemperature;
  q.scale_pow10 = 2;
  q.query_id = id;
  return q;
}

// The full engine epoch: multi-channel Evaluate over a shared pool with
// cold epoch-key caches at N > one derivation group. The per-channel
// fan-out must not trigger a nested dispatch (the engine pre-warms each
// channel's epoch from the driver thread), and the epoch must verify.
TEST(PoolOversubscriptionTest, EngineEvaluateFanOutKeepsNestingAtZero) {
  constexpr uint32_t kN = 300;  // > one 256-wide derivation group
  auto params = core::MakeParams(kN, 7, /*value_bytes=*/8);
  ASSERT_TRUE(params.ok());
  core::QuerierKeys keys = core::GenerateKeys(params.value(), EncodeUint64(7));
  engine::MultiQueryEngine eng(params.value(), keys);
  // One root with every source as a direct child.
  std::vector<net::SourceRange> star;
  for (uint32_t i = 0; i < kN; ++i) star.push_back({i, i + 1});
  common::ThreadPool pool(4);
  eng.SetThreadPool(&pool);

  ASSERT_TRUE(eng.Admit(MakeQuery(core::Aggregate::kSum, 0), 1).ok());
  ASSERT_TRUE(eng.Admit(MakeQuery(core::Aggregate::kVariance, 1), 1).ok());

  workload::TraceConfig tc;
  tc.num_sources = kN;
  tc.seed = 7;
  workload::TraceGenerator trace(tc);

  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    std::vector<Bytes> payloads;
    payloads.reserve(kN);
    for (uint32_t i = 0; i < kN; ++i) {
      auto p = eng.CreateSourcePayload(i, trace.ReadingAt(i, epoch), epoch);
      ASSERT_TRUE(p.ok()) << p.status().message();
      payloads.push_back(std::move(p).value());
    }
    auto merged = eng.Merge(star, payloads);
    ASSERT_TRUE(merged.ok()) << merged.status().message();
    auto outcomes = eng.Evaluate(merged.value(), epoch);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().message();
    for (const engine::QueryEpochOutcome& out : outcomes.value()) {
      EXPECT_TRUE(out.outcome.verified) << "epoch " << epoch;
    }
  }
  EXPECT_EQ(pool.nested_inline_jobs(), 0u)
      << "a cold derivation ran inside a pool lane — the engine must warm "
         "epoch keys on the driver thread before the channel fan-out";
}

}  // namespace
}  // namespace sies
