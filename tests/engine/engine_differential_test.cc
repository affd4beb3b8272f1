// Differential test: the multi-query engine must produce outcomes
// BIT-IDENTICAL to K independent single-query QuerierSessions over the
// same readings — same values, same verified flags, same contributor
// sets, same coverage — across query mixes, partial participation
// (loss), and tampering. Also: per-query fault isolation (corrupting
// one physical channel fails exactly the queries reading it) and
// thread-count invariance.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "oracle/session.h"
#include "workload/workload.h"

namespace sies::engine {
namespace {

constexpr uint32_t kN = 16;
constexpr uint64_t kSeed = 11;

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

class Fixture {
 public:
  Fixture() {
    params_ = core::MakeParams(kN, kSeed, /*value_bytes=*/8).value();
    keys_ = core::GenerateKeys(params_, EncodeUint64(kSeed));
    workload::TraceConfig tc;
    tc.num_sources = kN;
    tc.seed = kSeed;
    trace_ = std::make_unique<workload::TraceGenerator>(tc);
    // Every round merges at one root with the kN sources as children.
    for (uint32_t i = 0; i < kN; ++i) star_.push_back({i, i + 1});
  }

  MultiQueryEngine MakeEngine() const { return MultiQueryEngine(params_, keys_); }

  /// One engine epoch with only `participants` transmitting.
  StatusOr<Bytes> EngineRound(const MultiQueryEngine& eng,
                              const std::vector<uint32_t>& participants,
                              uint64_t epoch) {
    std::vector<Bytes> payloads(kN);  // empty slot: did not transmit
    for (uint32_t i : participants) {
      auto p = eng.CreateSourcePayload(i, trace_->ReadingAt(i, epoch), epoch);
      if (!p.ok()) return p.status();
      payloads[i] = std::move(p).value();
    }
    return eng.Merge(star_, payloads);
  }

  /// The same epoch through an independent single-query session.
  StatusOr<core::EpochOutcome> SessionEpoch(
      const core::Query& query, const std::vector<uint32_t>& participants,
      uint64_t epoch) {
    std::vector<Bytes> payloads(kN);
    for (uint32_t i : participants) {
      core::SourceSession source(query, params_, i,
                                 core::KeysForSource(keys_, i).value());
      auto p = source.CreatePayload(trace_->ReadingAt(i, epoch), epoch);
      if (!p.ok()) return p.status();
      payloads[i] = std::move(p).value();
    }
    core::AggregatorSession aggregator(query, params_);
    auto merged = aggregator.Merge(star_, payloads);
    if (!merged.ok()) return merged.status();
    core::QuerierSession querier(query, params_, keys_);
    return querier.Evaluate(merged.value(), epoch);
  }

  /// Asserts outcome equality for every query of the mix at `epoch`.
  void ExpectBitIdentical(const std::vector<core::Query>& mix,
                          const std::vector<uint32_t>& participants,
                          uint64_t epoch) {
    MultiQueryEngine eng = MakeEngine();
    for (const core::Query& q : mix) {
      ASSERT_TRUE(eng.Admit(q, 1).ok());
    }
    auto merged = EngineRound(eng, participants, epoch);
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    auto outcomes = eng.Evaluate(merged.value(), epoch);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    ASSERT_EQ(outcomes.value().size(), mix.size());

    for (size_t i = 0; i < mix.size(); ++i) {
      const QueryEpochOutcome& got = outcomes.value()[i];
      EXPECT_EQ(got.query_id, mix[i].query_id);
      auto want = SessionEpoch(mix[i], participants, epoch);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      // Bit-identical, not approximately equal: both paths run the same
      // integer channel sums through the same AssembleOutcome doubles.
      EXPECT_EQ(got.outcome.result.value, want.value().result.value)
          << "query " << mix[i].ToSql();
      EXPECT_EQ(got.outcome.result.count, want.value().result.count);
      EXPECT_EQ(got.outcome.verified, want.value().verified);
      EXPECT_EQ(got.outcome.contributors, want.value().contributors);
      EXPECT_EQ(got.outcome.coverage, want.value().coverage);
    }
  }

  core::Params params_{};
  core::QuerierKeys keys_;
  std::unique_ptr<workload::TraceGenerator> trace_;
  std::vector<net::SourceRange> star_;
};

std::vector<uint32_t> AllSources() {
  std::vector<uint32_t> all;
  for (uint32_t i = 0; i < kN; ++i) all.push_back(i);
  return all;
}

std::vector<uint32_t> EveryOtherSource() {
  std::vector<uint32_t> some;
  for (uint32_t i = 0; i < kN; i += 2) some.push_back(i);
  return some;
}

// Mix 1: plain aggregates sharing all three channels.
std::vector<core::Query> MixShared() {
  return {MakeQuery(core::Aggregate::kAvg, 0),
          MakeQuery(core::Aggregate::kVariance, 1),
          MakeQuery(core::Aggregate::kSum, 2)};
}

// Mix 2: predicated queries plus an unpredicated STDDEV.
std::vector<core::Query> MixPredicated() {
  core::Predicate hot{core::Field::kTemperature,
                      core::CompareOp::kGreaterEqual, 30.0};
  core::Query count_hot = MakeQuery(core::Aggregate::kCount, 0);
  count_hot.where = hot;
  core::Query avg_hot = MakeQuery(core::Aggregate::kAvg, 1);
  avg_hot.where = hot;
  return {count_hot, avg_hot, MakeQuery(core::Aggregate::kStddev, 2)};
}

// Mix 3: mixed attributes and scales, non-contiguous ids.
std::vector<core::Query> MixAttributes() {
  return {MakeQuery(core::Aggregate::kCount, 0),
          MakeQuery(core::Aggregate::kSum, 3, core::Field::kHumidity, 1),
          MakeQuery(core::Aggregate::kAvg, 7, core::Field::kHumidity, 1)};
}

TEST(EngineDifferentialTest, SharedMixMatchesSessionsFullParticipation) {
  Fixture f;
  for (uint64_t epoch : {1u, 2u, 5u}) {
    f.ExpectBitIdentical(MixShared(), AllSources(), epoch);
  }
}

TEST(EngineDifferentialTest, SharedMixMatchesSessionsUnderLoss) {
  Fixture f;
  f.ExpectBitIdentical(MixShared(), EveryOtherSource(), 3);
}

TEST(EngineDifferentialTest, PredicatedMixMatchesSessions) {
  Fixture f;
  f.ExpectBitIdentical(MixPredicated(), AllSources(), 1);
  f.ExpectBitIdentical(MixPredicated(), EveryOtherSource(), 2);
}

TEST(EngineDifferentialTest, AttributeMixMatchesSessions) {
  Fixture f;
  f.ExpectBitIdentical(MixAttributes(), AllSources(), 1);
  f.ExpectBitIdentical(MixAttributes(), EveryOtherSource(), 4);
}

TEST(EngineDifferentialTest, TamperedChannelMatchesTamperedSession) {
  // Corrupt the final byte of the envelope (inside the LAST physical
  // channel's PSR) on both paths: the engine must agree with the
  // session reading that channel — unverified on both sides.
  Fixture f;
  MultiQueryEngine eng = f.MakeEngine();
  core::Query sum = MakeQuery(core::Aggregate::kSum, 0);
  core::Query var = MakeQuery(core::Aggregate::kVariance, 1);
  ASSERT_TRUE(eng.Admit(sum, 1).ok());
  ASSERT_TRUE(eng.Admit(var, 1).ok());

  auto merged = f.EngineRound(eng, AllSources(), 1);
  ASSERT_TRUE(merged.ok());
  Bytes tampered = merged.value();
  tampered.back() ^= 0x01;
  auto outcomes = eng.Evaluate(tampered, 1);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes.value().size(), 2u);
  // Wire order (salt_id, kind): (0,SUM), (1,SUMSQ), (1,COUNT) — the
  // corrupted tail is VARIANCE's COUNT channel.
  EXPECT_TRUE(outcomes.value()[0].outcome.verified)
      << "SUM does not read the corrupted channel";
  EXPECT_FALSE(outcomes.value()[1].outcome.verified)
      << "VARIANCE reads the corrupted channel";
}

TEST(EngineDifferentialTest, ThreadCountDoesNotChangeOutcomes) {
  Fixture f;
  MultiQueryEngine serial = f.MakeEngine();
  MultiQueryEngine pooled = f.MakeEngine();
  common::ThreadPool pool(4);
  pooled.SetThreadPool(&pool);
  for (const core::Query& q : MixShared()) {
    ASSERT_TRUE(serial.Admit(q, 1).ok());
    ASSERT_TRUE(pooled.Admit(q, 1).ok());
  }
  auto merged = f.EngineRound(serial, AllSources(), 2);
  ASSERT_TRUE(merged.ok());
  auto a = serial.Evaluate(merged.value(), 2);
  auto b = pooled.Evaluate(merged.value(), 2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().size(), b.value().size());
  for (size_t i = 0; i < a.value().size(); ++i) {
    EXPECT_EQ(a.value()[i].outcome.result.value,
              b.value()[i].outcome.result.value);
    EXPECT_EQ(a.value()[i].outcome.verified, b.value()[i].outcome.verified);
    EXPECT_EQ(a.value()[i].outcome.contributors,
              b.value()[i].outcome.contributors);
  }
}

TEST(EngineDifferentialTest, AdmissionOrderDoesNotChangeAnswers) {
  // The same mix admitted in a different order dedups onto different
  // salt slots, but every query's ANSWER must be unchanged.
  Fixture f;
  MultiQueryEngine forward = f.MakeEngine();
  MultiQueryEngine reverse = f.MakeEngine();
  std::vector<core::Query> mix = MixShared();
  for (const core::Query& q : mix) ASSERT_TRUE(forward.Admit(q, 1).ok());
  for (auto it = mix.rbegin(); it != mix.rend(); ++it) {
    ASSERT_TRUE(reverse.Admit(*it, 1).ok());
  }
  auto fwd_merged = f.EngineRound(forward, AllSources(), 1);
  auto rev_merged = f.EngineRound(reverse, AllSources(), 1);
  ASSERT_TRUE(fwd_merged.ok());
  ASSERT_TRUE(rev_merged.ok());
  auto fwd = forward.Evaluate(fwd_merged.value(), 1);
  auto rev = reverse.Evaluate(rev_merged.value(), 1);
  ASSERT_TRUE(fwd.ok());
  ASSERT_TRUE(rev.ok());
  for (const QueryEpochOutcome& fo : fwd.value()) {
    bool found = false;
    for (const QueryEpochOutcome& ro : rev.value()) {
      if (ro.query_id != fo.query_id) continue;
      found = true;
      EXPECT_EQ(fo.outcome.result.value, ro.outcome.result.value);
      EXPECT_TRUE(fo.outcome.verified);
      EXPECT_TRUE(ro.outcome.verified);
    }
    EXPECT_TRUE(found);
  }
}

}  // namespace
}  // namespace sies::engine
