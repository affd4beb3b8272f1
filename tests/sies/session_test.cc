#include "oracle/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace sies::core {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kN = 6;

  SessionTest()
      : params_(MakeParams(kN, /*seed=*/13, /*value_bytes=*/8).value()),
        keys_(GenerateKeys(params_, {3, 1})) {
    all_.resize(kN);
    std::iota(all_.begin(), all_.end(), 0u);
    // Every run merges at one root with the kN sources as children.
    for (uint32_t i = 0; i < kN; ++i) star_.push_back({i, i + 1});
    readings_ = {
        {20.5, 40, 100, 2.5}, {25.0, 45, 200, 2.6}, {30.5, 50, 300, 2.7},
        {35.0, 55, 400, 2.4}, {40.5, 60, 500, 2.3}, {45.0, 65, 600, 2.2}};
  }

  // Runs all phases of `query` over the readings for one epoch.
  StatusOr<QuerierSession::Outcome> Run(const Query& query, uint64_t epoch) {
    AggregatorSession agg(query, params_);
    QuerierSession querier(query, params_, keys_);
    Bytes merged;
    std::vector<Bytes> payloads;
    for (uint32_t i = 0; i < kN; ++i) {
      SourceSession src(query, params_, i, KeysForSource(keys_, i).value());
      auto payload = src.CreatePayload(readings_[i], epoch);
      if (!payload.ok()) return payload.status();
      payloads.push_back(std::move(payload).value());
    }
    auto final_payload = agg.Merge(star_, payloads);
    if (!final_payload.ok()) return final_payload.status();
    last_payload_ = final_payload.value();
    return querier.Evaluate(final_payload.value(), epoch);
  }

  Params params_;
  QuerierKeys keys_;
  std::vector<SensorReading> readings_;
  std::vector<uint32_t> all_;
  std::vector<net::SourceRange> star_;
  Bytes last_payload_;
};

TEST_F(SessionTest, ActiveChannelsPerAggregate) {
  Query q;
  q.aggregate = Aggregate::kSum;
  EXPECT_EQ(ActiveChannels(q).size(), 1u);
  q.aggregate = Aggregate::kAvg;
  EXPECT_EQ(ActiveChannels(q).size(), 2u);
  q.aggregate = Aggregate::kStddev;
  EXPECT_EQ(ActiveChannels(q).size(), 3u);
}

TEST_F(SessionTest, SumQueryExact) {
  Query q;
  q.aggregate = Aggregate::kSum;
  q.attribute = Field::kTemperature;
  q.scale_pow10 = 1;
  auto outcome = Run(q, 1).value();
  EXPECT_TRUE(outcome.verified);
  // Sum of trunc(temp*10)/10 = (205+250+305+350+405+450)/10 = 196.5.
  EXPECT_DOUBLE_EQ(outcome.result.value, 196.5);
  // Lossless: an empty contributor field, one PSR.
  EXPECT_EQ(last_payload_.size(), params_.PsrBytes());
  EXPECT_EQ(outcome.contributors, all_);
  EXPECT_DOUBLE_EQ(outcome.coverage, 1.0);
}

TEST_F(SessionTest, CountQueryWithPredicate) {
  Query q;
  q.aggregate = Aggregate::kCount;
  q.where = Predicate{Field::kTemperature, CompareOp::kGreater, 30.0};
  auto outcome = Run(q, 2).value();
  EXPECT_TRUE(outcome.verified);
  EXPECT_DOUBLE_EQ(outcome.result.value, 4.0);  // 30.5, 35.0, 40.5, 45.0
}

TEST_F(SessionTest, AvgQueryTwoChannels) {
  Query q;
  q.aggregate = Aggregate::kAvg;
  q.attribute = Field::kHumidity;
  q.scale_pow10 = 0;
  auto outcome = Run(q, 3).value();
  EXPECT_TRUE(outcome.verified);
  // humidity {40,45,50,55,60,65}: mean = 52.5.
  EXPECT_DOUBLE_EQ(outcome.result.value, 52.5);
  EXPECT_EQ(outcome.result.count, kN);
  EXPECT_EQ(last_payload_.size(), 2 * params_.PsrBytes());
}

TEST_F(SessionTest, VarianceQueryThreeChannels) {
  Query q;
  q.aggregate = Aggregate::kVariance;
  q.attribute = Field::kHumidity;
  q.scale_pow10 = 0;
  auto outcome = Run(q, 4).value();
  EXPECT_TRUE(outcome.verified);
  // Population variance of {40,45,50,55,60,65} = 72.9166...
  EXPECT_NEAR(outcome.result.value, 875.0 / 12.0, 1e-9);
  EXPECT_EQ(last_payload_.size(), 3 * params_.PsrBytes());
}

TEST_F(SessionTest, StddevQuery) {
  Query q;
  q.aggregate = Aggregate::kStddev;
  q.attribute = Field::kHumidity;
  auto outcome = Run(q, 5).value();
  EXPECT_TRUE(outcome.verified);
  EXPECT_NEAR(outcome.result.value, std::sqrt(875.0 / 12.0), 1e-6);
}

TEST_F(SessionTest, PredicateWithNoMatchesYieldsZero) {
  Query q;
  q.aggregate = Aggregate::kAvg;
  q.where = Predicate{Field::kTemperature, CompareOp::kGreater, 1000.0};
  auto outcome = Run(q, 6).value();
  EXPECT_TRUE(outcome.verified);
  EXPECT_DOUBLE_EQ(outcome.result.value, 0.0);
  EXPECT_EQ(outcome.result.count, 0u);
}

TEST_F(SessionTest, TamperedPayloadFailsAllAggregates) {
  Query q;
  q.aggregate = Aggregate::kVariance;
  q.attribute = Field::kHumidity;
  ASSERT_TRUE(Run(q, 7).value().verified);
  QuerierSession querier(q, params_, keys_);
  // The lossless payload is all ciphertext: the offsets land in the
  // first, second and third channel.
  for (size_t byte : {size_t{5}, params_.PsrBytes(),
                      2 * params_.PsrBytes() + 5}) {
    Bytes tampered = last_payload_;
    tampered[byte] ^= 0x10;
    auto outcome = querier.Evaluate(tampered, 7);
    if (outcome.ok()) {
      EXPECT_FALSE(outcome.value().verified) << "byte " << byte;
    }
  }
}

TEST_F(SessionTest, ClearedContributorBitFailsVerification) {
  // A contributor field inserted in flight hides a source that DID
  // contribute: the querier's share sum is then short one share and
  // must mismatch.
  Query q;
  q.aggregate = Aggregate::kSum;
  q.attribute = Field::kHumidity;
  q.scale_pow10 = 0;
  ASSERT_TRUE(Run(q, 11).value().verified);
  QuerierSession querier(q, params_, keys_);
  ASSERT_EQ(last_payload_.size(), params_.PsrBytes());  // complete set
  // Bitmap over the 6 sources with source 3's bit cleared (the absent
  // list would take 2 bytes, the bitmap 1).
  Bytes tampered = {0x37};
  tampered.insert(tampered.end(), last_payload_.begin(), last_payload_.end());
  auto outcome = querier.Evaluate(tampered, 11).value();
  EXPECT_FALSE(outcome.verified);
  EXPECT_EQ(outcome.contributors.size(), kN - 1);
}

TEST_F(SessionTest, ReplayAcrossEpochsFails) {
  Query q;
  q.aggregate = Aggregate::kAvg;
  ASSERT_TRUE(Run(q, 8).value().verified);
  QuerierSession querier(q, params_, keys_);
  auto outcome = querier.Evaluate(last_payload_, 9).value();
  EXPECT_FALSE(outcome.verified);
}

TEST_F(SessionTest, PartialMergeYieldsVerifiedPartialResult) {
  // Only sources {0, 2, 5} survive the radio: the merged contributor set
  // names exactly them and the partial SUM verifies over that subset.
  Query q;
  q.aggregate = Aggregate::kSum;
  q.attribute = Field::kHumidity;
  q.scale_pow10 = 0;
  AggregatorSession agg(q, params_);
  QuerierSession querier(q, params_, keys_);
  std::vector<Bytes> payloads(kN);  // empty slot: lost on the radio
  for (uint32_t i : {0u, 2u, 5u}) {
    SourceSession src(q, params_, i, KeysForSource(keys_, i).value());
    payloads[i] = src.CreatePayload(readings_[i], /*epoch=*/4).value();
  }
  auto outcome =
      querier.Evaluate(agg.Merge(star_, payloads).value(), 4).value();
  EXPECT_TRUE(outcome.verified);
  EXPECT_DOUBLE_EQ(outcome.result.value, 40.0 + 50.0 + 65.0);
  EXPECT_EQ(outcome.contributors, (std::vector<uint32_t>{0, 2, 5}));
  EXPECT_DOUBLE_EQ(outcome.coverage, 3.0 / kN);
}

TEST_F(SessionTest, WidthValidation) {
  Query q;
  q.aggregate = Aggregate::kAvg;
  AggregatorSession agg(q, params_);
  QuerierSession querier(q, params_, keys_);
  const std::span<const net::SourceRange> one_source(star_.data(), 1);
  EXPECT_FALSE(agg.Merge(one_source, {Bytes(5, 0)}).ok());
  EXPECT_FALSE(agg.Merge({}, {}).ok());
  EXPECT_FALSE(agg.Merge(one_source, {Bytes()}).ok());  // nothing arrived
  EXPECT_FALSE(querier.Evaluate(Bytes(5, 0), 1).ok());
}

TEST_F(SessionTest, ConcurrentQueriesDoNotInterfere) {
  // Two continuous queries with different query_ids run over the same
  // key material at the same epoch; both must verify and be exact.
  Query sum_query;
  sum_query.aggregate = Aggregate::kSum;
  sum_query.attribute = Field::kHumidity;
  sum_query.scale_pow10 = 0;
  sum_query.query_id = 1;
  Query count_query;
  count_query.aggregate = Aggregate::kCount;
  count_query.where =
      Predicate{Field::kTemperature, CompareOp::kGreater, 30.0};
  count_query.query_id = 2;

  auto run_one = [&](const Query& q) {
    AggregatorSession agg(q, params_);
    QuerierSession querier(q, params_, keys_);
    std::vector<Bytes> payloads;
    for (uint32_t i = 0; i < kN; ++i) {
      SourceSession src(q, params_, i, KeysForSource(keys_, i).value());
      payloads.push_back(src.CreatePayload(readings_[i], /*epoch=*/3)
                             .value());
    }
    return querier.Evaluate(agg.Merge(star_, payloads).value(), 3).value();
  };

  auto sum_outcome = run_one(sum_query);
  auto count_outcome = run_one(count_query);
  EXPECT_TRUE(sum_outcome.verified);
  EXPECT_TRUE(count_outcome.verified);
  EXPECT_DOUBLE_EQ(sum_outcome.result.value, 315.0);  // Σ humidity
  EXPECT_DOUBLE_EQ(count_outcome.result.value, 4.0);

  // Cross-query confusion must fail: evaluating query-1 payloads under
  // query-2's session rejects (different PRF inputs).
  AggregatorSession agg1(sum_query, params_);
  std::vector<Bytes> payloads;
  for (uint32_t i = 0; i < kN; ++i) {
    SourceSession src(sum_query, params_, i,
                      KeysForSource(keys_, i).value());
    payloads.push_back(src.CreatePayload(readings_[i], 3).value());
  }
  Query impostor = sum_query;
  impostor.query_id = 3;
  QuerierSession wrong_querier(impostor, params_, keys_);
  auto crossed =
      wrong_querier.Evaluate(agg1.Merge(star_, payloads).value(), 3).value();
  EXPECT_FALSE(crossed.verified);
}

TEST_F(SessionTest, ChannelsAreIndependentlyKeyed) {
  // The same reading encrypted for SUM vs COUNT channels must produce
  // different PSR bytes (channel-salted epochs).
  Query q;
  q.aggregate = Aggregate::kAvg;
  SourceSession src(q, params_, 0, KeysForSource(keys_, 0).value());
  Bytes payload = src.CreatePayload(readings_[0], 1).value();
  auto body = payload.begin();  // a source's contributor field is empty
  Bytes sum_psr(body, body + params_.PsrBytes());
  Bytes count_psr(body + params_.PsrBytes(), payload.end());
  EXPECT_NE(sum_psr, count_psr);
}

}  // namespace
}  // namespace sies::core
