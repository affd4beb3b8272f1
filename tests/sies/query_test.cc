#include "sies/query.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace sies::core {
namespace {

SensorReading MakeReading(double temp) {
  SensorReading r;
  r.temperature = temp;
  r.humidity = 55.0;
  r.light = 300.0;
  r.voltage = 2.7;
  return r;
}

TEST(PredicateTest, AllOperators) {
  SensorReading r = MakeReading(25.0);
  EXPECT_TRUE((Predicate{Field::kTemperature, CompareOp::kLess, 30}).Matches(r));
  EXPECT_FALSE((Predicate{Field::kTemperature, CompareOp::kLess, 25}).Matches(r));
  EXPECT_TRUE(
      (Predicate{Field::kTemperature, CompareOp::kLessEqual, 25}).Matches(r));
  EXPECT_TRUE(
      (Predicate{Field::kTemperature, CompareOp::kGreater, 20}).Matches(r));
  EXPECT_FALSE(
      (Predicate{Field::kTemperature, CompareOp::kGreater, 25}).Matches(r));
  EXPECT_TRUE(
      (Predicate{Field::kTemperature, CompareOp::kGreaterEqual, 25}).Matches(r));
  EXPECT_TRUE((Predicate{Field::kTemperature, CompareOp::kEqual, 25}).Matches(r));
}

TEST(PredicateTest, FieldSelection) {
  SensorReading r = MakeReading(25.0);
  EXPECT_TRUE((Predicate{Field::kHumidity, CompareOp::kEqual, 55}).Matches(r));
  EXPECT_TRUE((Predicate{Field::kLight, CompareOp::kEqual, 300}).Matches(r));
  EXPECT_TRUE((Predicate{Field::kVoltage, CompareOp::kEqual, 2.7}).Matches(r));
}

TEST(QueryTest, ToSqlMatchesTemplate) {
  Query q;
  q.aggregate = Aggregate::kSum;
  q.attribute = Field::kTemperature;
  q.epoch_duration_ms = 500;
  EXPECT_EQ(q.ToSql(),
            "SELECT SUM(temperature) FROM Sensors EPOCH DURATION 500ms");
  q.where = Predicate{Field::kHumidity, CompareOp::kGreater, 40};
  EXPECT_NE(q.ToSql().find("WHERE humidity > "), std::string::npos);
}

TEST(ChannelCountTest, PerAggregate) {
  EXPECT_EQ(ChannelCount(Aggregate::kSum), 1u);
  EXPECT_EQ(ChannelCount(Aggregate::kCount), 1u);
  EXPECT_EQ(ChannelCount(Aggregate::kAvg), 2u);
  EXPECT_EQ(ChannelCount(Aggregate::kVariance), 3u);
  EXPECT_EQ(ChannelCount(Aggregate::kStddev), 3u);
}

TEST(UsesChannelTest, ChannelSelection) {
  EXPECT_TRUE(UsesChannel(Aggregate::kSum, Channel::kSum));
  EXPECT_FALSE(UsesChannel(Aggregate::kSum, Channel::kCount));
  EXPECT_TRUE(UsesChannel(Aggregate::kCount, Channel::kCount));
  EXPECT_FALSE(UsesChannel(Aggregate::kCount, Channel::kSum));
  EXPECT_TRUE(UsesChannel(Aggregate::kAvg, Channel::kSum));
  EXPECT_TRUE(UsesChannel(Aggregate::kAvg, Channel::kCount));
  EXPECT_FALSE(UsesChannel(Aggregate::kAvg, Channel::kSumSquares));
  EXPECT_TRUE(UsesChannel(Aggregate::kVariance, Channel::kSumSquares));
}

TEST(ChannelValueTest, ScalingAndTruncation) {
  Query q;
  q.scale_pow10 = 2;
  SensorReading r = MakeReading(23.4567);
  EXPECT_EQ(ChannelValue(q, Channel::kSum, r).value(), 2345u);
  q.scale_pow10 = 4;
  EXPECT_EQ(ChannelValue(q, Channel::kSum, r).value(), 234567u);
  q.scale_pow10 = 0;
  EXPECT_EQ(ChannelValue(q, Channel::kSum, r).value(), 23u);
}

TEST(ChannelValueTest, PredicateMismatchTransmitsZero) {
  Query q;
  q.where = Predicate{Field::kTemperature, CompareOp::kGreater, 100.0};
  SensorReading r = MakeReading(25.0);
  EXPECT_EQ(ChannelValue(q, Channel::kSum, r).value(), 0u);
  EXPECT_EQ(ChannelValue(q, Channel::kCount, r).value(), 0u);
  EXPECT_EQ(ChannelValue(q, Channel::kSumSquares, r).value(), 0u);
}

TEST(ChannelValueTest, CountChannelIsIndicator) {
  Query q;
  SensorReading r = MakeReading(25.0);
  EXPECT_EQ(ChannelValue(q, Channel::kCount, r).value(), 1u);
}

TEST(ChannelValueTest, SumSquaresSquares) {
  Query q;
  q.scale_pow10 = 0;
  SensorReading r = MakeReading(12.0);
  EXPECT_EQ(ChannelValue(q, Channel::kSumSquares, r).value(), 144u);
}

TEST(ChannelValueTest, NegativeAttributeRejected) {
  Query q;
  SensorReading r = MakeReading(-5.0);
  EXPECT_FALSE(ChannelValue(q, Channel::kSum, r).ok());
}

TEST(ChannelEpochTest, DisjointAcrossChannels) {
  std::set<uint64_t> salted;
  for (uint64_t epoch : {0ull, 1ull, 2ull, 100ull}) {
    for (Channel ch :
         {Channel::kSum, Channel::kSumSquares, Channel::kCount}) {
      EXPECT_TRUE(salted.insert(SaltedEpoch(epoch, 0, ch)).second);
    }
  }
}

TEST(SaltedEpochTest, DisjointAcrossQueriesChannelsEpochs) {
  std::set<uint64_t> salted;
  for (uint64_t epoch : {0ull, 1ull, 77ull, (1ull << 47)}) {
    for (uint32_t query_id : {0u, 1u, 2u, 16383u}) {
      for (Channel ch :
           {Channel::kSum, Channel::kSumSquares, Channel::kCount}) {
        EXPECT_TRUE(salted.insert(SaltedEpoch(epoch, query_id, ch)).second)
            << "collision at epoch=" << epoch << " qid=" << query_id;
      }
    }
  }
}

TEST(SaltedEpochTest, DefaultQueryIdSaltsOnlyTheChannel) {
  EXPECT_EQ(SaltedEpoch(5, 0, Channel::kSum),
            (uint64_t{5} << 16) | static_cast<uint64_t>(Channel::kSum));
}

TEST(CombineChannelsTest, SumUndoesScaling) {
  Query q;
  q.aggregate = Aggregate::kSum;
  q.scale_pow10 = 2;
  auto result = CombineChannels(q, 123456, 0, 0).value();
  EXPECT_DOUBLE_EQ(result.value, 1234.56);
}

TEST(CombineChannelsTest, CountPassesThrough) {
  Query q;
  q.aggregate = Aggregate::kCount;
  EXPECT_DOUBLE_EQ(CombineChannels(q, 0, 0, 37).value().value, 37.0);
}

TEST(CombineChannelsTest, AvgDividesByCount) {
  Query q;
  q.aggregate = Aggregate::kAvg;
  q.scale_pow10 = 1;
  // sum of scaled values 100+200+300 = 600 over 3 sources -> 20.0
  EXPECT_DOUBLE_EQ(CombineChannels(q, 600, 0, 3).value().value, 20.0);
  EXPECT_FALSE(CombineChannels(q, 600, 0, 0).ok());
}

TEST(CombineChannelsTest, VarianceAndStddev) {
  Query q;
  q.aggregate = Aggregate::kVariance;
  q.scale_pow10 = 0;
  // values {2, 4, 6}: mean 4, E[x^2] = (4+16+36)/3, var = 8/3.
  auto var = CombineChannels(q, 12, 56, 3).value();
  EXPECT_NEAR(var.value, 8.0 / 3.0, 1e-9);
  q.aggregate = Aggregate::kStddev;
  auto sd = CombineChannels(q, 12, 56, 3).value();
  EXPECT_NEAR(sd.value, std::sqrt(8.0 / 3.0), 1e-9);
}

TEST(CombineChannelsTest, VarianceScalingUndone) {
  Query q;
  q.aggregate = Aggregate::kVariance;
  q.scale_pow10 = 2;
  // scaled values {200, 400, 600} = raw {2,4,6}: var must still be 8/3.
  auto var = CombineChannels(q, 1200, 560000, 3).value();
  EXPECT_NEAR(var.value, 8.0 / 3.0, 1e-9);
}

TEST(CombineChannelsTest, VarianceNumericGuard) {
  Query q;
  q.aggregate = Aggregate::kVariance;
  q.scale_pow10 = 0;
  // Identical values: variance exactly 0 (no negative drift).
  auto var = CombineChannels(q, 30, 300, 3).value();
  EXPECT_DOUBLE_EQ(var.value, 0.0);
}

}  // namespace
}  // namespace sies::core
