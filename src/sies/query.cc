#include "sies/query.h"

#include <cmath>

namespace sies::core {

double GetField(const SensorReading& reading, Field field) {
  switch (field) {
    case Field::kTemperature:
      return reading.temperature;
    case Field::kHumidity:
      return reading.humidity;
    case Field::kLight:
      return reading.light;
    case Field::kVoltage:
      return reading.voltage;
  }
  return 0.0;
}

namespace {
const char* FieldName(Field field) {
  switch (field) {
    case Field::kTemperature:
      return "temperature";
    case Field::kHumidity:
      return "humidity";
    case Field::kLight:
      return "light";
    case Field::kVoltage:
      return "voltage";
  }
  return "?";
}

const char* OpName(CompareOp op) {
  switch (op) {
    case CompareOp::kLess:
      return "<";
    case CompareOp::kLessEqual:
      return "<=";
    case CompareOp::kGreater:
      return ">";
    case CompareOp::kGreaterEqual:
      return ">=";
    case CompareOp::kEqual:
      return "=";
  }
  return "?";
}

const char* AggregateName(Aggregate aggregate) {
  switch (aggregate) {
    case Aggregate::kSum:
      return "SUM";
    case Aggregate::kCount:
      return "COUNT";
    case Aggregate::kAvg:
      return "AVG";
    case Aggregate::kVariance:
      return "VARIANCE";
    case Aggregate::kStddev:
      return "STDDEV";
  }
  return "?";
}
}  // namespace

bool Predicate::Matches(const SensorReading& reading) const {
  double v = GetField(reading, field);
  switch (op) {
    case CompareOp::kLess:
      return v < threshold;
    case CompareOp::kLessEqual:
      return v <= threshold;
    case CompareOp::kGreater:
      return v > threshold;
    case CompareOp::kGreaterEqual:
      return v >= threshold;
    case CompareOp::kEqual:
      return v == threshold;
  }
  return false;
}

std::string Query::ToSql() const {
  std::string sql = "SELECT ";
  sql += AggregateName(aggregate);
  sql += "(";
  sql += FieldName(attribute);
  sql += ") FROM Sensors";
  if (band.has_value() || where.has_value()) {
    sql += " WHERE ";
    if (band.has_value()) {
      sql += std::to_string(band->lo);
      sql += " <= ";
      sql += FieldName(band->field);
      sql += " <= ";
      sql += std::to_string(band->hi);
      if (where.has_value()) sql += " AND ";
    }
    if (where.has_value()) {
      sql += FieldName(where->field);
      sql += " ";
      sql += OpName(where->op);
      sql += " ";
      sql += std::to_string(where->threshold);
    }
  }
  sql += " EPOCH DURATION " + std::to_string(epoch_duration_ms) + "ms";
  return sql;
}

uint32_t ChannelCount(Aggregate aggregate) {
  switch (aggregate) {
    case Aggregate::kSum:
    case Aggregate::kCount:
      return 1;
    case Aggregate::kAvg:
      return 2;
    case Aggregate::kVariance:
    case Aggregate::kStddev:
      return 3;
  }
  return 1;
}

bool UsesChannel(Aggregate aggregate, Channel channel) {
  switch (aggregate) {
    case Aggregate::kSum:
      return channel == Channel::kSum;
    case Aggregate::kCount:
      return channel == Channel::kCount;
    case Aggregate::kAvg:
      return channel == Channel::kSum || channel == Channel::kCount;
    case Aggregate::kVariance:
    case Aggregate::kStddev:
      return true;
  }
  return false;
}

std::vector<Channel> ActiveChannels(const Query& query) {
  std::vector<Channel> channels;
  for (Channel ch :
       {Channel::kSum, Channel::kSumSquares, Channel::kCount}) {
    if (UsesChannel(query.aggregate, ch)) channels.push_back(ch);
  }
  return channels;
}

StatusOr<uint64_t> ScaledFieldValue(const SensorReading& reading, Field field,
                                    uint32_t scale_pow10) {
  double raw = GetField(reading, field);
  if (raw < 0.0) {
    return Status::OutOfRange(
        "attribute must be non-negative (encode via translation first)");
  }
  double scaled = std::trunc(raw * std::pow(10.0, scale_pow10));
  if (scaled >= 9.2e18) {
    return Status::OutOfRange("scaled value overflows 64 bits");
  }
  return static_cast<uint64_t>(scaled);
}

StatusOr<uint64_t> ScaledBandBound(double x, uint32_t scale_pow10) {
  if (x < 0.0) {
    return Status::OutOfRange("band bounds must be non-negative");
  }
  const double y = x * std::pow(10.0, scale_pow10);
  // Absolute + relative epsilon: decimal bounds (18.2 -> 1819.999...)
  // and scaled-integer round-trips (s / 10^k * 10^k for large s) both
  // land within a few ulps BELOW the intended integer; promote them.
  const double scaled = std::trunc(y + 1e-9 + y * 1e-12);
  if (scaled >= 9.2e18) {
    return Status::OutOfRange("scaled band bound overflows 64 bits");
  }
  return static_cast<uint64_t>(scaled);
}

StatusOr<uint64_t> ChannelValue(const Query& query, Channel channel,
                                const SensorReading& reading) {
  // Band first, predicate second — the compiled bucket path evaluates in
  // the same order, so the two paths fail identically on out-of-domain
  // readings (a negative band attribute errors even when `where` would
  // have filtered the reading).
  if (query.band.has_value()) {
    auto lo = ScaledBandBound(query.band->lo, query.scale_pow10);
    if (!lo.ok()) return lo.status();
    auto hi = ScaledBandBound(query.band->hi, query.scale_pow10);
    if (!hi.ok()) return hi.status();
    auto v = ScaledFieldValue(reading, query.band->field, query.scale_pow10);
    if (!v.ok()) return v.status();
    if (v.value() < lo.value() || v.value() > hi.value()) {
      return uint64_t{0};
    }
  }
  if (query.where.has_value() && !query.where->Matches(reading)) {
    return uint64_t{0};  // non-matching sources transmit 0 (paper III-B)
  }
  if (channel == Channel::kCount) return uint64_t{1};

  auto v = ScaledFieldValue(reading, query.attribute, query.scale_pow10);
  if (!v.ok()) return v.status();
  if (channel == Channel::kSumSquares) {
    if (v.value() != 0 && v.value() > UINT64_MAX / v.value()) {
      return Status::OutOfRange("squared value overflows 64 bits");
    }
    return v.value() * v.value();
  }
  return v;
}

uint64_t SaltedEpoch(uint64_t epoch, uint32_t query_id, Channel channel) {
  // Layout: epoch (48 bits) | query_id (14 bits) | channel (2 bits).
  // Injective within the documented bounds, so no two (epoch, query,
  // channel) triples ever share a PRF input.
  return (epoch << 16) | (static_cast<uint64_t>(query_id & 0x3fff) << 2) |
         static_cast<uint64_t>(channel);
}

StatusOr<QueryResult> CombineChannels(const Query& query, uint64_t sum,
                                      uint64_t sum_squares, uint64_t count) {
  const double scale = std::pow(10.0, query.scale_pow10);
  QueryResult result;
  result.count = count;
  switch (query.aggregate) {
    case Aggregate::kSum:
      result.value = static_cast<double>(sum) / scale;
      return result;
    case Aggregate::kCount:
      result.value = static_cast<double>(count);
      return result;
    case Aggregate::kAvg:
      if (count == 0) {
        return Status::FailedPrecondition("AVG over zero matching sources");
      }
      result.value = static_cast<double>(sum) / scale /
                     static_cast<double>(count);
      return result;
    case Aggregate::kVariance:
    case Aggregate::kStddev: {
      if (count == 0) {
        return Status::FailedPrecondition(
            "VARIANCE over zero matching sources");
      }
      double n = static_cast<double>(count);
      double mean = static_cast<double>(sum) / n;
      double mean_sq = static_cast<double>(sum_squares) / n;
      double variance = (mean_sq - mean * mean) / (scale * scale);
      if (variance < 0.0) variance = 0.0;  // numeric guard
      result.value = query.aggregate == Aggregate::kVariance
                         ? variance
                         : std::sqrt(variance);
      return result;
    }
  }
  return Status::InvalidArgument("unknown aggregate");
}

StatusOr<EpochOutcome> AssembleOutcome(const Query& query,
                                       uint32_t num_sources, uint64_t sum,
                                       uint64_t sum_squares, uint64_t count,
                                       bool verified,
                                       std::vector<uint32_t> contributors) {
  EpochOutcome outcome;
  outcome.verified = verified;
  outcome.contributors = std::move(contributors);
  outcome.coverage =
      num_sources == 0
          ? 0.0
          : static_cast<double>(outcome.contributors.size()) /
                static_cast<double>(num_sources);
  if (!verified) return outcome;  // result is meaningless if unverified
  // COUNT-dependent aggregates over zero matches report value 0.
  if (count == 0 && query.aggregate != Aggregate::kSum &&
      query.aggregate != Aggregate::kCount) {
    outcome.result.value = 0.0;
    outcome.result.count = 0;
    return outcome;
  }
  auto result = CombineChannels(query, sum, sum_squares, count);
  if (!result.ok()) return result.status();
  outcome.result = result.value();
  return outcome;
}

}  // namespace sies::core
