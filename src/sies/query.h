// Query model (paper Section III-B):
//
//   SELECT SUM(attr) FROM Sensors WHERE pred EPOCH DURATION T
//
// plus the derivatives the paper reduces to SUM/COUNT: COUNT, AVG,
// VARIANCE, STDDEV. A query compiles to 1-3 parallel SIES channels
// (SUM(x), SUM(x^2), COUNT), each an ordinary SIES SUM with its epochs
// salted by the channel id so all channels reuse the same key material
// with disjoint PRF inputs.
//
// Values are positive integers; float attributes are scaled by a
// configurable power of 10 and truncated, exactly as the paper's domain
// experiments do (Section VI).
#ifndef SIES_SIES_QUERY_H_
#define SIES_SIES_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace sies::core {

/// An Intel-Lab-style sensor record (the dataset's measured channels).
struct SensorReading {
  double temperature = 0.0;  ///< degrees Celsius
  double humidity = 0.0;     ///< relative %
  double light = 0.0;        ///< lux
  double voltage = 0.0;      ///< battery volts
};

/// Attribute selector.
enum class Field { kTemperature, kHumidity, kLight, kVoltage };

/// Returns the selected field of a reading.
double GetField(const SensorReading& reading, Field field);

/// Comparison operator of a WHERE predicate.
enum class CompareOp { kLess, kLessEqual, kGreater, kGreaterEqual, kEqual };

/// WHERE predicate: `field op threshold`. Absent => always true.
struct Predicate {
  Field field = Field::kTemperature;
  CompareOp op = CompareOp::kGreaterEqual;
  double threshold = 0.0;

  /// Evaluates the predicate on a reading.
  bool Matches(const SensorReading& reading) const;

  /// Structural equality (the engine's channel planner shares a wire
  /// channel between queries iff their predicates compare equal).
  bool operator==(const Predicate&) const = default;
};

/// Range (band) predicate: `lo <= field <= hi`, bounds inclusive and in
/// attribute units. Membership is decided on the *scaled integer*
/// domain — a reading matches iff
///   ScaledBandBound(lo, k) <= trunc(value * 10^k) <= ScaledBandBound(hi, k)
/// with k the query's scale_pow10 — so the engine's dyadic bucket
/// decomposition (src/predicate) partitions exactly the set of readings
/// the direct evaluation path accepts, and both paths produce
/// bit-identical channel sums.
struct Band {
  Field field = Field::kTemperature;
  double lo = 0.0;  ///< inclusive lower bound, attribute units
  double hi = 0.0;  ///< inclusive upper bound, attribute units

  bool operator==(const Band&) const = default;
};

/// Aggregate function of the query.
enum class Aggregate { kSum, kCount, kAvg, kVariance, kStddev };

/// A continuous aggregation query.
struct Query {
  Aggregate aggregate = Aggregate::kSum;
  Field attribute = Field::kTemperature;
  std::optional<Predicate> where;
  /// Range restriction, ANDed with `where`. Non-matching sources
  /// transmit 0 on every channel, exactly like a non-matching `where`.
  std::optional<Band> band;
  /// Epoch duration T in milliseconds (push-based model; informational
  /// for the simulator, which steps epochs logically).
  uint64_t epoch_duration_ms = 1000;
  /// Decimal scaling: value = trunc(attr * 10^scale_pow10). Scaling the
  /// domain this way reproduces the paper's D experiments.
  uint32_t scale_pow10 = 2;
  /// Identifier separating concurrently registered queries: each query
  /// gets disjoint PRF inputs under the same long-term keys, so several
  /// continuous queries can run at once. Must be < 2^14.
  uint32_t query_id = 0;

  /// Serializes to the human-readable template of Section III-B.
  std::string ToSql() const;
};

/// The SIES channels a query compiles to.
enum class Channel : uint32_t {
  kSum = 0,        ///< Σ scaled(attr)
  kSumSquares = 1, ///< Σ scaled(attr)^2   (variance/stddev only)
  kCount = 2,      ///< Σ 1{pred}
};

/// Number of channels the aggregate needs (1 for SUM/COUNT, 2 for AVG,
/// 3 for VARIANCE/STDDEV).
uint32_t ChannelCount(Aggregate aggregate);

/// True if `channel` is among the channels `aggregate` needs.
bool UsesChannel(Aggregate aggregate, Channel channel);

/// Channels used by `query`, in wire order.
std::vector<Channel> ActiveChannels(const Query& query);

/// trunc(GetField(reading, field) * 10^scale_pow10) as an unsigned
/// integer — the scaling every SIES channel applies before encryption.
/// Fails on negative values and 64-bit overflow.
StatusOr<uint64_t> ScaledFieldValue(const SensorReading& reading, Field field,
                                    uint32_t scale_pow10);

/// A band bound quantized onto the scaled integer domain:
/// trunc(x * 10^k + 1e-9). The epsilon absorbs the binary-representation
/// error of decimal bounds (an exact decimal like 18.2 may scale to
/// 1819.999..., which must quantize to 1820, not 1819); the SAME
/// function is used by the direct evaluation path (ChannelValue) and the
/// dyadic compiler, so both agree on membership for every reading.
StatusOr<uint64_t> ScaledBandBound(double x, uint32_t scale_pow10);

/// The per-source value to feed into the SIES channel for this reading:
/// 0 when the band or predicate does not match (the paper's convention),
/// else the scaled attribute / its square / the constant 1.
StatusOr<uint64_t> ChannelValue(const Query& query, Channel channel,
                                const SensorReading& reading);

/// Salts an epoch with a query id and channel id so concurrent queries
/// and parallel channels all have disjoint PRF inputs under the same
/// long-term keys. Injective for epoch < 2^48 and query_id < 2^14.
uint64_t SaltedEpoch(uint64_t epoch, uint32_t query_id, Channel channel);

/// Final numeric answer assembled from the verified channel sums.
struct QueryResult {
  double value = 0.0;
  uint64_t count = 0;  ///< matched sources (COUNT channel, when present)
};

/// Combines channel sums into the query answer, undoing the decimal
/// scaling. `sum`, `sum_squares`, `count` are the decrypted channel
/// results (pass 0 for unused channels).
StatusOr<QueryResult> CombineChannels(const Query& query, uint64_t sum,
                                      uint64_t sum_squares, uint64_t count);

/// Outcome of one epoch of one continuous query.
struct EpochOutcome {
  QueryResult result;
  bool verified = false;  ///< all channels verified
  /// Contributing source indices reported in-band, increasing. When
  /// verified, `result` is the exact aggregate over exactly this set.
  std::vector<uint32_t> contributors;
  double coverage = 0.0;  ///< contributors ÷ N
};

/// Assembles the final per-query outcome from verified channel sums:
/// computes coverage, short-circuits COUNT-dependent aggregates over
/// zero matches, and otherwise combines the channels into the numeric
/// answer. `sum`/`sum_squares`/`count` are the decrypted channel results
/// (0 for unused channels). The multi-query engine assembles every
/// answer here.
StatusOr<EpochOutcome> AssembleOutcome(const Query& query, uint32_t num_sources,
                                       uint64_t sum, uint64_t sum_squares,
                                       uint64_t count, bool verified,
                                       std::vector<uint32_t> contributors);

}  // namespace sies::core

#endif  // SIES_SIES_QUERY_H_
