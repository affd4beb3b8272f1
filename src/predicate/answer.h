// Answer shapes on top of compiled range queries.
//
// A histogram (or GROUP-BY rollup) is a set of adjacent band queries
// whose cells partition a range of the scaled integer domain; each cell
// is an ordinary core::Query with a Band, compiles through
// predicate/compiler into dyadic bucket channels (which ADJACENT cells
// share with each other and with any other live range query), and
// verifies per-channel like every SIES query. This header compiles the
// cell queries and assembles their verified per-epoch outcomes into the
// three answer shapes the predicate subsystem unlocks: histograms,
// GROUP-BY rollups, and rank/quantile estimates — plus an AMS-sketch
// approximate variant (src/sketch) for cross-checking exact answers
// against the sublinear estimator.
#ifndef SIES_PREDICATE_ANSWER_H_
#define SIES_PREDICATE_ANSWER_H_

#include <vector>

#include "sies/query.h"
#include "sketch/ams_sketch.h"

namespace sies::predicate {

/// Equal-width partition of [lo, hi] into `cells` adjacent bands on the
/// scaled integer domain. Widths are exact integers: every cell gets
/// floor(W / cells) scaled units and the first W mod cells get one
/// extra, so the cells cover [lo, hi] exactly with no gap or overlap.
struct CellBounds {
  double lo = 0.0;        ///< inclusive, attribute units
  double hi = 0.0;        ///< inclusive, attribute units
  uint64_t scaled_lo = 0; ///< inclusive, scaled integer domain
  uint64_t scaled_hi = 0; ///< inclusive, scaled integer domain
};

/// Computes the partition. Fails on inverted/negative ranges, zero
/// cells, and more cells than the scaled range has integers.
StatusOr<std::vector<CellBounds>> PartitionBands(double lo, double hi,
                                                 uint32_t cells,
                                                 uint32_t scale_pow10);

/// Histogram: COUNT (or SUM of `attribute`) per cell of `field`'s
/// partitioned range.
struct HistogramSpec {
  core::Field field = core::Field::kTemperature;  ///< bucketing field
  double lo = 0.0;
  double hi = 0.0;
  uint32_t buckets = 8;
  uint32_t scale_pow10 = 2;
  /// kCount for a plain histogram; kSum to weight each bucket by
  /// `attribute` (which may differ from the bucketing field).
  core::Aggregate aggregate = core::Aggregate::kCount;
  core::Field attribute = core::Field::kTemperature;
};

/// GROUP-BY rollup: `aggregate(attribute)` per cell of `group_field`'s
/// partitioned range — SELECT AGG(attr) ... GROUP BY bucket(group_field).
struct GroupBySpec {
  core::Aggregate aggregate = core::Aggregate::kAvg;
  core::Field attribute = core::Field::kTemperature;
  core::Field group_field = core::Field::kHumidity;
  double lo = 0.0;
  double hi = 0.0;
  uint32_t groups = 4;
  uint32_t scale_pow10 = 2;
};

/// One assembled cell of either shape.
struct AnswerCell {
  double lo = 0.0;  ///< inclusive cell bounds, attribute units
  double hi = 0.0;
  double value = 0.0;    ///< the cell query's assembled answer
  uint64_t count = 0;    ///< matching sources (COUNT channel)
  bool verified = false;
  double coverage = 0.0;
};

/// A fully assembled histogram / GROUP-BY answer.
struct ShapeAnswer {
  std::vector<AnswerCell> cells;
  bool all_verified = false;
  uint64_t total_count = 0;  ///< Σ cell counts (verified cells)

  /// Rank/quantile estimate from the cell counts: the value at rank
  /// q * total_count, linearly interpolated inside its cell — exact to
  /// within one cell width (tighten by raising the bucket count).
  /// Fails for q outside [0, 1], an unverified histogram, or
  /// total_count == 0.
  StatusOr<double> Quantile(double q) const;
};

/// The cell queries of a histogram: `buckets` adjacent band queries
/// with ids first_query_id, first_query_id + 1, ... (the caller admits
/// them like any other query; adjacent cells dedup their shared dyadic
/// nodes automatically).
StatusOr<std::vector<core::Query>> CompileHistogram(
    const HistogramSpec& spec, uint32_t first_query_id);

/// The cell queries of a GROUP-BY rollup, same id convention.
StatusOr<std::vector<core::Query>> CompileGroupBy(const GroupBySpec& spec,
                                                  uint32_t first_query_id);

/// Assembles one epoch's verified cell outcomes (index-aligned with the
/// compiled cell queries) into the answer shape.
StatusOr<ShapeAnswer> AssembleCells(double lo, double hi, uint32_t cells,
                                    uint32_t scale_pow10,
                                    const std::vector<core::EpochOutcome>&
                                        outcomes);

/// Approximate variant (reusing src/sketch): estimates the band
/// COUNT/SUM with a J-instance AMS sketch fed only with in-band
/// readings — the sublinear cross-check for exact compiled answers
/// (bench/predicate_ranges contrasts the two). `sum_of` absent =>
/// COUNT (one unit per matching source); present => SUM of that field,
/// scaled. Uses the debiased estimator.
StatusOr<double> ApproxBandAggregate(
    const core::Band& band, uint32_t scale_pow10,
    const std::vector<core::SensorReading>& readings, uint32_t j,
    uint64_t seed, const std::optional<core::Field>& sum_of = std::nullopt);

}  // namespace sies::predicate

#endif  // SIES_PREDICATE_ANSWER_H_
