// QueryRecord: the one per-query verdict tally.
//
// engine::EpochScheduler keeps one record per admission and folds every
// evaluated epoch's outcome into it exactly once. The ops plane's
// `GET /queries` serves the live queries' records as they are, and
// runner::ExperimentResult::queries is every admission's record,
// torn-down ones included with their final tallies. The record lives
// here, beside the epoch timeline's records, so that the engine and the
// ops plane both include it without the ops plane depending on the
// engine.
#ifndef SIES_TELEMETRY_QUERY_RECORD_H_
#define SIES_TELEMETRY_QUERY_RECORD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sies::telemetry {

/// One admitted query's identity, wire footprint and verdict counts.
struct QueryRecord {
  uint32_t query_id = 0;
  std::string sql;
  uint64_t admitted_epoch = 0;
  /// Physical wire slots the query reads (shared slots appear in every
  /// reader's list). Refreshed on every admit and teardown while the
  /// query is live; a torn-down query keeps the slots it last read.
  std::vector<uint32_t> slots;
  /// slots.size(): ChannelCount for a plain query, buckets × kinds for
  /// a compiled band query (≤ 2⌈log₂ D⌉ per kind).
  uint32_t wire_channels = 0;
  uint64_t answered_epochs = 0;  ///< epochs live AND answered
  uint64_t verified_epochs = 0;
  uint64_t unverified_epochs = 0;
  uint64_t partial_epochs = 0;  ///< verified with coverage < 1
  double last_value = 0.0;      ///< result of the last verified epoch
  double last_coverage = 0.0;
  double mean_coverage = 0.0;  ///< over answered epochs
  uint64_t last_epoch = 0;     ///< last epoch this query was answered
  double coverage_sum = 0.0;   ///< Σ coverage over answered epochs

  void SetSlots(std::vector<uint32_t> wire_slots) {
    slots = std::move(wire_slots);
    wire_channels = static_cast<uint32_t>(slots.size());
  }

  /// Folds one answered epoch's verdict for this query.
  void Fold(uint64_t epoch, bool verified, double value, double coverage) {
    ++answered_epochs;
    last_epoch = epoch;
    last_coverage = coverage;
    coverage_sum += coverage;
    mean_coverage = coverage_sum / static_cast<double>(answered_epochs);
    if (verified) {
      ++verified_epochs;
      last_value = value;
      if (coverage < 1.0) ++partial_epochs;
    } else {
      ++unverified_epochs;
    }
  }
};

}  // namespace sies::telemetry

#endif  // SIES_TELEMETRY_QUERY_RECORD_H_
