// Session: one continuous query run directly on the SIES core, kept as
// the differential oracle for the multi-query engine (tests only; every
// production path runs engine::MultiQueryEngine).
//
// A Query (Section III-B) compiles to 1-3 parallel SIES channels
// (SUM(x), SUM(x²), COUNT); the session classes run all channels of one
// continuous query per epoch and concatenate their fixed-width PSRs into
// a single payload, with none of the engine's channel planning, dedup or
// bucket compilation — so an engine answer that equals the session's
// answer bit for bit is pinned to the paper's per-query protocol.
//
// Payloads travel in the loss-reporting wire envelope
// [contributor field ‖ PSR_ch0 ‖ PSR_ch1 ‖ ...] (message_format.h): one
// contributor set covers all channels (they share fate on the radio), it
// is empty whenever the sender's whole subtree contributed, and the
// querier derives the participating set from it instead of being told
// out-of-band — so a lossy epoch degrades to a verified partial result
// over exactly the sources that contributed.
#ifndef SIES_TESTS_ORACLE_SESSION_H_
#define SIES_TESTS_ORACLE_SESSION_H_

#include <vector>

#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/query.h"
#include "sies/source.h"

namespace sies::core {

/// A source's side of one continuous query.
class SourceSession {
 public:
  SourceSession(Query query, Params params, uint32_t index, SourceKeys keys)
      : query_(std::move(query)),
        source_(std::move(params), index, std::move(keys)) {}

  /// Initialization phase for this epoch: one fixed-width PSR per active
  /// channel, concatenated. A source covers only itself, so its
  /// contributor field is empty: width = channels * PsrBytes().
  StatusOr<Bytes> CreatePayload(const SensorReading& reading,
                                uint64_t epoch) const;

  const Query& query() const { return query_; }

 private:
  Query query_;
  Source source_;
};

/// An aggregator's side: channel-wise modular addition.
class AggregatorSession {
 public:
  AggregatorSession(Query query, Params params)
      : query_(std::move(query)), aggregator_(std::move(params)) {}

  /// Merges positional multi-channel wire payloads: child i covers
  /// `child_ranges[i]` and an empty slot is a child whose message never
  /// arrived (see Aggregator::MergeWire).
  StatusOr<Bytes> Merge(std::span<const net::SourceRange> child_ranges,
                        const std::vector<Bytes>& children) const;

 private:
  Query query_;
  Aggregator aggregator_;
};

/// The querier's side: per-channel evaluation + final combination.
class QuerierSession {
 public:
  QuerierSession(Query query, Params params, QuerierKeys keys)
      : query_(std::move(query)),
        querier_(std::move(params), std::move(keys)) {}

  /// Outcome of one epoch (the engine's per-query outcome type).
  using Outcome = EpochOutcome;

  /// Evaluation phase over the root's multi-channel wire payload. The
  /// participating set comes from the envelope's contributor field.
  StatusOr<Outcome> Evaluate(const Bytes& final_payload,
                             uint64_t epoch) const;

 private:
  Query query_;
  Querier querier_;
};

}  // namespace sies::core

#endif  // SIES_TESTS_ORACLE_SESSION_H_
