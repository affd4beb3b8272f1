// Session: the high-level query-execution layer over the SIES core.
//
// A Query (Section III-B) compiles to 1-3 parallel SIES channels
// (SUM(x), SUM(x²), COUNT); the session classes run all channels of one
// continuous query per epoch and concatenate their fixed-width PSRs into
// a single payload, so aggregate queries beyond plain SUM (COUNT, AVG,
// VARIANCE, STDDEV) are one call at each party.
//
// Payloads travel in the loss-reporting wire envelope
// [contributor field ‖ PSR_ch0 ‖ PSR_ch1 ‖ ...] (message_format.h): one
// contributor set covers all channels (they share fate on the radio), it
// is empty whenever the sender's whole subtree contributed, and the
// querier derives the participating set from it instead of being told
// out-of-band — so a lossy epoch degrades to a verified partial result
// over exactly the sources that contributed.
#ifndef SIES_SIES_SESSION_H_
#define SIES_SIES_SESSION_H_

#include <vector>

#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/query.h"
#include "sies/source.h"

namespace sies::core {

/// Channels used by `query`, in wire order.
std::vector<Channel> ActiveChannels(const Query& query);

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
/// (0 for unused channels); shared by QuerierSession and the multi-query
/// engine so both paths produce bit-identical results.
StatusOr<EpochOutcome> AssembleOutcome(const Query& query, uint32_t num_sources,
                                       uint64_t sum, uint64_t sum_squares,
                                       uint64_t count, bool verified,
                                       std::vector<uint32_t> contributors);

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

  /// Outcome of one epoch (shared with the multi-query engine).
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

#endif  // SIES_SIES_SESSION_H_
