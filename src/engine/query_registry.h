// QueryRegistry: the control plane of the multi-query engine.
//
// Holds the set of live continuous queries, validates admissions, and
// keeps the ChannelPlan in sync. The one non-obvious validation rule is
// the salt-collision check: a physical channel's PRF salt is the id of
// the query whose admission created it, and the salt OUTLIVES its
// creator when other queries still read the slot — so a new admission
// must not reuse an id that any live slot is salted with, or two
// distinct channels could end up encrypting under the same key stream
// (one-time-pad reuse). See docs/PROTOCOL.md "Query-id channel
// namespace".
#ifndef SIES_ENGINE_QUERY_REGISTRY_H_
#define SIES_ENGINE_QUERY_REGISTRY_H_

#include <cstdint>
#include <vector>

#include "engine/channel_plan.h"

namespace sies::engine {

/// One live continuous query.
struct ActiveQuery {
  Query query;
  /// First epoch the query participates in: it contributes channels —
  /// and verifies with full contributor-set semantics — from this
  /// epoch onward.
  uint64_t admitted_epoch = 0;
};

/// Register/teardown of continuous queries at runtime. Not internally
/// synchronized: the engine mutates it only between epochs (the data
/// plane reads it concurrently *within* an epoch, which is safe because
/// nothing mutates then).
class QueryRegistry {
 public:
  /// Admits `query` starting at `epoch`. Fails if the id exceeds
  /// kMaxQueryId, is already active, or still salts a live channel of a
  /// torn-down query (key-reuse hazard, see file comment) — and, since
  /// band queries compile to many channels, if the query is
  /// uncompilable or the salt space cannot fit its buckets.
  Status Admit(const Query& query, uint64_t epoch);

  /// Tears down the live query `query_id` at `epoch`; its channel slots
  /// are released (shared slots survive under their original salt).
  Status Teardown(uint32_t query_id, uint64_t epoch);

  /// Live queries in admission order.
  const std::vector<ActiveQuery>& active() const { return active_; }

  /// The deduplicated wire plan for the live query set.
  const ChannelPlan& plan() const { return plan_; }

  /// The live query with `query_id`, or nullptr.
  const ActiveQuery* Find(uint32_t query_id) const;

 private:
  void UpdateGauges() const;

  std::vector<ActiveQuery> active_;
  ChannelPlan plan_;
};

}  // namespace sies::engine

#endif  // SIES_ENGINE_QUERY_REGISTRY_H_
