// MultiQueryEngine: K continuous queries over ONE epoch pipeline — the
// only SIES data path; a single query is simply K = 1.
//
// Running each query on its own would cost one network round per query
// per epoch, so K rounds and K disjoint key derivations. The engine
// multiplexes instead: the QueryRegistry's ChannelPlan deduplicates the
// queries' channels into a minimal set of physical wire slots, every
// source emits ONE envelope per epoch carrying all live channels'
// PSRs behind one contributor field, aggregators merge channel-wise,
// and the querier evaluates each physical channel exactly once —
// fanning the per-channel share recomputation out over a ThreadPool —
// before assembling every query's answer from the shared channel sums.
//
// Wire envelope per epoch: [contributor field ‖ PSR × plan.Count()]
// (message_format.h), PSRs in plan wire order (ascending salt_id, kind).
// One contributor set covers all channels: they share fate on the
// radio. The field is empty whenever the sender's whole subtree
// contributed, so a lossless envelope is plan.Count() × 32 B at any N.
//
// Live admission/teardown composes with the loss/adversary machinery: a
// query admitted at epoch t contributes channels from t on and verifies
// with full contributor-set semantics immediately; a torn-down query
// stops consuming wire slots at the next epoch. Mutations must happen
// between epochs (the data plane reads the registry lock-free).
#ifndef SIES_ENGINE_ENGINE_H_
#define SIES_ENGINE_ENGINE_H_

#include <atomic>
#include <memory>
#include <vector>

#include "engine/query_registry.h"
#include "sies/aggregator.h"
#include "sies/querier.h"
#include "sies/query.h"
#include "sies/source.h"

namespace sies::engine {

/// One query's answer for one epoch.
struct QueryEpochOutcome {
  uint32_t query_id = 0;
  core::EpochOutcome outcome;
};

class MultiQueryEngine {
 public:
  /// Holds all parties of a simulated deployment: N sources (sharing
  /// one epoch-key cache), one aggregator, one querier.
  MultiQueryEngine(core::Params params, core::QuerierKeys keys);
  /// Once WarmSaltedEpochs has run, frees the querier's key tables and
  /// returns the heap pages they held to the OS (see
  /// warmed_in_background_).
  ~MultiQueryEngine();

  /// Registers `query` starting at `epoch` (see QueryRegistry::Admit).
  /// Scales the epoch-key caches with the resulting channel count.
  Status Admit(const core::Query& query, uint64_t epoch);

  /// Admit under the smallest free id; returns the id.
  StatusOr<uint32_t> AdmitAuto(core::Query query, uint64_t epoch);

  /// Tears down the live query `query_id` at `epoch`.
  Status Teardown(uint32_t query_id, uint64_t epoch);

  const QueryRegistry& registry() const { return registry_; }

  /// True when at least one physical channel is live (an epoch with an
  /// empty plan has nothing to put on the wire — skip the round).
  bool HasLiveChannels() const { return registry_.plan().Count() > 0; }

  /// Lossless envelope width of the current plan.
  size_t WireBytes() const;

  /// Initialization phase at source `index`: one envelope carrying a
  /// PSR for every live physical channel. The source covers only
  /// itself, so the contributor field is empty.
  StatusOr<Bytes> CreateSourcePayload(uint32_t index,
                                      const core::SensorReading& reading,
                                      uint64_t epoch) const;

  /// Merging phase: child i covers `child_ranges[i]` and sent
  /// `children[i]`, or nothing (an empty slot). Sums each channel's
  /// ciphertexts over the children that arrived and reports the rest
  /// absent (Aggregator::MergeWire). Every envelope must carry the
  /// current plan's PSR count.
  StatusOr<Bytes> Merge(std::span<const net::SourceRange> child_ranges,
                        const std::vector<Bytes>& children) const;

  /// Evaluation phase: decrypts and verifies each physical channel once
  /// (fanned over the thread pool when set), then assembles one outcome
  /// per live query, in admission order. Tampering that corrupts one
  /// channel fails exactly the queries reading that channel; co-batched
  /// queries on clean channels still verify.
  StatusOr<std::vector<QueryEpochOutcome>> Evaluate(
      const Bytes& final_payload, uint64_t epoch) const;

  /// Lends a pool for the per-channel verification fan-out (and the
  /// querier's N-way share recomputation). Bit-identical results for
  /// any thread count. The pool must outlive the engine's use of it.
  void SetThreadPool(common::ThreadPool* pool);

  /// The salted epochs the CURRENT plan's channels will evaluate under
  /// at `epoch` — the work list a prefetch thread captures BEFORE the
  /// control plane may mutate the plan (one-plan-per-epoch: the capture
  /// is taken at an epoch boundary, so it is exact for `epoch`).
  std::vector<uint64_t> SaltedEpochsFor(uint64_t epoch) const;

  /// Derives the querier-side epoch material for each salted epoch in
  /// `salted`, pool-free — built for background prefetch threads that
  /// must not contend with a foreground verification fan-out for pool
  /// lanes. Purely a cache warm: results are bit-identical whether or
  /// not (or how far) the prefetch ran before Evaluate needed the keys
  /// (EpochKeyCache derives outside its mutex, keep-first on insert).
  void WarmSaltedEpochs(const std::vector<uint64_t>& salted) const;

  /// SaltedEpochsFor + WarmSaltedEpochs in one call, for callers that
  /// prefetch at a boundary where the plan cannot change underneath.
  void PrefetchEpochKeys(uint64_t epoch) const;

  const core::Params& params() const { return params_; }
  core::EpochKeyCache::Stats SourceCacheStats() const {
    return source_cache_->stats();
  }
  core::EpochKeyCache::Stats QuerierCacheStats() const {
    return querier_.CacheStats();
  }

 private:
  /// Epoch-key cache sizing: the default capacity of 32 thrashes once
  /// the compiled channel count exceeds it — a single dyadic range
  /// query can put 2⌈log₂ D⌉ buckets per kind in the plan — so every
  /// (Admit|Teardown) re-reserves from the live plan's channel count:
  /// two real epochs' working sets plus mid-epoch admission headroom.
  void ReserveCaches();

  core::Params params_;
  QueryRegistry registry_;
  std::shared_ptr<core::EpochKeyCache> source_cache_;
  std::vector<core::Source> sources_;
  core::Aggregator aggregator_;
  core::Querier querier_;
  common::ThreadPool* pool_ = nullptr;
  /// Set by WarmSaltedEpochs. A prefetch thread then derived most of
  /// the querier's key tables, so they sit in that thread's malloc
  /// arena, which the run thread never allocates from. free() returns
  /// such an arena's pages only above its highest live chunk, and where
  /// that chunk lands differs from run to run, so without the release
  /// the memory a teardown leaves resident differs by up to 1.2 MB
  /// between runs at N=512.
  mutable std::atomic<bool> warmed_in_background_{false};
};

}  // namespace sies::engine

#endif  // SIES_ENGINE_ENGINE_H_
