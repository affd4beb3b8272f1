// EpochScheduler: binds the MultiQueryEngine to the network simulator.
// It is the only SIES net::AggregationProtocol: the paper-figure runner
// (runner::RunExperiment) and the μTesla deployment
// (runner::ContinuousDeployment) run it with one live query.
//
// One RunEpoch drives ONE wire round carrying every live query's
// channels — K queries no longer cost K network rounds. The scheduler
// translates topology node ids to logical source indices (positions in
// the depth-first Topology::sources()), hands each aggregator's merge
// its children's source ranges, feeds each source its sensor reading,
// and demultiplexes the querier's evaluation into per-query outcomes
// (exposed via last_outcomes(), since the simulator's EvalOutcome
// models a single answer).
//
// Admission and teardown are forwarded to the engine and must happen
// between RunEpoch calls: the wire width changes with the plan, and
// every party must see the same plan within one epoch. Callers that
// cannot guarantee that (an admin thread admitting mid-run) use the
// queued control plane instead: QueueAdmit/QueueTeardown are
// thread-safe and ApplyPending drains the queue at the next epoch
// boundary — one plan per epoch, by construction.
//
// Epoch pipelining (SetPipelining): while epoch t's verification is
// being consumed, a background thread derives epoch t+1's querier-side
// key material (pool-free, SCHED_IDLE best-effort, so it only soaks up
// cycles the foreground leaves idle — pacing gaps, source/aggregate
// phases). The work list is captured at the t boundary from the live
// plan, so a query admitted for t+1 simply derives cold there — the
// prefetch is purely a cache warm and never changes results.
#ifndef SIES_ENGINE_EPOCH_SCHEDULER_H_
#define SIES_ENGINE_EPOCH_SCHEDULER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "net/network.h"
#include "net/topology.h"

namespace sies::engine {

/// Supplies the full sensor record of logical source `index` at `epoch`
/// (typically backed by workload::TraceGenerator::ReadingAt).
using ReadingFn =
    std::function<core::SensorReading(uint32_t index, uint64_t epoch)>;

/// One live query's state as seen by an external observer (the ops
/// plane's /queries endpoint). A point-in-time copy — safe to hold
/// while the engine keeps running.
struct QueryLiveStats {
  uint32_t query_id = 0;
  std::string sql;
  uint64_t admitted_epoch = 0;
  /// Physical wire slots the query reads (shared slots appear in every
  /// reader's list; recomputed on every admit/teardown).
  std::vector<uint32_t> slots;
  uint64_t answered_epochs = 0;
  uint64_t verified_epochs = 0;
  uint64_t unverified_epochs = 0;
  uint64_t partial_epochs = 0;  ///< verified with coverage < 1
  double last_value = 0.0;      ///< result of the last verified epoch
  double last_coverage = 0.0;
  uint64_t last_epoch = 0;  ///< last epoch this query was answered
};

class EpochScheduler : public net::AggregationProtocol {
 public:
  EpochScheduler(std::shared_ptr<MultiQueryEngine> engine,
                 const net::Topology& topology, ReadingFn readings);
  ~EpochScheduler() override;

  std::string Name() const override { return "SIES"; }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override;
  StatusOr<Bytes> AggregatorMerge(
      net::NodeId id, uint64_t epoch,
      const std::vector<Bytes>& children) override;
  /// Evaluates the batched envelope, records per-query outcomes (see
  /// last_outcomes()) and per-query telemetry, and reports the epoch as
  /// verified iff EVERY live query verified.
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override;

  /// Sources share only the mutex-guarded epoch-key cache.
  bool ParallelSourceInitSafe() const override { return true; }
  void SetThreadPool(common::ThreadPool* pool) override {
    engine_->SetThreadPool(pool);
  }

  /// Control plane, forwarded to the engine (between epochs only).
  /// Successful calls also update the live-stats snapshot behind
  /// SnapshotQueries().
  Status Admit(const core::Query& query, uint64_t epoch);
  Status Teardown(uint32_t query_id, uint64_t epoch);

  /// Queued control plane — safe from ANY thread at ANY time. Ops are
  /// buffered until the run thread's next ApplyPending, so admissions
  /// requested while an epoch is in flight take effect at the boundary.
  void QueueAdmit(core::Query query);
  void QueueTeardown(uint32_t query_id);
  /// Run thread, between epochs: joins any in-flight prefetch, then
  /// applies queued admissions (then teardowns) as of `epoch`. Returns
  /// the first failure; remaining queued ops stay dropped with it (a
  /// failed admission must not silently retry forever).
  Status ApplyPending(uint64_t epoch);

  /// Enables/disables t+1 key prefetch (see file comment). Run thread
  /// only; joins any in-flight prefetch first.
  void SetPipelining(bool on);
  bool pipelining() const { return pipelining_; }
  /// Blocks until the in-flight prefetch thread (if any) finishes. Run
  /// thread only (QuerierEvaluate, ApplyPending and the destructor call
  /// this; it is idempotent).
  void JoinPrefetch();
  /// Epochs whose keys a prefetch thread finished deriving ahead of use.
  uint64_t prefetched_epochs() const {
    return prefetched_epochs_.load(std::memory_order_relaxed);
  }

  /// Point-in-time copy of every live query's stats, admission order.
  /// The ONLY scheduler accessor that is safe from another thread while
  /// an epoch is running (the ops scraper reads through this; the
  /// QueryRegistry itself is not synchronized).
  std::vector<QueryLiveStats> SnapshotQueries() const;

  MultiQueryEngine& engine() { return *engine_; }
  const MultiQueryEngine& engine() const { return *engine_; }

  /// Per-query outcomes of the most recent QuerierEvaluate, in
  /// admission order. Empty until an epoch has been evaluated.
  const std::vector<QueryEpochOutcome>& last_outcomes() const {
    return last_outcomes_;
  }

 private:
  /// Recomputes every snapshot entry's slot list from the live plan
  /// (slot assignments shift when the plan compacts). Caller holds
  /// stats_mu_.
  void RefreshSlotsLocked();

  std::shared_ptr<MultiQueryEngine> engine_;
  net::Topology topology_;
  ReadingFn readings_;
  std::vector<QueryEpochOutcome> last_outcomes_;

  /// Guards stats_ only: the control plane and QuerierEvaluate write it
  /// from the run thread, the ops scraper reads it from the admin
  /// thread. Never held across engine calls that take other locks.
  mutable std::mutex stats_mu_;
  std::vector<QueryLiveStats> stats_;

  /// Guards the queued control plane only (writers: any thread; reader:
  /// ApplyPending on the run thread).
  std::mutex pending_mu_;
  std::vector<core::Query> pending_admits_;
  std::vector<uint32_t> pending_teardowns_;

  /// Prefetch state — run-thread owned except the counter. The thread
  /// touches ONLY the querier's mutex-guarded epoch-key cache, so it
  /// may overlap the next epoch's source/aggregate phases; it is joined
  /// before the next QuerierEvaluate and before any plan mutation.
  bool pipelining_ = false;
  std::thread prefetch_;
  std::atomic<uint64_t> prefetched_epochs_{0};
};

}  // namespace sies::engine

#endif  // SIES_ENGINE_EPOCH_SCHEDULER_H_
