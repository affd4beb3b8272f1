#include "engine/epoch_scheduler.h"

#include <pthread.h>
#include <sched.h>

#include <utility>

#include "telemetry/metrics.h"

namespace sies::engine {

EpochScheduler::EpochScheduler(std::shared_ptr<MultiQueryEngine> engine,
                               const net::Topology& topology,
                               ReadingFn readings)
    : engine_(std::move(engine)),
      topology_(topology),
      readings_(std::move(readings)) {}

EpochScheduler::~EpochScheduler() { JoinPrefetch(); }

void EpochScheduler::SetPipelining(bool on) {
  JoinPrefetch();
  pipelining_ = on;
}

void EpochScheduler::JoinPrefetch() {
  if (prefetch_.joinable()) prefetch_.join();
}

void EpochScheduler::QueueAdmit(core::Query query) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_admits_.push_back(std::move(query));
}

void EpochScheduler::QueueTeardown(uint32_t query_id) {
  std::lock_guard<std::mutex> lock(pending_mu_);
  pending_teardowns_.push_back(query_id);
}

Status EpochScheduler::ApplyPending(uint64_t epoch) {
  // The prefetch thread never reads the plan, but joining before any
  // mutation keeps the invariant trivial: nothing runs concurrently
  // with a plan change.
  JoinPrefetch();
  std::vector<core::Query> admits;
  std::vector<uint32_t> teardowns;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    admits.swap(pending_admits_);
    teardowns.swap(pending_teardowns_);
  }
  for (const core::Query& query : admits) {
    SIES_RETURN_IF_ERROR(Admit(query, epoch));
  }
  for (uint32_t query_id : teardowns) {
    SIES_RETURN_IF_ERROR(Teardown(query_id, epoch));
  }
  return Status::OK();
}

Status EpochScheduler::Admit(const core::Query& query, uint64_t epoch) {
  SIES_RETURN_IF_ERROR(engine_->Admit(query, epoch));
  std::lock_guard<std::mutex> lock(stats_mu_);
  QueryLiveStats stats;
  stats.query_id = query.query_id;
  stats.sql = query.ToSql();
  stats.admitted_epoch = epoch;
  stats_.push_back(std::move(stats));
  RefreshSlotsLocked();
  return Status::OK();
}

Status EpochScheduler::Teardown(uint32_t query_id, uint64_t epoch) {
  SIES_RETURN_IF_ERROR(engine_->Teardown(query_id, epoch));
  std::lock_guard<std::mutex> lock(stats_mu_);
  for (auto it = stats_.begin(); it != stats_.end(); ++it) {
    if (it->query_id == query_id) {
      stats_.erase(it);
      break;
    }
  }
  RefreshSlotsLocked();
  return Status::OK();
}

void EpochScheduler::RefreshSlotsLocked() {
  // Control-plane only (run thread, between epochs), so reading the
  // unsynchronized registry here is safe.
  for (QueryLiveStats& stats : stats_) {
    stats.slots.clear();
    for (const ActiveQuery& aq : engine_->registry().active()) {
      if (aq.query.query_id != stats.query_id) continue;
      auto slots = engine_->registry().plan().ChannelsOf(aq.query);
      if (!slots.ok()) break;  // snapshot stays slotless, never fails
      stats.slots.reserve(slots.value().size());
      for (size_t slot : slots.value()) {
        stats.slots.push_back(static_cast<uint32_t>(slot));
      }
      break;
    }
  }
}

std::vector<QueryLiveStats> EpochScheduler::SnapshotQueries() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

StatusOr<Bytes> EpochScheduler::SourceInitialize(net::NodeId id,
                                                 uint64_t epoch) {
  auto index = topology_.SourceIndex(id);
  if (!index.ok()) return index.status();
  return engine_->CreateSourcePayload(index.value(),
                                      readings_(index.value(), epoch), epoch);
}

StatusOr<Bytes> EpochScheduler::AggregatorMerge(
    net::NodeId id, uint64_t, const std::vector<Bytes>& children) {
  if (id >= topology_.num_nodes()) return Status::NotFound("no such node");
  return engine_->Merge(topology_.child_ranges(id), children);
}

StatusOr<net::EvalOutcome> EpochScheduler::QuerierEvaluate(
    uint64_t epoch, const Bytes& final_payload,
    const std::vector<net::NodeId>& /*participating*/) {
  // Like SiesProtocol, the participating set comes from the envelope's
  // contributor field, not the simulator's out-of-band knowledge.
  if (pipelining_) {
    JoinPrefetch();
    // Capture epoch t+1's work list NOW, on the run thread, from the
    // plan that is frozen for this epoch — the thread then touches only
    // the querier's mutex-guarded key cache. SCHED_IDLE (best-effort)
    // keeps the derivation out of the foreground's way on saturated
    // hosts: it runs in pacing gaps and whatever the verify fan-out
    // leaves idle, which is exactly the time pipelining reclaims.
    std::vector<uint64_t> next = engine_->SaltedEpochsFor(epoch + 1);
    if (!next.empty()) {
      prefetch_ = std::thread([this, next = std::move(next)]() {
        sched_param sp{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &sp);
        engine_->WarmSaltedEpochs(next);
        prefetched_epochs_.fetch_add(1, std::memory_order_relaxed);
        telemetry::MetricsRegistry::Global()
            .GetCounter("sies_engine_prefetched_epochs_total")
            ->Increment();
      });
    }
  }
  auto outcomes = engine_->Evaluate(final_payload, epoch);
  if (!outcomes.ok()) return outcomes.status();
  last_outcomes_ = std::move(outcomes).value();

  net::EvalOutcome out;
  out.exact = true;
  out.has_contributors = true;
  out.verified = true;
  for (const QueryEpochOutcome& qo : last_outcomes_) {
    out.verified = out.verified && qo.outcome.verified;
    // Per-query telemetry: one labeled counter series per (query,
    // verdict). Query ids are few and stable, so the registry lookup
    // per epoch is cheap relative to an evaluation.
    telemetry::MetricsRegistry::Global()
        .GetCounter("sies_engine_query_epochs_total",
                    {{"query", "q" + std::to_string(qo.query_id)},
                     {"verified", qo.outcome.verified ? "true" : "false"}})
        ->Increment();
  }
  if (!last_outcomes_.empty()) {
    // The simulator models a single scalar answer per epoch; report the
    // first query's and let callers read the rest from last_outcomes().
    out.value = last_outcomes_.front().outcome.result.value;
    const auto& contributors = last_outcomes_.front().outcome.contributors;
    out.contributors.reserve(contributors.size());
    for (uint32_t index : contributors) {
      out.contributors.push_back(topology_.sources()[index]);
    }
  }

  // Fold this epoch into the live-stats snapshot the ops plane scrapes.
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    for (const QueryEpochOutcome& qo : last_outcomes_) {
      for (QueryLiveStats& stats : stats_) {
        if (stats.query_id != qo.query_id) continue;
        ++stats.answered_epochs;
        stats.last_coverage = qo.outcome.coverage;
        stats.last_epoch = epoch;
        if (qo.outcome.verified) {
          ++stats.verified_epochs;
          stats.last_value = qo.outcome.result.value;
          if (qo.outcome.coverage < 1.0) ++stats.partial_epochs;
        } else {
          ++stats.unverified_epochs;
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace sies::engine
