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
  telemetry::QueryRecord record;
  record.query_id = query.query_id;
  record.sql = query.ToSql();
  record.admitted_epoch = epoch;
  // One labeled series per (admission, verdict), resolved here so that
  // no epoch builds label strings or takes the registry's lock. The
  // admission epoch tells apart two admissions of one id, as the ledger
  // does.
  auto& metrics = telemetry::MetricsRegistry::Global();
  const std::string label = "q" + std::to_string(query.query_id);
  const std::string admitted = std::to_string(epoch);
  LiveRecord live;
  live.verified = metrics.GetCounter(
      "sies_engine_query_epochs_total",
      {{"query", label}, {"admitted", admitted}, {"verified", "true"}});
  live.unverified = metrics.GetCounter(
      "sies_engine_query_epochs_total",
      {{"query", label}, {"admitted", admitted}, {"verified", "false"}});
  std::lock_guard<std::mutex> lock(ledger_mu_);
  live.index = ledger_.size();
  ledger_.push_back(std::move(record));
  live_.push_back(live);
  RefreshSlotsLocked();
  return Status::OK();
}

Status EpochScheduler::Teardown(uint32_t query_id, uint64_t epoch) {
  SIES_RETURN_IF_ERROR(engine_->Teardown(query_id, epoch));
  std::lock_guard<std::mutex> lock(ledger_mu_);
  for (auto it = live_.begin(); it != live_.end(); ++it) {
    if (ledger_[it->index].query_id == query_id) {
      live_.erase(it);  // the record stays in the ledger as it is
      break;
    }
  }
  RefreshSlotsLocked();
  return Status::OK();
}

void EpochScheduler::RefreshSlotsLocked() {
  // Control-plane only (run thread, between epochs), so reading the
  // unsynchronized registry here is safe.
  const QueryRegistry& registry = engine_->registry();
  for (const LiveRecord& live : live_) {
    telemetry::QueryRecord& record = ledger_[live.index];
    const ActiveQuery* active = registry.Find(record.query_id);
    if (active == nullptr) continue;
    auto channels = registry.plan().ChannelsOf(active->query);
    if (!channels.ok()) continue;  // the record stays as it was
    std::vector<uint32_t> slots;
    slots.reserve(channels.value().size());
    for (size_t slot : channels.value()) {
      slots.push_back(static_cast<uint32_t>(slot));
    }
    record.SetSlots(std::move(slots));
  }
}

std::vector<telemetry::QueryRecord> EpochScheduler::SnapshotQueries() const {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  std::vector<telemetry::QueryRecord> out;
  out.reserve(live_.size());
  for (const LiveRecord& live : live_) out.push_back(ledger_[live.index]);
  return out;
}

uint64_t EpochScheduler::LiveQueryChannels() const {
  uint64_t channels = 0;
  for (const LiveRecord& live : live_) {
    channels += ledger_[live.index].wire_channels;
  }
  return channels;
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
  // The participating set comes from the envelope's contributor field,
  // not the simulator's out-of-band knowledge.
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
  {
    // Fold each query's verdict into its record and its counter, once.
    std::lock_guard<std::mutex> lock(ledger_mu_);
    for (const QueryEpochOutcome& qo : last_outcomes_) {
      out.verified = out.verified && qo.outcome.verified;
      for (const LiveRecord& live : live_) {
        telemetry::QueryRecord& record = ledger_[live.index];
        if (record.query_id != qo.query_id) continue;
        (qo.outcome.verified ? live.verified : live.unverified)->Increment();
        record.Fold(epoch, qo.outcome.verified, qo.outcome.result.value,
                    qo.outcome.coverage);
        break;
      }
    }
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
  return out;
}

}  // namespace sies::engine
