#include "engine/query_registry.h"

#include <algorithm>

#include "telemetry/audit.h"
#include "telemetry/metrics.h"

namespace sies::engine {

namespace {
telemetry::Gauge* EngineGauge(const char* name) {
  return telemetry::MetricsRegistry::Global().GetGauge(name, {});
}
}  // namespace

void QueryRegistry::UpdateGauges() const {
  static telemetry::Gauge* live_queries =
      EngineGauge("sies_engine_live_queries");
  static telemetry::Gauge* live_channels =
      EngineGauge("sies_engine_live_channels");
  static telemetry::Gauge* dedup_savings =
      EngineGauge("sies_engine_dedup_saved_channels");
  live_queries->Set(static_cast<double>(active_.size()));
  live_channels->Set(static_cast<double>(plan_.Count()));
  dedup_savings->Set(static_cast<double>(plan_.DedupSavings()));
}

Status QueryRegistry::Admit(const Query& query, uint64_t epoch) {
  if (query.query_id > kMaxQueryId) {
    return Status::InvalidArgument("query id exceeds the 14-bit salt field");
  }
  if (Find(query.query_id) != nullptr) {
    return Status::FailedPrecondition("query id is already active");
  }
  if (plan_.SaltIdInUse(query.query_id)) {
    return Status::FailedPrecondition(
        "query id still salts a live shared channel; reusing it would "
        "collide PRF inputs");
  }
  // Extra bucket salts must not squat on a live query's id: the plan's
  // allocator asks before taking one (see ChannelPlan::Admit).
  SIES_RETURN_IF_ERROR(plan_.Admit(
      query, [this](uint32_t id) { return Find(id) == nullptr; }));
  active_.push_back(ActiveQuery{query, epoch});
  telemetry::AuditTrail::Global().Record(
      telemetry::AuditKind::kQueryAdmitted, epoch, telemetry::kAuditNoNode,
      "q" + std::to_string(query.query_id) + ": " + query.ToSql());
  UpdateGauges();
  return Status::OK();
}

Status QueryRegistry::Teardown(uint32_t query_id, uint64_t epoch) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [&](const ActiveQuery& aq) {
                           return aq.query.query_id == query_id;
                         });
  if (it == active_.end()) {
    return Status::NotFound("query id is not active");
  }
  SIES_RETURN_IF_ERROR(plan_.Teardown(it->query));
  telemetry::AuditTrail::Global().Record(
      telemetry::AuditKind::kQueryTeardown, epoch, telemetry::kAuditNoNode,
      "q" + std::to_string(query_id) + ": " + it->query.ToSql());
  active_.erase(it);
  UpdateGauges();
  return Status::OK();
}

const ActiveQuery* QueryRegistry::Find(uint32_t query_id) const {
  for (const ActiveQuery& aq : active_) {
    if (aq.query.query_id == query_id) return &aq;
  }
  return nullptr;
}

}  // namespace sies::engine
