#include "runner/deployment.h"

#include <algorithm>

namespace sies::runner {

StatusOr<ContinuousDeployment> ContinuousDeployment::Create(
    net::Topology topology, uint64_t seed,
    workload::TraceConfig trace_config, uint64_t chain_length) {
  ContinuousDeployment deployment;
  auto params = core::MakeParams(topology.num_sources(), seed,
                                 /*value_bytes=*/8);
  if (!params.ok()) return params.status();
  deployment.network_ = std::make_unique<net::Network>(std::move(topology));
  trace_config.num_sources = params.value().num_sources;
  deployment.trace_ =
      std::make_unique<workload::TraceGenerator>(trace_config);
  workload::TraceGenerator* trace = deployment.trace_.get();
  deployment.scheduler_ = std::make_unique<engine::EpochScheduler>(
      std::make_shared<engine::MultiQueryEngine>(
          params.value(),
          core::GenerateKeys(params.value(), EncodeUint64(seed))),
      deployment.network_->topology(),
      [trace](uint32_t index, uint64_t epoch) {
        return trace->ReadingAt(index, epoch);
      });
  auto broadcaster = mutesla::Broadcaster::Create(
      EncodeUint64(seed ^ 0xb40adca57ull), chain_length,
      /*disclosure_delay=*/1);
  if (!broadcaster.ok()) return broadcaster.status();
  deployment.broadcaster_ = std::make_unique<mutesla::Broadcaster>(
      std::move(broadcaster).value());
  return deployment;
}

Status ContinuousDeployment::RegisterQuery(const core::Query& query) {
  // One μTesla interval per registration.
  ++broadcast_interval_;
  std::string sql = query.ToSql();
  Bytes payload(sql.begin(), sql.end());
  auto packet = broadcaster_->Broadcast(broadcast_interval_, payload);
  if (!packet.ok()) return packet.status();
  auto disclosure = broadcaster_->Disclose(broadcast_interval_);
  if (!disclosure.ok()) return disclosure.status();

  // Every source independently authenticates the broadcast. (Each keeps
  // its own receiver state in a real deployment; the commitment is the
  // same, so one receiver per source reconstructed from the commitment
  // plus the interval progression is equivalent here.)
  for (net::NodeId node : network_->topology().sources()) {
    (void)node;
    mutesla::Receiver receiver(broadcaster_->commitment(), 1);
    // Catch the receiver up on previously disclosed intervals.
    for (uint64_t i = 1; i + 1 <= broadcast_interval_; ++i) {
      auto catch_up = receiver.OnDisclosure(
          broadcaster_->Disclose(i).value());
      if (!catch_up.ok()) return catch_up.status();
    }
    SIES_RETURN_IF_ERROR(
        receiver.Accept(packet.value(), broadcast_interval_));
    auto authenticated = receiver.OnDisclosure(disclosure.value());
    if (!authenticated.ok()) return authenticated.status();
    if (authenticated.value().size() != 1 ||
        authenticated.value()[0] != payload) {
      return Status::VerificationFailed(
          "a source rejected the query broadcast");
    }
  }

  // Keys unchanged; only the live query is swapped. Teardown first, so
  // re-registering the live id (whose channels the teardown frees)
  // admits cleanly.
  const uint64_t next_epoch = last_epoch_ + 1;
  if (active_query_.has_value()) {
    SIES_RETURN_IF_ERROR(
        scheduler_->Teardown(active_query_->query_id, next_epoch));
  }
  Status admitted = scheduler_->Admit(query, next_epoch);
  if (!admitted.ok()) {
    if (active_query_.has_value()) {
      SIES_RETURN_IF_ERROR(scheduler_->Admit(*active_query_, next_epoch));
    }
    return admitted;
  }
  active_query_ = query;
  return Status::OK();
}

StatusOr<DeploymentEpoch> ContinuousDeployment::RunEpoch(uint64_t epoch) {
  if (!active_query_.has_value()) {
    return Status::FailedPrecondition("no query registered");
  }
  last_epoch_ = std::max(last_epoch_, epoch);
  auto report = network_->RunEpoch(*scheduler_, epoch);
  if (!report.ok()) return report.status();
  const net::EpochReport& r = report.value();
  DeploymentEpoch out;
  out.epoch = epoch;
  out.query_id = active_query_->query_id;
  out.answered = r.answered;
  if (!r.answered) {
    SIES_RETURN_IF_ERROR(log_.RecordUnanswered(epoch));
    return out;
  }
  out.verified = r.outcome.verified;
  out.contributors = r.contributing_sources;
  out.coverage = r.coverage;
  out.result = scheduler_->last_outcomes().front().outcome.result;
  SIES_RETURN_IF_ERROR(
      log_.Record(epoch, out.result.value, out.verified, out.coverage));
  return out;
}

}  // namespace sies::runner
