#include "runner/deployment.h"

namespace sies::runner {

// Session-backed simulator binding for the active query.
class ContinuousDeployment::Protocol : public net::AggregationProtocol {
 public:
  Protocol(core::Query query, const core::Params& params,
           const core::QuerierKeys& keys, const net::Topology& topology,
           workload::TraceGenerator* trace)
      : topology_(topology),
        aggregator_(query, params),
        querier_(query, params, keys),
        trace_(trace) {
    sources_.reserve(topology.num_sources());
    for (uint32_t index = 0; index < topology.num_sources(); ++index) {
      sources_.emplace_back(query, params, index,
                            core::KeysForSource(keys, index).value());
    }
  }

  std::string Name() const override { return "SIES/deployment"; }

  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override {
    auto index = topology_.SourceIndex(id);
    if (!index.ok()) return index.status();
    return sources_[index.value()].CreatePayload(
        trace_->ReadingAt(index.value(), epoch), epoch);
  }

  StatusOr<Bytes> AggregatorMerge(
      net::NodeId id, uint64_t, const std::vector<Bytes>& children) override {
    if (id >= topology_.num_nodes()) return Status::NotFound("no such node");
    return aggregator_.Merge(topology_.child_ranges(id), children);
  }

  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& /*participating*/) override {
    // The participating set comes from the wire envelope's contributor
    // field (in-band loss reporting), not from simulator-side
    // knowledge of which sources are live.
    auto outcome = querier_.Evaluate(final_payload, epoch);
    if (!outcome.ok()) return outcome.status();
    last_result_ = outcome.value().result;
    net::EvalOutcome out;
    out.value = outcome.value().result.value;
    out.verified = outcome.value().verified;
    out.has_contributors = true;
    out.contributors.reserve(outcome.value().contributors.size());
    for (uint32_t index : outcome.value().contributors) {
      out.contributors.push_back(topology_.sources()[index]);
    }
    return out;
  }

  const core::QueryResult& last_result() const { return last_result_; }

 private:
  net::Topology topology_;
  core::AggregatorSession aggregator_;
  core::QuerierSession querier_;
  workload::TraceGenerator* trace_;
  std::vector<core::SourceSession> sources_;
  core::QueryResult last_result_;
};

StatusOr<ContinuousDeployment> ContinuousDeployment::Create(
    net::Topology topology, uint64_t seed,
    workload::TraceConfig trace_config, uint64_t chain_length) {
  ContinuousDeployment deployment;
  auto params = core::MakeParams(topology.num_sources(), seed,
                                 /*value_bytes=*/8);
  if (!params.ok()) return params.status();
  deployment.params_ = std::move(params).value();
  deployment.keys_ =
      core::GenerateKeys(deployment.params_, EncodeUint64(seed));
  deployment.network_ = std::make_unique<net::Network>(std::move(topology));
  trace_config.num_sources = deployment.params_.num_sources;
  deployment.trace_ =
      std::make_unique<workload::TraceGenerator>(trace_config);
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

  // Keys unchanged; only the sessions are rebuilt for the new query.
  active_query_ = query;
  protocol_ = std::make_unique<Protocol>(query, params_, keys_,
                                         network_->topology(), trace_.get());
  return Status::OK();
}

Status ContinuousDeployment::SetRadioLoss(double loss_rate,
                                          uint32_t max_retries,
                                          uint64_t seed) {
  SIES_RETURN_IF_ERROR(network_->SetLossRate(loss_rate, seed));
  network_->SetMaxRetries(max_retries);
  return Status::OK();
}

StatusOr<DeploymentEpoch> ContinuousDeployment::RunEpoch(uint64_t epoch) {
  if (!active_query_.has_value()) {
    return Status::FailedPrecondition("no query registered");
  }
  auto report = network_->RunEpoch(*protocol_, epoch);
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
  out.result = static_cast<Protocol*>(protocol_.get())->last_result();
  SIES_RETURN_IF_ERROR(
      log_.Record(epoch, out.result.value, out.verified, out.coverage));
  return out;
}

}  // namespace sies::runner
