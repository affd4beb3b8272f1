// ContinuousDeployment: the full SIES lifecycle in one object.
//
// The paper's operational story (Sections III-A, IV-A): a one-time setup
// phase provisions keys; the querier registers a continuous query by
// μTesla-authenticated broadcast; epochs then stream results; and
// "whenever Q issues a new query, it simply broadcasts it with μTesla in
// the network, WITHOUT re-establishing any keys". This driver implements
// exactly that: long-term keys are fixed at construction; queries come
// and go via authenticated broadcast; every epoch runs the active query
// through the simulator and feeds the querier-side ResultLog.
#ifndef SIES_RUNNER_DEPLOYMENT_H_
#define SIES_RUNNER_DEPLOYMENT_H_

#include <memory>
#include <optional>

#include "mutesla/mutesla.h"
#include "net/network.h"
#include "sies/result_log.h"
#include "sies/session.h"
#include "workload/workload.h"

namespace sies::runner {

/// Outcome of one epoch of a continuous deployment.
struct DeploymentEpoch {
  uint64_t epoch = 0;
  uint32_t query_id = 0;
  core::QueryResult result;
  bool verified = false;
  /// False when no final payload reached the querier (total radio loss
  /// or adversarial drop): `result` and `verified` carry no information,
  /// the epoch is logged as unanswered, and the deployment keeps going.
  bool answered = true;
  /// Sources covered by the (verified) result, per contributor set.
  uint32_t contributors = 0;
  /// contributors ÷ expected live sources (1.0 = lossless epoch).
  double coverage = 0.0;
};

/// A long-lived SIES deployment over a simulated network.
class ContinuousDeployment {
 public:
  /// Provisions keys for `topology`'s sources and builds the μTesla
  /// chain (`chain_length` bounds the number of query broadcasts).
  static StatusOr<ContinuousDeployment> Create(
      net::Topology topology, uint64_t seed,
      workload::TraceConfig trace_config, uint64_t chain_length = 256);

  /// Registers (or replaces) the continuous query: broadcasts its SQL
  /// via μTesla, every source authenticates it, and on success the
  /// sessions for the new query are built — with the SAME long-term
  /// keys. Returns an error if any source rejects the broadcast.
  Status RegisterQuery(const core::Query& query);

  /// Configures the lossy radio and its link-layer retransmission
  /// budget (see Network::SetLossRate / SetMaxRetries).
  Status SetRadioLoss(double loss_rate, uint32_t max_retries, uint64_t seed);

  /// Runs one epoch of the active query. Fails if no query is active.
  /// An epoch whose final payload is lost outright is NOT an error: it
  /// returns `answered == false` and is logged as unanswered.
  StatusOr<DeploymentEpoch> RunEpoch(uint64_t epoch);

  /// The querier-side log across all queries and epochs.
  const core::ResultLog& log() const { return log_; }

  /// The network (for failure/adversary injection in tests).
  net::Network& network() { return *network_; }

  /// Number of query broadcasts so far.
  uint64_t queries_registered() const { return broadcast_interval_; }

 private:
  ContinuousDeployment() = default;

  // Session-backed protocol binding (per active query).
  class Protocol;

  core::Params params_;
  core::QuerierKeys keys_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<workload::TraceGenerator> trace_;
  std::unique_ptr<mutesla::Broadcaster> broadcaster_;
  std::optional<core::Query> active_query_;
  std::unique_ptr<net::AggregationProtocol> protocol_;
  core::ResultLog log_;
  uint64_t broadcast_interval_ = 0;
};

}  // namespace sies::runner

#endif  // SIES_RUNNER_DEPLOYMENT_H_
