// Experiment runner: binds each baseline scheme (CMT / SECOA_S) to the
// network simulator's AggregationProtocol interface and drives multi-
// epoch experiments for all three schemes, reproducing the measurement
// methodology of the paper's Section VI (average per-epoch cost per
// party over E epochs). SIES runs through the multi-query engine's
// EpochScheduler with one SUM query, like every other SIES run.
#ifndef SIES_RUNNER_RUNNER_H_
#define SIES_RUNNER_RUNNER_H_

#include <functional>
#include <memory>

#include "cmt/cmt.h"
#include "net/adversary.h"
#include "net/network.h"
#include "secoa/secoa_max.h"
#include "secoa/secoa_sum.h"
#include "workload/workload.h"

namespace sies::runner {

/// Supplies the scaled integer reading of logical source `index` at
/// `epoch` (typically backed by workload::TraceGenerator).
using ValueFn = std::function<uint64_t(uint32_t index, uint64_t epoch)>;

/// CMT bound to the simulator.
class CmtProtocol : public net::AggregationProtocol {
 public:
  CmtProtocol(cmt::Params params, cmt::QuerierKeys keys,
              const net::Topology& topology, ValueFn values);

  std::string Name() const override { return "CMT"; }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override;
  StatusOr<Bytes> AggregatorMerge(net::NodeId id, uint64_t epoch,
                                  const std::vector<Bytes>& children) override;
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override;

  /// CMT sources are stateless per call.
  bool ParallelSourceInitSafe() const override { return true; }

 private:
  cmt::Params params_;
  net::Topology topology_;
  std::vector<cmt::Source> sources_;
  cmt::Aggregator aggregator_;
  cmt::Querier querier_;
  ValueFn values_;
};

/// SECOA_S bound to the simulator. The root aggregator's merge includes
/// the sink finalization step (XOR certs, fold same-position SEALs).
class SecoaProtocol : public net::AggregationProtocol {
 public:
  SecoaProtocol(secoa::SealOps ops, secoa::SumParams params,
                secoa::QuerierKeys keys, const net::Topology& topology,
                ValueFn values);

  std::string Name() const override { return "SECOA_S"; }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override;
  StatusOr<Bytes> AggregatorMerge(net::NodeId id, uint64_t epoch,
                                  const std::vector<Bytes>& children) override;
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override;

 private:
  secoa::SealOps ops_;
  secoa::SumParams params_;
  net::Topology topology_;
  std::vector<secoa::SumSource> sources_;
  secoa::SumAggregator aggregator_;
  secoa::SumQuerier querier_;
  ValueFn values_;
};

/// SECOA_M (exact MAX) bound to the simulator — the paper notes SECOA
/// supports a wide range of aggregates including MAX; SIES intentionally
/// targets SUM-derivable ones, so MAX queries route to this protocol.
class SecoaMaxProtocol : public net::AggregationProtocol {
 public:
  SecoaMaxProtocol(secoa::SealOps ops, secoa::QuerierKeys keys,
                   const net::Topology& topology, ValueFn values);

  std::string Name() const override { return "SECOA_M"; }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override;
  StatusOr<Bytes> AggregatorMerge(net::NodeId id, uint64_t epoch,
                                  const std::vector<Bytes>& children) override;
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override;

 private:
  secoa::SealOps ops_;
  net::Topology topology_;
  std::vector<secoa::MaxSource> sources_;
  secoa::MaxAggregator aggregator_;
  secoa::MaxQuerier querier_;
  ValueFn values_;
};

/// Which scheme an experiment runs.
enum class Scheme { kSies, kCmt, kSecoa };

/// Built-in attack an experiment can run under (paper Section III-C
/// threat model, bound to the concrete adversaries in net/adversary.h).
enum class AdversaryKind {
  kNone,
  kTamper,  ///< BitFlipAdversary: one bit of every payload flipped
  kReplay,  ///< ReplayAdversary: epoch-1 capture replayed afterwards
  kDrop,    ///< DropAdversary: source 0's contribution suppressed
};

/// Full experiment configuration (defaults = the paper's defaults).
struct ExperimentConfig {
  Scheme scheme = Scheme::kSies;
  AdversaryKind adversary = AdversaryKind::kNone;
  uint32_t num_sources = 1024;  ///< N
  uint32_t fanout = 4;          ///< F
  uint32_t scale_pow10 = 2;     ///< D = [18,50] * 10^k
  uint32_t epochs = 20;
  uint32_t secoa_j = 300;       ///< J (SECOA_S only)
  uint64_t seed = 7;
  /// Simulator lanes: 0 = hardware concurrency, 1 = fully serial.
  /// Results are bit-identical regardless of the value; only wall-clock
  /// changes. (Per-party CPU figures are measured per call and therefore
  /// unaffected by the fan-out.)
  uint32_t threads = 0;
  /// Radio loss probability per transmission attempt, in [0, 1]
  /// (deterministic per `seed`; 1.0 = total blackout).
  double loss_rate = 0.0;
  /// Link-layer retransmission budget per message (0 = no retries).
  uint32_t max_retries = 0;
  size_t rsa_modulus_bits = 1024;  ///< SECOA SEAL modulus
  /// SECOA RSA public exponent. One-way chains want the cheapest
  /// permutation, so e=3 (the paper's C_RSA = 5.36 us is consistent with
  /// a small exponent, not e=65537).
  uint64_t rsa_public_exponent = 3;
};

/// Spread of a per-epoch cost series (one CostAccumulator sample per
/// epoch): extremes plus the Welford standard deviation.
struct CostSpread {
  double min_seconds = 0;
  double max_seconds = 0;
  double stddev_seconds = 0;
};

/// Aggregated outcome of a multi-epoch experiment.
struct ExperimentResult {
  std::string scheme_name;
  uint32_t epochs = 0;
  /// Mean per-epoch CPU: per source PSR, per aggregator merge, per
  /// querier evaluation.
  double source_cpu_seconds = 0;
  double aggregator_cpu_seconds = 0;
  double querier_cpu_seconds = 0;
  /// Epoch-to-epoch spread of the three series above.
  CostSpread source_cpu_spread;
  CostSpread aggregator_cpu_spread;
  CostSpread querier_cpu_spread;
  /// Mean payload bytes per message on each edge class.
  double source_to_aggregator_bytes = 0;
  double aggregator_to_aggregator_bytes = 0;
  double aggregator_to_querier_bytes = 0;
  /// All answered epochs verified (exact schemes) / estimate within
  /// bound. Unanswered epochs are loss, not tampering — tracked below.
  bool all_verified = true;
  /// Answered epochs whose outcome failed verification.
  uint32_t unverified_epochs = 0;
  /// Epochs whose final payload reached the querier at all.
  uint32_t answered_epochs = 0;
  /// Epochs that went entirely unanswered (blackout / total drop).
  uint32_t unanswered_epochs = 0;
  /// Answered+verified epochs that covered fewer sources than expected
  /// (the contributor set reported radio loss in-band).
  uint32_t partial_epochs = 0;
  /// Mean contributor coverage over answered epochs (1.0 = lossless).
  double mean_coverage = 1.0;
  /// Link-layer retransmission attempts across the experiment.
  uint64_t retransmits = 0;
  /// Messages destroyed for good by the loss model (retries exhausted).
  uint64_t lost_messages = 0;
  /// Messages the configured adversary tampered with, replayed, or
  /// dropped (0 when `config.adversary == kNone`).
  uint64_t adversary_events = 0;
  /// Mean |reported - exact| / exact over answered epochs, where "exact"
  /// is the trace sum over the epoch's reported contributor set when the
  /// protocol reports one — a verified partial SUM is exact over its
  /// contributors, so SIES keeps zero error under loss.
  double mean_relative_error = 0;
};

/// Builds the protocol for `config` over `topology` and runs it for
/// `config.epochs` epochs against the synthetic trace.
StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config);

}  // namespace sies::runner

#endif  // SIES_RUNNER_RUNNER_H_
