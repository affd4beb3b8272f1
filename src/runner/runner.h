// Experiment runner: binds each baseline scheme (CMT / SECOA_S) to the
// network simulator's AggregationProtocol interface and drives multi-
// epoch experiments for all three schemes, reproducing the measurement
// methodology of the paper's Section VI (average per-epoch cost per
// party over E epochs). SIES runs through the multi-query engine's
// EpochScheduler: one SUM query by default, or any schedule of K
// continuous queries sharing ONE network round per epoch, with
// per-query verdicts, the UDP transport, pipelining and the ops plane.
#ifndef SIES_RUNNER_RUNNER_H_
#define SIES_RUNNER_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cmt/cmt.h"
#include "engine/epoch_scheduler.h"
#include "net/adversary.h"
#include "net/network.h"
#include "secoa/secoa_max.h"
#include "secoa/secoa_sum.h"
#include "telemetry/query_record.h"
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

/// One SIES query plus its live-admission window. Epochs run 1..E; a
/// query with admit_epoch t participates (and verifies) from epoch t
/// onward, until teardown_epoch (exclusive; 0 = never torn down).
struct QuerySchedule {
  core::Query query;
  uint64_t admit_epoch = 1;
  uint64_t teardown_epoch = 0;
};

/// Which net::Transport backend carries the epoch's envelopes.
enum class TransportKind {
  kSim,  ///< in-process deterministic simulator (the default)
  kUdp,  ///< real UDP datagrams + acks on loopback (net/udp_transport)
};

/// Full experiment configuration (defaults = the paper's defaults).
/// The fields after `rsa_modulus_bits` serve the SIES engine, except
/// `epoch_pacing_ms` and `after_epoch`, which pace and observe any run.
/// RunExperiment rejects `queries`, `pipeline`, `ops_port` and the UDP
/// transport on CMT and SECOA_S runs.
struct ExperimentConfig {
  Scheme scheme = Scheme::kSies;
  AdversaryKind adversary = AdversaryKind::kNone;
  uint32_t num_sources = 1024;  ///< N
  uint32_t fanout = 4;          ///< F
  uint32_t scale_pow10 = 2;     ///< D = [18,50] * 10^k
  uint32_t epochs = 20;
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
  uint32_t secoa_j = 300;          ///< J (SECOA_S only)
  size_t rsa_modulus_bits = 1024;  ///< SECOA SEAL modulus

  /// The SIES queries and their admission windows. Empty means the
  /// paper's one SUM(temperature) at `scale_pow10`, live from epoch 1.
  std::vector<QuerySchedule> queries;

  // ---- Transport / pipelining (DESIGN.md, "Transport abstraction") ----
  /// Backend for epoch delivery. kUdp binds one loopback socket per
  /// tree node; loss injection stays sender-side and deterministic, so
  /// a lossless (or injected-loss) UDP run reproduces the simulator's
  /// outcomes bit-for-bit with the same seed.
  TransportKind transport = TransportKind::kSim;
  /// Per-attempt ack deadline of the UDP backend.
  uint32_t udp_ack_timeout_ms = 200;
  /// Epoch pipelining: derive epoch t+1's querier keys on a background
  /// SCHED_IDLE thread while epoch t's verification is consumed, and
  /// route the control plane through the scheduler's boundary queue.
  /// Purely a latency optimization — outcomes are bit-identical.
  bool pipeline = false;
  /// Test hook: every epoch with live channels, from the run thread,
  /// after the round. `answered` is false when loss starved the epoch
  /// (outcomes is then last round's leftovers — ignore it).
  std::function<void(uint64_t epoch, bool answered,
                     const std::vector<engine::QueryEpochOutcome>& outcomes)>
      on_epoch_outcomes;

  // ---- Ops plane (docs/OBSERVABILITY.md, "Live ops plane") ----
  /// < 0 disables the embedded admin server; 0 binds a kernel-assigned
  /// port (read it back via on_ops_ready); > 0 binds that port.
  int ops_port = -1;
  /// /readyz staleness threshold, seconds since the last finished epoch.
  double ops_staleness_seconds = 30.0;
  /// Called once, from the run thread, after the admin server is
  /// listening and before the first epoch — with the resolved port.
  std::function<void(uint16_t port)> on_ops_ready;
  /// Minimum wall time per epoch in milliseconds (0 = free-run). Gives
  /// external scrapers a live run to observe instead of a finished one.
  uint32_t epoch_pacing_ms = 0;
  /// Test hook: called from the run thread after every completed epoch
  /// (including idle and unanswered ones), before pacing sleep.
  std::function<void(uint64_t epoch)> after_epoch;
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
  /// Mean per-epoch CPU over the epochs whose round ran: per source
  /// PSR, per aggregator merge, per querier evaluation.
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
  /// Answered epochs whose outcome failed verification (for SIES: some
  /// live query failed).
  uint32_t unverified_epochs = 0;
  /// Epochs whose final payload reached the querier at all.
  uint32_t answered_epochs = 0;
  /// Epochs that went entirely unanswered (blackout / total drop).
  uint32_t unanswered_epochs = 0;
  /// Epochs with an empty channel plan: the round is skipped entirely
  /// (torn-down queries stop consuming channel slots AND radio time).
  uint32_t idle_epochs = 0;
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
  /// is computed from the raw readings over the epoch's reported
  /// contributor set when the protocol reports one — a verified partial
  /// answer is exact over its contributors, so SIES keeps zero error
  /// under loss. SIES runs measure the first live query's answer.
  double mean_relative_error = 0;

  // ---- SIES engine accounting (zero for CMT and SECOA_S) ----
  /// Σ over run epochs of live physical channels — what the engine
  /// actually puts on the wire.
  uint64_t channel_epochs = 0;
  /// Σ over run epochs of each live query's wire_channels — what
  /// independent per-query (and, for band queries, per-bucket) sessions
  /// would have to transmit. Equals Σ ChannelCount(q) when no query
  /// carries a band. channel_epochs < naive ⇔ dedup won.
  uint64_t naive_channel_epochs = 0;
  /// Epochs whose t+1 keys the pipeline prefetched ahead of use (0 when
  /// config.pipeline is off).
  uint64_t prefetched_epochs = 0;
  /// Data datagrams radiated / malformed datagrams dropped by the UDP
  /// backend (0 under the simulator).
  uint64_t udp_datagrams_sent = 0;
  uint64_t udp_malformed_datagrams = 0;
  /// The scheduler's ledger: one record per admission, in admission
  /// order. A torn-down query keeps its final tally and the slots it
  /// last read; a scheduled query whose admission epoch never came has
  /// no record.
  std::vector<telemetry::QueryRecord> queries;
};

/// One scheme bound to the simulator, with the synthetic trace its
/// sources read.
struct SchemeBinding {
  std::shared_ptr<workload::TraceGenerator> trace;
  std::unique_ptr<net::AggregationProtocol> protocol;
  /// `protocol` as the SIES engine binding, with no query admitted yet
  /// (the caller admits SiesSchedule's queries); null for CMT and
  /// SECOA_S.
  engine::EpochScheduler* scheduler = nullptr;
};

/// Builds `config.scheme`'s protocol over `topology`. Parameters, keys
/// and the trace derive from `config.seed`; SIES uses 8-byte value
/// fields, so VARIANCE/STDDEV sums of squares do not overflow.
StatusOr<SchemeBinding> BindScheme(const ExperimentConfig& config,
                                   const net::Topology& topology);

/// The SIES queries a run of `config` serves: `config.queries`, or the
/// paper's one SUM(temperature) at `config.scale_pow10`, live from
/// epoch 1, when that list is empty.
std::vector<QuerySchedule> SiesSchedule(const ExperimentConfig& config);

/// Runs `config.scheme` for `config.epochs` epochs over a complete tree
/// against the synthetic trace: the one experiment loop behind the paper
/// figures, sies_sim, the ops plane and the engine benches.
StatusOr<ExperimentResult> RunExperiment(const ExperimentConfig& config);

}  // namespace sies::runner

#endif  // SIES_RUNNER_RUNNER_H_
