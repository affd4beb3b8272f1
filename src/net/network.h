// Network: epoch-driven simulator of in-network aggregation.
//
// Each epoch, every live source produces a payload (its PSR), aggregators
// merge children payloads bottom-up, and the querier evaluates the final
// payload. The simulator measures per-party CPU time and per-edge-class
// bytes — the exact quantities in the paper's Figures 4-6 and Table V —
// and gives an adversary the chance to tamper with any message in flight.
#ifndef SIES_NET_NETWORK_H_
#define SIES_NET_NETWORK_H_

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "net/message.h"
#include "net/topology.h"
#include "net/transport.h"

namespace sies::net {

/// Outcome of the querier's evaluation phase.
struct EvalOutcome {
  double value = 0.0;    ///< reported aggregate (exact schemes: integer)
  bool verified = true;  ///< integrity/freshness verification result
  bool exact = true;     ///< false for sketch-based (SECOA_S) answers
  /// True when the protocol reports the contributing-source set in-band
  /// (SIES contributor sets). When false, the querier had to assume
  /// the full expected set and `contributors` is meaningless.
  bool has_contributors = false;
  /// Sources whose readings reached the final aggregate, per the
  /// protocol's own report. When verified, `value` is the exact
  /// aggregate over exactly this set.
  std::vector<NodeId> contributors;
};

/// Scheme binding: how one protocol (SIES / CMT / SECOA_S) plugs into the
/// simulator. Implementations hold all key material and per-epoch state.
class AggregationProtocol {
 public:
  virtual ~AggregationProtocol() = default;

  /// Human-readable scheme name ("SIES", "CMT", "SECOA_S").
  virtual std::string Name() const = 0;

  /// Initialization phase at source `id`: produce the epoch-`epoch` PSR.
  virtual StatusOr<Bytes> SourceInitialize(NodeId id, uint64_t epoch) = 0;

  /// Merging phase at aggregator `id`: fuse children payloads into one.
  /// `children` is positional: slot i holds what topology.children(id)[i]
  /// delivered, and is empty when nothing arrived from that child (a
  /// failed source, a subtree with nothing to send, a message lost on
  /// the radio or dropped in flight). At least one slot is non-empty;
  /// implementations skip the empty ones. Protocols never emit empty
  /// payloads, so an in-flight truncation to zero bytes is a drop.
  virtual StatusOr<Bytes> AggregatorMerge(
      NodeId id, uint64_t epoch, const std::vector<Bytes>& children) = 0;

  /// Evaluation phase at the querier. `participating` lists the sources
  /// whose PSRs are known to have contributed (all sources minus reported
  /// failures), which the querier needs to reconstruct keys/shares.
  virtual StatusOr<EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<NodeId>& participating) = 0;

  /// True when SourceInitialize may run concurrently for distinct source
  /// ids (implementation is stateless per source or internally
  /// synchronized). The simulator only fans the source phase out over a
  /// thread pool when this holds; the conservative default keeps
  /// protocols serial until they opt in.
  virtual bool ParallelSourceInitSafe() const { return false; }

  /// Lends the protocol a pool for intra-party parallelism (e.g. the
  /// querier's N-way share recomputation). Default: ignore it. The pool
  /// outlives the protocol's use of it.
  virtual void SetThreadPool(common::ThreadPool* pool) { (void)pool; }
};

/// The slots of a positional `children` list that hold a payload, in
/// child order: the input of merges that do not depend on which child
/// sent what (CMT, SECOA, histograms).
std::vector<Bytes> ArrivedPayloads(const std::vector<Bytes>& children);

/// In-flight message interceptor. Return value of OnMessage says whether
/// the (possibly mutated) message is delivered or dropped.
class Adversary {
 public:
  virtual ~Adversary() = default;
  /// Called for every message; may mutate `msg.payload`. Returns false to
  /// drop the message entirely.
  virtual bool OnMessage(Message& msg) = 0;
};

/// Byte counters for one edge class. A message is counted when its
/// sender radiates it — lost and adversary-dropped messages still cost
/// the sender tx energy — and `bytes` covers every transmission attempt,
/// so with retransmission bytes > messages × WireSize.
struct EdgeTraffic {
  uint64_t messages = 0;     ///< logical sends (attempt groups)
  uint64_t bytes = 0;        ///< radiated bytes, all attempts
  uint64_t retransmits = 0;  ///< attempts beyond the first
  uint64_t undelivered = 0;  ///< sends that never reached the receiver

  /// Mean radiated bytes per logical send (0 when idle).
  double MeanBytes() const {
    return messages == 0
               ? 0.0
               : static_cast<double>(bytes) / static_cast<double>(messages);
  }
};

/// Everything measured during one RunEpoch call.
struct EpochReport {
  uint64_t epoch = 0;
  /// False when no final payload reached the querier (radio blackout or
  /// an adversary eating every path): there is nothing to evaluate and
  /// `outcome` is meaningless. The epoch itself still completed — the
  /// runner records it as unanswered and moves on.
  bool answered = true;
  EvalOutcome outcome;

  /// Sources expected to contribute this epoch (live, non-failed).
  uint32_t expected_contributors = 0;
  /// Sources that actually reached the aggregate, per the protocol's
  /// in-band report (== expected for protocols that cannot report).
  uint32_t contributing_sources = 0;
  /// contributing_sources ÷ expected_contributors (0 when unanswered).
  double coverage = 0.0;
  /// Link-layer retransmission attempts across all edges this epoch.
  uint64_t retransmits = 0;
  /// Contention slots spent in retransmission backoff this epoch.
  uint64_t backoff_slots = 0;

  /// CPU per party, aggregated over the epoch.
  CostAccumulator source_cpu;      ///< one sample per live source
  CostAccumulator aggregator_cpu;  ///< one sample per aggregator
  CostAccumulator querier_cpu;     ///< exactly one sample

  /// Traffic per edge class (paper Table V rows).
  EdgeTraffic source_to_aggregator;
  EdgeTraffic aggregator_to_aggregator;
  EdgeTraffic aggregator_to_querier;

  /// Per-node radio accounting (indexed by NodeId), feeding the energy
  /// model: bytes each node transmitted to its parent and received from
  /// its children this epoch.
  std::vector<uint64_t> node_tx_bytes;
  std::vector<uint64_t> node_rx_bytes;
};

/// The epoch driver. Owns the topology; borrows protocol, adversary,
/// and (optionally) a Transport backend. The protocol phases, adversary
/// interception, and all byte/energy accounting live here; the link
/// layer (loss, retries, the payload's physical journey) lives behind
/// the Transport interface — the internal SimTransport by default, or a
/// real backend installed via SetTransport.
class Network {
 public:
  explicit Network(Topology topology) : topology_(std::move(topology)) {}

  const Topology& topology() const { return topology_; }

  /// Installs (or clears, with nullptr) the message interceptor.
  void SetAdversary(Adversary* adversary) { adversary_ = adversary; }

  /// Lends (or clears, with nullptr) a thread pool. When set and the
  /// protocol reports ParallelSourceInitSafe(), the source phase fans out
  /// across lanes; PSRs are still accounted and delivered serially in
  /// source order, so reports, the loss-RNG sequence, and all results are
  /// bit-identical to the serial run. The pool must outlive the network.
  void SetThreadPool(common::ThreadPool* pool) { pool_ = pool; }

  /// Installs (or clears, with nullptr) a link-layer backend. The
  /// default is the built-in deterministic simulator; a real backend
  /// (UdpTransport) must already be started. The current loss/retry
  /// configuration is re-applied to the new backend, so SetTransport,
  /// SetLossRate, and SetMaxRetries compose in any order. The backend
  /// must outlive the network's use of it.
  Status SetTransport(Transport* transport);

  /// The backend RunEpoch will deliver through.
  Transport& transport() {
    return transport_ != nullptr ? *transport_ : sim_transport_;
  }

  /// Enables a lossy radio channel: every transmission attempt is
  /// independently dropped with probability `loss_rate` (deterministic
  /// per `seed`). `loss_rate == 1.0` is a total blackout — every epoch
  /// goes unanswered. The SIES envelope's contributor set reports
  /// surviving losses in-band, so the querier degrades to verified
  /// partial sums instead of rejecting the epoch (paper Section IV-B
  /// assumed out-of-band failure reports).
  Status SetLossRate(double loss_rate, uint64_t seed);

  /// Bounds link-layer retransmission: after a lost attempt the sender
  /// retries up to `max_retries` times (0, the default, preserves the
  /// one-draw-per-message RNG sequence of a retransmission-free radio).
  /// Backoff is deterministic — retries consume loss-RNG draws in the
  /// same serial delivery order for any thread count.
  void SetMaxRetries(uint32_t max_retries) {
    max_retries_ = max_retries;
    transport().SetMaxRetries(max_retries);
  }
  uint32_t max_retries() const { return max_retries_; }

  /// Messages the loss model destroyed for good (every retry exhausted);
  /// retried-then-delivered messages do not count.
  uint64_t lost_messages() const { return lost_messages_; }

  /// Lifetime link-layer retransmission attempts.
  uint64_t retransmits() const { return retransmits_; }

  /// Marks a source as failed: it produces no PSR and is reported to the
  /// querier as non-participating (paper Section IV-B "Discussion").
  void FailSource(NodeId id) { failed_sources_.insert(id); }
  /// Restores all failed sources.
  void HealAllSources() { failed_sources_.clear(); }

  /// Runs the three protocol phases for `epoch` and returns measurements.
  /// A protocol error aborts the epoch; a verification failure or an
  /// unanswered epoch does not (see `outcome.verified` and `answered`).
  StatusOr<EpochReport> RunEpoch(AggregationProtocol& protocol,
                                 uint64_t epoch);

 private:
  Topology topology_;
  Adversary* adversary_ = nullptr;
  common::ThreadPool* pool_ = nullptr;
  std::unordered_set<NodeId> failed_sources_;
  /// Loss/retry config is remembered here and re-applied whenever the
  /// backend changes, so a transport installed late still sees it.
  double loss_rate_ = 0.0;
  uint64_t loss_seed_ = 0;
  uint32_t max_retries_ = 0;
  SimTransport sim_transport_;
  Transport* transport_ = nullptr;  ///< borrowed; nullptr = sim_transport_
  uint64_t lost_messages_ = 0;
  uint64_t retransmits_ = 0;
};

}  // namespace sies::net

#endif  // SIES_NET_NETWORK_H_
