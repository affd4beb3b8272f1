#include "net/network.h"

#include <string>
#include <utility>

#include "telemetry/audit.h"
#include "telemetry/epoch_timeline.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace sies::net {

namespace {

/// Per-scheme, per-phase wall-time histograms. Registered once per
/// (scheme, phase) pair; the registry hands back stable pointers so
/// repeated RunEpoch calls pay only one mutexed lookup per phase.
telemetry::Histogram* PhaseHistogram(const std::string& scheme,
                                     const char* phase) {
  return telemetry::MetricsRegistry::Global().GetHistogram(
      "sies_phase_seconds", {{"scheme", scheme}, {"phase", phase}});
}

telemetry::Counter* DropCounter(const char* cause) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "sies_net_dropped_total", {{"cause", cause}});
}

}  // namespace

std::vector<Bytes> ArrivedPayloads(const std::vector<Bytes>& children) {
  std::vector<Bytes> arrived;
  arrived.reserve(children.size());
  for (const Bytes& child : children) {
    if (!child.empty()) arrived.push_back(child);
  }
  return arrived;
}

Status Network::SetLossRate(double loss_rate, uint64_t seed) {
  SIES_RETURN_IF_ERROR(transport().SetLossRate(loss_rate, seed));
  loss_rate_ = loss_rate;
  loss_seed_ = seed;
  return Status::OK();
}

Status Network::SetTransport(Transport* transport) {
  transport_ = transport;
  // The new backend inherits the network's loss/retry configuration —
  // callers must not have to remember which setter came first.
  Transport& active = this->transport();
  active.SetMaxRetries(max_retries_);
  return active.SetLossRate(loss_rate_, loss_seed_);
}

StatusOr<EpochReport> Network::RunEpoch(AggregationProtocol& protocol,
                                        uint64_t epoch) {
  EpochReport report;
  report.epoch = epoch;
  report.node_tx_bytes.assign(topology_.num_nodes(), 0);
  report.node_rx_bytes.assign(topology_.num_nodes(), 0);

  // One stopwatch per party call feeds every sink of that call: the
  // EpochReport (the paper's per-party CPU), `sies_phase_seconds`, and,
  // while they record, the timeline (which traces its records) and the
  // `evaluate` span. Only the timeline reports transport, so transport
  // is timed only while it records.
  const std::string scheme = protocol.Name();
  if (phase_histograms_.source_init == nullptr ||
      phase_histograms_.scheme != scheme) {
    phase_histograms_ = {scheme, PhaseHistogram(scheme, "source_init"),
                         PhaseHistogram(scheme, "merge"),
                         PhaseHistogram(scheme, "evaluate")};
  }
  telemetry::Histogram* source_hist = phase_histograms_.source_init;
  telemetry::Histogram* merge_hist = phase_histograms_.merge;
  telemetry::Histogram* eval_hist = phase_histograms_.evaluate;
  telemetry::AuditTrail& audit = telemetry::AuditTrail::Global();
  telemetry::EpochTimeline& timeline = telemetry::EpochTimeline::Global();
  const bool attribute = timeline.enabled();

  // What each node delivered to its parent this epoch, indexed by the
  // sender's id (the root's entry is the querier's input).
  std::vector<Bytes>& inbox = scratch_.inbox;
  std::vector<uint8_t>& arrived = scratch_.arrived;
  inbox.resize(topology_.num_nodes());
  arrived.assign(topology_.num_nodes(), 0);

  Transport& transport = this->transport();

  auto deliver = [&](NodeId from, NodeId to, Bytes payload,
                     EdgeTraffic& traffic) -> StatusOr<bool> {
    const uint64_t wire_size = payload.size();

    // Link layer, behind the Transport interface: loss, retries, and
    // (for real backends) the payload's actual journey over sockets.
    // Deliveries stay serial and in a fixed order — the determinism
    // contract both backends' loss models are built on.
    const std::optional<Stopwatch> transport_watch = StartIf(attribute);
    auto result = transport.Deliver(from, to, epoch, std::move(payload));
    if (attribute) {
      timeline.RecordPhase(telemetry::EpochPhase::kTransport,
                           transport_watch->ElapsedSeconds());
    }
    if (!result.ok()) return result.status();
    Delivery& delivery = result.value();
    const uint32_t attempts = delivery.attempts;
    report.backoff_slots += delivery.backoff_slots;

    // The sender radiated every attempt whether or not anything arrived,
    // so tx bytes and edge-class traffic are charged per attempt; rx is
    // charged only on actual delivery.
    traffic.messages += 1;
    traffic.bytes += wire_size * attempts;
    traffic.retransmits += attempts - 1;
    report.retransmits += attempts - 1;
    retransmits_ += attempts - 1;
    report.node_tx_bytes[from] += wire_size * attempts;
    if (attempts > 1) {
      static telemetry::Counter* retx =
          telemetry::MetricsRegistry::Global().GetCounter(
              "sies_net_retransmits_total");
      retx->Increment(attempts - 1);
    }
    if (!delivery.delivered) {
      traffic.undelivered += 1;
      ++lost_messages_;
      static telemetry::Counter* lost = DropCounter("radio_loss");
      lost->Increment();
      audit.Record(telemetry::AuditKind::kRadioLoss, epoch, from,
                   "message lost on the radio channel after " +
                       std::to_string(attempts) + " transmission attempt" +
                       (attempts == 1 ? "" : "s"));
      return false;  // lost on the radio channel
    }
    Message msg{from, to, epoch, std::move(delivery.payload)};
    if (adversary_ != nullptr) {
      // The byte-compare that attributes in-flight mutation is only paid
      // when someone asked for the audit trail.
      Bytes original;
      const bool auditing = audit.enabled();
      if (auditing) original = msg.payload;
      if (!adversary_->OnMessage(msg)) {
        static telemetry::Counter* dropped = DropCounter("adversary");
        dropped->Increment();
        audit.Record(telemetry::AuditKind::kAdversaryDrop, epoch, from,
                     "message dropped in flight by the adversary");
        traffic.undelivered += 1;
        return false;  // dropped in flight (after the sender radiated)
      }
      if (auditing && msg.payload != original) {
        static telemetry::Counter* tampered =
            telemetry::MetricsRegistry::Global().GetCounter(
                "sies_net_tampered_total");
        tampered->Increment();
        audit.Record(telemetry::AuditKind::kTamper, epoch, from,
                     "payload mutated in flight by the adversary");
      }
    }
    if (to != kQuerierId) report.node_rx_bytes[to] += msg.WireSize();
    inbox[from] = std::move(msg.payload);
    arrived[from] = 1;
    return true;
  };

  // --- Initialization phase: every live source emits a PSR. ---
  //
  // PSR creation is independent per source, so it fans out over the pool
  // when the protocol allows it. Accounting and delivery stay serial and
  // in source order below — the loss RNG consumes one draw per delivered
  // message in a fixed sequence, so the epoch's results are bit-identical
  // for any thread count. `live` is also the querier's participating set.
  std::vector<NodeId>& live = scratch_.live;
  live.clear();
  for (NodeId src : topology_.sources()) {
    if (!failed_sources_.contains(src)) live.push_back(src);
  }
  // Empty OK slots own no heap; the fan-out overwrites every one.
  std::vector<StatusOr<Bytes>>& psrs = scratch_.psrs;
  psrs.assign(live.size(), Bytes());
  std::vector<double>& psr_seconds = scratch_.psr_seconds;
  psr_seconds.assign(live.size(), 0.0);
  auto create_one = [&](size_t i) {
    Stopwatch psr_watch;
    psrs[i] = protocol.SourceInitialize(live[i], epoch);
    psr_seconds[i] = psr_watch.ElapsedSeconds();
    // Recorded on the lane that ran the call, so the timeline's busiest
    // lane and the trace's thread ids follow a `--threads` fan-out.
    timeline.RecordPhase(telemetry::EpochPhase::kPsrCreate, psr_seconds[i]);
  };
  if (pool_ != nullptr && protocol.ParallelSourceInitSafe()) {
    pool_->ParallelFor(live.size(), create_one);
  } else {
    for (size_t i = 0; i < live.size(); ++i) create_one(i);
  }
  for (size_t i = 0; i < live.size(); ++i) {
    report.source_cpu.Add(psr_seconds[i]);
    source_hist->Observe(psr_seconds[i]);
    if (!psrs[i].ok()) return psrs[i].status();
    NodeId src = live[i];
    NodeId parent = topology_.parent(src);
    EdgeTraffic& traffic = (parent == kQuerierId)
                               ? report.aggregator_to_querier
                               : report.source_to_aggregator;
    auto sent = deliver(src, parent, std::move(psrs[i]).value(), traffic);
    if (!sent.ok()) return sent.status();
  }

  // --- Merging phase: aggregators fuse children payloads bottom-up. ---
  // One slot per child, empty where nothing arrived; the slot vector is
  // reused across aggregators.
  std::vector<Bytes> received;
  for (NodeId agg : topology_.aggregators_bottom_up()) {
    const std::span<const NodeId> children = topology_.children(agg);
    received.resize(children.size());
    bool any = false;
    for (size_t i = 0; i < children.size(); ++i) {
      received[i] = arrived[children[i]] ? std::move(inbox[children[i]])
                                         : Bytes();
      any = any || arrived[children[i]];
    }
    if (!any) continue;  // all children failed/dropped
    Stopwatch merge_watch;
    auto merged = protocol.AggregatorMerge(agg, epoch, received);
    const double merge_seconds = merge_watch.ElapsedSeconds();
    report.aggregator_cpu.Add(merge_seconds);
    merge_hist->Observe(merge_seconds);
    timeline.RecordPhase(telemetry::EpochPhase::kTreeAggregate, merge_seconds);
    if (!merged.ok()) return merged.status();
    NodeId parent = topology_.parent(agg);
    EdgeTraffic& traffic = (parent == kQuerierId)
                               ? report.aggregator_to_querier
                               : report.aggregator_to_aggregator;
    auto sent = deliver(agg, parent, std::move(merged).value(), traffic);
    if (!sent.ok()) return sent.status();
  }

  // --- Evaluation phase at the querier. ---
  report.expected_contributors = static_cast<uint32_t>(live.size());

  static telemetry::Gauge* coverage_gauge =
      telemetry::MetricsRegistry::Global().GetGauge(
          "sies_net_coverage_ratio");

  if (!arrived[topology_.root()]) {
    // Nothing survived the radio/adversary — an unanswered epoch, not a
    // protocol error. The per-message causes are already in the audit
    // trail; the runner records the gap and moves on.
    report.answered = false;
    report.outcome.verified = false;
    report.outcome.value = 0.0;
    report.coverage = 0.0;
    coverage_gauge->Set(0.0);
    static telemetry::Counter* unanswered =
        telemetry::MetricsRegistry::Global().GetCounter(
            "sies_net_unanswered_epochs_total");
    unanswered->Increment();
    return report;
  }
  Stopwatch eval_watch;
  auto outcome =
      protocol.QuerierEvaluate(epoch, inbox[topology_.root()], live);
  const double eval_seconds = eval_watch.ElapsedSeconds();
  report.querier_cpu.Add(eval_seconds);
  eval_hist->Observe(eval_seconds);
  telemetry::Tracer::Global().RecordElapsed("evaluate", "phase", epoch,
                                            eval_seconds);
  if (!outcome.ok()) return outcome.status();
  report.outcome = std::move(outcome).value();
  report.contributing_sources =
      report.outcome.has_contributors
          ? static_cast<uint32_t>(report.outcome.contributors.size())
          : report.expected_contributors;
  report.coverage =
      report.expected_contributors == 0
          ? 0.0
          : static_cast<double>(report.contributing_sources) /
                static_cast<double>(report.expected_contributors);
  coverage_gauge->Set(report.coverage);
  if (!report.outcome.verified) {
    audit.Record(telemetry::AuditKind::kVerificationFailure, epoch,
                 telemetry::kAuditNoNode,
                 "querier verification failed for the epoch aggregate");
  } else if (report.outcome.has_contributors &&
             report.contributing_sources < report.expected_contributors) {
    // Verified, but over fewer sources than expected: the contributor
    // set reported the gap in-band. Degradation of coverage, not an
    // integrity violation — keep it distinct from kTamper.
    audit.Record(telemetry::AuditKind::kReportedLoss, epoch,
                 telemetry::kAuditNoNode,
                 "verified partial aggregate over " +
                     std::to_string(report.contributing_sources) + " of " +
                     std::to_string(report.expected_contributors) +
                     " expected contributors");
  }
  return report;
}

}  // namespace sies::net
