// End-to-end telemetry tests through the full simulator: the audit
// trail must record EXACTLY the tampering the in-flight adversary
// injected (count and attribution), and each party call's one reading
// must reach every sink that reports it — EpochReport, the
// `sies_phase_seconds` histograms, the epoch timeline and the trace —
// all against the same global sinks sies_sim exports.
//
// These tests share the process-wide telemetry singletons, so each one
// resets the relevant sink up front and disables it on the way out.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "common/thread_pool.h"
#include "net/adversary.h"
#include "runner/runner.h"
#include "support/sies_fixture.h"
#include "telemetry/telemetry.h"

namespace sies::runner {
namespace {

using telemetry::AuditKind;
using telemetry::AuditTrail;
using telemetry::EpochPhase;
using telemetry::EpochRecord;
using telemetry::PhaseStat;
using testutil::SiesFixture;

/// Turns the epoch timeline and the tracer on, empty, for one test and
/// off again on the way out.
struct RecordingSinks {
  RecordingSinks() {
    timeline.Reset();
    timeline.Enable();
    tracer.Reset();
    tracer.Enable();
  }
  ~RecordingSinks() {
    timeline.Disable();
    timeline.Reset();
    tracer.Disable();
    tracer.Reset();
  }
  telemetry::EpochTimeline& timeline = telemetry::EpochTimeline::Global();
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
};

/// Spans recorded so far, counted by name.
std::map<std::string, size_t> SpanCounts(const telemetry::Tracer& tracer) {
  std::map<std::string, size_t> counts;
  for (const auto& e : tracer.Events()) ++counts[e.name];
  return counts;
}

const PhaseStat& Phase(const EpochRecord& record, EpochPhase phase) {
  return record.phases[static_cast<size_t>(phase)];
}

/// Observations `scheme`'s source_init, merge and evaluate
/// `sies_phase_seconds` histograms gained since construction. The
/// registry is process-global and other tests feed it too, so compare
/// deltas on the stable handles rather than absolute counts.
class PhaseCounts {
 public:
  explicit PhaseCounts(const std::string& scheme) {
    const char* phases[] = {"source_init", "merge", "evaluate"};
    for (const char* phase : phases) {
      hists_.push_back(telemetry::MetricsRegistry::Global().GetHistogram(
          "sies_phase_seconds", {{"scheme", scheme}, {"phase", phase}}));
      start_.push_back(hists_.back()->TotalCount());
    }
  }
  std::vector<uint64_t> Gained() const {
    std::vector<uint64_t> gained;
    for (size_t i = 0; i < hists_.size(); ++i) {
      gained.push_back(hists_[i]->TotalCount() - start_[i]);
    }
    return gained;
  }

 private:
  std::vector<telemetry::Histogram*> hists_;
  std::vector<uint64_t> start_;
};

/// Runs one epoch of `protocol` on `network` (16 sources on a 4-ary
/// tree: 5 aggregators, 21 deliveries) inside a timeline epoch, and
/// checks that every party call's one reading reached every sink.
void ExpectOneReadingPerSink(net::Network& network,
                             net::AggregationProtocol& protocol) {
  ASSERT_EQ(network.topology().sources().size(), 16u);
  ASSERT_EQ(network.topology().aggregators_bottom_up().size(), 5u);
  RecordingSinks sinks;
  PhaseCounts counts(protocol.Name());

  sinks.timeline.BeginEpoch(1);
  auto report = network.RunEpoch(protocol, 1);
  sinks.timeline.EndEpoch(telemetry::EpochVerdict{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().outcome.verified);
  const std::vector<EpochRecord> records = sinks.timeline.Last(1);
  ASSERT_EQ(records.size(), 1u);
  const EpochRecord& record = records[0];

  // The timeline's phase totals ARE the report's per-party CPU: the same
  // readings, added in the same order.
  const PhaseStat& psr = Phase(record, EpochPhase::kPsrCreate);
  EXPECT_EQ(psr.calls, 16u);
  EXPECT_EQ(psr.total_seconds, report.value().source_cpu.total_seconds());
  const PhaseStat& merge = Phase(record, EpochPhase::kTreeAggregate);
  EXPECT_EQ(merge.calls, 5u);
  EXPECT_EQ(merge.total_seconds,
            report.value().aggregator_cpu.total_seconds());
  EXPECT_EQ(Phase(record, EpochPhase::kTransport).calls, 21u);

  EXPECT_EQ(counts.Gained(), (std::vector<uint64_t>{16, 5, 1}));

  std::map<std::string, size_t> spans = SpanCounts(sinks.tracer);
  EXPECT_EQ(spans["psr_create"], 16u);
  EXPECT_EQ(spans["tree_aggregate"], 5u);
  EXPECT_EQ(spans["transport"], 21u);
  EXPECT_EQ(spans["evaluate"], 1u);
  EXPECT_EQ(spans["epoch"], 1u);
}

TEST(TelemetryIntegrationTest, AuditTrailMatchesInjectedTamperingExactly) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Enable();

  // Sweep bit-flip targets across the tree (same scenario as
  // attack_test's BitFlipOnAnyEdgeDetected) and keep a ground-truth
  // count from the adversary itself.
  uint64_t injected = 0;
  size_t failed_epochs = 0;
  for (net::NodeId target = 0; target < fx.network.topology().num_nodes();
       target += 3) {
    net::BitFlipAdversary adv(target, /*bit_index=*/100);
    fx.network.SetAdversary(&adv);
    auto report = fx.network.RunEpoch(fx.scheduler, 50 + target);
    injected += adv.tampered_count();
    if (report.ok() && !report.value().outcome.verified) ++failed_epochs;
  }
  fx.network.SetAdversary(nullptr);

  EXPECT_GT(injected, 0u);
  EXPECT_EQ(audit.CountOf(AuditKind::kTamper), injected)
      << "audit trail and adversary disagree on the tamper count";
  // Non-verified epochs are also attributed (one event per epoch). A
  // tampered epoch can instead fail as a malformed PSR (non-residue),
  // which surfaces as an error rather than a verification verdict.
  EXPECT_EQ(audit.CountOf(AuditKind::kVerificationFailure), failed_epochs);

  // Every tamper event carries the epoch and an attributable node.
  for (const auto& e : audit.Query(AuditKind::kTamper)) {
    EXPECT_GE(e.epoch, 50u);
    EXPECT_NE(e.node, telemetry::kAuditNoNode);
    EXPECT_FALSE(e.cause.empty());
  }
  audit.Disable();
  audit.Reset();
}

TEST(TelemetryIntegrationTest, AdversaryDropsAreAttributedToTheVictim) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Enable();

  net::NodeId victim = fx.network.topology().sources()[5];
  net::DropAdversary adv(victim);
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(fx.scheduler, 3).value();
  fx.network.SetAdversary(nullptr);

  // The contributor set turns the drop into a verified partial;
  // the audit trail still attributes the suppression to the victim and
  // records the epoch's reduced coverage as reported loss.
  EXPECT_TRUE(report.outcome.verified);
  EXPECT_LT(report.coverage, 1.0);
  ASSERT_EQ(adv.dropped_count(), 1u);
  auto drops = audit.Query(AuditKind::kAdversaryDrop);
  ASSERT_EQ(drops.size(), 1u);
  EXPECT_EQ(drops[0].node, victim);
  EXPECT_EQ(drops[0].epoch, 3u);
  EXPECT_EQ(audit.CountOf(AuditKind::kReportedLoss), 1u);
  EXPECT_EQ(audit.CountOf(AuditKind::kVerificationFailure), 0u)
      << "a drop must not masquerade as tampering";
  audit.Disable();
  audit.Reset();
}

TEST(TelemetryIntegrationTest, RadioLossEventsMatchTheLossCounter) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Enable();

  ASSERT_TRUE(fx.network.SetLossRate(0.2, 33).ok());
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    (void)fx.network.RunEpoch(fx.scheduler, epoch);  // loss epochs may error
  }
  EXPECT_GT(fx.network.lost_messages(), 0u);
  EXPECT_EQ(audit.CountOf(AuditKind::kRadioLoss), fx.network.lost_messages());
  audit.Disable();
  audit.Reset();
}

TEST(TelemetryIntegrationTest, DisabledAuditRecordsNothingUnderAttack) {
  SiesFixture fx;
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Disable();

  net::BitFlipAdversary adv(fx.network.topology().sources()[0],
                            /*bit_index=*/100);
  fx.network.SetAdversary(&adv);
  (void)fx.network.RunEpoch(fx.scheduler, 7);
  fx.network.SetAdversary(nullptr);

  EXPECT_GT(adv.tampered_count(), 0u);
  EXPECT_EQ(audit.size(), 0u);
}

TEST(TelemetryIntegrationTest, OneSiesReadingReachesEverySink) {
  SiesFixture fx;  // N=16, F=4, no pool
  ExpectOneReadingPerSink(fx.network, fx.scheduler);
}

TEST(TelemetryIntegrationTest, OneCmtReadingReachesEverySink) {
  // The network times every scheme's party calls, so a baseline bound
  // through BindScheme fills psr_create and tree_aggregate too.
  ExperimentConfig config;
  config.scheme = Scheme::kCmt;
  config.num_sources = 16;
  config.fanout = 4;
  net::Network network(
      net::Topology::BuildCompleteTree(config.num_sources, config.fanout)
          .value());
  auto binding = BindScheme(config, network.topology());
  ASSERT_TRUE(binding.ok()) << binding.status().ToString();
  ExpectOneReadingPerSink(network, *binding.value().protocol);
}

// A protocol whose first two SourceInitialize calls wait for each other
// before either runs, so a two-lane pool runs them on both of its
// threads whatever the scheduler does. (A lane that waits in vain gives
// up after 10 s, and the test fails on the thread count instead of
// hanging.)
class RendezvousProtocol : public net::AggregationProtocol {
 public:
  explicit RendezvousProtocol(net::AggregationProtocol& inner)
      : inner_(inner) {}
  std::string Name() const override { return inner_.Name(); }
  StatusOr<Bytes> SourceInitialize(net::NodeId id, uint64_t epoch) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (tids_.size() < 2) {
        tids_.insert(telemetry::Tracer::CurrentThreadId());
        cv_.notify_all();
        cv_.wait_for(lock, std::chrono::seconds(10),
                     [this] { return tids_.size() == 2; });
      }
    }
    return inner_.SourceInitialize(id, epoch);
  }
  StatusOr<Bytes> AggregatorMerge(
      net::NodeId id, uint64_t epoch,
      const std::vector<Bytes>& children) override {
    return inner_.AggregatorMerge(id, epoch, children);
  }
  StatusOr<net::EvalOutcome> QuerierEvaluate(
      uint64_t epoch, const Bytes& final_payload,
      const std::vector<net::NodeId>& participating) override {
    return inner_.QuerierEvaluate(epoch, final_payload, participating);
  }
  bool ParallelSourceInitSafe() const override { return true; }

  /// The two threads that met at the rendezvous.
  std::set<uint32_t> tids() {
    std::lock_guard<std::mutex> lock(mu_);
    return tids_;
  }

 private:
  net::AggregationProtocol& inner_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<uint32_t> tids_;
};

TEST(TelemetryIntegrationTest, PsrCreateSpansCarryTheLaneThatRanTheCall) {
  SiesFixture fx;
  common::ThreadPool pool(2);
  fx.network.SetThreadPool(&pool);
  RendezvousProtocol protocol(fx.scheduler);
  RecordingSinks sinks;

  sinks.timeline.BeginEpoch(1);
  auto report = fx.network.RunEpoch(protocol, 1);
  sinks.timeline.EndEpoch(telemetry::EpochVerdict{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report.value().outcome.verified);

  // Both lanes ran a source call, and each call's span names its lane.
  std::set<uint32_t> span_tids;
  for (const auto& e : sinks.tracer.Events()) {
    if (std::string(e.name) == "psr_create") span_tids.insert(e.tid);
  }
  EXPECT_EQ(protocol.tids().size(), 2u);
  EXPECT_EQ(span_tids, protocol.tids());
}

// The `sies_sim --trace-out --audit-out` run on a tiny tree under
// tamper (N=8, F=2, E=3, two lanes): every sink holds what the run
// implies. The CLI wiring itself is the example_sies_sim_telemetry
// ctest.
TEST(TelemetryIntegrationTest, TamperedRunFillsEverySink) {
  ExperimentConfig config;
  config.num_sources = 8;
  config.fanout = 2;
  config.epochs = 3;
  config.threads = 2;
  config.adversary = AdversaryKind::kTamper;
  const size_t aggregators =
      net::Topology::BuildCompleteTree(config.num_sources, config.fanout)
          .value()
          .aggregators_bottom_up()
          .size();
  PhaseCounts counts("SIES");
  AuditTrail& audit = AuditTrail::Global();
  audit.Reset();
  audit.Enable();
  RecordingSinks sinks;

  auto result = RunExperiment(config);
  audit.Disable();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().answered_epochs, 3u);

  EXPECT_EQ(counts.Gained(),
            (std::vector<uint64_t>{3 * 8, 3 * aggregators, 3}));

  std::map<std::string, size_t> spans = SpanCounts(sinks.tracer);
  EXPECT_EQ(spans["psr_create"], 3u * 8);
  EXPECT_EQ(spans["tree_aggregate"], 3u * aggregators);
  EXPECT_EQ(spans["transport"], 3u * (8 + aggregators));
  EXPECT_EQ(spans["evaluate"], 3u);
  EXPECT_EQ(spans["epoch"], 3u);
  for (const char* name : {"key_derive", "wire_parse", "verify", "assemble"}) {
    EXPECT_EQ(spans[name], 3u) << name;
  }

  // Each epoch span is the timeline's wall for that epoch.
  const std::vector<EpochRecord> records = sinks.timeline.Last(3);
  ASSERT_EQ(records.size(), 3u);
  for (const auto& e : sinks.tracer.Events()) {
    if (std::string(e.name) != "epoch") continue;
    ASSERT_GE(e.epoch, 1u);
    ASSERT_LE(e.epoch, 3u);
    const EpochRecord& record = records[e.epoch - 1];
    EXPECT_EQ(record.epoch, e.epoch);
    EXPECT_EQ(e.dur_us, static_cast<uint64_t>(
                            std::llround(record.wall_seconds * 1e6)));
  }

  // Every payload was flipped in flight, and every epoch failed
  // verification exactly once.
  EXPECT_GT(audit.CountOf(AuditKind::kTamper), 0u);
  EXPECT_EQ(audit.CountOf(AuditKind::kTamper),
            result.value().adversary_events);
  EXPECT_EQ(audit.CountOf(AuditKind::kVerificationFailure), 3u);
  audit.Reset();
}

}  // namespace
}  // namespace sies::runner
