// End-to-end telemetry tests through the full simulator: the audit
// trail must record EXACTLY the tampering the in-flight adversary
// injected (count and attribution), the phase histograms must count
// every phase the epoch ran, and the tracer must capture the phase
// spans — all against the same global sinks sies_sim exports.
//
// These tests share the process-wide telemetry singletons, so each one
// resets the relevant sink up front and disables it on the way out.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "net/adversary.h"
#include "runner/runner.h"
#include "telemetry/telemetry.h"

namespace sies::runner {
namespace {

// Same shape as the attack_test fixture: a ready-to-run SIES network.
struct SiesFixture {
  explicit SiesFixture(uint32_t n = 16, uint32_t fanout = 4,
                       uint64_t seed = 21)
      : network(net::Topology::BuildCompleteTree(n, fanout).value()),
        params(core::MakeParams(n, seed).value()),
        keys(core::GenerateKeys(params, EncodeUint64(seed))),
        trace([&] {
          workload::TraceConfig c;
          c.num_sources = n;
          c.seed = seed;
          return workload::TraceGenerator(c);
        }()),
        protocol(params, keys, network.topology(),
                 [this](uint32_t index, uint64_t epoch) {
                   return trace.ValueAt(index, epoch);
                 }) {}

  net::Network network;
  core::Params params;
  core::QuerierKeys keys;
  workload::TraceGenerator trace;
  SiesProtocol protocol;
};

using telemetry::AuditKind;
using telemetry::AuditTrail;

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
    auto report = fx.network.RunEpoch(fx.protocol, 50 + target);
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
  auto report = fx.network.RunEpoch(fx.protocol, 3).value();
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
    (void)fx.network.RunEpoch(fx.protocol, epoch);  // loss epochs may error
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
  (void)fx.network.RunEpoch(fx.protocol, 7);
  fx.network.SetAdversary(nullptr);

  EXPECT_GT(adv.tampered_count(), 0u);
  EXPECT_EQ(audit.size(), 0u);
}

TEST(TelemetryIntegrationTest, PhaseHistogramsCountEveryPhase) {
  SiesFixture fx;
  auto& registry = telemetry::MetricsRegistry::Global();
  // The registry is process-global and other tests feed it too, so
  // compare deltas on the stable handles rather than absolute counts.
  telemetry::Histogram* source_h = registry.GetHistogram(
      "sies_phase_seconds", {{"scheme", "SIES"}, {"phase", "source_init"}});
  telemetry::Histogram* merge_h = registry.GetHistogram(
      "sies_phase_seconds", {{"scheme", "SIES"}, {"phase", "merge"}});
  telemetry::Histogram* eval_h = registry.GetHistogram(
      "sies_phase_seconds", {{"scheme", "SIES"}, {"phase", "evaluate"}});
  uint64_t source0 = source_h->TotalCount();
  uint64_t merge0 = merge_h->TotalCount();
  uint64_t eval0 = eval_h->TotalCount();

  auto report = fx.network.RunEpoch(fx.protocol, 1).value();
  EXPECT_TRUE(report.outcome.verified);

  // 16 sources, a 4-ary complete tree (5 aggregators), one evaluation.
  EXPECT_EQ(source_h->TotalCount() - source0, 16u);
  EXPECT_EQ(merge_h->TotalCount() - merge0, 5u);
  EXPECT_EQ(eval_h->TotalCount() - eval0, 1u);
}

TEST(TelemetryIntegrationTest, TracerCapturesPhaseSpans) {
  SiesFixture fx;
  telemetry::Tracer& tracer = telemetry::Tracer::Global();
  tracer.Reset();
  tracer.Enable();

  auto report = fx.network.RunEpoch(fx.protocol, 1).value();
  EXPECT_TRUE(report.outcome.verified);
  tracer.Disable();

  std::set<std::string> names;
  for (const auto& e : tracer.Events()) names.insert(e.name);
  EXPECT_TRUE(names.count("source-init"));
  EXPECT_TRUE(names.count("merge"));
  EXPECT_TRUE(names.count("evaluate"));
  tracer.Reset();
}

}  // namespace
}  // namespace sies::runner
