// Loss-resilience integration: seeded lossy epochs through the full
// stack. Radio loss must degrade coverage — never correctness, never
// determinism, and never masquerade as tampering.
#include <gtest/gtest.h>

#include "net/adversary.h"
#include "runner/runner.h"
#include "support/sies_fixture.h"
#include "telemetry/audit.h"

namespace sies::runner {
namespace {

using testutil::SiesFixture;

ExperimentConfig LossyConfig(double loss_rate, uint32_t max_retries) {
  ExperimentConfig c;
  c.scheme = Scheme::kSies;
  c.num_sources = 32;
  c.fanout = 4;
  c.epochs = 60;
  c.seed = 404;
  c.loss_rate = loss_rate;
  c.max_retries = max_retries;
  return c;
}

TEST(LossResilienceTest, LossyEpochsYieldVerifiedPartialSums) {
  auto result = RunExperiment(LossyConfig(0.1, 3)).value();
  // Loss is reported in-band, so every answered epoch still verifies
  // and is exact over its reported contributor set.
  EXPECT_TRUE(result.all_verified);
  EXPECT_EQ(result.unverified_epochs, 0u);
  EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0);
  EXPECT_EQ(result.answered_epochs + result.unanswered_epochs,
            result.epochs);
  EXPECT_GT(result.answered_epochs, 0u);
  EXPECT_GT(result.mean_coverage, 0.0);
  EXPECT_LE(result.mean_coverage, 1.0);
  // At 10% per-attempt loss some message always slips through the
  // 4-attempt budget in 60 epochs x 40 edges.
  EXPECT_GT(result.retransmits, 0u);
}

TEST(LossResilienceTest, LossRngBitIdenticalAcrossThreadCounts) {
  auto run = [](uint32_t threads) {
    ExperimentConfig c = LossyConfig(0.15, 2);
    c.threads = threads;
    return RunExperiment(c).value();
  };
  ExperimentResult serial = run(1);
  for (uint32_t threads : {2u, 8u}) {
    ExperimentResult parallel = run(threads);
    EXPECT_EQ(parallel.answered_epochs, serial.answered_epochs);
    EXPECT_EQ(parallel.unanswered_epochs, serial.unanswered_epochs);
    EXPECT_EQ(parallel.partial_epochs, serial.partial_epochs);
    EXPECT_EQ(parallel.retransmits, serial.retransmits);
    EXPECT_EQ(parallel.lost_messages, serial.lost_messages);
    EXPECT_EQ(parallel.mean_coverage, serial.mean_coverage);
    EXPECT_EQ(parallel.mean_relative_error, serial.mean_relative_error);
  }
}

TEST(LossResilienceTest, RetransmissionRecoversCoverage) {
  auto without = RunExperiment(LossyConfig(0.2, 0)).value();
  auto with = RunExperiment(LossyConfig(0.2, 3)).value();
  EXPECT_EQ(without.retransmits, 0u);
  EXPECT_GT(with.retransmits, 0u);
  // Four attempts at p=0.2 leave p^4 = 0.16% residual loss per message:
  // far fewer dead messages and better coverage than one attempt.
  EXPECT_LT(with.lost_messages, without.lost_messages);
  EXPECT_GT(with.mean_coverage, without.mean_coverage);
}

TEST(LossResilienceTest, TotalBlackoutLeavesAllEpochsUnanswered) {
  ExperimentConfig c = LossyConfig(1.0, 2);
  c.epochs = 5;
  auto result = RunExperiment(c).value();
  EXPECT_EQ(result.answered_epochs, 0u);
  EXPECT_EQ(result.unanswered_epochs, result.epochs);
  EXPECT_DOUBLE_EQ(result.mean_coverage, 0.0);
  // Unanswered epochs are loss, not failed verification.
  EXPECT_TRUE(result.all_verified);
}

// Seed of the audit-trail checks over the raw network (16 sources,
// fanout 4).
constexpr uint64_t kAuditSeed = 51;
TEST(LossResilienceTest, PureRadioLossNeverAuditedAsTampering) {
  SiesFixture fx(16, 4, kAuditSeed);
  auto& audit = telemetry::AuditTrail::Global();
  audit.Reset();
  audit.Enable();
  ASSERT_TRUE(fx.network.SetLossRate(0.2, 77).ok());
  for (uint64_t epoch = 1; epoch <= 20; ++epoch) {
    (void)fx.network.RunEpoch(fx.scheduler, epoch);
  }
  EXPECT_GT(fx.network.lost_messages(), 0u);
  EXPECT_GT(audit.CountOf(telemetry::AuditKind::kRadioLoss), 0u);
  EXPECT_GT(audit.CountOf(telemetry::AuditKind::kReportedLoss), 0u);
  EXPECT_EQ(audit.CountOf(telemetry::AuditKind::kTamper), 0u);
  EXPECT_EQ(audit.CountOf(telemetry::AuditKind::kVerificationFailure), 0u);
  audit.Disable();
  audit.Reset();
}

TEST(LossResilienceTest, AdversaryDropAndRadioLossAreDistinctEvents) {
  SiesFixture fx(16, 4, kAuditSeed);
  auto& audit = telemetry::AuditTrail::Global();
  audit.Reset();
  audit.Enable();
  // A targeted in-flight drop with a perfectly clean radio...
  net::NodeId victim = fx.network.topology().sources()[2];
  net::DropAdversary adv(victim);
  fx.network.SetAdversary(&adv);
  auto report = fx.network.RunEpoch(fx.scheduler, 1).value();
  fx.network.SetAdversary(nullptr);
  EXPECT_TRUE(report.outcome.verified);
  EXPECT_LT(report.coverage, 1.0);
  // ...is attributed to the adversary, not the radio.
  EXPECT_EQ(audit.CountOf(telemetry::AuditKind::kAdversaryDrop), 1u);
  EXPECT_EQ(audit.CountOf(telemetry::AuditKind::kRadioLoss), 0u);
  // Both degradation paths end in the same querier-side verdict: a
  // verified partial, recorded as reported loss.
  EXPECT_EQ(audit.CountOf(telemetry::AuditKind::kReportedLoss), 1u);
  audit.Disable();
  audit.Reset();
}

TEST(LossResilienceTest, RetransmitCountersAttributedPerEdge) {
  SiesFixture fx(16, 4, kAuditSeed);
  ASSERT_TRUE(fx.network.SetLossRate(0.3, 12).ok());
  fx.network.SetMaxRetries(4);
  uint64_t edge_retransmits = 0;
  for (uint64_t epoch = 1; epoch <= 10; ++epoch) {
    auto report = fx.network.RunEpoch(fx.scheduler, epoch).value();
    edge_retransmits += report.source_to_aggregator.retransmits +
                        report.aggregator_to_aggregator.retransmits +
                        report.aggregator_to_querier.retransmits;
    if (report.retransmits > 0) {
      EXPECT_GT(report.backoff_slots, 0u) << "epoch " << epoch;
    }
  }
  EXPECT_GT(edge_retransmits, 0u);
  EXPECT_EQ(edge_retransmits, fx.network.retransmits());
}

}  // namespace
}  // namespace sies::runner
