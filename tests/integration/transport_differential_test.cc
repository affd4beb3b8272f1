// Transport differential: the UDP backend carries the SAME bytes the
// simulator hands over in memory, and its injected loss draws from the
// same sender-side RNG sequence — so for any (seed, loss, retries) the
// two backends must produce bit-identical outcomes, verdicts and
// retry accounting. Timing is the ONLY thing allowed to differ.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "runner/runner.h"

namespace sies::runner {
namespace {

core::Query MakeQuery(core::Aggregate aggregate, uint32_t id,
                      core::Field attribute = core::Field::kTemperature) {
  core::Query q;
  q.aggregate = aggregate;
  q.attribute = attribute;
  q.scale_pow10 = 2;
  q.query_id = id;
  return q;
}

ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.num_sources = 16;
  config.fanout = 4;
  config.epochs = 6;
  config.seed = 7;
  config.threads = 1;
  config.queries.push_back({MakeQuery(core::Aggregate::kSum, 0)});
  config.queries.push_back({MakeQuery(core::Aggregate::kVariance, 1)});
  return config;
}

/// Flattens everything semantically observable about a run into one
/// string: per-epoch per-query (id, value, verified, coverage) plus the
/// run-level delivery accounting. Two backends agree iff the strings do.
std::string SemanticFingerprint(ExperimentConfig config,
                                const char* tag) {
  std::ostringstream out;
  config.on_epoch_outcomes =
      [&out](uint64_t epoch, bool answered,
             const std::vector<engine::QueryEpochOutcome>& outcomes) {
        if (!answered) {
          out << "e" << epoch << ":unanswered\n";
          return;
        }
        for (const engine::QueryEpochOutcome& qo : outcomes) {
          out << "e" << epoch << ":q" << qo.query_id << "="
              << qo.outcome.result.value << " v=" << qo.outcome.verified
              << " c=" << qo.outcome.coverage << "\n";
        }
      };
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
  if (!result.ok()) return "<failed:" + std::string(tag) + ">";
  const ExperimentResult& r = result.value();
  out << "answered=" << r.answered_epochs
      << " verified=" << r.all_verified << " retx=" << r.retransmits
      << " lost=" << r.lost_messages << " ch=" << r.channel_epochs << "/"
      << r.naive_channel_epochs;
  for (const telemetry::QueryRecord& qs : r.queries) {
    out << " | q" << qs.query_id << " a=" << qs.answered_epochs
        << " ve=" << qs.verified_epochs << " un=" << qs.unverified_epochs
        << " pa=" << qs.partial_epochs << " last=" << qs.last_value
        << " cov=" << qs.mean_coverage << " w=" << qs.wire_channels;
  }
  return out.str();
}

TEST(TransportDifferentialTest, LosslessUdpRunIsBitIdenticalToSim) {
  ExperimentConfig config = BaseConfig();
  const std::string sim = SemanticFingerprint(config, "sim");
  config.transport = TransportKind::kUdp;
  const std::string udp = SemanticFingerprint(config, "udp");
  EXPECT_EQ(sim, udp);
  EXPECT_NE(sim.find("answered=6 verified=1"), std::string::npos) << sim;
}

TEST(TransportDifferentialTest, InjectedLossMatrixMatchesSim) {
  // The loss draw happens BEFORE the datagram is radiated (sender-side
  // injection, identical RNG consumption), so delivered/lost patterns,
  // retransmit counts and the resulting partial aggregates must line up
  // across the whole matrix — not just in the lossless corner.
  for (double loss : {0.1, 0.3, 0.35}) {
    for (uint32_t retries : {0u, 2u}) {
      ExperimentConfig config = BaseConfig();
      config.loss_rate = loss;
      config.max_retries = retries;
      const std::string sim = SemanticFingerprint(config, "sim");
      config.transport = TransportKind::kUdp;
      const std::string udp = SemanticFingerprint(config, "udp");
      EXPECT_EQ(sim, udp) << "loss=" << loss << " retries=" << retries;
    }
  }
}

TEST(TransportDifferentialTest, AdmissionAndTeardownMidRunMatchSim) {
  ExperimentConfig config = BaseConfig();
  config.queries.push_back({MakeQuery(core::Aggregate::kAvg, 2,
                                      core::Field::kHumidity),
                            /*admit_epoch=*/3, /*teardown_epoch=*/5});
  const std::string sim = SemanticFingerprint(config, "sim");
  config.transport = TransportKind::kUdp;
  const std::string udp = SemanticFingerprint(config, "udp");
  EXPECT_EQ(sim, udp)
      << "plan width changes mid-run must resize the datagrams in step";
}

TEST(TransportDifferentialTest, PipelinedUdpStillMatchesSerialSim) {
  // The full tentpole stack — real sockets AND background key prefetch —
  // against the plain serial simulator.
  for (double loss : {0.15, 0.3}) {
    ExperimentConfig config = BaseConfig();
    config.loss_rate = loss;
    config.max_retries = 2;
    const std::string sim = SemanticFingerprint(config, "sim");
    config.transport = TransportKind::kUdp;
    config.pipeline = true;
    const std::string udp = SemanticFingerprint(config, "udp+pipeline");
    EXPECT_EQ(sim, udp) << "loss=" << loss;
  }
}

TEST(TransportDifferentialTest, UdpCountsItsDatagrams) {
  ExperimentConfig config = BaseConfig();
  auto sim = RunExperiment(config);
  ASSERT_TRUE(sim.ok());
  EXPECT_EQ(sim.value().udp_datagrams_sent, 0u);
  config.transport = TransportKind::kUdp;
  auto udp = RunExperiment(config);
  ASSERT_TRUE(udp.ok());
  // Every edge of the 16-source fanout-4 tree fires once per answered
  // epoch (data + ack are both datagrams, but only data counts here);
  // a lossless run radiates exactly edges x epochs data datagrams.
  EXPECT_GT(udp.value().udp_datagrams_sent, 0u);
  EXPECT_EQ(udp.value().udp_datagrams_sent % udp.value().answered_epochs, 0u);
  EXPECT_EQ(udp.value().udp_malformed_datagrams, 0u);
}

}  // namespace
}  // namespace sies::runner
