#include "runner/runner.h"

#include <gtest/gtest.h>

#include "support/sies_fixture.h"
#include "telemetry/metrics.h"

namespace sies::runner {
namespace {

ExperimentConfig SmallConfig(Scheme scheme) {
  ExperimentConfig c;
  c.scheme = scheme;
  c.num_sources = 16;
  c.fanout = 4;
  c.epochs = 3;
  c.secoa_j = 8;
  c.rsa_modulus_bits = 512;
  c.seed = 11;
  return c;
}

core::Query MakeQuery(core::Aggregate aggregate, uint32_t id) {
  core::Query q;
  q.aggregate = aggregate;
  q.query_id = id;
  return q;
}

TEST(RunExperimentTest, SiesExactAndVerified) {
  auto result = RunExperiment(SmallConfig(Scheme::kSies)).value();
  EXPECT_EQ(result.scheme_name, "SIES");
  EXPECT_TRUE(result.all_verified);
  EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0) << "SIES must be exact";
  // No schedule given: the one SUM(temperature) query, live throughout.
  ASSERT_EQ(result.queries.size(), 1u);
  EXPECT_EQ(result.queries[0].verified_epochs, 3u);
  EXPECT_EQ(result.channel_epochs, 3u);
  // Wire width: the bare 32-byte PSR on every edge class (paper
  // Table V) — a lossless epoch's contributor fields are all empty.
  EXPECT_DOUBLE_EQ(result.source_to_aggregator_bytes, 32.0);
  EXPECT_DOUBLE_EQ(result.aggregator_to_aggregator_bytes, 32.0);
  EXPECT_DOUBLE_EQ(result.aggregator_to_querier_bytes, 32.0);
}

TEST(RunExperimentTest, CmtExact) {
  auto result = RunExperiment(SmallConfig(Scheme::kCmt)).value();
  EXPECT_EQ(result.scheme_name, "CMT");
  EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0);
  EXPECT_DOUBLE_EQ(result.source_to_aggregator_bytes, 20.0);
}

TEST(RunExperimentTest, SecoaVerifiedButApproximate) {
  auto result = RunExperiment(SmallConfig(Scheme::kSecoa)).value();
  EXPECT_EQ(result.scheme_name, "SECOA_S");
  EXPECT_TRUE(result.all_verified);
  EXPECT_GT(result.mean_relative_error, 0.0) << "sketches approximate";
  // J=8 is very coarse; just require the right order of magnitude window.
  EXPECT_LT(result.mean_relative_error, 20.0);
  // SECOA edges dwarf SIES edges even at J=8 with 512-bit SEALs.
  EXPECT_GT(result.source_to_aggregator_bytes, 500.0);
}

TEST(RunExperimentTest, SecoaCostsDwarfSiesCosts) {
  // The true ratio is >10x even at J=8; the 2x asserted here leaves
  // headroom for noisy parallel-ctest timing.
  auto sies = RunExperiment(SmallConfig(Scheme::kSies)).value();
  auto secoa = RunExperiment(SmallConfig(Scheme::kSecoa)).value();
  EXPECT_GT(secoa.source_cpu_seconds, sies.source_cpu_seconds * 2);
  EXPECT_GT(secoa.aggregator_cpu_seconds, sies.aggregator_cpu_seconds * 2);
}

TEST(RunExperimentTest, EveryRunCountsItsEpochs) {
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* total = registry.GetCounter("sies_epochs_total");
  telemetry::Counter* unverified =
      registry.GetCounter("sies_epochs_unverified_total");

  uint64_t total_before = total->Value();
  uint64_t unverified_before = unverified->Value();
  ASSERT_TRUE(RunExperiment(SmallConfig(Scheme::kCmt)).ok());
  EXPECT_EQ(total->Value() - total_before, 3u);
  EXPECT_EQ(unverified->Value() - unverified_before, 0u);

  // Two SIES queries under tamper: the trailing-bit flip lands in
  // VARIANCE's last channel, so some query fails in every epoch.
  ExperimentConfig config = SmallConfig(Scheme::kSies);
  config.queries.push_back({MakeQuery(core::Aggregate::kSum, 0)});
  config.queries.push_back({MakeQuery(core::Aggregate::kVariance, 1)});
  config.adversary = AdversaryKind::kTamper;
  total_before = total->Value();
  unverified_before = unverified->Value();
  // Each query counts its verdicts in its own series, labelled by its id
  // and its admission epoch.
  telemetry::Counter* sum_verified = registry.GetCounter(
      "sies_engine_query_epochs_total",
      {{"query", "q0"}, {"admitted", "1"}, {"verified", "true"}});
  telemetry::Counter* variance_unverified = registry.GetCounter(
      "sies_engine_query_epochs_total",
      {{"query", "q1"}, {"admitted", "1"}, {"verified", "false"}});
  const uint64_t sum_verified_before = sum_verified->Value();
  const uint64_t variance_unverified_before = variance_unverified->Value();
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().unverified_epochs, 3u);
  EXPECT_EQ(total->Value() - total_before, 3u);
  EXPECT_EQ(unverified->Value() - unverified_before, 3u);
  EXPECT_EQ(sum_verified->Value() - sum_verified_before, 3u);
  EXPECT_EQ(variance_unverified->Value() - variance_unverified_before, 3u);
}

// A torn-down query's id may be reused by a different query; each
// epoch's error is measured against the query live in that epoch.
TEST(RunExperimentTest, ReusedQueryIdMeasuredAgainstTheLiveQuery) {
  ExperimentConfig config = SmallConfig(Scheme::kSies);
  config.epochs = 5;
  core::Query temperature = MakeQuery(core::Aggregate::kSum, 0);
  core::Query humidity = temperature;
  humidity.attribute = core::Field::kHumidity;
  config.queries.push_back({temperature, 1, 3});
  config.queries.push_back({humidity, 4, 0});
  // Each admission counts its verdicts in its own series.
  auto& registry = telemetry::MetricsRegistry::Global();
  telemetry::Counter* first = registry.GetCounter(
      "sies_engine_query_epochs_total",
      {{"query", "q0"}, {"admitted", "1"}, {"verified", "true"}});
  telemetry::Counter* second = registry.GetCounter(
      "sies_engine_query_epochs_total",
      {{"query", "q0"}, {"admitted", "4"}, {"verified", "true"}});
  const uint64_t first_before = first->Value();
  const uint64_t second_before = second->Value();
  auto result = RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().answered_epochs, 4u);
  EXPECT_EQ(result.value().idle_epochs, 1u);
  EXPECT_TRUE(result.value().all_verified);
  EXPECT_DOUBLE_EQ(result.value().mean_relative_error, 0.0);
  // One record per admission: each query tallies only the epochs it was
  // live in, and the torn-down one keeps the slot it last read.
  const std::vector<telemetry::QueryRecord>& queries = result.value().queries;
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].sql, temperature.ToSql());
  EXPECT_EQ(queries[0].admitted_epoch, 1u);
  EXPECT_EQ(queries[0].answered_epochs, 2u);
  EXPECT_EQ(queries[0].verified_epochs, 2u);
  EXPECT_EQ(queries[0].slots, std::vector<uint32_t>{0});
  EXPECT_EQ(queries[1].sql, humidity.ToSql());
  EXPECT_EQ(queries[1].admitted_epoch, 4u);
  EXPECT_EQ(queries[1].answered_epochs, 2u);
  EXPECT_EQ(queries[1].verified_epochs, 2u);
  EXPECT_EQ(queries[1].wire_channels, 1u);
  EXPECT_EQ(result.value().naive_channel_epochs, 4u);
  EXPECT_EQ(first->Value() - first_before, 2u);
  EXPECT_EQ(second->Value() - second_before, 2u);
}

// Queries, pipelining, the ops plane and the UDP transport are SIES
// engine settings; a baseline run must refuse them rather than
// silently run without them.
TEST(RunExperimentTest, EngineOnlySettingsRejectedOnBaselines) {
  for (Scheme scheme : {Scheme::kCmt, Scheme::kSecoa}) {
    std::vector<ExperimentConfig> configs(4, SmallConfig(scheme));
    configs[0].queries.push_back({MakeQuery(core::Aggregate::kSum, 0)});
    configs[1].pipeline = true;
    configs[2].ops_port = 0;
    configs[3].transport = TransportKind::kUdp;
    for (size_t i = 0; i < configs.size(); ++i) {
      auto result = RunExperiment(configs[i]);
      ASSERT_FALSE(result.ok()) << "setting " << i;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
          << "setting " << i;
    }
  }
}

TEST(RunExperimentTest, DeterministicAcrossRuns) {
  auto a = RunExperiment(SmallConfig(Scheme::kSies)).value();
  auto b = RunExperiment(SmallConfig(Scheme::kSies)).value();
  EXPECT_EQ(a.all_verified, b.all_verified);
  EXPECT_DOUBLE_EQ(a.mean_relative_error, b.mean_relative_error);
}

TEST(RunExperimentTest, FanoutSweepRuns) {
  for (uint32_t f = 2; f <= 6; ++f) {
    ExperimentConfig c = SmallConfig(Scheme::kSies);
    c.fanout = f;
    auto result = RunExperiment(c).value();
    EXPECT_TRUE(result.all_verified) << "fanout " << f;
    EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0) << "fanout " << f;
  }
}

// The parallel source phase must not change a single bit of the
// simulation: PSRs are delivered serially in source order, so traffic,
// the loss-RNG sequence, and the evaluated results all match the serial
// run exactly.
TEST(RunExperimentTest, ResultsBitIdenticalAcrossThreadCounts) {
  struct EpochResult {
    uint64_t epoch = 0;
    double value = -1.0;
    bool verified = false;
    uint64_t lost = 0;
    uint64_t sa_bytes = 0;
    bool operator==(const EpochResult&) const = default;
  };
  auto run = [](uint32_t threads) {
    std::vector<EpochResult> results;
    testutil::SiesFixture fx(/*n=*/16, /*fanout=*/4, /*seed=*/11);
    EXPECT_TRUE(fx.network.SetLossRate(0.15, 99).ok());
    common::ThreadPool pool(threads);
    fx.network.SetThreadPool(&pool);
    fx.scheduler.SetThreadPool(&pool);
    for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
      auto report = fx.network.RunEpoch(fx.scheduler, epoch);
      if (!report.ok()) {
        // Losses can starve the querier of a final payload; that must
        // happen identically for every thread count.
        results.push_back(
            {epoch, -1.0, false, fx.network.lost_messages(), 0});
        continue;
      }
      const net::EpochReport& r = report.value();
      results.push_back({epoch, r.outcome.value, r.outcome.verified,
                         fx.network.lost_messages(),
                         r.source_to_aggregator.bytes});
    }
    return results;
  };
  std::vector<EpochResult> serial = run(1);
  std::vector<EpochResult> parallel = run(3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "epoch " << serial[i].epoch;
  }
}

TEST(RunExperimentTest, DomainSweepLeavesSiesExact) {
  for (uint32_t k = 0; k <= 4; ++k) {
    ExperimentConfig c = SmallConfig(Scheme::kSies);
    c.scale_pow10 = k;
    auto result = RunExperiment(c).value();
    EXPECT_TRUE(result.all_verified) << "scale 10^" << k;
    EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0) << "scale 10^" << k;
  }
}

}  // namespace
}  // namespace sies::runner
