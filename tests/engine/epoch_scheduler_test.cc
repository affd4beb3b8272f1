// EpochScheduler + experiment runner integration: one wire round per epoch
// over the simulated network, live admission mid-run, teardown freeing
// slots, and composition with the loss/adversary machinery.
#include "engine/epoch_scheduler.h"

#include <gtest/gtest.h>

#include <cmath>

#include "engine/query_spec.h"
#include "runner/runner.h"

namespace sies::engine {
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

runner::ExperimentConfig BaseConfig() {
  runner::ExperimentConfig config;
  config.num_sources = 32;
  config.fanout = 4;
  config.epochs = 10;
  config.seed = 7;
  config.threads = 1;
  return config;
}

TEST(EpochSchedulerTest, BatchedQueriesAllVerify) {
  runner::ExperimentConfig config = BaseConfig();
  config.queries.push_back({MakeQuery(core::Aggregate::kAvg, 0)});
  config.queries.push_back({MakeQuery(core::Aggregate::kVariance, 1)});
  config.queries.push_back({MakeQuery(core::Aggregate::kSum, 2)});
  auto result = runner::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().all_verified);
  EXPECT_EQ(result.value().answered_epochs, 10u);
  // 3 queries, 6 naive channels, 3 physical slots per epoch.
  EXPECT_EQ(result.value().channel_epochs, 30u);
  EXPECT_EQ(result.value().naive_channel_epochs, 60u);
  for (const telemetry::QueryRecord& qs : result.value().queries) {
    EXPECT_EQ(qs.verified_epochs, 10u) << qs.sql;
    EXPECT_EQ(qs.mean_coverage, 1.0);
  }
}

TEST(EpochSchedulerTest, MidRunAdmissionVerifiesFromItsEpoch) {
  runner::ExperimentConfig config = BaseConfig();
  config.queries.push_back({MakeQuery(core::Aggregate::kSum, 0)});
  config.queries.push_back(
      {MakeQuery(core::Aggregate::kAvg, 1), /*admit_epoch=*/6});
  auto result = runner::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result.value().all_verified);
  ASSERT_EQ(result.value().queries.size(), 2u);
  EXPECT_EQ(result.value().queries[0].verified_epochs, 10u);
  // Admitted at epoch 6 of 10: exactly epochs 6..10, all verified with
  // full contributor-set semantics from the first one.
  EXPECT_EQ(result.value().queries[1].answered_epochs, 5u);
  EXPECT_EQ(result.value().queries[1].verified_epochs, 5u);
  EXPECT_EQ(result.value().queries[1].mean_coverage, 1.0);
  // Epochs 1-5 run 1 channel, 6-10 run 2 (AVG shares the SUM slot).
  EXPECT_EQ(result.value().channel_epochs, 5u * 1 + 5u * 2);
}

TEST(EpochSchedulerTest, TeardownFreesSlotsAndSkipsEmptyRounds) {
  runner::ExperimentConfig config = BaseConfig();
  config.queries.push_back({MakeQuery(core::Aggregate::kVariance, 0),
                            /*admit_epoch=*/1, /*teardown_epoch=*/4});
  auto result = runner::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Live for epochs 1..3 only; epochs 4..10 have an empty plan and are
  // skipped without a radio round.
  EXPECT_EQ(result.value().channel_epochs, 3u * 3);
  EXPECT_EQ(result.value().answered_epochs, 3u);
  EXPECT_EQ(result.value().idle_epochs, 7u);
  EXPECT_EQ(result.value().queries[0].verified_epochs, 3u);
}

TEST(EpochSchedulerTest, LossDegradesGracefullyPerQuery) {
  runner::ExperimentConfig config = BaseConfig();
  config.queries.push_back({MakeQuery(core::Aggregate::kSum, 0)});
  config.queries.push_back({MakeQuery(core::Aggregate::kCount, 1)});
  config.loss_rate = 0.15;
  config.max_retries = 1;
  auto result = runner::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const runner::ExperimentResult& r = result.value();
  // Loss must not break verification — answered epochs verify over
  // exactly the contributing set, for every co-batched query alike.
  EXPECT_TRUE(r.all_verified);
  EXPECT_GT(r.answered_epochs, 0u);
  for (const telemetry::QueryRecord& qs : r.queries) {
    EXPECT_EQ(qs.unverified_epochs, 0u);
    EXPECT_EQ(qs.answered_epochs, r.answered_epochs)
        << "co-batched queries share the wire and thus the loss fate";
    EXPECT_LE(qs.mean_coverage, 1.0);
    EXPECT_GT(qs.mean_coverage, 0.0);
  }
}

TEST(EpochSchedulerTest, TamperFailsOnlyTheQueriesReadingTheChannel) {
  runner::ExperimentConfig config = BaseConfig();
  // Wire order: (0,SUM) then (1,SUMSQ), (1,COUNT). The tamper adversary
  // flips a trailing payload bit — inside VARIANCE's COUNT channel.
  config.queries.push_back({MakeQuery(core::Aggregate::kSum, 0)});
  config.queries.push_back({MakeQuery(core::Aggregate::kVariance, 1)});
  config.adversary = runner::AdversaryKind::kTamper;
  auto result = runner::RunExperiment(config);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const runner::ExperimentResult& r = result.value();
  EXPECT_FALSE(r.all_verified);
  ASSERT_EQ(r.queries.size(), 2u);
  EXPECT_EQ(r.queries[0].verified_epochs, r.queries[0].answered_epochs)
      << "SUM rides an untouched channel and must keep verifying";
  EXPECT_EQ(r.queries[0].unverified_epochs, 0u);
  EXPECT_EQ(r.queries[1].verified_epochs, 0u)
      << "VARIANCE reads the tampered channel and must never verify";
  EXPECT_GT(r.queries[1].unverified_epochs, 0u);
}

// The default query mix across loss and tamper: K > 1 queries share
// channels, loss degrades coverage and never verification, and the
// trailing-bit tamper fails exactly the queries reading its channel.
TEST(EpochSchedulerTest, DefaultMixAcrossLossAndTamper) {
  for (uint32_t k : {1u, 4u}) {
    for (double loss : {0.0, 0.3}) {
      for (runner::AdversaryKind adversary :
           {runner::AdversaryKind::kNone, runner::AdversaryKind::kTamper}) {
        SCOPED_TRACE(::testing::Message()
                     << "K=" << k << " loss=" << loss
                     << " adversary=" << static_cast<int>(adversary));
        runner::ExperimentConfig config = BaseConfig();
        config.num_sources = 16;
        config.seed = 5;
        config.loss_rate = loss;
        config.max_retries = 2;
        config.adversary = adversary;
        for (const core::Query& q : DefaultQueryMix(k)) {
          config.queries.push_back({q});
        }
        auto result = runner::RunExperiment(config);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const runner::ExperimentResult& r = result.value();
        ASSERT_EQ(r.queries.size(), k);
        // A lone query has nothing to share; the K = 4 mix must save
        // channel-epochs.
        if (k > 1) {
          EXPECT_LT(r.channel_epochs, r.naive_channel_epochs);
        } else {
          EXPECT_EQ(r.channel_epochs, r.naive_channel_epochs);
        }
        const bool clean = adversary == runner::AdversaryKind::kNone;
        for (const telemetry::QueryRecord& qs : r.queries) {
          EXPECT_LE(qs.answered_epochs, r.epochs);
          EXPECT_GE(qs.mean_coverage, 0.0);
          EXPECT_LE(qs.mean_coverage, 1.0);
          if (clean) {
            EXPECT_EQ(qs.unverified_epochs, 0u) << qs.sql;
          }
          if (loss == 0.0) {
            EXPECT_EQ(qs.answered_epochs, r.epochs) << qs.sql;
          }
          if (loss == 0.0 && clean) {
            EXPECT_EQ(qs.mean_coverage, 1.0) << qs.sql;
          }
        }
        if (k == 4 && loss == 0.0 && !clean) {
          // Wire order: (q0,SUM),(q0,COUNT),(q1,SUMSQ); the tamper
          // corrupts the SUMSQ slot, failing VARIANCE and STDDEV only.
          EXPECT_EQ(r.queries[1].verified_epochs, 0u);
          EXPECT_EQ(r.queries[2].verified_epochs, 0u);
          EXPECT_GT(r.queries[0].verified_epochs, 0u);
          EXPECT_GT(r.queries[3].verified_epochs, 0u);
        }
      }
    }
  }
}

// Compiled band queries across the same loss × tamper matrix: each band
// reads at most 2⌈log₂ D⌉ bucket channels per kind, the overlapping
// [20,30]/[20,35] COUNT bands share dyadic prefix nodes (so the engine
// beats per-query compilation), and loss never costs verification.
TEST(EpochSchedulerTest, BandMixAcrossLossAndTamper) {
  auto bands = ParseQueriesText(
      "count temperature where 20 <= temperature <= 30\n"
      "count temperature where 20 <= temperature <= 35\n"
      "avg humidity between 35 and 55\n"
      "sum temperature\n");
  ASSERT_TRUE(bands.ok()) << bands.status().ToString();
  // Scaled (10^-2) domain sizes of the three bands, and the channel
  // kinds each reads (AVG = SUM + COUNT).
  const uint32_t domains[] = {1001, 1501, 2001};
  const uint32_t kinds[] = {1, 1, 2};
  for (double loss : {0.0, 0.3}) {
    for (runner::AdversaryKind adversary :
         {runner::AdversaryKind::kNone, runner::AdversaryKind::kTamper}) {
      SCOPED_TRACE(::testing::Message()
                   << "loss=" << loss
                   << " adversary=" << static_cast<int>(adversary));
      runner::ExperimentConfig config = BaseConfig();
      config.num_sources = 16;
      config.epochs = 8;
      config.seed = 5;
      config.loss_rate = loss;
      config.max_retries = 2;
      config.adversary = adversary;
      for (const core::Query& q : bands.value()) config.queries.push_back({q});
      auto result = runner::RunExperiment(config);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const runner::ExperimentResult& r = result.value();
      ASSERT_EQ(r.queries.size(), 4u);
      EXPECT_LT(r.channel_epochs, r.naive_channel_epochs);
      const bool clean = adversary == runner::AdversaryKind::kNone;
      for (size_t i = 0; i < r.queries.size(); ++i) {
        const telemetry::QueryRecord& qs = r.queries[i];
        if (i < 3) {
          const uint32_t cap =
              kinds[i] * 2 *
              static_cast<uint32_t>(std::ceil(std::log2(domains[i])));
          EXPECT_GT(qs.wire_channels, 0u) << qs.sql;
          EXPECT_LE(qs.wire_channels, cap) << qs.sql;
        } else {
          EXPECT_EQ(qs.wire_channels, 1u) << qs.sql;  // the plain SUM
        }
        if (clean) EXPECT_EQ(qs.unverified_epochs, 0u) << qs.sql;
        if (clean && loss == 0.0) EXPECT_EQ(qs.mean_coverage, 1.0) << qs.sql;
      }
    }
  }
}

TEST(EpochSchedulerTest, ThreadedRunMatchesSerialRun) {
  runner::ExperimentConfig config = BaseConfig();
  config.queries.push_back({MakeQuery(core::Aggregate::kAvg, 0)});
  config.queries.push_back(
      {MakeQuery(core::Aggregate::kStddev, 1, core::Field::kHumidity)});
  auto serial = runner::RunExperiment(config);
  config.threads = 4;
  auto threaded = runner::RunExperiment(config);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(threaded.ok());
  ASSERT_EQ(serial.value().queries.size(), threaded.value().queries.size());
  for (size_t i = 0; i < serial.value().queries.size(); ++i) {
    EXPECT_EQ(serial.value().queries[i].last_value,
              threaded.value().queries[i].last_value);
    EXPECT_EQ(serial.value().queries[i].verified_epochs,
              threaded.value().queries[i].verified_epochs);
  }
}

TEST(EpochSchedulerTest, EngineCachesScaleWithTheChannelPlan) {
  // The EpochKeyCache satellite: admissions re-reserve the caches to
  // 2x the live channel count, so a wide mix does not thrash.
  auto params = core::MakeParams(8, 3, /*value_bytes=*/8).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(3));
  MultiQueryEngine eng(params, keys);
  // One root with every source as a direct child.
  std::vector<net::SourceRange> star;
  for (uint32_t i = 0; i < 8u; ++i) star.push_back({i, i + 1});
  ASSERT_TRUE(eng.Admit(MakeQuery(core::Aggregate::kVariance, 0), 1).ok());
  ASSERT_TRUE(
      eng.Admit(MakeQuery(core::Aggregate::kVariance, 1,
                          core::Field::kHumidity), 1).ok());
  // 5 physical channels live (the unpredicated COUNT slot is shared
  // across attributes) -> both caches re-reserve to >= 10 entries.
  ASSERT_EQ(eng.registry().plan().Count(), 5u);
  for (uint64_t epoch = 1; epoch <= 20; ++epoch) {
    std::vector<Bytes> payloads;
    for (uint32_t i = 0; i < 8; ++i) {
      core::SensorReading r{20.0 + i, 40.0 + i, 0.0, 2.5};
      auto p = eng.CreateSourcePayload(i, r, epoch);
      ASSERT_TRUE(p.ok());
      payloads.push_back(std::move(p).value());
    }
    auto merged = eng.Merge(star, payloads);
    ASSERT_TRUE(merged.ok());
    auto outcomes = eng.Evaluate(merged.value(), epoch);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    for (const QueryEpochOutcome& qo : outcomes.value()) {
      EXPECT_TRUE(qo.outcome.verified);
    }
  }
  // The cache is re-reserved to 2x the 5 live channels, so within an
  // epoch every salted epoch's K_t is derived exactly ONCE and shared
  // by all 8 sources: 5 misses per epoch, 7x that in hits. A fixed
  // too-small capacity would evict entries mid-epoch and re-derive
  // (extra misses). FIFO turnover of PAST epochs' entries is fine —
  // the simulator never revisits them.
  const auto stats = eng.SourceCacheStats();
  EXPECT_EQ(stats.global_misses, 5u * 20u);
  EXPECT_EQ(stats.global_hits, 5u * 20u * 7u);
}

TEST(EpochSchedulerTest, EnginePartiesShareOneFixedWidthContext) {
  // The engine warms Params::Fp once before copying the parameters into
  // its aggregator, querier and N sources, so every copy shares that one
  // context (its Barrett constant and heap blocks) instead of each party
  // building a private one. Use count: the engine's own copy, the
  // aggregator, the querier and one per source.
  constexpr uint32_t kN = 64;
  auto params = core::MakeParams(kN, 7, /*value_bytes=*/8).value();
  auto keys = core::GenerateKeys(params, EncodeUint64(7));
  ASSERT_EQ(params.fp_slot_, nullptr) << "the caller never warmed it";
  MultiQueryEngine eng(params, keys);
  ASSERT_NE(eng.params().fp_slot_, nullptr);
  EXPECT_EQ(eng.params().fp_slot_.use_count(), long{kN} + 3);
  EXPECT_NE(eng.params().Fp(), nullptr);
}

}  // namespace
}  // namespace sies::engine
