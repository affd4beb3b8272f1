// Parameter-grid integration sweep: full simulated SIES networks across
// the paper's experiment grid (N x F x D). SIES is cheap enough to run
// the entire grid for real in the unit-test budget — every cell must be
// exact, verified, and 32 bytes per edge (the bare PSR).
#include <gtest/gtest.h>

#include "runner/runner.h"
#include "support/sies_fixture.h"

namespace sies::runner {
namespace {

struct GridPoint {
  uint32_t n;
  uint32_t f;
  uint32_t scale;
};

class SiesGridSweep : public ::testing::TestWithParam<GridPoint> {};

TEST_P(SiesGridSweep, ExactVerifiedConstantWidth) {
  GridPoint p = GetParam();
  ExperimentConfig config;
  config.scheme = Scheme::kSies;
  config.num_sources = p.n;
  config.fanout = p.f;
  config.scale_pow10 = p.scale;
  config.epochs = 2;
  config.seed = 1000 + p.n + p.f + p.scale;
  auto result = RunExperiment(config).value();
  EXPECT_TRUE(result.all_verified);
  EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0);
  // Paper Table V: one 32-byte PSR per edge at every N (a lossless
  // epoch's contributor fields are empty).
  const double wire_bytes = 32.0;
  EXPECT_DOUBLE_EQ(result.source_to_aggregator_bytes, wire_bytes);
  EXPECT_DOUBLE_EQ(result.aggregator_to_querier_bytes, wire_bytes);
}

std::string GridName(const ::testing::TestParamInfo<GridPoint>& info) {
  return "N" + std::to_string(info.param.n) + "F" +
         std::to_string(info.param.f) + "D" +
         std::to_string(info.param.scale);
}

// The paper's N sweep at default F/D, F sweep at default N/D, and D
// sweep at default N/F — shrunk to unit-test scale but structurally
// identical (N=1024 cells included; they cost ~20 ms each for SIES).
INSTANTIATE_TEST_SUITE_P(
    PaperGrid, SiesGridSweep,
    ::testing::Values(GridPoint{64, 4, 2}, GridPoint{256, 4, 2},
                      GridPoint{1024, 4, 2}, GridPoint{64, 2, 2},
                      GridPoint{64, 3, 2}, GridPoint{64, 5, 2},
                      GridPoint{64, 6, 2}, GridPoint{64, 4, 0},
                      GridPoint{64, 4, 1}, GridPoint{64, 4, 3},
                      GridPoint{64, 4, 4}, GridPoint{1024, 2, 0},
                      GridPoint{1024, 6, 4}),
    GridName);

class CmtGridSweep : public ::testing::TestWithParam<GridPoint> {};

TEST_P(CmtGridSweep, ExactConstantWidth) {
  GridPoint p = GetParam();
  ExperimentConfig config;
  config.scheme = Scheme::kCmt;
  config.num_sources = p.n;
  config.fanout = p.f;
  config.scale_pow10 = p.scale;
  config.epochs = 2;
  config.seed = 2000 + p.n + p.f + p.scale;
  auto result = RunExperiment(config).value();
  EXPECT_DOUBLE_EQ(result.mean_relative_error, 0.0);
  EXPECT_DOUBLE_EQ(result.source_to_aggregator_bytes, 20.0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, CmtGridSweep,
    ::testing::Values(GridPoint{64, 4, 2}, GridPoint{256, 4, 2},
                      GridPoint{1024, 4, 2}, GridPoint{64, 2, 0},
                      GridPoint{64, 6, 4}),
    GridName);

class SecoaGridSweep : public ::testing::TestWithParam<GridPoint> {};

TEST_P(SecoaGridSweep, VerifiedApproximate) {
  GridPoint p = GetParam();
  ExperimentConfig config;
  config.scheme = Scheme::kSecoa;
  config.num_sources = p.n;
  config.fanout = p.f;
  config.scale_pow10 = p.scale;
  config.epochs = 1;
  config.secoa_j = 16;  // small J: these cells test protocol plumbing
  config.rsa_modulus_bits = 512;
  config.seed = 3000 + p.n + p.f + p.scale;
  auto result = RunExperiment(config).value();
  EXPECT_TRUE(result.all_verified);
  EXPECT_GT(result.source_to_aggregator_bytes, 500.0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, SecoaGridSweep,
    ::testing::Values(GridPoint{16, 4, 2}, GridPoint{32, 2, 1},
                      GridPoint{32, 6, 3}),
    GridName);

// SIES must be exact on ANY tree, not just complete ones: random
// irregular topologies, random-walk workload, with failures sprinkled in.
class RandomTopologySweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomTopologySweep, ExactOnIrregularTrees) {
  int seed = GetParam();
  Xoshiro256 rng(seed);
  uint32_t n = 4 + static_cast<uint32_t>(rng.NextBelow(60));
  uint32_t f = 2 + static_cast<uint32_t>(rng.NextBelow(5));
  workload::TraceConfig tc = testutil::SiesFixture::Trace(n, seed);
  tc.temporal_model = workload::TemporalModel::kRandomWalk;
  testutil::SiesFixture fx(net::Topology::BuildRandomTree(n, f, rng).value(),
                           core::MakeParams(n, seed).value(), tc, seed);
  for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
    auto report = fx.network.RunEpoch(fx.scheduler, epoch).value();
    EXPECT_TRUE(report.outcome.verified)
        << "seed " << seed << " epoch " << epoch;
    EXPECT_EQ(report.outcome.value, fx.ExactSum(epoch));
  }
  // One reported failure; the rest must still verify exactly.
  if (n > 1) {
    const net::Topology& topology = fx.network.topology();
    net::NodeId victim =
        topology.sources()[rng.NextBelow(topology.sources().size())];
    fx.network.FailSource(victim);
    auto report = fx.network.RunEpoch(fx.scheduler, 4).value();
    EXPECT_TRUE(report.outcome.verified) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopologySweep,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace sies::runner
