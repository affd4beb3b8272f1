// The umbrella header must pull in the whole public API, and the
// version constants must be consistent.
#include "sies/sies.h"

#include <gtest/gtest.h>

#include "common/version.h"

namespace sies {
namespace {

TEST(UmbrellaTest, AllPublicTypesReachable) {
  // One mention of each public family proves the include set is right.
  core::Params params;
  core::Query query;
  core::EpochOutcome outcome;
  core::ResultLog log;
  (void)params;
  (void)query;
  (void)outcome;
  (void)log;
  EXPECT_TRUE(core::EpochClock::Create(1000, 0).ok());
}

TEST(UmbrellaTest, QuickstartThroughUmbrellaOnly) {
  auto params = core::MakeParams(2, 1).value();
  auto keys = core::GenerateKeys(params, {1});
  core::Source a(params, 0, core::KeysForSource(keys, 0).value());
  core::Source b(params, 1, core::KeysForSource(keys, 1).value());
  core::Aggregator aggregator(params);
  core::Querier querier(params, keys);
  Bytes sum = aggregator
                  .Merge({a.CreatePsr(40, 1).value(),
                          b.CreatePsr(2, 1).value()})
                  .value();
  auto eval = querier.Evaluate(sum, 1).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, 42u);
}

TEST(VersionTest, ConstantsConsistent) {
  std::string expected = std::to_string(kVersionMajor) + "." +
                         std::to_string(kVersionMinor) + "." +
                         std::to_string(kVersionPatch);
  EXPECT_EQ(expected, kVersionString);
}

}  // namespace
}  // namespace sies
