// QueryRecord unit contract: how one answered epoch's verdict folds into
// a query's tally, the fold every per-query view (/queries, the
// experiment rows, the per-query counters) reads.
#include "telemetry/query_record.h"

#include <gtest/gtest.h>

#include <vector>

namespace sies::telemetry {
namespace {

TEST(QueryRecordTest, FoldCountsEachVerdict) {
  QueryRecord record;
  record.Fold(/*epoch=*/1, /*verified=*/true, /*value=*/10.0, 1.0);
  record.Fold(/*epoch=*/2, /*verified=*/true, /*value=*/12.0, 0.5);
  record.Fold(/*epoch=*/4, /*verified=*/false, /*value=*/99.0, 0.75);
  EXPECT_EQ(record.answered_epochs, 3u);
  EXPECT_EQ(record.verified_epochs, 2u);
  EXPECT_EQ(record.unverified_epochs, 1u);
  EXPECT_EQ(record.partial_epochs, 1u) << "verified with coverage < 1";
  EXPECT_EQ(record.last_value, 12.0) << "an unverified answer is never kept";
  EXPECT_EQ(record.last_coverage, 0.75);
  EXPECT_EQ(record.last_epoch, 4u);
  EXPECT_DOUBLE_EQ(record.mean_coverage, 0.75);
}

TEST(QueryRecordTest, SetSlotsCountsTheWireChannels) {
  QueryRecord record;
  record.SetSlots({4, 7, 9});
  EXPECT_EQ(record.slots, (std::vector<uint32_t>{4, 7, 9}));
  EXPECT_EQ(record.wire_channels, 3u);
  record.SetSlots({2});
  EXPECT_EQ(record.wire_channels, 1u);
}

}  // namespace
}  // namespace sies::telemetry
