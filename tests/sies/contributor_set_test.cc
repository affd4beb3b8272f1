#include "sies/contributor_set.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "engine/epoch_scheduler.h"
#include "net/network.h"
#include "sies/aggregator.h"
#include "sies/message_format.h"
#include "sies/querier.h"
#include "sies/source.h"
#include "workload/workload.h"

namespace sies::core {
namespace {

using net::SourceRange;

Bytes FieldOf(const ContributorSet& set) {
  Bytes field;
  set.AppendField(field);
  return field;
}

ContributorSet WithAbsent(SourceRange range,
                          std::initializer_list<SourceRange> runs) {
  ContributorSet set(range);
  for (SourceRange run : runs) EXPECT_TRUE(set.AddAbsent(run).ok());
  return set;
}

TEST(ContributorSetTest, CompleteSetHasEmptyField) {
  ContributorSet set({10, 30});
  EXPECT_TRUE(set.complete());
  EXPECT_EQ(set.Count(), 20u);
  EXPECT_EQ(set.FieldBytes(), 0u);
  EXPECT_TRUE(FieldOf(set).empty());
  auto parsed = ContributorSet::Parse({10, 30}, nullptr, 0).value();
  EXPECT_EQ(parsed, set);
}

TEST(ContributorSetTest, PicksTheShorterForm) {
  // [0, 300): offsets need 2 bytes (a run costs 4), the bitmap 38.
  const SourceRange tree{0, 300};
  auto one_run = WithAbsent(tree, {{7, 9}});
  EXPECT_EQ(FieldOf(one_run), (Bytes{0x00, 0x07, 0x00, 0x08}));
  auto nine_runs = ContributorSet(tree);
  for (uint32_t i = 0; i < 9; ++i) {
    ASSERT_TRUE(nine_runs.AddAbsent({10 * i, 10 * i + 1}).ok());
  }
  EXPECT_EQ(nine_runs.FieldBytes(), 36u);  // still shorter than 38
  auto ten_runs = nine_runs;
  ASSERT_TRUE(ten_runs.AddAbsent({200, 201}).ok());
  EXPECT_EQ(ten_runs.FieldBytes(), 38u);  // 40 > 38: the bitmap
  EXPECT_EQ(FieldOf(ten_runs).size(), ContributorSet::BitmapBytes(tree));

  // [0, 16): a run costs 2 bytes, the bitmap 2 — a tie picks the bitmap,
  // so 16-source ranges only ever use the bitmap form.
  auto tie = WithAbsent({0, 16}, {{3, 4}});
  EXPECT_EQ(FieldOf(tie), (Bytes{0xF7, 0xFF}));

  // [0, 256) still has 1-byte offsets; [0, 257) needs 2.
  EXPECT_EQ(FieldOf(WithAbsent({0, 256}, {{255, 256}})),
            (Bytes{0xFF, 0xFF}));
  EXPECT_EQ(FieldOf(WithAbsent({0, 257}, {{256, 257}})),
            (Bytes{0x01, 0x00, 0x01, 0x00}));
}

TEST(ContributorSetTest, OffsetsAreRelativeToTheSendersRange) {
  // The same absent source encodes differently from different senders.
  auto subtree = WithAbsent({100, 200}, {{150, 151}});
  EXPECT_EQ(FieldOf(subtree), (Bytes{50, 50}));
  EXPECT_EQ(subtree.Indices().front(), 100u);
  EXPECT_EQ(subtree.Count(), 99u);
  auto parsed = ContributorSet::Parse({100, 200}, FieldOf(subtree).data(),
                                      FieldOf(subtree).size())
                    .value();
  EXPECT_EQ(parsed.absent(), (std::vector<SourceRange>{{150, 151}}));
}

TEST(ContributorSetTest, AddAbsentCoalescesAndValidates) {
  ContributorSet set({0, 20});
  ASSERT_TRUE(set.AddAbsent({2, 4}).ok());
  ASSERT_TRUE(set.AddAbsent({4, 6}).ok());  // adjacent: extends the run
  EXPECT_EQ(set.absent(), (std::vector<SourceRange>{{2, 6}}));
  EXPECT_FALSE(set.AddAbsent({5, 8}).ok());    // overlaps
  EXPECT_FALSE(set.AddAbsent({0, 1}).ok());    // out of order
  EXPECT_FALSE(set.AddAbsent({9, 9}).ok());    // empty
  EXPECT_FALSE(set.AddAbsent({19, 21}).ok());  // leaves the range
  ASSERT_TRUE(set.AddAbsent({10, 11}).ok());
  EXPECT_EQ(set.Indices(),
            (std::vector<uint32_t>{0, 1, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16,
                                   17, 18, 19}));
}

TEST(ContributorSetTest, RoundTripsAtAwkwardWidths) {
  for (uint32_t n : {2u, 8u, 9u, 255u, 256u, 257u, 300u, 70000u}) {
    const SourceRange range{1000, 1000 + n};
    for (auto runs : std::vector<std::vector<SourceRange>>{
             {{1000, 1001}},
             {{1000 + n - 1, 1000 + n}},
             {{1000, 1001}, {1000 + n - 1, 1000 + n}}}) {
      if (n == 2 && runs.size() == 2) continue;  // would name nobody
      ContributorSet set(range);
      for (SourceRange run : runs) ASSERT_TRUE(set.AddAbsent(run).ok());
      Bytes field = FieldOf(set);
      EXPECT_EQ(field.size(), set.FieldBytes());
      auto parsed = ContributorSet::Parse(range, field.data(), field.size());
      ASSERT_TRUE(parsed.ok())
          << "n=" << n << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed.value(), set) << "n=" << n;
    }
  }
}

TEST(ContributorSetTest, ParseRejectsNonCanonicalFields) {
  struct Case {
    SourceRange range;
    Bytes field;
    const char* why;
  };
  const Case cases[] = {
      {{0, 12}, {0xF7, 0x1F}, "padding bits"},
      {{0, 12}, {0xFF, 0x0F}, "all-ones"},
      {{0, 12}, {0x00, 0x00}, "no contributor"},
      {{0, 1}, {0x01}, "all-ones"},
      {{0, 1}, {0x00}, "no contributor"},
      // One absent source of 300: the 4-byte list beats the bitmap.
      {{0, 300}, [] {
         Bytes b(38, 0xFF);
         b[5] = 0xFE;
         b[37] = 0x0F;
         return b;
       }(), "list is shorter"},
      {{0, 300}, Bytes(39, 0xFF), "wider"},
      {{0, 100}, {3, 7, 1, 2}, "unsorted"},
      {{0, 100}, {3, 7, 5, 9}, "overlapping"},
      {{0, 100}, {3, 7, 8, 9}, "adjacent"},
      {{0, 100}, {7, 3}, "empty"},
      {{0, 100}, {3, 100}, "outside"},
      {{0, 100}, {0, 99}, "no contributor"},
      {{0, 300}, {0, 1, 2}, "whole number"},
  };
  for (const Case& c : cases) {
    auto parsed =
        ContributorSet::Parse(c.range, c.field.data(), c.field.size());
    ASSERT_FALSE(parsed.ok()) << c.why;
    EXPECT_NE(parsed.status().message().find(c.why), std::string::npos)
        << "expected '" << c.why << "', got " << parsed.status().ToString();
  }
}

TEST(ContributorSetTest, RandomSetsStayWithinTheBitmapAndRoundTrip) {
  // Property: for any range and any absent set, the field is at most
  // ⌈(hi - lo)/8⌉ bytes, empty exactly when the set is complete, and
  // parses back to the same set.
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint32_t lo = static_cast<uint32_t>(rng.NextBelow(5000));
    const uint32_t size = 1 + static_cast<uint32_t>(rng.NextBelow(
                                  trial % 4 == 0 ? 70000 : 600));
    const SourceRange range{lo, lo + size};
    ContributorSet set(range);
    // Sparse or dense loss, in runs of random length.
    const uint64_t gap = 1 + rng.NextBelow(trial % 3 == 0 ? 4 : 400);
    for (uint32_t at = lo + static_cast<uint32_t>(rng.NextBelow(gap));
         at < range.hi;) {
      const uint32_t len = 1 + static_cast<uint32_t>(rng.NextBelow(3));
      const uint32_t hi = std::min(at + len, range.hi);
      ASSERT_TRUE(set.AddAbsent({at, hi}).ok());
      at = hi + 1 + static_cast<uint32_t>(rng.NextBelow(gap));
    }
    if (set.Count() == 0) continue;
    const Bytes field = FieldOf(set);
    EXPECT_LE(field.size(), ContributorSet::BitmapBytes(range));
    EXPECT_EQ(field.empty(), set.complete());
    auto parsed = ContributorSet::Parse(range, field.data(), field.size());
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(parsed.value(), set);
    EXPECT_EQ(parsed.value().Indices().size(), set.Count());
  }
}

TEST(MergedFieldTest, PositionalChildrenWithMissingAndPartialSlots) {
  // Children of an aggregator over [0, 40): [0,10) partial, [10,20)
  // missing, [20,30) complete, [30,40) partial.
  const std::vector<SourceRange> ranges = {{0, 10}, {10, 20}, {20, 30},
                                           {30, 40}};
  const size_t body = 32;
  auto envelope = [&](const ContributorSet& set) {
    return SerializeWirePayload(set, Bytes(body, 0x11));
  };
  std::vector<Bytes> children = {
      envelope(WithAbsent({0, 10}, {{8, 10}})), Bytes(),
      envelope(ContributorSet({20, 30})),
      envelope(WithAbsent({30, 40}, {{30, 31}}))};
  Bytes field;
  ASSERT_TRUE(AppendMergedField(ranges, children, body, field).ok());
  auto merged = ContributorSet::Parse({0, 40}, field.data(), field.size());
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // The missing child's run coalesces with both neighbours' edges.
  EXPECT_EQ(merged.value().absent(),
            (std::vector<SourceRange>{{8, 20}, {30, 31}}));

  // All complete: the merged field stays empty.
  std::vector<Bytes> lossless(4, Bytes(body, 0x22));
  Bytes empty;
  ASSERT_TRUE(AppendMergedField(ranges, lossless, body, empty).ok());
  EXPECT_TRUE(empty.empty());

  // Malformed inputs.
  Bytes out;
  EXPECT_FALSE(
      AppendMergedField(ranges, std::vector<Bytes>(4), body, out).ok());
  const std::vector<SourceRange> gap = {{0, 10}, {11, 20}};
  EXPECT_FALSE(AppendMergedField(gap, {lossless[0], lossless[1]}, body, out)
                   .ok());  // ranges do not tile
  EXPECT_FALSE(AppendMergedField(ranges, {lossless[0]}, body, out).ok());
  EXPECT_FALSE(AppendMergedField(std::span(ranges).first(1),
                                 {Bytes(body - 1, 0)}, body, out)
                   .ok());
}

TEST(MergedFieldTest, PartialSumVerifiesOverExactContributorSet) {
  // Two-level tree over 9 sources: A covers [0,4), B covers [4,9). Only
  // sources {1, 3} reach A and only {5, 6, 7, 8} reach B; the querier
  // recovers and verifies the partial sum from the root's field alone.
  constexpr uint32_t kN = 9;
  auto params = MakeParams(kN, /*seed=*/23).value();
  auto keys = GenerateKeys(params, {4, 2});
  Aggregator aggregator(params);
  Querier querier(params, keys);
  uint64_t expected = 0;
  auto psr = [&](uint32_t i) {
    Source source(params, i, KeysForSource(keys, i).value());
    expected += 100 + i;
    return source.CreatePsr(100 + i, /*epoch=*/6).value();
  };
  std::vector<SourceRange> unit_a = {{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  std::vector<Bytes> slots_a = {Bytes(), psr(1), Bytes(), psr(3)};
  Bytes a = aggregator.MergeWire(unit_a, slots_a, 1).value();
  std::vector<SourceRange> unit_b = {{4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}};
  std::vector<Bytes> slots_b = {Bytes(), psr(5), psr(6), psr(7), psr(8)};
  Bytes b = aggregator.MergeWire(unit_b, slots_b, 1).value();
  const std::vector<SourceRange> root_ranges = {{0, 4}, {4, 9}};
  Bytes root = aggregator.MergeWire(root_ranges, {a, b}, 1).value();
  auto eval = querier.EvaluateWire(root, /*epoch=*/6).value();
  EXPECT_TRUE(eval.verified);
  EXPECT_EQ(eval.sum, expected);
  EXPECT_EQ(eval.contributors, (std::vector<uint32_t>{1, 3, 5, 6, 7, 8}));
}

TEST(MergedFieldTest, NoEnvelopeOutgrowsTheOldBitmapEnvelope) {
  // Property over random trees, loss rates and plan widths: every
  // message an engine epoch radiates is at most ⌈N/8⌉ + channels × 32
  // bytes (the envelope every edge carried before range encoding), and
  // exactly channels × 32 when nothing is lost.
  class SizeProbe : public net::Adversary {
   public:
    bool OnMessage(net::Message& msg) override {
      max_bytes = std::max(max_bytes, msg.payload.size());
      min_bytes = std::min(min_bytes, msg.payload.size());
      return true;
    }
    size_t max_bytes = 0;
    size_t min_bytes = SIZE_MAX;
  };
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 12; ++trial) {
    const uint32_t n = 8 + static_cast<uint32_t>(rng.NextBelow(300));
    auto topology = net::Topology::BuildRandomTree(
                        n, 2 + static_cast<uint32_t>(rng.NextBelow(5)), rng)
                        .value();
    auto params = MakeParams(n, 1000 + trial, /*value_bytes=*/8).value();
    auto engine = std::make_shared<engine::MultiQueryEngine>(
        params, GenerateKeys(params, EncodeUint64(trial)));
    workload::TraceConfig tc;
    tc.num_sources = n;
    tc.seed = trial;
    workload::TraceGenerator trace(tc);
    engine::EpochScheduler scheduler(
        engine, topology,
        [&trace](uint32_t i, uint64_t e) { return trace.ReadingAt(i, e); });
    const size_t channels = 1 + trial % 3;
    Query q;
    q.aggregate = channels == 1   ? Aggregate::kSum
                  : channels == 2 ? Aggregate::kAvg
                                  : Aggregate::kVariance;
    q.attribute = Field::kHumidity;
    ASSERT_TRUE(scheduler.Admit(q, 1).ok());
    ASSERT_EQ(engine->registry().plan().Count(), channels);

    net::Network network(topology);
    SizeProbe probe;
    network.SetAdversary(&probe);
    const double loss = trial % 4 == 0 ? 0.0 : 0.05 * (trial % 4);
    ASSERT_TRUE(network.SetLossRate(loss, trial).ok());
    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
      auto report = network.RunEpoch(scheduler, epoch);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      if (report.value().answered) {
        EXPECT_TRUE(report.value().outcome.verified);
      }
    }
    EXPECT_LE(probe.max_bytes, (n + 7) / 8 + channels * 32) << "n=" << n;
    if (loss == 0.0) {
      EXPECT_EQ(probe.max_bytes, channels * 32) << "n=" << n;
      EXPECT_EQ(probe.min_bytes, channels * 32) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace sies::core
