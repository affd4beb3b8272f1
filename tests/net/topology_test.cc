#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

namespace sies::net {
namespace {

// Depth-first numbering: each node's sources are exactly the run
// source_range(node) of sources(), and a node's children tile its run
// left to right, in child order.
void ExpectDepthFirstRanges(const Topology& t) {
  std::vector<std::vector<uint32_t>> below(t.num_nodes());
  for (uint32_t i = 0; i < t.sources().size(); ++i) {
    ASSERT_EQ(t.role(t.sources()[i]), NodeRole::kSource);
    EXPECT_EQ(t.source_range(t.sources()[i]), (SourceRange{i, i + 1}));
    for (NodeId n = t.sources()[i]; n != kQuerierId; n = t.parent(n)) {
      below[n].push_back(i);
    }
  }
  EXPECT_EQ(t.source_range(t.root()), (SourceRange{0, t.num_sources()}));
  for (NodeId n = 0; n < t.num_nodes(); ++n) {
    const SourceRange range = t.source_range(n);
    ASSERT_FALSE(below[n].empty()) << "node " << n;
    EXPECT_EQ(below[n].front(), range.lo) << "node " << n;
    EXPECT_EQ(below[n].back() + 1, range.hi) << "node " << n;
    EXPECT_EQ(below[n].size(), range.size())
        << "node " << n << " not contiguous";
    const std::span<const NodeId> kids = t.children(n);
    ASSERT_EQ(t.child_ranges(n).size(), kids.size());
    uint32_t cursor = range.lo;
    for (size_t k = 0; k < kids.size(); ++k) {
      EXPECT_EQ(t.child_ranges(n)[k], t.source_range(kids[k]));
      EXPECT_EQ(t.source_range(kids[k]).lo, cursor);
      cursor = t.source_range(kids[k]).hi;
    }
    if (!kids.empty()) EXPECT_EQ(cursor, range.hi) << "node " << n;
  }
}

TEST(TopologyTest, PerfectQuaternaryTree) {
  auto t = Topology::BuildCompleteTree(16, 4).value();
  EXPECT_EQ(t.num_sources(), 16u);
  // 16 leaves under fanout 4: root + 4 internal = 5 aggregators.
  EXPECT_EQ(t.num_aggregators(), 5u);
  EXPECT_EQ(t.num_nodes(), 21u);
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.parent(t.root()), kQuerierId);
  EXPECT_EQ(t.children(t.root()).size(), 4u);
  EXPECT_EQ(t.height(), 2u);
}

TEST(TopologyTest, PerfectBinaryTree) {
  auto t = Topology::BuildCompleteTree(8, 2).value();
  EXPECT_EQ(t.num_sources(), 8u);
  EXPECT_EQ(t.num_aggregators(), 7u);
  EXPECT_EQ(t.height(), 3u);
}

TEST(TopologyTest, SingleSource) {
  auto t = Topology::BuildCompleteTree(1, 4).value();
  EXPECT_EQ(t.num_sources(), 1u);
  EXPECT_EQ(t.num_aggregators(), 1u);  // root still an aggregator
  EXPECT_EQ(t.role(0), NodeRole::kAggregator);
}

TEST(TopologyTest, RejectsBadParameters) {
  EXPECT_FALSE(Topology::BuildCompleteTree(0, 4).ok());
  EXPECT_FALSE(Topology::BuildCompleteTree(10, 1).ok());
  EXPECT_FALSE(Topology::BuildCompleteTree(10, 0).ok());
}

TEST(TopologyTest, EveryNonRootHasValidParent) {
  auto t = Topology::BuildCompleteTree(100, 3).value();
  for (NodeId i = 1; i < t.num_nodes(); ++i) {
    EXPECT_LT(t.parent(i), i);
  }
}

TEST(TopologyTest, SourcesAreExactlyTheLeaves) {
  auto t = Topology::BuildCompleteTree(37, 4).value();
  EXPECT_EQ(t.sources().size(), 37u);
  std::set<NodeId> leaves(t.sources().begin(), t.sources().end());
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    bool is_leaf = t.children(i).empty();
    EXPECT_EQ(leaves.contains(i), is_leaf) << "node " << i;
    EXPECT_EQ(t.role(i),
              is_leaf ? NodeRole::kSource : NodeRole::kAggregator);
  }
}

TEST(TopologyTest, BottomUpOrderVisitsChildrenFirst) {
  auto t = Topology::BuildCompleteTree(64, 4).value();
  std::set<NodeId> visited;
  for (NodeId agg : t.aggregators_bottom_up()) {
    for (NodeId child : t.children(agg)) {
      if (!t.children(child).empty()) {
        EXPECT_TRUE(visited.contains(child))
            << "aggregator " << agg << " visited before child " << child;
      }
    }
    visited.insert(agg);
  }
  EXPECT_EQ(visited.size(), t.num_aggregators());
  EXPECT_EQ(t.aggregators_bottom_up().back(), t.root());
}

TEST(TopologyTest, FanoutBoundRespected) {
  for (uint32_t f = 2; f <= 6; ++f) {
    auto t = Topology::BuildCompleteTree(1024, f).value();
    EXPECT_EQ(t.num_sources(), 1024u);
    for (NodeId i = 0; i < t.num_nodes(); ++i) {
      EXPECT_LE(t.children(i).size(), f) << "fanout " << f << " node " << i;
    }
  }
}

TEST(TopologyTest, DepthsAreConsistent) {
  auto t = Topology::BuildCompleteTree(256, 4).value();
  EXPECT_EQ(t.depth(t.root()), 0u);
  for (NodeId i = 1; i < t.num_nodes(); ++i) {
    EXPECT_EQ(t.depth(i), t.depth(t.parent(i)) + 1);
  }
  // Perfect 4-ary tree over 256 leaves: height log4(256) = 4.
  EXPECT_EQ(t.height(), 4u);
}

TEST(TopologyTest, FromParentVectorArbitraryTree) {
  // 0 <- 1, 0 <- 2, 1 <- 3, 1 <- 4, 2 <- 5 (3,4,5 leaves).
  auto t = Topology::FromParentVector({kQuerierId, 0, 0, 1, 1, 2}).value();
  EXPECT_EQ(t.num_sources(), 3u);
  EXPECT_EQ(t.num_aggregators(), 3u);
  EXPECT_EQ(std::vector<NodeId>(t.children(1).begin(), t.children(1).end()),
            (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(t.depth(5), 2u);
}

TEST(TopologyTest, FromParentVectorValidation) {
  EXPECT_FALSE(Topology::FromParentVector({}).ok());
  EXPECT_FALSE(Topology::FromParentVector({0}).ok());  // root must be querier
  EXPECT_FALSE(
      Topology::FromParentVector({kQuerierId, 2, 1}).ok());  // not topo order
}

TEST(TopologyRepairTest, RemoveSource) {
  auto t = Topology::BuildCompleteTree(16, 4).value();
  NodeId victim = t.sources()[5];
  auto repair = t.RemoveNode(victim).value();
  EXPECT_EQ(repair.topology.num_sources(), 15u);
  EXPECT_EQ(repair.topology.num_nodes(), t.num_nodes() - 1);
  EXPECT_EQ(repair.old_to_new[victim], kQuerierId);
  // Every surviving node maps to a valid new id with the same role...
  for (NodeId old_id = 0; old_id < t.num_nodes(); ++old_id) {
    if (old_id == victim) continue;
    NodeId new_id = repair.old_to_new[old_id];
    ASSERT_LT(new_id, repair.topology.num_nodes());
    if (t.parent(old_id) != kQuerierId && t.parent(old_id) != victim) {
      EXPECT_EQ(repair.topology.parent(new_id),
                repair.old_to_new[t.parent(old_id)]);
    }
  }
}

TEST(TopologyRepairTest, RemoveAggregatorReattachesChildren) {
  auto t = Topology::BuildCompleteTree(16, 4).value();
  // Pick a non-root aggregator.
  NodeId victim = kQuerierId;
  for (NodeId agg : t.aggregators_bottom_up()) {
    if (agg != t.root()) {
      victim = agg;
      break;
    }
  }
  ASSERT_NE(victim, kQuerierId);
  NodeId old_parent = t.parent(victim);
  auto repair = t.RemoveNode(victim).value();
  // All sources survive: only the relay disappeared.
  EXPECT_EQ(repair.topology.num_sources(), 16u);
  // The victim's children now hang off its old parent.
  for (NodeId child : t.children(victim)) {
    NodeId new_child = repair.old_to_new[child];
    EXPECT_EQ(repair.topology.parent(new_child),
              repair.old_to_new[old_parent]);
  }
}

TEST(TopologyRepairTest, GuardRails) {
  auto t = Topology::BuildCompleteTree(4, 2).value();
  EXPECT_FALSE(t.RemoveNode(t.root()).ok());
  EXPECT_FALSE(t.RemoveNode(t.num_nodes()).ok());
  auto single = Topology::BuildCompleteTree(1, 2).value();
  EXPECT_FALSE(single.RemoveNode(single.sources()[0]).ok());
}

TEST(TopologyRepairTest, RepeatedRepairsStayConsistent) {
  auto t = Topology::BuildCompleteTree(32, 4).value();
  Topology current = t;
  // Knock out 10 sources one at a time.
  for (int round = 0; round < 10; ++round) {
    NodeId victim = current.sources()[0];
    auto repair = current.RemoveNode(victim).value();
    current = repair.topology;
    // Structural invariants hold after each repair.
    uint32_t edges = 0;
    for (NodeId i = 0; i < current.num_nodes(); ++i) {
      edges += current.children(i).size();
    }
    EXPECT_EQ(edges, current.num_nodes() - 1);
  }
  // 10 nodes were removed in total.
  EXPECT_EQ(current.num_nodes(), t.num_nodes() - 10);
  EXPECT_LE(current.num_sources(), 32u);
  EXPECT_GE(current.num_sources(), 22u);
}

TEST(TopologyRepairTest, RemovingOnlyChildDemotesParentToLeaf) {
  // Documented behaviour: an aggregator left childless becomes a leaf
  // and is therefore classified as a source by role().
  auto t = Topology::FromParentVector({kQuerierId, 0, 0, 1}).value();
  ASSERT_EQ(t.role(1), NodeRole::kAggregator);
  auto repair = t.RemoveNode(3).value();  // node 1's only child
  NodeId demoted = repair.old_to_new[1];
  EXPECT_EQ(repair.topology.role(demoted), NodeRole::kSource);
}

class TreeShapeSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>> {};

TEST_P(TreeShapeSweep, StructureInvariants) {
  auto [n, f] = GetParam();
  auto t = Topology::BuildCompleteTree(n, f).value();
  EXPECT_EQ(t.num_sources(), n);
  // Every aggregator has at least one child; node count is consistent.
  uint32_t edge_count = 0;
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    if (t.role(i) == NodeRole::kAggregator) {
      EXPECT_GE(t.children(i).size(), 1u);
    }
    edge_count += t.children(i).size();
  }
  EXPECT_EQ(edge_count, t.num_nodes() - 1);  // it is a tree
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TreeShapeSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 16, 17, 64, 100, 1024),
                       ::testing::Values(2, 3, 4, 5, 6)));

TEST(RandomTreeTest, ExactLeafCountAndBoundedFanout) {
  Xoshiro256 rng(5);
  for (uint32_t n : {1u, 2u, 7u, 32u, 100u}) {
    for (uint32_t f : {2u, 3u, 5u}) {
      auto t = Topology::BuildRandomTree(n, f, rng).value();
      EXPECT_EQ(t.num_sources(), n) << "n=" << n << " f=" << f;
      for (NodeId i = 0; i < t.num_nodes(); ++i) {
        EXPECT_LE(t.children(i).size(), f);
      }
      uint32_t edges = 0;
      for (NodeId i = 0; i < t.num_nodes(); ++i) {
        edges += t.children(i).size();
      }
      EXPECT_EQ(edges, t.num_nodes() - 1);
    }
  }
}

TEST(RandomTreeTest, ShapesVary) {
  Xoshiro256 rng(6);
  auto a = Topology::BuildRandomTree(32, 4, rng).value();
  auto b = Topology::BuildRandomTree(32, 4, rng).value();
  // Almost surely different shapes (node counts or heights differ).
  EXPECT_TRUE(a.num_nodes() != b.num_nodes() || a.height() != b.height() ||
              a.children(0).size() != b.children(0).size());
}

TEST(TopologyDotTest, RendersAllNodesAndEdges) {
  auto t = Topology::BuildCompleteTree(4, 2).value();
  std::string dot = t.ToDot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("querier"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> querier"), std::string::npos);
  // Every non-root node contributes exactly one edge.
  size_t edges = 0;
  for (size_t pos = dot.find(" -> n"); pos != std::string::npos;
       pos = dot.find(" -> n", pos + 1)) {
    ++edges;
  }
  EXPECT_EQ(edges, t.num_nodes() - 1);
  // Sources render as boxes, aggregators as circles.
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
  EXPECT_NE(dot.find("shape=circle"), std::string::npos);
}

TEST(RandomTreeTest, Validation) {
  Xoshiro256 rng(7);
  EXPECT_FALSE(Topology::BuildRandomTree(0, 4, rng).ok());
  EXPECT_FALSE(Topology::BuildRandomTree(8, 1, rng).ok());
}

TEST(SourceIndexTest, DenseAndInvertible) {
  auto t = Topology::BuildCompleteTree(16, 4).value();
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(t.SourceIndex(t.sources()[i]).value(), i);
  }
  // Neither an aggregator nor an unknown id is a source.
  EXPECT_FALSE(t.SourceIndex(t.root()).ok());
  EXPECT_FALSE(t.SourceIndex(t.num_nodes()).ok());
}

TEST(SourceIndexTest, TranslatesLists) {
  auto t = Topology::BuildCompleteTree(8, 2).value();
  std::vector<NodeId> nodes = {t.sources()[3], t.sources()[1]};
  EXPECT_EQ(t.SourceIndices(nodes).value(), (std::vector<uint32_t>{3, 1}));
  EXPECT_FALSE(t.SourceIndices({t.root()}).ok());
}

TEST(SourceRangeTest, CompleteTreesNumberSourcesDepthFirstInIdOrder) {
  for (uint32_t n : {1u, 2u, 5u, 16u, 37u, 100u, 1024u}) {
    for (uint32_t f : {2u, 3u, 4u, 7u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " f=" + std::to_string(f));
      auto t = Topology::BuildCompleteTree(n, f).value();
      ExpectDepthFirstRanges(t);
      // Complete trees are allocated depth-first, so the numbering is
      // also increasing id order (benchmarks keep their index mapping).
      EXPECT_TRUE(std::is_sorted(t.sources().begin(), t.sources().end()));
    }
  }
}

TEST(SourceRangeTest, RandomTreesHaveContiguousRanges) {
  Xoshiro256 rng(17);
  for (uint32_t n : {1u, 3u, 32u, 200u, 1000u}) {
    for (uint32_t f : {2u, 3u, 6u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " f=" + std::to_string(f));
      ExpectDepthFirstRanges(Topology::BuildRandomTree(n, f, rng).value());
    }
  }
  // Arbitrary parent vectors too: node 1's leaves {3, 5} come before
  // node 2's leaf 4 in depth-first order although 4 < 5.
  auto t = Topology::FromParentVector({kQuerierId, 0, 0, 1, 2, 1}).value();
  ExpectDepthFirstRanges(t);
  EXPECT_EQ(t.sources(), (std::vector<NodeId>{3, 5, 4}));
  EXPECT_EQ(t.source_range(1), (SourceRange{0, 2}));
  EXPECT_EQ(t.source_range(2), (SourceRange{2, 3}));
}

TEST(SourceRangeTest, RepairedTreesHaveContiguousRanges) {
  Xoshiro256 rng(23);
  Topology current = Topology::BuildRandomTree(120, 4, rng).value();
  for (int round = 0; round < 40 && current.num_sources() > 1; ++round) {
    NodeId victim =
        1 + static_cast<NodeId>(rng.NextBelow(current.num_nodes() - 1));
    auto repair = current.RemoveNode(victim);
    if (!repair.ok()) continue;
    current = std::move(repair).value().topology;
    SCOPED_TRACE("round " + std::to_string(round));
    ExpectDepthFirstRanges(current);
  }
}

}  // namespace
}  // namespace sies::net
