// Topology: the aggregation tree connecting sources (leaves), aggregators
// (internal nodes), and the querier (attached to the root/sink).
//
// The paper assumes an arbitrary tree whose construction is orthogonal to
// the protocols; experiments use a complete F-ary tree over N sources.
// This module builds both: complete trees via BuildCompleteTree and
// arbitrary trees via a parent vector.
#ifndef SIES_NET_TOPOLOGY_H_
#define SIES_NET_TOPOLOGY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/message.h"

namespace sies::net {

/// A half-open run [lo, hi) of source indices: positions in
/// Topology::sources(), which are also the sources' logical SIES ids.
struct SourceRange {
  uint32_t lo = 0;
  uint32_t hi = 0;

  uint32_t size() const { return hi - lo; }
  bool operator==(const SourceRange&) const = default;
};

/// Role of a node in the aggregation tree.
enum class NodeRole {
  kSource,      ///< leaf; generates readings and encrypts PSRs
  kAggregator,  ///< internal node; merges children's PSRs
};

/// Immutable aggregation tree. Node 0 is always the root (the sink
/// aggregator that talks to the querier).
class Topology {
 public:
  /// Builds a complete tree with fanout `fanout` whose leaves are exactly
  /// `num_sources` sources. Internal nodes are aggregators; if
  /// `num_sources` is not a power of `fanout` the last internal level is
  /// left-filled (every aggregator has at most `fanout` children, at
  /// least 1). Requires num_sources >= 1 and fanout >= 2.
  static StatusOr<Topology> BuildCompleteTree(uint32_t num_sources,
                                              uint32_t fanout);

  /// Builds an arbitrary tree from a parent vector: parent[0] must be
  /// kQuerierId (root), and parent[i] < i for i > 0 (topological order).
  /// Nodes with no children become sources; the rest aggregators.
  static StatusOr<Topology> FromParentVector(
      const std::vector<NodeId>& parent);

  /// Builds a random (non-complete) tree with exactly `num_sources`
  /// leaves: aggregators are grown by attaching each new subtree under a
  /// uniformly random existing aggregator with spare capacity. Models
  /// the irregular topologies real deployments produce; the paper's
  /// protocols must be exact on any tree. `max_fanout` >= 2.
  static StatusOr<Topology> BuildRandomTree(uint32_t num_sources,
                                            uint32_t max_fanout,
                                            Xoshiro256& rng);

  /// Total number of nodes (sources + aggregators).
  uint32_t num_nodes() const { return static_cast<uint32_t>(parent_.size()); }
  /// Number of leaf (source) nodes.
  uint32_t num_sources() const { return num_sources_; }
  /// Number of internal (aggregator) nodes.
  uint32_t num_aggregators() const { return num_nodes() - num_sources_; }

  /// Role of node `id`.
  NodeRole role(NodeId id) const {
    return child_begin_[id] == child_begin_[id + 1] ? NodeRole::kSource
                                                    : NodeRole::kAggregator;
  }
  /// Parent of node `id`; kQuerierId for the root.
  NodeId parent(NodeId id) const { return parent_[id]; }
  /// Children of node `id` in increasing id order (empty for sources).
  std::span<const NodeId> children(NodeId id) const {
    return {children_.data() + child_begin_[id],
            child_begin_[id + 1] - child_begin_[id]};
  }
  /// The root aggregator (sink).
  NodeId root() const { return 0; }

  /// All source ids in depth-first order (children visited in
  /// increasing id order). Position i is the source's logical index, so
  /// every node's sources form one contiguous run of this list. For
  /// BuildCompleteTree this is also increasing id order.
  const std::vector<NodeId>& sources() const { return sources_; }
  /// Logical index of source `id` (its position in sources()); NotFound
  /// for an aggregator or an unknown id.
  StatusOr<uint32_t> SourceIndex(NodeId id) const;
  /// SourceIndex of each of `ids`, in order; fails on the first
  /// non-source.
  StatusOr<std::vector<uint32_t>> SourceIndices(
      const std::vector<NodeId>& ids) const;
  /// The run of sources() indices under node `id` (one index for a
  /// source, [0, num_sources()) for the root).
  SourceRange source_range(NodeId id) const { return ranges_[id]; }
  /// source_range() of each of children(id), in the same order; they
  /// tile source_range(id) left to right. Empty for sources.
  std::span<const SourceRange> child_ranges(NodeId id) const {
    return {child_ranges_.data() + child_begin_[id],
            child_begin_[id + 1] - child_begin_[id]};
  }
  /// All aggregator ids in reverse-topological (children-first) order,
  /// i.e. safe merge order ending at the root.
  const std::vector<NodeId>& aggregators_bottom_up() const {
    return aggregators_bottom_up_;
  }

  /// Depth of node `id` (root is 0).
  uint32_t depth(NodeId id) const { return depth_[id]; }
  /// Height of the tree (max depth).
  uint32_t height() const { return height_; }

  /// Result of RemoveNode: the repaired tree plus the id remapping
  /// (old id -> new id; the removed node maps to kQuerierId).
  struct RepairResult;

  /// Removes a failed node and repairs the tree: a removed aggregator's
  /// children are reattached to its parent; a removed source simply
  /// disappears. The root cannot be removed (the network would have no
  /// sink); removing the last source is rejected. Remaining nodes are
  /// renumbered densely, preserving topological order.
  StatusOr<RepairResult> RemoveNode(NodeId failed) const;

  /// Graphviz DOT rendering of the tree (sources as boxes, aggregators
  /// as circles, querier as a double circle) for ops tooling and docs.
  std::string ToDot() const;

  /// Constructs an empty topology (0 nodes); assign from a factory
  /// result before use. Public so aggregate results can hold one.
  Topology() = default;

 private:
  Status Finalize();  // derives children_, sources_, ranges, depths

  std::vector<NodeId> parent_;
  // Every node's children() and child_ranges() back to back, node by
  // node; node id's run starts at child_begin_[id] and ends at
  // child_begin_[id + 1]. Flat arrays keep building and copying a tree
  // free of per-node allocations.
  std::vector<uint32_t> child_begin_;
  std::vector<NodeId> children_;
  std::vector<SourceRange> child_ranges_;
  std::vector<NodeId> sources_;
  std::vector<SourceRange> ranges_;
  std::vector<NodeId> aggregators_bottom_up_;
  std::vector<uint32_t> depth_;
  uint32_t num_sources_ = 0;
  uint32_t height_ = 0;
};

/// See Topology::RemoveNode.
struct Topology::RepairResult {
  Topology topology;
  /// old_to_new[old_id] == new id, or kQuerierId for the removed node.
  std::vector<NodeId> old_to_new;
};

}  // namespace sies::net

#endif  // SIES_NET_TOPOLOGY_H_
