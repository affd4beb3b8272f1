#include "net/topology.h"

#include <algorithm>
#include <string>

namespace sies::net {

std::string Topology::ToDot() const {
  std::string dot = "digraph aggregation_tree {\n  rankdir=BT;\n";
  dot += "  querier [label=\"Q\", shape=doublecircle];\n";
  for (NodeId i = 0; i < num_nodes(); ++i) {
    bool is_source = role(i) == NodeRole::kSource;
    dot += "  n" + std::to_string(i) + " [label=\"" +
           (is_source ? "S" : "A") + std::to_string(i) + "\", shape=" +
           (is_source ? "box" : "circle") + "];\n";
  }
  dot += "  n0 -> querier;\n";
  for (NodeId i = 1; i < num_nodes(); ++i) {
    dot += "  n" + std::to_string(i) + " -> n" +
           std::to_string(parent(i)) + ";\n";
  }
  dot += "}\n";
  return dot;
}

namespace {

// Recursively allocates a subtree holding `leaves` sources under the most
// recently allocated parent, splitting leaves as evenly as possible among
// at most `fanout` children.
void BuildSubtree(uint32_t leaves, uint32_t fanout, NodeId parent,
                  std::vector<NodeId>& parent_vec) {
  if (leaves == 1) {
    parent_vec.push_back(parent);  // a single source leaf
    return;
  }
  // This node group needs an aggregator only when called for the root;
  // children are created directly below `parent`.
  uint32_t groups = std::min(fanout, leaves);
  uint32_t base = leaves / groups;
  uint32_t extra = leaves % groups;
  for (uint32_t g = 0; g < groups; ++g) {
    uint32_t sub_leaves = base + (g < extra ? 1 : 0);
    if (sub_leaves == 1) {
      parent_vec.push_back(parent);  // source directly under `parent`
    } else {
      NodeId agg = static_cast<NodeId>(parent_vec.size());
      parent_vec.push_back(parent);  // aggregator node
      BuildSubtree(sub_leaves, fanout, agg, parent_vec);
    }
  }
}

}  // namespace

StatusOr<Topology> Topology::BuildCompleteTree(uint32_t num_sources,
                                               uint32_t fanout) {
  if (num_sources < 1) {
    return Status::InvalidArgument("need at least one source");
  }
  if (fanout < 2) {
    return Status::InvalidArgument("fanout must be >= 2");
  }
  std::vector<NodeId> parent;
  parent.push_back(kQuerierId);  // root aggregator (sink)
  if (num_sources == 1) {
    parent.push_back(0);  // single source under the root
  } else {
    BuildSubtree(num_sources, fanout, 0, parent);
  }
  return FromParentVector(parent);
}

StatusOr<Topology> Topology::BuildRandomTree(uint32_t num_sources,
                                             uint32_t max_fanout,
                                             Xoshiro256& rng) {
  if (num_sources < 1) {
    return Status::InvalidArgument("need at least one source");
  }
  if (max_fanout < 2) {
    return Status::InvalidArgument("max_fanout must be >= 2");
  }
  // Incremental growth: each source attaches under a random aggregator
  // with a spare slot, optionally through a freshly created chain of
  // intermediate aggregators. A new aggregator immediately receives the
  // source (or the next aggregator in the chain), so no aggregator is
  // ever childless and the leaf count is exactly num_sources.
  std::vector<NodeId> parent;
  std::vector<uint32_t> capacity;  // remaining slots per aggregator
  std::vector<NodeId> open;        // aggregators with spare capacity
  parent.push_back(kQuerierId);
  capacity.push_back(max_fanout);
  open.push_back(0);

  uint64_t open_slots = max_fanout;
  auto consume_slot = [&](size_t pick) {
    NodeId agg = open[pick];
    --open_slots;
    if (--capacity[agg] == 0) {
      open[pick] = open.back();
      open.pop_back();
    }
    return agg;
  };

  for (uint32_t s = 0; s < num_sources; ++s) {
    size_t pick = rng.NextBelow(open.size());
    NodeId attach_under = consume_slot(pick);
    // With probability ~1/3 interpose a new aggregator (sometimes two),
    // producing irregular depths. Interposition is FORCED when the
    // remaining capacity could not host the remaining sources (each new
    // aggregator nets max_fanout - 1 fresh slots).
    uint64_t remaining_sources = num_sources - s;  // incl. this one
    uint64_t depth_extra =
        rng.NextBelow(3) == 0 ? 1 + rng.NextBelow(2) : 0;
    if (open_slots + 1 < remaining_sources && depth_extra == 0) {
      depth_extra = 1;  // +1: this source's consumed slot counted above
    }
    for (uint64_t d = 0; d < depth_extra; ++d) {
      NodeId agg = static_cast<NodeId>(parent.size());
      parent.push_back(attach_under);
      capacity.push_back(max_fanout);
      open.push_back(agg);
      open_slots += max_fanout;
      // The new aggregator immediately gets a child below.
      attach_under = consume_slot(open.size() - 1);
    }
    parent.push_back(attach_under);  // the source leaf
    capacity.push_back(0);
  }
  // The root always has at least one descendant chain ending in the
  // first source, so the structure is valid by construction.
  return FromParentVector(parent);
}

StatusOr<Topology> Topology::FromParentVector(
    const std::vector<NodeId>& parent) {
  if (parent.empty()) return Status::InvalidArgument("empty parent vector");
  if (parent[0] != kQuerierId) {
    return Status::InvalidArgument("node 0 must be the root (parent "
                                   "kQuerierId)");
  }
  for (size_t i = 1; i < parent.size(); ++i) {
    if (parent[i] >= i) {
      return Status::InvalidArgument(
          "parent vector must be topologically ordered (parent[i] < i)");
    }
  }
  Topology t;
  t.parent_ = parent;
  SIES_RETURN_IF_ERROR(t.Finalize());
  return t;
}

StatusOr<uint32_t> Topology::SourceIndex(NodeId id) const {
  if (id >= num_nodes() || role(id) != NodeRole::kSource) {
    return Status::NotFound("node is not a source");
  }
  return ranges_[id].lo;
}

StatusOr<std::vector<uint32_t>> Topology::SourceIndices(
    const std::vector<NodeId>& ids) const {
  std::vector<uint32_t> out;
  out.reserve(ids.size());
  for (NodeId id : ids) {
    auto index = SourceIndex(id);
    if (!index.ok()) return index.status();
    out.push_back(index.value());
  }
  return out;
}

StatusOr<Topology::RepairResult> Topology::RemoveNode(NodeId failed) const {
  if (failed >= num_nodes()) return Status::NotFound("no such node");
  if (failed == root()) {
    return Status::InvalidArgument(
        "cannot remove the root/sink (re-elect a new sink instead)");
  }
  if (role(failed) == NodeRole::kSource && num_sources() == 1) {
    return Status::InvalidArgument("cannot remove the last source");
  }
  RepairResult result;
  result.old_to_new.assign(num_nodes(), kQuerierId);
  std::vector<NodeId> new_parent;
  new_parent.reserve(num_nodes() - 1);
  for (NodeId old_id = 0; old_id < num_nodes(); ++old_id) {
    if (old_id == failed) continue;
    result.old_to_new[old_id] = static_cast<NodeId>(new_parent.size());
    NodeId old_parent = parent_[old_id];
    // Children of the failed node reattach to its parent (which is a
    // valid node: the failed node is not the root).
    if (old_parent == failed) old_parent = parent_[failed];
    new_parent.push_back(old_parent == kQuerierId
                             ? kQuerierId
                             : result.old_to_new[old_parent]);
  }
  auto repaired = FromParentVector(new_parent);
  if (!repaired.ok()) return repaired.status();
  result.topology = std::move(repaired).value();
  return result;
}

Status Topology::Finalize() {
  const uint32_t n = num_nodes();
  // Children lists as one flat array: count, prefix-sum, then place each
  // node under its parent in increasing id order.
  child_begin_.assign(n + 1, 0);
  depth_.assign(n, 0);
  for (NodeId i = 1; i < n; ++i) {
    ++child_begin_[parent_[i] + 1];
    depth_[i] = depth_[parent_[i]] + 1;
    height_ = std::max(height_, depth_[i]);
  }
  for (NodeId i = 0; i < n; ++i) child_begin_[i + 1] += child_begin_[i];
  children_.assign(n > 0 ? n - 1 : 0, 0);
  std::vector<uint32_t> next(child_begin_.begin(), child_begin_.end() - 1);
  for (NodeId i = 1; i < n; ++i) children_[next[parent_[i]]++] = i;
  if (n > 1 && children(0).empty()) {
    return Status::InvalidArgument("root has no children");
  }
  // Depth-first source numbering without recursion: parents precede
  // children in id order, so leaf counts fold up in reverse id order and
  // each node then hands its children consecutive runs in forward order.
  std::vector<uint32_t> leaves(n, 0);
  for (NodeId i = n; i-- > 0;) {
    if (role(i) == NodeRole::kSource) leaves[i] = 1;
    if (i > 0) leaves[parent_[i]] += leaves[i];
  }
  num_sources_ = leaves.empty() ? 0 : leaves[0];
  ranges_.assign(n, SourceRange{});
  child_ranges_.assign(children_.size(), SourceRange{});
  sources_.assign(num_sources_, 0);
  if (n > 0) ranges_[0] = SourceRange{0, num_sources_};
  for (NodeId i = 0; i < n; ++i) {
    if (role(i) == NodeRole::kSource) {
      sources_[ranges_[i].lo] = i;
      continue;
    }
    uint32_t cursor = ranges_[i].lo;
    for (uint32_t k = child_begin_[i]; k < child_begin_[i + 1]; ++k) {
      const NodeId child = children_[k];
      ranges_[child] = SourceRange{cursor, cursor + leaves[child]};
      child_ranges_[k] = ranges_[child];
      cursor += leaves[child];
    }
  }
  aggregators_bottom_up_.clear();
  // Children first: nodes were allocated parent-before-child, so reverse
  // id order is a valid bottom-up order.
  for (NodeId i = n; i-- > 0;) {
    if (role(i) == NodeRole::kAggregator) aggregators_bottom_up_.push_back(i);
  }
  return Status::OK();
}

}  // namespace sies::net
