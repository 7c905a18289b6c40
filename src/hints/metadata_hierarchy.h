// The hint-distribution metadata hierarchy (Section 3.1).
//
// Data lives only at the leaves (the L1 proxy caches); the hierarchy's
// internal nodes carry *metadata*: which child subtrees hold copies of an
// object and the nearest copy known outside the subtree. Updates are
// filtered exactly as the paper describes — a node propagates a new copy to
// its parent only when the copy is the first one known in the parent's
// subtree (operationally: unless the parent already informed it of a copy),
// and propagates knowledge down only to children whose subtrees do not
// themselves hold copies. The root therefore sees a small fraction of all
// updates (Table 5).
//
// Leaves answer find_nearest() from their local bounded hint cache alone —
// the design principle of never spending network hops to locate data. Hint
// staleness is modeled with a configurable per-hop propagation delay; with
// zero delay updates apply synchronously.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.h"
#include "common/node_set.h"
#include "common/types.h"
#include "hints/hint_cache.h"
#include "net/topology.h"
#include "sim/event_queue.h"

namespace bh::hints {

struct MetadataConfig {
  // Per-leaf hint cache capacity in bytes (kUnlimitedBytes for infinite).
  std::uint64_t leaf_hint_bytes = kUnlimitedBytes;
  // One-way delay per metadata hop, seconds. 0 = synchronous propagation.
  SimTime hop_delay = 0.0;
};

class MetadataHierarchy {
 public:
  MetadataHierarchy(const net::HierarchyTopology& topo, MetadataConfig cfg,
                    sim::EventQueue& queue);

  // --- the three prototype interface commands (Section 3.2) ---

  // A copy of `id` is now stored at leaf `node`.
  void inform(NodeIndex node, ObjectId id);

  // The copy at leaf `node` is gone (evicted for space).
  void invalidate(NodeIndex node, ObjectId id);

  // Nearest known copy according to `node`'s local hint cache, or nullopt.
  // Never touches the network.
  std::optional<NodeIndex> find_nearest(NodeIndex node, ObjectId id);

  // --- consistency ---

  // The object changed at the server: every copy and every hint dies now
  // (the paper's strong-consistency assumption).
  void invalidate_object(ObjectId id);

  // --- statistics ---

  // Updates received by the root metadata node (Table 5, "Hierarchy" row).
  std::uint64_t root_updates() const { return root_updates_; }
  // Updates generated at the leaves; a centralized directory would receive
  // all of them (Table 5, "Centralized directory" row).
  std::uint64_t leaf_updates() const { return leaf_updates_; }
  // All metadata messages sent on any link (hint bandwidth accounting:
  // each costs 20 bytes on the wire).
  std::uint64_t total_messages() const { return total_messages_; }

  HintStore& leaf_store(NodeIndex node) { return *leaves_[node]; }
  const net::HierarchyTopology& topology() const { return topo_; }

  // Observes every change applied to a leaf hint store: loc == kInvalidNode
  // means the hint for the object was dropped. Used to extend the metadata
  // hierarchy one level further down, to per-client hint caches (the
  // alternate configuration of Figure 4b).
  using LeafObserver =
      std::function<void(NodeIndex leaf, ObjectId id, NodeIndex loc)>;
  void set_leaf_observer(LeafObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  struct InternalEntry {
    // Child slots whose subtrees hold copies. A dynamic bitset, not a
    // uint64_t mask: topologies routinely have more than 64 leaves per L2
    // group or more than 64 groups, and `1ULL << slot` past bit 63 is UB
    // that silently aliased distinct children.
    NodeSet children;
    // One representative leaf holding a copy, per child subtree.
    std::vector<NodeIndex> reps;
    // Nearest copy known outside this subtree (learned from the parent).
    NodeIndex external = kInvalidNode;

    bool empty() const { return children.empty() && external == kInvalidNode; }
  };
  // Keyed by ObjectId::value. Entries move on insert and erase (flat_map.h),
  // so no handler holds an InternalEntry reference across send().
  using InternalState = FlatMap<InternalEntry>;

  // Runs `fn` now (zero delay) or after `hops` metadata hops. With zero
  // delay the next handler runs inside this call and may insert into or
  // erase from any InternalState.
  template <typename Fn>
  void send(int hops, Fn&& fn);

  // Message handlers.
  void l2_child_inform(std::uint32_t l2, NodeIndex leaf, ObjectId id);
  void l2_parent_inform(std::uint32_t l2, NodeIndex loc, ObjectId id);
  void l2_child_remove(std::uint32_t l2, NodeIndex leaf, ObjectId id);
  void root_child_inform(std::uint32_t l2, NodeIndex loc, ObjectId id);
  void root_child_remove(std::uint32_t l2, NodeIndex gone, ObjectId id);
  void leaf_learn(NodeIndex leaf, NodeIndex loc, ObjectId id);
  void leaf_forget(NodeIndex leaf, NodeIndex loc, ObjectId id);

  // First leaf with a copy in the L2 group, or kInvalidNode.
  static NodeIndex l2_representative(const InternalEntry& e);

  net::HierarchyTopology topo_;
  MetadataConfig cfg_;
  sim::EventQueue& queue_;

  std::vector<std::unique_ptr<HintStore>> leaves_;
  std::vector<InternalState> l2_state_;
  InternalState root_state_;

  std::uint64_t root_updates_ = 0;
  std::uint64_t leaf_updates_ = 0;
  std::uint64_t total_messages_ = 0;
  LeafObserver observer_;
};

}  // namespace bh::hints
