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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/flat_map.h"
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

  // Rows holding per-object state, across the L2 groups and the root, and
  // rows ever allocated (a freed row is reused before a slab grows).
  std::size_t rows_in_use() const;
  std::size_t rows_allocated() const;

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
  // The state of one internal node (an L2 group or the root), object-major:
  // object id -> one row of uint32 fields,
  //
  //   [external, live reps, live hints, entry, reps[slots], hints[slots]]
  //
  // - external: nearest copy known outside the subtree (from the parent);
  // - reps[s]: a leaf holding a copy in child subtree s, or kInvalidNode. A
  //   child holds a copy exactly when its slot is set; live reps counts
  //   them. Slots are dense indexes, so groups wider than 64 children cost
  //   nothing extra;
  // - hints[s]: leaf s's unbounded hint (a node index), present only in L2
  //   groups whose leaves keep unbounded hints. Bounded leaves keep their
  //   own AssociativeHintCache, whose per-leaf set conflicts Figure 5
  //   measures;
  // - entry: 1 while the node keeps metadata for the object. An entry with
  //   no copy and no external pointer still differs from none at all: the
  //   root's correction after a removal installs an external pointer only
  //   where there is no entry.
  //
  // Keeping a group's leaves in one row makes a fan-out to all of them, and
  // the L2 handler that starts it, touch one row instead of one table per
  // leaf. A row is freed once its entry is gone and it holds no hint.
  //
  // Rows live in a slab with a free list, indexed by a FlatMap. A row
  // pointer dies when get() adds a row (the slab may grow) and when its row
  // is freed, so no handler holds one across a send(): with zero delay the
  // next handler runs inside the send and may add or free rows. Each looks
  // its row up again after sending.
  class RowTable {
   public:
    enum Field : std::uint32_t {
      kExternal,
      kLiveReps,
      kLiveHints,
      kEntry,
      kHeader,  // reps[] start here
    };

    RowTable(std::uint32_t slots, bool with_hints)
        : slots_(slots), width_(kHeader + slots * (with_hints ? 2 : 1)) {}

    std::uint32_t* find(ObjectId id) {
      const std::uint32_t* r = index_.find(id.value);
      return r == nullptr ? nullptr : row_at(*r);
    }
    // The object's row, added blank (no entry, no reps, no hints) if absent.
    std::uint32_t* get(ObjectId id);
    // Frees the object's row, if any.
    void release(ObjectId id);
    // Frees the row at `row` once it has no entry and no hint.
    void release_if_unused(ObjectId id, const std::uint32_t* row) {
      if (row[kEntry] == 0 && row[kLiveHints] == 0) release(id);
    }

    std::uint32_t* reps(std::uint32_t* row) const { return row + kHeader; }
    std::uint32_t* hints(std::uint32_t* row) const {
      return row + kHeader + slots_;
    }
    const std::uint32_t* hints(const std::uint32_t* row) const {
      return row + kHeader + slots_;
    }
    // Leaf of the first child subtree holding a copy, or kInvalidNode.
    NodeIndex first_rep(std::uint32_t* row) const;

    std::size_t rows_in_use() const { return index_.size(); }
    std::size_t rows_allocated() const { return slab_.size() / width_; }

    template <typename Fn>
    void for_each(Fn&& fn) const {
      index_.for_each([&](std::uint64_t key, std::uint32_t r) {
        fn(ObjectId{key}, &slab_[std::size_t(r) * width_]);
      });
    }

   private:
    std::uint32_t* row_at(std::uint32_t r) {
      return &slab_[std::size_t(r) * width_];
    }

    std::uint32_t slots_;
    std::uint32_t width_;
    FlatMap<std::uint32_t> index_;  // object id -> row number
    std::vector<std::uint32_t> slab_;
    std::vector<std::uint32_t> free_;  // row numbers to reuse
  };

  // An unbounded leaf hint store: a view of one slot of its group's rows.
  // It keeps node indexes, so it holds exactly the MachineIds
  // machine_of_node() makes, which is all the hierarchy stores.
  class LeafView;

  // Runs `fn` now (zero delay) or after `hops` metadata hops. With zero
  // delay the next handler runs inside this call and may add or free rows.
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

  net::HierarchyTopology topo_;
  MetadataConfig cfg_;
  sim::EventQueue& queue_;

  std::vector<RowTable> groups_;  // one per L2 group; leaf views point in
  RowTable root_;                 // reps[] indexed by L2 group
  std::vector<std::unique_ptr<HintStore>> leaves_;

  std::uint64_t root_updates_ = 0;
  std::uint64_t leaf_updates_ = 0;
  std::uint64_t total_messages_ = 0;
  LeafObserver observer_;
};

}  // namespace bh::hints
