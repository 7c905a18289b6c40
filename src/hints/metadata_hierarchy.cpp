#include "hints/metadata_hierarchy.h"

#include <algorithm>
#include <utility>

namespace bh::hints {

// ---------------------------------------------------------------------------
// Row tables
// ---------------------------------------------------------------------------

std::uint32_t* MetadataHierarchy::RowTable::get(ObjectId id) {
  auto [r, added] = index_.try_emplace(id.value);
  if (!added) return row_at(*r);
  if (free_.empty()) {
    *r = static_cast<std::uint32_t>(rows_allocated());
    slab_.resize(slab_.size() + width_);
  } else {
    *r = free_.back();
    free_.pop_back();
  }
  std::uint32_t* row = row_at(*r);
  std::fill(row, row + width_, kInvalidNode);
  row[kLiveReps] = 0;
  row[kLiveHints] = 0;
  row[kEntry] = 0;
  return row;
}

void MetadataHierarchy::RowTable::release(ObjectId id) {
  const std::uint32_t* r = index_.find(id.value);
  if (r == nullptr) return;
  free_.push_back(*r);
  index_.erase(id.value);
}

NodeIndex MetadataHierarchy::RowTable::first_rep(std::uint32_t* row) const {
  const std::uint32_t* reps = this->reps(row);
  for (std::uint32_t s = 0; s < slots_; ++s) {
    if (reps[s] != kInvalidNode) return reps[s];
  }
  return kInvalidNode;
}

class MetadataHierarchy::LeafView final : public HintStore {
 public:
  LeafView(RowTable& rows, std::uint32_t slot) : rows_(rows), slot_(slot) {}

  std::optional<MachineId> lookup(ObjectId id) override {
    std::uint32_t* row = rows_.find(id);
    if (row == nullptr) return std::nullopt;
    const NodeIndex hint = rows_.hints(row)[slot_];
    if (hint == kInvalidNode) return std::nullopt;
    return machine_of_node(hint);
  }

  void insert(ObjectId id, MachineId loc) override {
    std::uint32_t* row = rows_.get(id);
    NodeIndex& hint = rows_.hints(row)[slot_];
    if (hint == kInvalidNode) {
      ++row[RowTable::kLiveHints];
      ++count_;
    }
    hint = node_of_machine(loc);
  }

  bool erase(ObjectId id) override {
    std::uint32_t* row = rows_.find(id);
    if (row == nullptr) return false;
    NodeIndex& hint = rows_.hints(row)[slot_];
    if (hint == kInvalidNode) return false;
    hint = kInvalidNode;
    --row[RowTable::kLiveHints];
    --count_;
    rows_.release_if_unused(id, row);
    return true;
  }

  std::size_t entry_count() const override { return count_; }

  void for_each(
      const std::function<void(ObjectId, MachineId)>& fn) const override {
    rows_.for_each([&](ObjectId id, const std::uint32_t* row) {
      const NodeIndex hint = rows_.hints(row)[slot_];
      if (hint != kInvalidNode) fn(id, machine_of_node(hint));
    });
  }

 private:
  RowTable& rows_;
  std::uint32_t slot_;
  std::size_t count_ = 0;
};

// ---------------------------------------------------------------------------

MetadataHierarchy::MetadataHierarchy(const net::HierarchyTopology& topo,
                                     MetadataConfig cfg,
                                     sim::EventQueue& queue)
    : topo_(topo),
      cfg_(cfg),
      queue_(queue),
      root_(topo_.num_l2(), /*with_hints=*/false) {
  const bool unbounded = cfg_.leaf_hint_bytes == kUnlimitedBytes;
  groups_.reserve(topo_.num_l2());
  for (std::uint32_t g = 0; g < topo_.num_l2(); ++g) {
    groups_.emplace_back(topo_.l1_per_l2(), unbounded);
  }
  leaves_.reserve(topo_.num_l1());
  for (NodeIndex leaf = 0; leaf < topo_.num_l1(); ++leaf) {
    if (unbounded) {
      leaves_.push_back(std::make_unique<LeafView>(
          groups_[topo_.l2_of_l1(leaf)], leaf % topo_.l1_per_l2()));
    } else {
      leaves_.push_back(
          std::make_unique<AssociativeHintCache>(cfg_.leaf_hint_bytes));
    }
  }
}

std::size_t MetadataHierarchy::rows_in_use() const {
  std::size_t n = root_.rows_in_use();
  for (const RowTable& g : groups_) n += g.rows_in_use();
  return n;
}

std::size_t MetadataHierarchy::rows_allocated() const {
  std::size_t n = root_.rows_allocated();
  for (const RowTable& g : groups_) n += g.rows_allocated();
  return n;
}

template <typename Fn>
void MetadataHierarchy::send(int hops, Fn&& fn) {
  ++total_messages_;
  if (cfg_.hop_delay <= 0.0) {
    fn(queue_.now());
    return;
  }
  queue_.schedule_after(cfg_.hop_delay * hops, std::forward<Fn>(fn));
}

// ---------------------------------------------------------------------------
// Leaf-side entry points (the Squid interface commands)
// ---------------------------------------------------------------------------

void MetadataHierarchy::inform(NodeIndex node, ObjectId id) {
  ++leaf_updates_;
  // Termination rule: if this node already knows of a copy within its
  // parent's (L2) subtree, the new copy is not the first one there and the
  // update stops at the leaf.
  if (auto hint = leaves_[node]->lookup(id)) {
    const NodeIndex known = node_of_machine(*hint);
    if (topo_.lca_level(node, known) <= 2) return;
  }
  const std::uint32_t l2 = topo_.l2_of_l1(node);
  send(1, [this, l2, node, id](SimTime) { l2_child_inform(l2, node, id); });
}

void MetadataHierarchy::invalidate(NodeIndex node, ObjectId id) {
  ++leaf_updates_;
  const std::uint32_t l2 = topo_.l2_of_l1(node);
  send(1, [this, l2, node, id](SimTime) { l2_child_remove(l2, node, id); });
}

std::optional<NodeIndex> MetadataHierarchy::find_nearest(NodeIndex node,
                                                         ObjectId id) {
  auto hint = leaves_[node]->lookup(id);
  if (!hint) return std::nullopt;
  return node_of_machine(*hint);
}

void MetadataHierarchy::invalidate_object(ObjectId id) {
  // Strong consistency: the update invalidates every copy, so every hint and
  // every piece of metadata about the object dies with it. Messages already
  // in flight may later resurrect a hint; the resulting false positive is
  // handled (and priced) at request time, just as in the real system.
  for (std::uint32_t leaf = 0; leaf < leaves_.size(); ++leaf) {
    if (leaves_[leaf]->erase(id) && observer_) {
      observer_(leaf, id, kInvalidNode);
    }
  }
  for (RowTable& g : groups_) g.release(id);
  root_.release(id);
}

// ---------------------------------------------------------------------------
// L2 metadata nodes
// ---------------------------------------------------------------------------

// Each handler below finishes with its own row before its first send(): a
// zero-delay send runs the next handler synchronously, and that handler may
// add or free rows.

void MetadataHierarchy::l2_child_inform(std::uint32_t l2, NodeIndex leaf,
                                        ObjectId id) {
  RowTable& rows = groups_[l2];
  std::uint32_t* row = rows.get(id);
  row[RowTable::kEntry] = 1;
  NodeIndex& rep = rows.reps(row)[leaf % topo_.l1_per_l2()];
  const bool was_empty = row[RowTable::kLiveReps] == 0;
  if (rep == kInvalidNode) ++row[RowTable::kLiveReps];
  rep = leaf;
  if (!was_empty) return;  // second copy in the subtree: not distributed
  const bool known_outside = row[RowTable::kExternal] != kInvalidNode;

  // The first copy in this subtree: no other child holds one, so every other
  // child learns of it.
  const std::uint32_t base = l2 * topo_.l1_per_l2();
  const std::uint32_t end = std::min(base + topo_.l1_per_l2(), topo_.num_l1());
  for (std::uint32_t c = base; c < end; ++c) {
    if (c == leaf) continue;
    send(1, [this, c, leaf, id](SimTime) { leaf_learn(c, leaf, id); });
  }

  // Nothing known outside the subtree either: propagate up.
  if (!known_outside) {
    send(1, [this, l2, leaf, id](SimTime) { root_child_inform(l2, leaf, id); });
  }
}

void MetadataHierarchy::l2_parent_inform(std::uint32_t l2, NodeIndex loc,
                                         ObjectId id) {
  std::uint32_t* row = groups_[l2].get(id);
  row[RowTable::kEntry] = 1;
  // Equally distant; keep the old one.
  if (row[RowTable::kExternal] != kInvalidNode) return;
  row[RowTable::kExternal] = loc;
  // Children already have a nearer copy.
  if (row[RowTable::kLiveReps] != 0) return;
  const std::uint32_t base = l2 * topo_.l1_per_l2();
  const std::uint32_t end = std::min(base + topo_.l1_per_l2(), topo_.num_l1());
  for (std::uint32_t c = base; c < end; ++c) {
    send(1, [this, c, loc, id](SimTime) { leaf_learn(c, loc, id); });
  }
}

void MetadataHierarchy::l2_child_remove(std::uint32_t l2, NodeIndex leaf,
                                        ObjectId id) {
  RowTable& rows = groups_[l2];
  std::uint32_t* row = rows.find(id);
  if (row == nullptr) return;  // stale remove (object invalidated)
  NodeIndex& rep = rows.reps(row)[leaf % topo_.l1_per_l2()];
  if (rep == kInvalidNode) return;
  rep = kInvalidNode;
  const bool last_copy = --row[RowTable::kLiveReps] == 0;

  // Advertise the non-presence with the next best location, if any.
  const NodeIndex next =
      last_copy ? row[RowTable::kExternal] : rows.first_rep(row);
  const std::uint32_t base = l2 * topo_.l1_per_l2();
  const std::uint32_t end = std::min(base + topo_.l1_per_l2(), topo_.num_l1());
  for (std::uint32_t c = base; c < end; ++c) {
    if (c == leaf) continue;
    send(1, [this, c, leaf, next, id](SimTime) {
      leaf_forget(c, leaf, id);
      if (next != kInvalidNode) leaf_learn(c, next, id);
    });
  }

  if (last_copy) {
    send(1, [this, l2, leaf, id](SimTime) { root_child_remove(l2, leaf, id); });
    // Looked up again: the sends may have run the root's handlers already.
    if (std::uint32_t* now = rows.find(id);
        now != nullptr && now[RowTable::kLiveReps] == 0 &&
        now[RowTable::kExternal] == kInvalidNode) {
      now[RowTable::kEntry] = 0;
      rows.release_if_unused(id, now);
    }
  }
}

// ---------------------------------------------------------------------------
// Root metadata node
// ---------------------------------------------------------------------------

void MetadataHierarchy::root_child_inform(std::uint32_t l2, NodeIndex loc,
                                          ObjectId id) {
  ++root_updates_;
  std::uint32_t* row = root_.get(id);
  NodeIndex& rep = root_.reps(row)[l2];
  const bool was_empty = row[RowTable::kLiveReps] == 0;
  if (rep == kInvalidNode) ++row[RowTable::kLiveReps];
  rep = loc;
  if (!was_empty) return;

  // The first group with a copy: no other group holds one.
  for (std::uint32_t g = 0; g < topo_.num_l2(); ++g) {
    if (g == l2) continue;
    send(1, [this, g, loc, id](SimTime) { l2_parent_inform(g, loc, id); });
  }
}

void MetadataHierarchy::root_child_remove(std::uint32_t l2, NodeIndex gone,
                                          ObjectId id) {
  ++root_updates_;
  std::uint32_t* row = root_.find(id);
  if (row == nullptr) return;
  NodeIndex* reps = root_.reps(row);
  if (reps[l2] != kInvalidNode) {
    reps[l2] = kInvalidNode;
    --row[RowTable::kLiveReps];
  }
  const NodeIndex next = root_.first_rep(row);

  // Groups without local copies may hold hints pointing at the vanished
  // leaf; send them the correction. Chosen before the first send.
  std::vector<std::uint32_t> targets;
  for (std::uint32_t g = 0; g < topo_.num_l2(); ++g) {
    if (reps[g] == kInvalidNode) targets.push_back(g);
  }
  for (const std::uint32_t g : targets) {
    send(1, [this, g, gone, next, id](SimTime) {
      // The group's external pointer and its leaves' hints are corrected.
      RowTable& rows = groups_[g];
      if (std::uint32_t* gr = rows.find(id);
          gr != nullptr && gr[RowTable::kEntry] != 0) {
        if (gr[RowTable::kExternal] == gone) gr[RowTable::kExternal] = next;
      } else if (next != kInvalidNode) {
        std::uint32_t* added = rows.get(id);
        added[RowTable::kEntry] = 1;
        added[RowTable::kExternal] = next;
      }
      const std::uint32_t base = g * topo_.l1_per_l2();
      const std::uint32_t end =
          std::min(base + topo_.l1_per_l2(), topo_.num_l1());
      for (std::uint32_t c = base; c < end; ++c) {
        send(1, [this, c, gone, next, id](SimTime) {
          leaf_forget(c, gone, id);
          if (next != kInvalidNode) leaf_learn(c, next, id);
        });
      }
    });
  }

  // Looked up again: the sends may have run other handlers already.
  if (const std::uint32_t* now = root_.find(id);
      now != nullptr && now[RowTable::kLiveReps] == 0) {
    root_.release(id);
  }
}

// ---------------------------------------------------------------------------
// Leaf hint-cache updates
// ---------------------------------------------------------------------------

void MetadataHierarchy::leaf_learn(NodeIndex leaf, NodeIndex loc, ObjectId id) {
  if (loc == leaf) return;
  HintStore& store = *leaves_[leaf];
  if (auto cur = store.lookup(id)) {
    const NodeIndex cur_node = node_of_machine(*cur);
    if (topo_.lca_level(leaf, cur_node) <= topo_.lca_level(leaf, loc)) {
      return;  // existing hint is at least as close
    }
  }
  store.insert(id, machine_of_node(loc));
  if (observer_) observer_(leaf, id, loc);
}

void MetadataHierarchy::leaf_forget(NodeIndex leaf, NodeIndex loc,
                                    ObjectId id) {
  HintStore& store = *leaves_[leaf];
  if (auto cur = store.lookup(id)) {
    if (node_of_machine(*cur) == loc) {
      store.erase(id);
      if (observer_) observer_(leaf, id, kInvalidNode);
    }
  }
}

}  // namespace bh::hints
