#include "hints/metadata_hierarchy.h"

#include <utility>

namespace bh::hints {

MetadataHierarchy::MetadataHierarchy(const net::HierarchyTopology& topo,
                                     MetadataConfig cfg,
                                     sim::EventQueue& queue)
    : topo_(topo), cfg_(cfg), queue_(queue) {
  leaves_.reserve(topo_.num_l1());
  for (std::uint32_t i = 0; i < topo_.num_l1(); ++i) {
    leaves_.push_back(make_hint_store(cfg_.leaf_hint_bytes));
  }
  l2_state_.resize(topo_.num_l2());
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
  for (auto& state : l2_state_) state.erase(id.value);
  root_state_.erase(id.value);
}

// ---------------------------------------------------------------------------
// L2 metadata nodes
// ---------------------------------------------------------------------------

NodeIndex MetadataHierarchy::l2_representative(const InternalEntry& e) {
  const NodeIndex slot = e.children.first();
  if (slot == kInvalidNode) return kInvalidNode;
  if (static_cast<std::size_t>(slot) < e.reps.size()) return e.reps[slot];
  return kInvalidNode;
}

// Each handler below finishes with its own entry before its first send():
// a zero-delay send runs the next handler synchronously, and that handler
// may insert into or erase from any InternalState, moving entries.

void MetadataHierarchy::l2_child_inform(std::uint32_t l2, NodeIndex leaf,
                                        ObjectId id) {
  InternalEntry& e = l2_state_[l2][id.value];
  const std::uint32_t slot = leaf % topo_.l1_per_l2();
  const bool was_empty = e.children.empty();
  e.children.insert(slot);
  if (e.reps.empty()) e.reps.assign(topo_.l1_per_l2(), kInvalidNode);
  e.reps[slot] = leaf;
  if (!was_empty) return;  // second copy in the subtree: not distributed
  const bool known_outside = e.external != kInvalidNode;

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
  InternalEntry& e = l2_state_[l2][id.value];
  if (e.external != kInvalidNode) return;  // equally distant; keep the old one
  e.external = loc;
  if (!e.children.empty()) return;  // children already have a nearer copy
  const std::uint32_t base = l2 * topo_.l1_per_l2();
  const std::uint32_t end = std::min(base + topo_.l1_per_l2(), topo_.num_l1());
  for (std::uint32_t c = base; c < end; ++c) {
    send(1, [this, c, loc, id](SimTime) { leaf_learn(c, loc, id); });
  }
}

void MetadataHierarchy::l2_child_remove(std::uint32_t l2, NodeIndex leaf,
                                        ObjectId id) {
  InternalEntry* e = l2_state_[l2].find(id.value);
  if (e == nullptr) return;  // stale remove (object invalidated)
  const std::uint32_t slot = leaf % topo_.l1_per_l2();
  if (!e->children.contains(slot)) return;
  e->children.erase(slot);
  if (!e->reps.empty()) e->reps[slot] = kInvalidNode;
  const bool last_copy = e->children.empty();

  // Advertise the non-presence with the next best location, if any.
  const NodeIndex next = last_copy ? e->external : l2_representative(*e);
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
    // Looked up again: the send may have run the root's handlers already.
    InternalState& state = l2_state_[l2];
    if (const InternalEntry* now = state.find(id.value); now && now->empty()) {
      state.erase(id.value);
    }
  }
}

// ---------------------------------------------------------------------------
// Root metadata node
// ---------------------------------------------------------------------------

void MetadataHierarchy::root_child_inform(std::uint32_t l2, NodeIndex loc,
                                          ObjectId id) {
  ++root_updates_;
  InternalEntry& e = root_state_[id.value];
  const bool was_empty = e.children.empty();
  e.children.insert(l2);
  if (e.reps.empty()) e.reps.assign(topo_.num_l2(), kInvalidNode);
  e.reps[l2] = loc;
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
  InternalEntry* e = root_state_.find(id.value);
  if (e == nullptr) return;
  e->children.erase(l2);
  if (!e->reps.empty()) e->reps[l2] = kInvalidNode;

  NodeIndex next = kInvalidNode;
  if (const NodeIndex slot = e->children.first(); slot != kInvalidNode) {
    next = e->reps[static_cast<std::size_t>(slot)];
  }
  const NodeSet holders = e->children;

  // Groups without local copies may hold hints pointing at the vanished
  // leaf; send them the correction.
  for (std::uint32_t g = 0; g < topo_.num_l2(); ++g) {
    if (holders.contains(g)) continue;
    send(1, [this, g, gone, next, id](SimTime) {
      // The group's external pointer and its leaves' hints are corrected.
      InternalState& state = l2_state_[g];
      if (InternalEntry* ge = state.find(id.value)) {
        if (ge->external == gone) ge->external = next;
      } else if (next != kInvalidNode) {
        state[id.value].external = next;
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
  if (const InternalEntry* now = root_state_.find(id.value); now && now->empty()) {
    root_state_.erase(id.value);
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
