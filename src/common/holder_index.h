// Which caches hold each object: the simulator's ground-truth "who holds X"
// index, shared by the hint system and the centralized directory.
//
// An entry exists only while its set is non-empty. Every copy an entry names
// is the object's latest version: a trace changes a version only at a
// modify record, and the modification drops all copies (take()) before the
// new version can be requested, so a holder needs no separate freshness
// check.
//
// The set find() returns is invalidated by the next add(), remove() or
// take() (FlatMap's pointer-stability contract), so a caller that may place
// or evict copies copies the set first.
#pragma once

#include <utility>

#include "common/flat_map.h"
#include "common/node_set.h"
#include "common/types.h"

namespace bh {

class HolderIndex {
 public:
  // The object's holders, or nullptr when no cache holds it.
  const NodeSet* find(ObjectId id) const { return map_.find(id.value); }

  bool holds(ObjectId id, NodeIndex node) const {
    const NodeSet* s = find(id);
    return s != nullptr && s->contains(node);
  }

  void add(ObjectId id, NodeIndex node) { map_[id.value].insert(node); }

  void remove(ObjectId id, NodeIndex node) {
    NodeSet* s = map_.find(id.value);
    if (s == nullptr) return;
    s->erase(node);
    if (s->empty()) map_.erase(id.value);
  }

  // Moves the object's holder set out of the index (empty when none).
  NodeSet take(ObjectId id) {
    NodeSet* s = map_.find(id.value);
    NodeSet out = s != nullptr ? std::move(*s) : NodeSet{};
    map_.erase(id.value);
    return out;
  }

 private:
  FlatMap<NodeSet> map_;
};

}  // namespace bh
