// Open-addressing hash map from a 64-bit id to a value.
//
// The simulator's per-object indexes (the metadata hierarchy's row indexes,
// the LRU index) churn through millions of short-lived entries. A node-based
// std::unordered_map pays an allocation per insert, a free per erase and a
// pointer chase per probe; this table keeps every entry inline in one
// power-of-two array:
//
// - the home slot of a key is mix64(key) & mask; collisions probe linearly;
// - the array doubles before its load passes 3/4: a miss's expected probe
//   run grows as 1/(1-load)^2, so a fuller table saves a little memory for
//   much slower inserts and erases;
// - erase is backward-shift: later members of the cluster slide back into
//   the hole, so there are no tombstones and erase-heavy churn never
//   lengthens probe chains.
//
// Empty slots are marked by one reserved key (kEmptyKey); an entry for that
// key itself lives in a side slot outside the array, so every 64-bit key is
// storable.
//
// Pointer stability: a pointer or reference to a value is invalidated by any
// insert that adds a key (the array may grow) and by any erase (entries shift
// back). find(), contains() and try_emplace() of a present key move nothing.
// Callers must not hold a value across a call that may insert into or erase
// from the same map.
//
// Iteration order is a deterministic function of the operation history.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace bh {

template <typename V>
class FlatMap {
 public:
  using Key = std::uint64_t;
  static constexpr Key kEmptyKey = ~Key{0};

  std::size_t size() const { return size_; }
  // Slots in the array (0 until the first insert).
  std::size_t capacity() const { return slots_.size(); }

  V* find(Key key) {
    if (key == kEmptyKey) return has_side_ ? &side_ : nullptr;
    if (slots_.empty()) return nullptr;
    Slot& s = slots_[slot_of(key)];
    return s.key == key ? &s.value : nullptr;
  }
  const V* find(Key key) const { return const_cast<FlatMap*>(this)->find(key); }
  bool contains(Key key) const { return find(key) != nullptr; }

  // Inserts key -> V(args...) unless the key is present. Returns the stored
  // value and whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(Key key, Args&&... args) {
    if (key == kEmptyKey) {
      if (has_side_) return {&side_, false};
      side_ = V(std::forward<Args>(args)...);
      has_side_ = true;
      ++size_;
      return {&side_, true};
    }
    std::size_t i = 0;
    if (!slots_.empty()) {
      i = slot_of(key);
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    const std::size_t in_array = size_ - (has_side_ ? 1 : 0);
    if ((in_array + 1) * 4 > slots_.size() * 3) {
      grow();
      i = slot_of(key);
    }
    Slot& s = slots_[i];
    s.key = key;
    s.value = V(std::forward<Args>(args)...);
    ++size_;
    return {&s.value, true};
  }

  V& operator[](Key key) { return *try_emplace(key).first; }

  // Removes the key. Returns true if it was present.
  bool erase(Key key) {
    if (key == kEmptyKey) {
      if (!has_side_) return false;
      side_ = V();
      has_side_ = false;
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    std::size_t hole = slot_of(key);
    if (slots_[hole].key != key) return false;
    // Walk the rest of the cluster. An entry may fill the hole only if the
    // hole lies on its probe path, i.e. cyclically within [home, j).
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmptyKey;
         j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole].key = kEmptyKey;
    slots_[hole].value = V();
    --size_;
    return true;
  }

  // Visits every entry as fn(key, value): array order, then the side slot.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
    if (has_side_) fn(kEmptyKey, side_);
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    Key key = kEmptyKey;
    V value{};
  };

  std::size_t home(Key key) const {
    return static_cast<std::size_t>(mix64(key)) & mask_;
  }

  // The slot holding `key`, or the empty slot that ends its probe chain.
  // Requires a non-empty array and key != kEmptyKey.
  std::size_t slot_of(Key key) const {
    std::size_t i = home(key);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kMinCapacity : old.size() * 2;
    slots_ = std::vector<Slot>(cap);
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;  // entries, side slot included
  bool has_side_ = false;
  V side_{};
};

}  // namespace bh
