// Byte-capacity LRU object cache.
//
// This is the data-cache substrate under every simulated proxy: finite
// configurations evict least-recently-used objects to stay within a byte
// budget (5 GB per node in the paper's space-constrained runs); infinite
// configurations never evict. Entries carry the object version for strong
// consistency and a "pushed" tag so push-caching efficiency (Figure 11a) can
// be accounted.
//
// Hot-path layout: entries live in a slab (vector of nodes threaded into an
// intrusive doubly-linked recency list by index) instead of a std::list, so
// insert/erase recycle slab slots rather than allocating list nodes. The
// id -> slot index is a flat open-addressing table (common/flat_map.h).
// Entry pointers returned by find/peek are invalidated by the next insert
// (the slab may grow); callers use them immediately, never across mutations.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace bh::cache {

class LruCache {
 public:
  struct Entry {
    ObjectId id;
    std::uint64_t size = 0;
    Version version = 0;
    bool pushed = false;           // placed by a push algorithm, not demand
    bool used_since_push = false;  // a demand hit touched the pushed copy
  };

  // Invoked with each entry evicted to make space (never for erase()).
  using EvictFn = std::function<void(const Entry&)>;

  explicit LruCache(std::uint64_t capacity_bytes = kUnlimitedBytes);

  // Returns the entry and refreshes its recency, or nullptr.
  Entry* find(ObjectId id);

  // Returns the entry without touching recency, or nullptr.
  const Entry* peek(ObjectId id) const;

  // Mutable variant of peek: remote cache-to-cache reads observe and tag the
  // entry (push-use accounting) without promoting it in the local LRU order.
  Entry* peek_mut(ObjectId id);

  bool contains(ObjectId id) const { return index_.contains(id.value); }

  // Inserts or replaces; evicts LRU entries as needed to fit. Objects larger
  // than the whole capacity are not cached at all. The new entry is
  // most-recently-used. Returns false if the object could not be cached.
  bool insert(ObjectId id, std::uint64_t size, Version version, bool pushed,
              const EvictFn& on_evict = {});

  // Removes an entry (consistency invalidation). Returns true if present.
  bool erase(ObjectId id);

  // Moves an entry to the LRU end without removing it — the "aging" step of
  // the update-push algorithm (Section 4.1.2): objects updated many times
  // without being read drift out of the cache. No-op if absent.
  void age(ObjectId id);

  std::uint64_t used_bytes() const { return used_bytes_; }
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t object_count() const { return index_.size(); }
  bool unlimited() const { return capacity_bytes_ == kUnlimitedBytes; }

  // Iterates entries from most- to least-recently used.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kNil; i = slab_[i].next) {
      fn(slab_[i].entry);
    }
  }

 private:
  static constexpr std::uint32_t kNil = static_cast<std::uint32_t>(-1);

  struct Node {
    Entry entry;
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  std::uint32_t alloc_node();
  void link_front(std::uint32_t i);
  void unlink(std::uint32_t i);
  void move_to_front(std::uint32_t i);
  void evict_to_fit(std::uint64_t incoming, const EvictFn& on_evict);

  std::uint64_t capacity_bytes_;
  std::uint64_t used_bytes_ = 0;
  std::vector<Node> slab_;
  std::vector<std::uint32_t> free_;  // recycled slab slots
  std::uint32_t head_ = kNil;        // most recently used
  std::uint32_t tail_ = kNil;        // least recently used
  FlatMap<std::uint32_t> index_;  // id -> slab slot
};

}  // namespace bh::cache
