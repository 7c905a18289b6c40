// Lock-striped sharded object cache for the live proxy data path.
//
// N independent shards, each an ordinary cache::LruCache (recency + byte
// accounting) plus a body map, guarded by its own mutex. Hit/miss counting
// is the caller's job (the proxy counts at request level), so the read path
// costs one shard lock and no global atomics. The shard for an
// object is chosen by mix64(id), so uniformly-hashed object ids spread
// evenly and two requests for different objects almost never contend on the
// same lock — the memcached-style striping that lets the proxy serve as many
// concurrent local hits as the hardware has cores.
//
// Capacity is split evenly across shards and enforced per shard (a shard
// evicts only its own LRU tail). Global accounting — total bytes, object
// count, eviction counter — is kept in relaxed atomics updated
// under the owning shard's lock, so scrape paths read totals without
// stopping the world. Consequence of per-shard budgets: an object larger
// than capacity/num_shards is rejected outright (same contract as LruCache's
// "never purge the cache for a hopeless object", just at shard granularity).
//
// Bodies are refcounted shared buffers (cache::BodyPtr): a hit returns the
// stored pointer, so serving a hit never copies or allocates under the shard
// lock — the response holds the same bytes the cache does, and eviction only
// drops the cache's reference while in-flight responses keep theirs.
//
// Thread-safety: every public method is safe to call concurrently. Eviction
// callbacks run while the owning shard's lock is held and receive the
// victim's body as a shared reference (so a demotion tier can take the bytes
// without a copy); callers must not re-enter the cache from the callback.
// Global
// atomics are updated at each mutation — a victim's bytes leave the totals
// inside its callback, before the callback body runs — so concurrent scrape
// reads never see evicted bytes still counted. Lock order note for the
// proxy: shard lock may be taken before the update-queue lock, never the
// reverse.
//
// Fill guard: erase() stamps the id in an EraseLog (erase_log.h) under the
// shard lock, and insert() given a ticket from ticket() refuses (kStale)
// under the same lock when the id was erased after that ticket was taken.
// A fill that fetched its body before a consistency invalidation therefore
// can never make the old bytes visible, not even briefly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/body.h"
#include "cache/erase_log.h"
#include "cache/lru_cache.h"
#include "common/hash.h"
#include "common/types.h"

namespace bh::cache {

class ShardedLruCache {
 public:
  // Invoked (under the shard lock) for each entry evicted to make space.
  // The victim's body is handed over as a shared reference — the cache no
  // longer holds it, but any in-flight response still does.
  using EvictFn = std::function<void(const LruCache::Entry&, BodyPtr body)>;

  enum class InsertOutcome {
    kInserted,  // new entry stored
    kReplaced,  // existing entry's body refreshed (recency promoted)
    kKept,      // existing entry kept untouched (replace_existing = false)
    kRejected,  // larger than the shard budget; nothing evicted
    kStale,     // erased after the caller's ticket; nothing stored
  };

  ShardedLruCache(std::uint64_t capacity_bytes, std::size_t num_shards);

  // Returns the stored shared buffer (no copy, no allocation — the caller
  // and the cache share the bytes) and refreshes recency; null on miss.
  BodyPtr find(ObjectId id);

  // Presence test without touching recency.
  bool contains(ObjectId id) const;

  // Inserts or (when replace_existing) refreshes; evicts LRU entries of the
  // same shard as needed. `on_evict` fires under the shard lock for each
  // victim, never for the inserted/replaced id itself. With a `fill_ticket`
  // (from ticket(), taken before the body was fetched) the insert is
  // refused as kStale if erase(id) ran after the ticket.
  InsertOutcome insert(ObjectId id, BodyPtr body, Version version = 1,
                       bool pushed = false, bool replace_existing = true,
                       const EvictFn& on_evict = {},
                       std::optional<std::uint64_t> fill_ticket = {});
  // Convenience for owned strings: wraps the body in a fresh shared buffer.
  InsertOutcome insert(ObjectId id, std::string body, Version version = 1,
                       bool pushed = false, bool replace_existing = true,
                       const EvictFn& on_evict = {}) {
    return insert(id, std::make_shared<const std::string>(std::move(body)),
                  version, pushed, replace_existing, on_evict);
  }

  // Removes an entry (consistency invalidation) and stamps the erase log,
  // present or not, so in-flight fills of `id` come back kStale. Returns
  // true if the entry was present.
  bool erase(ObjectId id);

  // Fill ticket for insert(): take it before fetching the body.
  std::uint64_t ticket() const { return erased_.ticket(); }

  // Global accounting: lock-free relaxed reads of atomics maintained under
  // the shard locks.
  std::uint64_t used_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t object_count() const {
    return total_objects_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }

  std::uint64_t capacity_bytes() const { return capacity_bytes_; }
  std::size_t shard_count() const { return shards_.size(); }

  // Largest body insert() can accept: the per-shard budget. Anything bigger
  // comes back kRejected, so callers with a spill tier can route oversized
  // objects straight there without paying a failed insert.
  std::uint64_t max_object_bytes() const {
    if (capacity_bytes_ == kUnlimitedBytes) return kUnlimitedBytes;
    return capacity_bytes_ / shards_.size();
  }

  // Per-shard occupancy for observability gauges (takes that shard's lock).
  std::uint64_t shard_used_bytes(std::size_t shard) const;
  std::size_t shard_object_count(std::size_t shard) const;

  // Shard selection, inlined on the hot path: mix64 scrambles the id and the
  // Lemire multiply-shift maps the 64-bit hash onto [0, shards) without the
  // div instruction a `%` would cost per request.
  std::size_t shard_of(ObjectId id) const {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(mix64(id.value)) * shards_.size()) >>
        64);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    LruCache lru;
    std::unordered_map<ObjectId, BodyPtr> bodies;

    explicit Shard(std::uint64_t capacity) : lru(capacity) {}
  };

  std::uint64_t capacity_bytes_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> total_bytes_{0};
  std::atomic<std::size_t> total_objects_{0};
  std::atomic<std::uint64_t> evictions_{0};
  EraseLog erased_;  // stamped under the erased id's shard lock
};

}  // namespace bh::cache
