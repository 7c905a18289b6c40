#include "cache/sharded_lru.h"

#include <algorithm>
#include <utility>

#include "common/hash.h"

namespace bh::cache {

namespace {

// Splits `capacity` across `n` shards: every shard gets the same base, the
// first `capacity % n` shards get one extra byte, so the budgets sum back to
// exactly the configured capacity. Unlimited stays unlimited everywhere.
std::uint64_t shard_capacity(std::uint64_t capacity, std::size_t n,
                             std::size_t shard) {
  if (capacity == kUnlimitedBytes) return kUnlimitedBytes;
  return capacity / n + (shard < capacity % n ? 1 : 0);
}

}  // namespace

ShardedLruCache::ShardedLruCache(std::uint64_t capacity_bytes,
                                 std::size_t num_shards)
    : capacity_bytes_(capacity_bytes) {
  const std::size_t n = std::max<std::size_t>(1, num_shards);
  shards_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    shards_.push_back(std::make_unique<Shard>(shard_capacity(capacity_bytes, n, s)));
  }
}

BodyPtr ShardedLruCache::find(ObjectId id) {
  Shard& s = *shards_[shard_of(id)];
  std::lock_guard lock(s.mu);
  if (s.lru.find(id) == nullptr) return nullptr;
  // Hand back the stored buffer itself: a hit costs one refcount bump, never
  // a copy of the payload under the shard lock.
  return s.bodies.at(id);
}

bool ShardedLruCache::contains(ObjectId id) const {
  const Shard& s = *shards_[shard_of(id)];
  std::lock_guard lock(s.mu);
  return s.lru.contains(id);
}

ShardedLruCache::InsertOutcome ShardedLruCache::insert(
    ObjectId id, BodyPtr body, Version version, bool pushed,
    bool replace_existing, const EvictFn& on_evict,
    std::optional<std::uint64_t> fill_ticket) {
  if (!body) body = std::make_shared<const std::string>();
  Shard& s = *shards_[shard_of(id)];
  std::lock_guard lock(s.mu);
  // Checked under the lock erase() stamps under: either the erase comes
  // after this insert and removes it, or the stamp is visible here.
  if (fill_ticket && erased_.erased_since(id, *fill_ticket)) {
    return InsertOutcome::kStale;
  }
  const LruCache::Entry* prev = s.lru.peek(id);
  const bool existed = prev != nullptr;
  if (existed && !replace_existing) return InsertOutcome::kKept;
  const std::uint64_t prev_size = existed ? prev->size : 0;

  const std::uint64_t new_size = body->size();
  const bool stored = s.lru.insert(
      id, new_size, version, pushed, [&](const LruCache::Entry& victim) {
        // Accounting is settled before the callback body can observe the
        // cache: a victim's bytes leave the totals the instant it leaves
        // the shard, not after a (possibly slow, disk-bound) callback.
        total_bytes_.fetch_sub(victim.size, std::memory_order_relaxed);
        total_objects_.fetch_sub(1, std::memory_order_relaxed);
        evictions_.fetch_add(1, std::memory_order_relaxed);
        auto node = s.bodies.extract(victim.id);
        if (on_evict) {
          on_evict(victim, node ? std::move(node.mapped()) : BodyPtr());
        }
      });
  if (!stored) return InsertOutcome::kRejected;
  s.bodies[id] = std::move(body);
  // Unsigned wrap makes the replace delta correct in one add even when the
  // refreshed body shrank.
  total_bytes_.fetch_add(new_size - prev_size, std::memory_order_relaxed);
  if (!existed) total_objects_.fetch_add(1, std::memory_order_relaxed);
  return existed ? InsertOutcome::kReplaced : InsertOutcome::kInserted;
}

bool ShardedLruCache::erase(ObjectId id) {
  Shard& s = *shards_[shard_of(id)];
  std::lock_guard lock(s.mu);
  erased_.note_erase(id);
  const LruCache::Entry* e = s.lru.peek(id);
  if (e == nullptr) return false;
  total_bytes_.fetch_sub(e->size, std::memory_order_relaxed);
  total_objects_.fetch_sub(1, std::memory_order_relaxed);
  s.lru.erase(id);
  s.bodies.erase(id);
  return true;
}

std::uint64_t ShardedLruCache::shard_used_bytes(std::size_t shard) const {
  const Shard& s = *shards_[shard];
  std::lock_guard lock(s.mu);
  return s.lru.used_bytes();
}

std::size_t ShardedLruCache::shard_object_count(std::size_t shard) const {
  const Shard& s = *shards_[shard];
  std::lock_guard lock(s.mu);
  return s.lru.object_count();
}

}  // namespace bh::cache
