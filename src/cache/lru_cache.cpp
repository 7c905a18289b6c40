#include "cache/lru_cache.h"

namespace bh::cache {

LruCache::LruCache(std::uint64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes) {}

std::uint32_t LruCache::alloc_node() {
  if (!free_.empty()) {
    const std::uint32_t i = free_.back();
    free_.pop_back();
    return i;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void LruCache::link_front(std::uint32_t i) {
  Node& n = slab_[i];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) slab_[head_].prev = i;
  head_ = i;
  if (tail_ == kNil) tail_ = i;
}

void LruCache::unlink(std::uint32_t i) {
  Node& n = slab_[i];
  if (n.prev != kNil) {
    slab_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    slab_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
}

void LruCache::move_to_front(std::uint32_t i) {
  if (head_ == i) return;
  unlink(i);
  link_front(i);
}

LruCache::Entry* LruCache::find(ObjectId id) {
  const std::uint32_t* slot = index_.find(id.value);
  if (slot == nullptr) return nullptr;
  move_to_front(*slot);
  return &slab_[*slot].entry;
}

const LruCache::Entry* LruCache::peek(ObjectId id) const {
  const std::uint32_t* slot = index_.find(id.value);
  return slot == nullptr ? nullptr : &slab_[*slot].entry;
}

LruCache::Entry* LruCache::peek_mut(ObjectId id) {
  const std::uint32_t* slot = index_.find(id.value);
  return slot == nullptr ? nullptr : &slab_[*slot].entry;
}

bool LruCache::insert(ObjectId id, std::uint64_t size, Version version,
                      bool pushed, const EvictFn& on_evict) {
  if (!unlimited() && size > capacity_bytes_) return false;

  if (const std::uint32_t* slot = index_.find(id.value)) {
    const std::uint32_t i = *slot;
    Entry& e = slab_[i].entry;
    used_bytes_ -= e.size;
    e.size = size;
    e.version = version;
    // A demand insert over a pushed copy supersedes the push tag; a push over
    // a demand copy must not hide that the bytes were already wanted.
    if (!pushed) {
      e.pushed = false;
      e.used_since_push = false;
    }
    used_bytes_ += size;
    move_to_front(i);
    evict_to_fit(0, on_evict);
    return true;
  }

  // The id is absent while eviction runs, so the new entry can never evict
  // itself; it is indexed only once eviction (which erases index entries)
  // is done.
  evict_to_fit(size, on_evict);
  const std::uint32_t i = alloc_node();
  slab_[i].entry = Entry{id, size, version, pushed, false};
  link_front(i);
  index_.try_emplace(id.value, i);
  used_bytes_ += size;
  return true;
}

bool LruCache::erase(ObjectId id) {
  const std::uint32_t* slot = index_.find(id.value);
  if (slot == nullptr) return false;
  const std::uint32_t i = *slot;
  used_bytes_ -= slab_[i].entry.size;
  unlink(i);
  free_.push_back(i);
  index_.erase(id.value);
  return true;
}

void LruCache::age(ObjectId id) {
  const std::uint32_t* slot = index_.find(id.value);
  if (slot == nullptr) return;
  const std::uint32_t i = *slot;
  if (tail_ == i) return;
  unlink(i);
  // Link at the tail: least recently used, evicted first.
  Node& n = slab_[i];
  n.next = kNil;
  n.prev = tail_;
  if (tail_ != kNil) slab_[tail_].next = i;
  tail_ = i;
  if (head_ == kNil) head_ = i;
}

void LruCache::evict_to_fit(std::uint64_t incoming, const EvictFn& on_evict) {
  if (unlimited()) return;
  while (tail_ != kNil && used_bytes_ + incoming > capacity_bytes_) {
    const std::uint32_t victim_slot = tail_;
    const Entry victim = slab_[victim_slot].entry;
    used_bytes_ -= victim.size;
    index_.erase(victim.id.value);
    unlink(victim_slot);
    free_.push_back(victim_slot);
    if (on_evict) on_evict(victim);
  }
}

}  // namespace bh::cache
