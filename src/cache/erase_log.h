// Erase log: lets a writer that fetched a body before an erase of the same
// object find out, at commit time, that its bytes are stale.
//
// A fill (origin fetch, sibling fetch, disk promotion, demotion) takes a
// ticket before it starts; erase() stamps the object's slot with a fresh
// sequence number. At commit, under the same lock erase() takes, the writer
// asks erased_since(id, ticket): true means an erase ran after the fill
// began, so the fill's bytes may predate it and must not be stored.
//
// Slots are a fixed hashed table, so memory stays bounded and nothing is
// ever pruned. Two ids sharing a slot make a fill look stale when only the
// other id was erased — a skipped insert, never a stale one.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/hash.h"
#include "common/types.h"

namespace bh::cache {

class EraseLog {
 public:
  std::uint64_t ticket() const { return seq_.load(std::memory_order_acquire); }

  void note_erase(ObjectId id) {
    const std::uint64_t stamp = seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Keep the slot's maximum: two colliding erases may store out of order.
    std::atomic<std::uint64_t>& slot = slots_[slot_of(id)];
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < stamp &&
           !slot.compare_exchange_weak(cur, stamp, std::memory_order_release,
                                       std::memory_order_relaxed)) {
    }
  }

  bool erased_since(ObjectId id, std::uint64_t ticket) const {
    return slots_[slot_of(id)].load(std::memory_order_acquire) > ticket;
  }

 private:
  static constexpr std::size_t kSlots = 1024;

  static std::size_t slot_of(ObjectId id) {
    return static_cast<std::size_t>(mix64(id.value) & (kSlots - 1));
  }

  std::atomic<std::uint64_t> seq_{0};
  std::array<std::atomic<std::uint64_t>, kSlots> slots_{};
};

}  // namespace bh::cache
