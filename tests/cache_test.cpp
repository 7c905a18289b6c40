// Tests for the LRU object cache and the miss classifier.
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <vector>

#include "cache/lru_cache.h"
#include "cache/miss_class.h"
#include "common/rng.h"

namespace bh::cache {
namespace {

ObjectId obj(std::uint64_t v) { return ObjectId{v}; }

// --- LruCache ---

TEST(LruCacheTest, InsertFindPeek) {
  LruCache c(1000);
  EXPECT_TRUE(c.insert(obj(1), 100, 1, false));
  ASSERT_NE(c.find(obj(1)), nullptr);
  EXPECT_EQ(c.find(obj(1))->size, 100u);
  EXPECT_EQ(c.peek(obj(2)), nullptr);
  EXPECT_EQ(c.used_bytes(), 100u);
  EXPECT_EQ(c.object_count(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache c(300);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.insert(obj(3), 100, 1, false);
  c.find(obj(1));  // 1 becomes MRU; 2 is now LRU
  std::vector<std::uint64_t> evicted;
  c.insert(obj(4), 100, 1, false,
           [&](const LruCache::Entry& e) { evicted.push_back(e.id.value); });
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{2}));
  EXPECT_TRUE(c.contains(obj(1)));
  EXPECT_FALSE(c.contains(obj(2)));
}

TEST(LruCacheTest, EvictsMultipleToFit) {
  LruCache c(300);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.insert(obj(3), 100, 1, false);
  std::vector<std::uint64_t> evicted;
  c.insert(obj(4), 250, 1, false,
           [&](const LruCache::Entry& e) { evicted.push_back(e.id.value); });
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(c.used_bytes(), 250u);
}

TEST(LruCacheTest, OversizedObjectIsNotCached) {
  LruCache c(100);
  EXPECT_FALSE(c.insert(obj(1), 101, 1, false));
  EXPECT_EQ(c.object_count(), 0u);
}

TEST(LruCacheTest, UnlimitedNeverEvicts) {
  LruCache c;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    c.insert(obj(i + 1), 1_MB, 1, false,
             [](const LruCache::Entry&) { FAIL() << "unexpected eviction"; });
  }
  EXPECT_EQ(c.object_count(), 10000u);
  EXPECT_TRUE(c.unlimited());
}

TEST(LruCacheTest, ReinsertUpdatesSizeAndVersion) {
  LruCache c(1000);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(1), 300, 2, false);
  EXPECT_EQ(c.used_bytes(), 300u);
  EXPECT_EQ(c.peek(obj(1))->version, 2u);
  EXPECT_EQ(c.object_count(), 1u);
}

TEST(LruCacheTest, ReinsertSmallerReleasesBytes) {
  LruCache c(1000);
  c.insert(obj(1), 800, 1, false);
  c.insert(obj(1), 100, 2, false);
  EXPECT_EQ(c.used_bytes(), 100u);
}

TEST(LruCacheTest, EraseRemoves) {
  LruCache c(1000);
  c.insert(obj(1), 100, 1, false);
  EXPECT_TRUE(c.erase(obj(1)));
  EXPECT_FALSE(c.erase(obj(1)));
  EXPECT_EQ(c.used_bytes(), 0u);
}

TEST(LruCacheTest, AgeMovesToEvictionFront) {
  LruCache c(300);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.insert(obj(3), 100, 1, false);
  c.age(obj(3));  // freshly inserted but aged: evicted first
  std::vector<std::uint64_t> evicted;
  c.insert(obj(4), 100, 1, false,
           [&](const LruCache::Entry& e) { evicted.push_back(e.id.value); });
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{3}));
}

TEST(LruCacheTest, PushedFlagSemantics) {
  LruCache c(1000);
  c.insert(obj(1), 100, 1, /*pushed=*/true);
  EXPECT_TRUE(c.peek(obj(1))->pushed);
  // A demand insert over a pushed copy clears the tag.
  c.insert(obj(1), 100, 1, /*pushed=*/false);
  EXPECT_FALSE(c.peek(obj(1))->pushed);
  // A push over a demand copy must not re-tag it.
  c.insert(obj(1), 100, 2, /*pushed=*/true);
  EXPECT_FALSE(c.peek(obj(1))->pushed);
}

TEST(LruCacheTest, PeekDoesNotPromote) {
  LruCache c(200);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.peek(obj(1));
  c.peek_mut(obj(1));
  std::vector<std::uint64_t> evicted;
  c.insert(obj(3), 100, 1, false,
           [&](const LruCache::Entry& e) { evicted.push_back(e.id.value); });
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{1}));  // peek kept 1 as LRU
}

TEST(LruCacheTest, EvictionByteAccountingIsExact) {
  LruCache c(1000);
  c.insert(obj(1), 400, 1, false);
  c.insert(obj(2), 300, 1, false);
  c.insert(obj(3), 200, 1, false);
  EXPECT_EQ(c.used_bytes(), 900u);
  std::uint64_t evicted_bytes = 0;
  c.insert(obj(4), 600, 1, false, [&](const LruCache::Entry& e) {
    evicted_bytes += e.size;
  });
  // Needs 600 free: evicts 1 (400) then 2 (300), and no more.
  EXPECT_EQ(evicted_bytes, 700u);
  EXPECT_EQ(c.used_bytes(), 800u);
  EXPECT_EQ(c.object_count(), 2u);
  EXPECT_TRUE(c.contains(obj(3)));
  EXPECT_TRUE(c.contains(obj(4)));
}

TEST(LruCacheTest, EvictCallbackSeesFullEntryState) {
  // The victim passed to on_evict carries the pushed/used_since_push tags so
  // push-efficiency accounting (Figure 11a) can classify the evicted bytes.
  LruCache c(200);
  c.insert(obj(1), 100, 3, /*pushed=*/true);
  c.peek_mut(obj(1))->used_since_push = true;  // remote read tagged it
  c.insert(obj(2), 100, 1, false);
  std::vector<LruCache::Entry> victims;
  c.insert(obj(3), 150, 1, false,
           [&](const LruCache::Entry& e) { victims.push_back(e); });
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0].id.value, 1u);
  EXPECT_EQ(victims[0].size, 100u);
  EXPECT_EQ(victims[0].version, 3u);
  EXPECT_TRUE(victims[0].pushed);
  EXPECT_TRUE(victims[0].used_since_push);
  EXPECT_FALSE(victims[1].pushed);
}

TEST(LruCacheTest, MutationInsideEvictCallbackIsSafe) {
  // Evict handlers in the hint systems call back into caches (e.g. dropping
  // hints); the victim must already be fully removed when the callback runs.
  LruCache c(300);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.insert(obj(3), 100, 1, false);
  bool checked = false;
  c.insert(obj(4), 100, 1, false, [&](const LruCache::Entry& e) {
    EXPECT_FALSE(c.contains(e.id));
    EXPECT_EQ(c.used_bytes(), 200u);
    checked = true;
  });
  EXPECT_TRUE(checked);
}

TEST(LruCacheTest, AgeReordersWithinList) {
  LruCache c(400);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.insert(obj(3), 100, 1, false);
  c.age(obj(2));  // order MRU->LRU is now 3, 1, 2
  std::vector<std::uint64_t> order;
  c.for_each([&](const LruCache::Entry& e) { order.push_back(e.id.value); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{3, 1, 2}));
  // find() promotes an aged entry back to MRU.
  c.find(obj(2));
  order.clear();
  c.for_each([&](const LruCache::Entry& e) { order.push_back(e.id.value); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 3, 1}));
}

TEST(LruCacheTest, AgeTailAndMissingAreNoOps) {
  LruCache c(400);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.age(obj(1));   // already the tail
  c.age(obj(99));  // absent
  std::vector<std::uint64_t> order;
  c.for_each([&](const LruCache::Entry& e) { order.push_back(e.id.value); });
  EXPECT_EQ(order, (std::vector<std::uint64_t>{2, 1}));
}

TEST(LruCacheTest, SlotReuseAfterEraseKeepsListConsistent) {
  // Erase/insert cycles recycle slab slots; the recency list must stay
  // coherent through arbitrary reuse.
  LruCache c(10000);
  for (std::uint64_t i = 1; i <= 50; ++i) c.insert(obj(i), 10, 1, false);
  for (std::uint64_t i = 1; i <= 50; i += 2) c.erase(obj(i));
  for (std::uint64_t i = 51; i <= 75; ++i) c.insert(obj(i), 10, 1, false);
  EXPECT_EQ(c.object_count(), 50u);
  EXPECT_EQ(c.used_bytes(), 500u);
  std::vector<std::uint64_t> order;
  c.for_each([&](const LruCache::Entry& e) { order.push_back(e.id.value); });
  ASSERT_EQ(order.size(), 50u);
  // MRU end: the fresh inserts in reverse insertion order.
  EXPECT_EQ(order.front(), 75u);
  // LRU end: the oldest surviving even id.
  EXPECT_EQ(order.back(), 2u);
}

TEST(LruCacheTest, ReinsertLargerEvictsOthersNotItself) {
  LruCache c(300);
  c.insert(obj(1), 100, 1, false);
  c.insert(obj(2), 100, 1, false);
  c.insert(obj(3), 100, 1, false);
  std::vector<std::uint64_t> evicted;
  // Growing 3 in place forces an eviction, but never of 3 itself.
  c.insert(obj(3), 250, 2, false,
           [&](const LruCache::Entry& e) { evicted.push_back(e.id.value); });
  EXPECT_EQ(evicted, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_TRUE(c.contains(obj(3)));
  EXPECT_EQ(c.peek(obj(3))->size, 250u);
  EXPECT_EQ(c.used_bytes(), 250u);
}

// Capacity accounting stays consistent under arbitrary operation sequences.
class LruCachePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LruCachePropertyTest, UsageNeverExceedsCapacity) {
  const std::uint64_t cap = GetParam();
  LruCache c(cap);
  std::uint64_t seed = 12345;
  for (int i = 0; i < 5000; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint64_t id = (seed >> 33) % 200 + 1;
    const std::uint64_t size = (seed >> 13) % 400 + 1;
    switch (seed % 3) {
      case 0:
        c.insert(obj(id), size, 1, (seed >> 5) & 1);
        break;
      case 1:
        c.find(obj(id));
        break;
      case 2:
        c.erase(obj(id));
        break;
    }
    ASSERT_LE(c.used_bytes(), cap);
    // Recount bytes from scratch.
    std::uint64_t sum = 0;
    std::size_t n = 0;
    c.for_each([&](const LruCache::Entry& e) {
      sum += e.size;
      ++n;
    });
    ASSERT_EQ(sum, c.used_bytes());
    ASSERT_EQ(n, c.object_count());
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, LruCachePropertyTest,
                         ::testing::Values(500, 1000, 5000, 50000));

// Reference LRU: a std::list in recency order (front = most recent) plus a
// std::map index, written straight from LruCache's documented contract.
class ModelLru {
 public:
  using Entry = LruCache::Entry;

  explicit ModelLru(std::uint64_t capacity) : capacity_(capacity) {}

  bool insert(ObjectId id, std::uint64_t size, Version version, bool pushed,
              std::vector<Entry>& evicted) {
    if (size > capacity_) return false;
    if (auto it = index_.find(id.value); it != index_.end()) {
      Entry& e = *it->second;
      used_ += size - e.size;
      e.size = size;
      e.version = version;
      if (!pushed) {
        e.pushed = false;
        e.used_since_push = false;
      }
      order_.splice(order_.begin(), order_, it->second);
      evict_to(capacity_, evicted);
      return true;
    }
    evict_to(capacity_ - size, evicted);
    order_.push_front(Entry{id, size, version, pushed, false});
    index_[id.value] = order_.begin();
    used_ += size;
    return true;
  }

  Entry* find(ObjectId id) {
    auto it = index_.find(id.value);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &*it->second;
  }

  Entry* peek(ObjectId id) {
    auto it = index_.find(id.value);
    return it == index_.end() ? nullptr : &*it->second;
  }

  bool erase(ObjectId id) {
    auto it = index_.find(id.value);
    if (it == index_.end()) return false;
    used_ -= it->second->size;
    order_.erase(it->second);
    index_.erase(it);
    return true;
  }

  void age(ObjectId id) {
    auto it = index_.find(id.value);
    if (it != index_.end()) order_.splice(order_.end(), order_, it->second);
  }

  std::uint64_t used_bytes() const { return used_; }
  const std::list<Entry>& order() const { return order_; }

 private:
  void evict_to(std::uint64_t limit, std::vector<Entry>& evicted) {
    while (!order_.empty() && used_ > limit) {
      const Entry victim = order_.back();
      order_.pop_back();
      index_.erase(victim.id.value);
      used_ -= victim.size;
      evicted.push_back(victim);
    }
  }

  std::uint64_t capacity_;
  std::uint64_t used_ = 0;
  std::list<Entry> order_;
  std::map<std::uint64_t, std::list<Entry>::iterator> index_;
};

bool same_entry(const LruCache::Entry& a, const LruCache::Entry& b) {
  return a.id == b.id && a.size == b.size && a.version == b.version &&
         a.pushed == b.pushed && a.used_since_push == b.used_since_push;
}

// Random insert (new, replace, push-over-demand, oversized), find, peek with
// push-use tagging, erase and age, against the reference model: identical
// return values, eviction callback sequences (every field of every victim),
// used_bytes(), and full recency order after every operation.
TEST(LruCacheTest, MatchesReferenceModelOnRandomStreams) {
  for (const std::uint64_t cap : {600ULL, 2000ULL, 20000ULL}) {
    LruCache c(cap);
    ModelLru model(cap);
    Rng rng(cap);
    std::size_t total_evicted = 0;
    for (int step = 0; step < 20000; ++step) {
      const ObjectId id{rng.next_below(120) + 1};
      const std::uint64_t size = rng.next_below(16) == 0
                                     ? cap + 1 + rng.next_below(100)  // oversized
                                     : 1 + rng.next_below(cap / 8);
      const Version version = rng.next_below(5);
      const bool pushed = rng.next_below(3) == 0;
      switch (rng.next_below(6)) {
        case 0:
        case 1: {
          std::vector<LruCache::Entry> got;
          std::vector<LruCache::Entry> want;
          const bool stored = c.insert(
              id, size, version, pushed,
              [&](const LruCache::Entry& e) { got.push_back(e); });
          ASSERT_EQ(stored, model.insert(id, size, version, pushed, want));
          ASSERT_EQ(got.size(), want.size()) << "step " << step;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_TRUE(same_entry(got[i], want[i])) << "step " << step;
          }
          total_evicted += got.size();
          break;
        }
        case 2: {
          const LruCache::Entry* got = c.find(id);
          const LruCache::Entry* want = model.find(id);
          ASSERT_EQ(got != nullptr, want != nullptr);
          if (got != nullptr) {
            ASSERT_TRUE(same_entry(*got, *want));
          }
          break;
        }
        case 3: {
          // A remote read of a pushed copy tags it without promoting it.
          LruCache::Entry* got = c.peek_mut(id);
          LruCache::Entry* want = model.peek(id);
          ASSERT_EQ(got != nullptr, want != nullptr);
          if (got != nullptr && got->pushed) {
            got->used_since_push = true;
            want->used_since_push = true;
          }
          break;
        }
        case 4:
          ASSERT_EQ(c.erase(id), model.erase(id));
          break;
        case 5:
          c.age(id);
          model.age(id);
          break;
      }
      ASSERT_EQ(c.used_bytes(), model.used_bytes());
      ASSERT_EQ(c.object_count(), model.order().size());
      auto want = model.order().begin();
      c.for_each([&](const LruCache::Entry& e) {
        ASSERT_NE(want, model.order().end());
        ASSERT_TRUE(same_entry(e, *want)) << "step " << step;
        ++want;
      });
      ASSERT_EQ(want, model.order().end());
    }
    EXPECT_GT(total_evicted, 100u) << "capacity " << cap;
  }
}

// --- MissClassifier ---

TEST(MissClassTest, FirstAccessIsCompulsory) {
  MissClassifier mc;
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, false),
            AccessClass::kCompulsoryMiss);
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, false), AccessClass::kHit);
}

TEST(MissClassTest, ErrorAndUncachableClassified) {
  MissClassifier mc;
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, true), AccessClass::kErrorMiss);
  EXPECT_EQ(mc.access(obj(2), 100, 1, true, false),
            AccessClass::kUncachableMiss);
  // Neither entered the cache.
  EXPECT_FALSE(mc.data().contains(obj(1)));
  EXPECT_FALSE(mc.data().contains(obj(2)));
}

TEST(MissClassTest, VersionBumpIsCommunicationMiss) {
  MissClassifier mc;
  mc.access(obj(1), 100, 1, false, false);
  EXPECT_EQ(mc.access(obj(1), 100, 2, false, false),
            AccessClass::kCommunicationMiss);
  EXPECT_EQ(mc.access(obj(1), 100, 2, false, false), AccessClass::kHit);
}

TEST(MissClassTest, InvalidatedThenAccessedIsCommunicationMiss) {
  MissClassifier mc;
  mc.access(obj(1), 100, 1, false, false);
  mc.invalidate(obj(1));
  EXPECT_EQ(mc.access(obj(1), 100, 2, false, false),
            AccessClass::kCommunicationMiss);
}

TEST(MissClassTest, EvictionIsCapacityMiss) {
  MissClassifier mc(150);
  mc.access(obj(1), 100, 1, false, false);
  mc.access(obj(2), 100, 1, false, false);  // evicts 1
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, false),
            AccessClass::kCapacityMiss);
}

TEST(MissClassTest, InfiniteCacheHasNoCapacityMisses) {
  MissClassifier mc;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    mc.access(obj(i), 1000, 1, false, false);
  }
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    EXPECT_EQ(mc.access(obj(i), 1000, 1, false, false), AccessClass::kHit);
  }
}

TEST(MissClassTest, NegativeCachingServesRepeatErrorsLocally) {
  MissClassifier mc(kUnlimitedBytes, /*negative_ttl_seconds=*/60.0);
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, true, 0.0),
            AccessClass::kErrorMiss);
  // The repeat within the TTL is still an error, but from the negative cache.
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, true, 30.0),
            AccessClass::kErrorMiss);
  EXPECT_EQ(mc.negative_hits(), 1u);
  // Past the TTL the cache re-probes the server.
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, true, 120.0),
            AccessClass::kErrorMiss);
  EXPECT_EQ(mc.negative_hits(), 1u);
}

TEST(MissClassTest, NegativeCachingMasksSuccesses) {
  MissClassifier mc(kUnlimitedBytes, 60.0);
  mc.access(obj(1), 100, 1, false, true, 0.0);
  // A would-have-succeeded request inside the TTL is served the cached error.
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, false, 10.0),
            AccessClass::kErrorMiss);
  EXPECT_EQ(mc.masked_successes(), 1u);
  // After expiry it proceeds normally and is compulsory (never cached).
  EXPECT_EQ(mc.access(obj(1), 100, 1, false, false, 120.0),
            AccessClass::kCompulsoryMiss);
}

TEST(MissClassTest, NegativeCachingOffByDefault) {
  MissClassifier mc;
  mc.access(obj(1), 100, 1, false, true, 0.0);
  mc.access(obj(1), 100, 1, false, true, 1.0);
  EXPECT_EQ(mc.negative_hits(), 0u);
}

TEST(MissClassTest, ClassNames) {
  EXPECT_STREQ(access_class_name(AccessClass::kHit), "hit");
  EXPECT_STREQ(access_class_name(AccessClass::kCompulsoryMiss), "compulsory");
  EXPECT_FALSE(is_miss(AccessClass::kHit));
  EXPECT_TRUE(is_miss(AccessClass::kCapacityMiss));
}

}  // namespace
}  // namespace bh::cache
