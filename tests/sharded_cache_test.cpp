// Tests for the lock-striped sharded object cache and the striped hint
// front: single-shard equivalence with the plain LruCache, global-accounting
// invariants, and multithreaded hammering (run under TSan in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "cache/lru_cache.h"
#include "cache/sharded_lru.h"
#include "common/rng.h"
#include "hints/hint_cache.h"

namespace bh::cache {
namespace {

std::string body_of(std::uint64_t id, std::size_t size) {
  return std::string(size, static_cast<char>('a' + id % 26));
}

// With one shard there is no partitioning at all: an identical operation
// trace against a plain LruCache must produce identical membership, byte
// accounting, and the exact same eviction sequence.
TEST(ShardedLruCacheTest, SingleShardMatchesPlainLruOnSameTrace) {
  constexpr std::uint64_t kCap = 4096;
  ShardedLruCache sharded(kCap, 1);
  LruCache plain(kCap);
  Rng rng(11);
  std::vector<std::uint64_t> sharded_evicted;
  std::vector<std::uint64_t> plain_evicted;

  for (int step = 0; step < 20000; ++step) {
    const ObjectId id{rng.next_below(64) + 1};
    const std::size_t size = 32 + rng.next_below(200);
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        sharded.insert(id, body_of(id.value, size), 1, false, true,
                       [&](const LruCache::Entry& e, BodyPtr body) {
                         // The victim's body is handed over intact.
                         ASSERT_EQ(body->size(), e.size);
                         ASSERT_EQ((*body)[0],
                                   static_cast<char>('a' + e.id.value % 26));
                         sharded_evicted.push_back(e.id.value);
                       });
        plain.insert(id, size, 1, false, [&](const LruCache::Entry& e) {
          plain_evicted.push_back(e.id.value);
        });
        break;
      case 2: {
        const auto body = sharded.find(id);
        ASSERT_EQ(body != nullptr, plain.find(id) != nullptr);
        if (body) {
          ASSERT_EQ((*body)[0], static_cast<char>('a' + id.value % 26));
        }
        break;
      }
      case 3:
        ASSERT_EQ(sharded.erase(id), plain.erase(id));
        break;
    }
    ASSERT_EQ(sharded.used_bytes(), plain.used_bytes());
    ASSERT_EQ(sharded.object_count(), plain.object_count());
  }
  EXPECT_EQ(sharded_evicted, plain_evicted);
  EXPECT_GT(sharded_evicted.size(), 0u) << "trace never exercised eviction";
}

// The model test for the daemon's cache: with one shard, ShardedLruCache is
// LruCache plus bodies, so the same random stream of new, replacing,
// keep-existing, pushed and oversized inserts, finds and erases must give
// the same outcomes, the same victims (every entry field, with the victim's
// own body), and the same accounting after every operation.
TEST(ShardedLruCacheTest, SingleShardMatchesLruCacheModel) {
  for (const std::uint64_t cap : {1000ULL, 8000ULL}) {
    ShardedLruCache sharded(cap, 1);
    LruCache plain(cap);
    Rng rng(cap + 5);
    std::uint64_t plain_evictions = 0;
    for (int step = 0; step < 20000; ++step) {
      const ObjectId id{rng.next_below(100) + 1};
      const std::size_t size = rng.next_below(20) == 0
                                   ? cap + 1 + rng.next_below(50)  // oversized
                                   : 1 + rng.next_below(cap / 6);
      const Version version = rng.next_below(4);
      const bool pushed = rng.next_below(3) == 0;
      switch (rng.next_below(5)) {
        case 0:
        case 1: {
          const bool replace = rng.next_below(4) != 0;
          std::vector<LruCache::Entry> got;
          std::vector<LruCache::Entry> want;
          const auto outcome = sharded.insert(
              id, std::make_shared<const std::string>(body_of(id.value, size)),
              version, pushed, replace, [&](const LruCache::Entry& e, BodyPtr body) {
                ASSERT_NE(body, nullptr);
                ASSERT_EQ(*body, body_of(e.id.value, e.size));
                got.push_back(e);
              });
          const bool present = plain.contains(id);
          if (present && !replace) {
            ASSERT_EQ(outcome, ShardedLruCache::InsertOutcome::kKept);
            break;
          }
          const bool stored =
              plain.insert(id, size, version, pushed,
                           [&](const LruCache::Entry& e) { want.push_back(e); });
          ASSERT_EQ(outcome,
                    !stored   ? ShardedLruCache::InsertOutcome::kRejected
                    : present ? ShardedLruCache::InsertOutcome::kReplaced
                              : ShardedLruCache::InsertOutcome::kInserted);
          ASSERT_EQ(got.size(), want.size()) << "step " << step;
          for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].id, want[i].id);
            ASSERT_EQ(got[i].size, want[i].size);
            ASSERT_EQ(got[i].version, want[i].version);
            ASSERT_EQ(got[i].pushed, want[i].pushed);
            ASSERT_EQ(got[i].used_since_push, want[i].used_since_push);
          }
          plain_evictions += want.size();
          break;
        }
        case 2: {
          const auto body = sharded.find(id);
          const LruCache::Entry* e = plain.find(id);
          ASSERT_EQ(body != nullptr, e != nullptr);
          if (body != nullptr) {
            ASSERT_EQ(*body, body_of(id.value, e->size));
          }
          break;
        }
        case 3:
          ASSERT_EQ(sharded.erase(id), plain.erase(id));
          break;
        case 4:
          ASSERT_EQ(sharded.contains(id), plain.contains(id));
          break;
      }
      ASSERT_EQ(sharded.used_bytes(), plain.used_bytes());
      ASSERT_EQ(sharded.object_count(), plain.object_count());
      ASSERT_EQ(sharded.evictions(), plain_evictions);
    }
    EXPECT_GT(plain_evictions, 100u) << "capacity " << cap;
  }
}

TEST(ShardedLruCacheTest, GlobalAccountingMatchesShardSums) {
  ShardedLruCache c(1 << 20, 8);
  ASSERT_EQ(c.shard_count(), 8u);
  Rng rng(22);
  for (int step = 0; step < 30000; ++step) {
    const ObjectId id{rng.next_below(5000) + 1};
    if (rng.bernoulli(0.7)) {
      c.insert(id, body_of(id.value, 64 + rng.next_below(512)));
    } else {
      c.erase(id);
    }
  }
  std::uint64_t bytes = 0;
  std::size_t objects = 0;
  for (std::size_t s = 0; s < c.shard_count(); ++s) {
    bytes += c.shard_used_bytes(s);
    objects += c.shard_object_count(s);
  }
  EXPECT_EQ(c.used_bytes(), bytes);
  EXPECT_EQ(c.object_count(), objects);
  EXPECT_GT(c.evictions(), 0u) << "trace never exercised eviction";
}

TEST(ShardedLruCacheTest, InsertOutcomesFollowReplacePolicy) {
  ShardedLruCache c(kUnlimitedBytes, 4);
  const ObjectId id{42};
  EXPECT_EQ(c.insert(id, "aa"), ShardedLruCache::InsertOutcome::kInserted);
  EXPECT_EQ(c.insert(id, "bbb"), ShardedLruCache::InsertOutcome::kReplaced);
  EXPECT_EQ(c.used_bytes(), 3u);
  EXPECT_EQ(c.insert(id, "cccc", 1, false, /*replace_existing=*/false),
            ShardedLruCache::InsertOutcome::kKept);
  EXPECT_EQ(*c.find(id), "bbb");
  EXPECT_EQ(c.object_count(), 1u);
}

TEST(ShardedLruCacheTest, FillTicketRefusesInsertAfterErase) {
  ShardedLruCache c(kUnlimitedBytes, 4);
  const ObjectId id{42};
  const std::uint64_t ticket = c.ticket();  // the fill starts
  EXPECT_FALSE(c.erase(id));  // invalidated while absent: still stamped
  EXPECT_EQ(c.insert(id, std::make_shared<const std::string>("old"), 1,
                     false, true, {}, ticket),
            ShardedLruCache::InsertOutcome::kStale);
  EXPECT_FALSE(c.contains(id));
  EXPECT_EQ(c.object_count(), 0u);
  // A fill that began after the erase stores normally.
  EXPECT_EQ(c.insert(id, std::make_shared<const std::string>("new"), 1,
                     false, true, {}, c.ticket()),
            ShardedLruCache::InsertOutcome::kInserted);
  EXPECT_EQ(*c.find(id), "new");
}

TEST(ShardedLruCacheTest, ObjectLargerThanShardBudgetIsRejected) {
  ShardedLruCache c(800, 4);  // 200 bytes of budget per shard
  ASSERT_EQ(c.insert(ObjectId{1}, std::string(100, 'x')),
            ShardedLruCache::InsertOutcome::kInserted);
  // Hopeless for any shard: rejected without evicting anything.
  EXPECT_EQ(c.insert(ObjectId{2}, std::string(500, 'y')),
            ShardedLruCache::InsertOutcome::kRejected);
  EXPECT_TRUE(c.contains(ObjectId{1}));
  EXPECT_EQ(c.object_count(), 1u);
  EXPECT_EQ(c.used_bytes(), 100u);
}

TEST(ShardedLruCacheTest, ConcurrentHammerKeepsAccountingConsistent) {
  ShardedLruCache c(2 << 20, 8);
  std::atomic<std::uint64_t> evictions{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c, &evictions, t] {
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 20000; ++i) {
        const ObjectId id{rng.next_below(4096) + 1};
        switch (rng.next_below(8)) {
          case 0:
            c.erase(id);
            break;
          case 1:
          case 2:
            c.insert(id, body_of(id.value, 64 + rng.next_below(256)), 1, false,
                     true, [&evictions](const LruCache::Entry&, BodyPtr) {
                       evictions.fetch_add(1, std::memory_order_relaxed);
                     });
            break;
          default:
            if (const auto body = c.find(id)) {
              // Bodies are keyed deterministically: a torn or misplaced read
              // would surface as the wrong fill character.
              EXPECT_FALSE(body->empty());
              EXPECT_EQ((*body)[0], static_cast<char>('a' + id.value % 26));
            }
            break;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::uint64_t bytes = 0;
  std::size_t objects = 0;
  for (std::size_t s = 0; s < c.shard_count(); ++s) {
    bytes += c.shard_used_bytes(s);
    objects += c.shard_object_count(s);
  }
  EXPECT_EQ(c.used_bytes(), bytes);
  EXPECT_EQ(c.object_count(), objects);
  EXPECT_EQ(c.evictions(), evictions.load());
}

// The disk-demotion shape (satellite of the persistence work): every primary
// eviction re-enters a *different* cache from inside the callback, while the
// owning shard lock is still held. Global accounting is incremental — a
// victim's bytes leave the totals before the callback body runs — so a
// sampler thread must never observe the primary's total above capacity by
// more than one in-flight insert, and the final totals must match the
// per-shard sums exactly on both caches.
TEST(ShardedLruCacheTest, ReentrantDemotionHammerKeepsInvariants) {
  constexpr std::uint64_t kPrimaryCap = 1 << 20;
  constexpr std::uint64_t kMaxBody = 64 + 255;
  ShardedLruCache primary(kPrimaryCap, 8);
  ShardedLruCache secondary(4 << 20, 4);
  std::atomic<std::uint64_t> demoted{0};
  std::atomic<bool> done{false};

  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      const std::uint64_t bytes = primary.used_bytes();
      // Relaxed-atomic totals lag a mutation by at most the entries touched
      // by in-flight inserts (one per thread): far below one shard budget.
      ASSERT_LE(bytes, kPrimaryCap + 8 * kMaxBody);
      ASSERT_LE(primary.object_count(), 1u << 16);
    }
  });

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(3000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 15000; ++i) {
        const ObjectId id{rng.next_below(8192) + 1};
        primary.insert(
            id, body_of(id.value, 64 + rng.next_below(256)), 1, false, true,
            [&](const LruCache::Entry& e, BodyPtr body) {
              ASSERT_EQ(body->size(), e.size);
              demoted.fetch_add(1, std::memory_order_relaxed);
              // Re-entering another sharded cache under our shard lock is
              // the demotion pattern; ids are disjoint from the primary's
              // key space so the secondary never calls back into us.
              secondary.insert(ObjectId{e.id.value + (1u << 20)},
                               std::move(body));
            });
        if (rng.bernoulli(0.1)) primary.erase(id);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  done.store(true);
  sampler.join();

  for (const ShardedLruCache* c : {&primary, &secondary}) {
    std::uint64_t bytes = 0;
    std::size_t objects = 0;
    for (std::size_t s = 0; s < c->shard_count(); ++s) {
      bytes += c->shard_used_bytes(s);
      objects += c->shard_object_count(s);
    }
    EXPECT_EQ(c->used_bytes(), bytes);
    EXPECT_EQ(c->object_count(), objects);
  }
  EXPECT_GT(demoted.load(), 0u) << "trace never exercised demotion";
  EXPECT_EQ(primary.evictions(), demoted.load());
}

TEST(StripedHintStoreTest, RoundTripAndStripeClamp) {
  hints::StripedHintStore s(1 << 20, 8);
  EXPECT_EQ(s.stripe_count(), 8u);
  s.insert(ObjectId{1}, MachineId{7});
  const auto hit = s.lookup(ObjectId{1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->value, 7u);
  EXPECT_EQ(s.entry_count(), 1u);
  EXPECT_TRUE(s.erase(ObjectId{1}));
  EXPECT_FALSE(s.lookup(ObjectId{1}).has_value());
  EXPECT_FALSE(s.erase(ObjectId{1}));

  hints::StripedHintStore one(1 << 20, 0);  // stripes clamp to at least 1
  EXPECT_EQ(one.stripe_count(), 1u);
}

TEST(StripedHintStoreTest, ConcurrentHammerStaysCoherent) {
  const auto store = hints::make_striped_hint_store(1 << 20, 8);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      Rng rng(2000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 20000; ++i) {
        const ObjectId id{rng.next_below(2048) + 1};
        switch (rng.next_below(4)) {
          case 0:
            // Locations are a pure function of the id, so any concurrent
            // lookup observing a hint must observe the right one.
            store->insert(id, MachineId{id.value * 3 + 1});
            break;
          case 1:
            store->erase(id);
            break;
          default:
            if (const auto hit = store->lookup(id)) {
              EXPECT_EQ(hit->value, id.value * 3 + 1);
            }
            break;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(store->entry_count(), 2048u);
}

}  // namespace
}  // namespace bh::cache
