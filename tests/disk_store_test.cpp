// Tests for the on-disk L2 object store: round trips, checksum validation,
// crash-atomic writes (fault hook), byte-budget eviction, and the
// restart-rescan path that makes the tier survive a kill.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/disk_store.h"
#include "common/fs_util.h"
#include "common/rng.h"

namespace bh::cache {
namespace {

std::string body_of(std::uint64_t id, std::size_t size) {
  return std::string(size, static_cast<char>('a' + id % 26));
}

// Fresh per-test root under the gtest temp dir.
std::string fresh_root(const std::string& name) {
  const std::string root = ::testing::TempDir() + "/bh_disk_" + name;
  // Tests reuse names across runs in the same container; wipe leftovers.
  std::string cmd = "rm -rf '" + root + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  return root;
}

DiskStore::Options opts_for(const std::string& root,
                            std::uint64_t capacity = 1 << 20) {
  DiskStore::Options o;
  o.root = root;
  o.capacity_bytes = capacity;
  o.fsync_writes = false;  // tests only kill processes, never the machine
  return o;
}

TEST(DiskStoreTest, PutGetRoundTripAndStats) {
  DiskStore store(opts_for(fresh_root("roundtrip")));
  EXPECT_FALSE(store.get_body(ObjectId{1}).has_value());
  ASSERT_TRUE(store.put(ObjectId{1}, body_of(1, 500)));
  ASSERT_TRUE(store.put(ObjectId{2}, body_of(2, 0)));  // empty body is legal
  EXPECT_TRUE(store.contains(ObjectId{1}));
  EXPECT_EQ(store.object_count(), 2u);

  const auto b1 = store.get_body(ObjectId{1});
  ASSERT_TRUE(b1.has_value());
  EXPECT_EQ(*b1, body_of(1, 500));
  const auto b2 = store.get_body(ObjectId{2});
  ASSERT_TRUE(b2.has_value());
  EXPECT_TRUE(b2->empty());

  const DiskStoreStats s = store.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.puts, 2u);
  EXPECT_EQ(s.corrupt_dropped, 0u);

  EXPECT_TRUE(store.erase(ObjectId{1}));
  EXPECT_FALSE(store.erase(ObjectId{1}));
  EXPECT_FALSE(store.get_body(ObjectId{1}).has_value());
}

TEST(DiskStoreTest, SurvivesReopenWithSameContents) {
  const std::string root = fresh_root("reopen");
  {
    DiskStore store(opts_for(root));
    for (std::uint64_t k = 1; k <= 40; ++k) {
      ASSERT_TRUE(store.put(ObjectId{k}, body_of(k, 100 + k)));
    }
  }
  DiskStore back(opts_for(root));
  EXPECT_EQ(back.object_count(), 40u);
  for (std::uint64_t k = 1; k <= 40; ++k) {
    const auto body = back.get_body(ObjectId{k});
    ASSERT_TRUE(body.has_value()) << k;
    EXPECT_EQ(*body, body_of(k, 100 + k));
  }
}

TEST(DiskStoreTest, CorruptFileIsDroppedAsMiss) {
  const std::string root = fresh_root("corrupt");
  DiskStore store(opts_for(root));
  ASSERT_TRUE(store.put(ObjectId{7}, body_of(7, 300)));

  // Flip a byte in the body region of the one file under the tree.
  char dir[3];
  std::snprintf(dir, sizeof dir, "%02x", 7u);
  const std::string path =
      root + "/" + dir + "/" + "0000000000000007.obj";
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good()) << path;
    f.seekp(40 + 150);  // past the envelope header, mid-body
    f.put('X');
  }
  EXPECT_FALSE(store.get_body(ObjectId{7}).has_value());
  EXPECT_EQ(store.stats().corrupt_dropped, 1u);
  EXPECT_FALSE(store.contains(ObjectId{7}));
  EXPECT_EQ(::access(path.c_str(), F_OK), -1) << "file not unlinked";
  EXPECT_EQ(store.used_bytes(), 0u);
}

TEST(DiskStoreTest, RenamedFileCannotImpersonateAnotherObject) {
  const std::string root = fresh_root("impersonate");
  DiskStore store(opts_for(root));
  ASSERT_TRUE(store.put(ObjectId{0x11}, body_of(0x11, 64)));
  // Copy 0x11's file over where 0x22 would live, then reopen so the scan
  // adopts it under the wrong id.
  const std::string src = root + "/11/0000000000000011.obj";
  const std::string dst_dir = root + "/22";
  ::mkdir(dst_dir.c_str(), 0755);
  const std::string dst = dst_dir + "/0000000000000022.obj";
  {
    std::ifstream in(src, std::ios::binary);
    std::ofstream out(dst, std::ios::binary);
    out << in.rdbuf();
  }
  DiskStore back(opts_for(root));
  EXPECT_EQ(back.object_count(), 2u);  // adopted by name...
  // ...rejected by key
  EXPECT_FALSE(back.get_body(ObjectId{0x22}).has_value());
  EXPECT_EQ(back.stats().corrupt_dropped, 1u);
  EXPECT_TRUE(back.get_body(ObjectId{0x11}).has_value());
}

TEST(DiskStoreTest, EvictsLeastRecentlyAccessedToFitBudget) {
  // Each entry is 40 (header) + 200 = 240 file bytes; budget fits 4.
  std::vector<std::uint64_t> evicted;
  DiskStore store(opts_for(fresh_root("evict"), 4 * 240),
                  [&](ObjectId id) { evicted.push_back(id.value); });
  for (std::uint64_t k = 1; k <= 4; ++k) {
    ASSERT_TRUE(store.put(ObjectId{k}, body_of(k, 200)));
  }
  EXPECT_TRUE(evicted.empty());
  // Refresh 1: LRU is now 2.
  ASSERT_TRUE(store.get_body(ObjectId{1}).has_value());

  ASSERT_TRUE(store.put(ObjectId{5}, body_of(5, 200)));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 2u);
  EXPECT_FALSE(store.contains(ObjectId{2}));
  EXPECT_TRUE(store.contains(ObjectId{1}));
  EXPECT_LE(store.used_bytes(), store.capacity_bytes());
  EXPECT_EQ(store.stats().evictions, 1u);

  // An object whose envelope alone busts the budget is refused outright.
  EXPECT_FALSE(store.put(ObjectId{9}, body_of(9, 5 * 240)));
  EXPECT_FALSE(store.contains(ObjectId{9}));
}

TEST(DiskStoreTest, InterruptedWriteLeavesOldObjectAndSweepsTempOnReopen) {
  const std::string root = fresh_root("interrupted");
  {
    DiskStore store(opts_for(root));
    ASSERT_TRUE(store.put(ObjectId{3}, body_of(3, 100)));
    // Simulate SIGKILL mid-replacement: the temp is written partway, the
    // rename never happens.
    set_atomic_write_fault(
        [](const std::string&) { return std::optional<std::size_t>(10); });
    EXPECT_FALSE(store.put(ObjectId{3}, body_of(4, 999)));
    set_atomic_write_fault(nullptr);
    EXPECT_EQ(store.stats().io_errors, 1u);
    // The old complete object still serves.
    const auto body = store.get_body(ObjectId{3});
    ASSERT_TRUE(body.has_value());
    EXPECT_EQ(*body, body_of(3, 100));
  }
  // Reopen: the crash debris is swept, the object survives.
  DiskStore back(opts_for(root));
  EXPECT_EQ(back.object_count(), 1u);
  ASSERT_TRUE(back.get_body(ObjectId{3}).has_value());
  char dir[3];
  std::snprintf(dir, sizeof dir, "%02x", 3u);
  const std::string cmd =
      "ls '" + root + "/" + dir + "' | grep -q '.tmp.'";
  EXPECT_NE(std::system(cmd.c_str()), 0) << "temp debris not swept";
}

TEST(DiskStoreTest, RejectsIncompatibleMetaStamp) {
  const std::string root = fresh_root("meta");
  { DiskStore store(opts_for(root)); }
  {
    std::ofstream meta(root + "/meta", std::ios::trunc);
    meta << "bh.disk.v999\n";
  }
  EXPECT_THROW(DiskStore{opts_for(root)}, std::runtime_error);
}

TEST(DiskStoreTest, ConcurrentPutsGetsStayCoherent) {
  DiskStore store(opts_for(fresh_root("hammer"), 64 << 10));
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      Rng rng(500 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 400; ++i) {
        const ObjectId id{rng.next_below(64) + 1};
        if (rng.bernoulli(0.5)) {
          store.put(id, body_of(id.value, 64 + rng.next_below(128)));
        } else if (const auto body = store.get_body(id)) {
          // A served body is always complete and keyed correctly.
          EXPECT_EQ(body->view()[0], static_cast<char>('a' + id.value % 26));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_LE(store.used_bytes(), store.capacity_bytes());
  EXPECT_EQ(store.stats().corrupt_dropped, 0u);

  // The in-memory index agrees with a fresh scan of the tree.
  const std::size_t live = store.object_count();
  const std::uint64_t bytes = store.used_bytes();
  DiskStore rescan(opts_for(store.root(), 64 << 10));
  EXPECT_EQ(rescan.object_count(), live);
  EXPECT_EQ(rescan.used_bytes(), bytes);
}

TEST(DiskStoreTest, GetBodyDropsTruncatedFileAsMiss) {
  const std::string root = fresh_root("trunc");
  DiskStore store(opts_for(root));
  ASSERT_TRUE(store.put(ObjectId{9}, body_of(9, 500)));
  auto probe = store.get_body(ObjectId{9});
  ASSERT_TRUE(probe.has_value());

  // Truncate the store's one object file behind its back: the length check
  // (exact header+body size) must reject it, not serve short bytes.
  [[maybe_unused]] int rc = std::system(
      ("find '" + root + "' -type f -exec truncate -s 100 {} +").c_str());
  auto body = store.get_body(ObjectId{9});
  EXPECT_FALSE(body.has_value());
  EXPECT_FALSE(store.contains(ObjectId{9}));
  EXPECT_GE(store.stats().corrupt_dropped, 1u);
}

TEST(DiskStoreTest, AsyncDemotionBurstDrainsCompletely) {
  DiskStore::Options o = opts_for(fresh_root("async"), 4 << 20);
  o.demote_queue_depth = 512;
  DiskStore store(o);

  // A burst far wider than any single write: every accepted job must land,
  // and the enqueue itself must never block on disk I/O.
  constexpr int kJobs = 200;
  std::atomic<int> done_ok{0};
  for (int k = 1; k <= kJobs; ++k) {
    ASSERT_TRUE(store.put_async(
        ObjectId{static_cast<std::uint64_t>(k)},
        std::make_shared<const std::string>(body_of(k, 256)), 1,
        [&done_ok](bool ok) {
          if (ok) done_ok.fetch_add(1, std::memory_order_relaxed);
        }));
  }
  store.drain_async();
  EXPECT_EQ(done_ok.load(), kJobs);
  EXPECT_EQ(store.object_count(), static_cast<std::size_t>(kJobs));
  EXPECT_EQ(store.stats().async_queued, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(store.stats().async_dropped, 0u);
  EXPECT_EQ(store.async_queue_depth(), 0u);
}

TEST(DiskStoreTest, AsyncQueueOverflowShedsAndCounts) {
  // Room for all 64 bodies, so a fast writer that accepts many jobs never
  // evicts one and the count below stays exact.
  DiskStore::Options o = opts_for(fresh_root("async_shed"), 8 << 20);
  o.demote_queue_depth = 1;  // every concurrent second job overflows
  DiskStore store(o);

  int accepted = 0, shed = 0;
  for (int k = 1; k <= 64; ++k) {
    if (store.put_async(ObjectId{static_cast<std::uint64_t>(k)},
                        std::make_shared<const std::string>(
                            body_of(k, 64 * 1024)))) {
      ++accepted;
    } else {
      ++shed;
    }
  }
  store.drain_async();
  EXPECT_GT(accepted, 0);
  EXPECT_EQ(store.stats().async_dropped, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(store.stats().async_queued, static_cast<std::uint64_t>(accepted));
  // Shed demotions are simply absent; accepted ones all landed.
  EXPECT_EQ(store.object_count(), static_cast<std::size_t>(accepted));
}

// Holds the async writer inside atomic_write_file for `path` until
// release(): the test can act while a demotion is provably mid-write.
class WriteGate {
 public:
  explicit WriteGate(std::string path) {
    set_atomic_write_fault([this, path = std::move(path)](const std::string& p)
                               -> std::optional<std::size_t> {
      if (p != path) return std::nullopt;
      std::unique_lock lock(mu_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      return std::nullopt;  // then write normally
    });
  }
  ~WriteGate() {
    release();
    set_atomic_write_fault(nullptr);
  }
  void wait_entered() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void release() {
    std::lock_guard lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

std::string object_file(const std::string& root, std::uint64_t id) {
  char name[40];
  std::snprintf(name, sizeof name, "/%02llx/%016llx.obj",
                static_cast<unsigned long long>(id & 0xff),
                static_cast<unsigned long long>(id));
  return root + name;
}

TEST(DiskStoreTest, AsyncEraseCancelsQueuedDemotion) {
  const std::string root = fresh_root("async_erase_queued");
  DiskStore store(opts_for(root));
  WriteGate gate(object_file(root, 99));
  // The writer is held on object 99, so object 1's demotion stays queued.
  ASSERT_TRUE(store.put_async(ObjectId{99},
                              std::make_shared<const std::string>("x")));
  gate.wait_entered();
  std::atomic<int> outcome{-1};
  ASSERT_TRUE(store.put_async(
      ObjectId{1}, std::make_shared<const std::string>(body_of(1, 64)), 1,
      [&outcome](bool ok) { outcome = ok ? 1 : 0; }));
  EXPECT_FALSE(store.erase(ObjectId{1}));  // not on disk yet
  gate.release();
  store.drain_async();
  EXPECT_FALSE(store.contains(ObjectId{1}));
  EXPECT_FALSE(store.get_body(ObjectId{1}).has_value());
  EXPECT_EQ(outcome.load(), 0);
  EXPECT_TRUE(store.contains(ObjectId{99}));
}

TEST(DiskStoreTest, AsyncEraseCancelsInFlightDemotion) {
  const std::string root = fresh_root("async_erase_inflight");
  DiskStore store(opts_for(root));
  WriteGate gate(object_file(root, 1));
  std::atomic<int> outcome{-1};
  ASSERT_TRUE(store.put_async(
      ObjectId{1}, std::make_shared<const std::string>(body_of(1, 64)), 1,
      [&outcome](bool ok) { outcome = ok ? 1 : 0; }));
  gate.wait_entered();  // the writer is mid-write
  EXPECT_FALSE(store.erase(ObjectId{1}));
  gate.release();
  store.drain_async();
  EXPECT_FALSE(store.contains(ObjectId{1}));
  EXPECT_FALSE(store.get_body(ObjectId{1}).has_value());
  EXPECT_EQ(outcome.load(), 0);
  EXPECT_NE(::access(object_file(root, 1).c_str(), F_OK), 0);  // no file left
  // A demotion that starts after the erase lands normally.
  ASSERT_TRUE(store.put_async(ObjectId{1},
                              std::make_shared<const std::string>("new")));
  store.drain_async();
  EXPECT_EQ(store.get_body(ObjectId{1}).value_or(""), "new");
}

TEST(DiskStoreTest, StopAsyncDrainsThenRestartsLazily) {
  DiskStore store(opts_for(fresh_root("async_stop")));
  ASSERT_TRUE(store.put_async(ObjectId{1},
                              std::make_shared<const std::string>("one")));
  store.stop_async();
  EXPECT_TRUE(store.contains(ObjectId{1}));  // clean stop loses nothing

  // The writer restarts on the next enqueue.
  ASSERT_TRUE(store.put_async(ObjectId{2},
                              std::make_shared<const std::string>("two")));
  store.drain_async();
  EXPECT_TRUE(store.contains(ObjectId{2}));
}

}  // namespace
}  // namespace bh::cache
