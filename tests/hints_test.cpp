// Tests for the hint-cache data structure and the metadata hierarchy.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/fs_util.h"
#include "common/rng.h"
#include "hints/hint_cache.h"
#include "hints/metadata_hierarchy.h"
#include "net/topology.h"
#include "sim/event_queue.h"

namespace bh::hints {
namespace {

ObjectId obj(std::uint64_t v) { return ObjectId{v}; }
MachineId loc(std::uint64_t v) { return MachineId{v}; }

// --- machine id packing ---

TEST(MachineIdTest, RoundTrip) {
  for (NodeIndex n : {0u, 1u, 63u, 1000u}) {
    EXPECT_EQ(node_of_machine(machine_of_node(n)), n);
  }
}

TEST(MachineIdTest, CarriesPort3128) {
  EXPECT_EQ(machine_of_node(5).value & 0xFFFFFFFFu, 3128u);
}

// --- associative hint cache ---

TEST(HintCacheTest, RecordIsSixteenBytes) {
  EXPECT_EQ(sizeof(HintRecord), 16u);
}

TEST(HintCacheTest, CapacityRoundsToSets) {
  AssociativeHintCache c(1000);  // 1000/64 = 15 sets
  EXPECT_EQ(c.capacity_entries(), 15u * 4u);
  EXPECT_EQ(c.capacity_bytes(), 15u * 64u);
  AssociativeHintCache tiny(1);  // at least one set
  EXPECT_EQ(tiny.capacity_entries(), 4u);
}

TEST(HintCacheTest, InsertLookupErase) {
  AssociativeHintCache c(1_MB);
  EXPECT_EQ(c.lookup(obj(42)), std::nullopt);
  c.insert(obj(42), loc(7));
  ASSERT_TRUE(c.lookup(obj(42)).has_value());
  EXPECT_EQ(c.lookup(obj(42))->value, 7u);
  EXPECT_EQ(c.entry_count(), 1u);
  EXPECT_TRUE(c.erase(obj(42)));
  EXPECT_EQ(c.lookup(obj(42)), std::nullopt);
  EXPECT_FALSE(c.erase(obj(42)));
  EXPECT_EQ(c.entry_count(), 0u);
}

TEST(HintCacheTest, InsertReplacesLocationInPlace) {
  AssociativeHintCache c(1_MB);
  c.insert(obj(42), loc(7));
  c.insert(obj(42), loc(9));
  EXPECT_EQ(c.lookup(obj(42))->value, 9u);
  EXPECT_EQ(c.entry_count(), 1u);
}

TEST(HintCacheTest, InvalidKeyIsIgnored) {
  AssociativeHintCache c(1_MB);
  c.insert(obj(kInvalidHintKey), loc(1));
  EXPECT_EQ(c.entry_count(), 0u);
  EXPECT_EQ(c.lookup(obj(kInvalidHintKey)), std::nullopt);
}

TEST(HintCacheTest, SetConflictEvictsLruEntry) {
  // A single-set cache: the fifth distinct key must displace the least
  // recently touched of the four.
  AssociativeHintCache c(64);  // one 4-way set
  for (std::uint64_t k = 1; k <= 4; ++k) c.insert(obj(k), loc(k));
  EXPECT_EQ(c.entry_count(), 4u);
  c.lookup(obj(1));  // touch 1; LRU is now 2
  c.insert(obj(5), loc(5));
  EXPECT_EQ(c.entry_count(), 4u);
  EXPECT_TRUE(c.lookup(obj(1)).has_value());
  EXPECT_FALSE(c.lookup(obj(2)).has_value());
  EXPECT_TRUE(c.lookup(obj(5)).has_value());
  EXPECT_EQ(c.stats().conflict_evictions, 1u);
}

TEST(HintCacheTest, StatsCountLookupsAndHits) {
  AssociativeHintCache c(1_MB);
  c.insert(obj(1), loc(1));
  c.lookup(obj(1));
  c.lookup(obj(2));
  EXPECT_EQ(c.stats().lookups, 2u);
  EXPECT_EQ(c.stats().hits, 1u);
  EXPECT_EQ(c.stats().inserts, 1u);
}

TEST(HintCacheTest, ManyEntriesSurviveInLargeCache) {
  AssociativeHintCache c(10_MB);  // 655k entries
  const std::uint64_t n = 100000;
  for (std::uint64_t k = 1; k <= n; ++k) c.insert(obj(k * 977 + 1), loc(k));
  std::uint64_t present = 0;
  for (std::uint64_t k = 1; k <= n; ++k) {
    present += c.lookup(obj(k * 977 + 1)).has_value();
  }
  // With 15% load factor, only a tiny fraction can be conflict casualties.
  EXPECT_GT(present, n * 97 / 100);
}

TEST(HintCacheTest, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "/bh_hints_test.img";
  AssociativeHintCache c(4096);
  for (std::uint64_t k = 1; k <= 50; ++k) c.insert(obj(k), loc(k * 3));
  c.save(path);
  AssociativeHintCache back = AssociativeHintCache::load(path);
  EXPECT_EQ(back.capacity_entries(), c.capacity_entries());
  EXPECT_EQ(back.entry_count(), c.entry_count());
  for (std::uint64_t k = 1; k <= 50; ++k) {
    auto h = back.lookup(obj(k));
    ASSERT_TRUE(h.has_value()) << k;
    EXPECT_EQ(h->value, k * 3);
  }
}

TEST(HintCacheTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/bh_hints_garbage.img";
  {
    std::ofstream f(path, std::ios::binary);
    f << "junk";
  }
  EXPECT_THROW(AssociativeHintCache::load(path), std::runtime_error);
}

// Regression: the old image format dumped only the record array, losing the
// per-slot recency that picks conflict-eviction victims. After a restore,
// the first insert into a full set must evict the true least-recently-used
// record, not whichever slot the scan happens to reach first.
TEST(HintCacheTest, SaveLoadPreservesEvictionRecency) {
  const std::string path = ::testing::TempDir() + "/bh_hints_recency.img";
  AssociativeHintCache c(64);  // exactly one 4-way set
  ASSERT_EQ(c.capacity_entries(), 4u);
  // Fill the set in order a, b, c, d, then touch a — b is now the LRU.
  for (std::uint64_t k = 1; k <= 4; ++k) c.insert(obj(k), loc(k * 10));
  ASSERT_TRUE(c.lookup(obj(1)).has_value());

  c.save(path);
  AssociativeHintCache back = AssociativeHintCache::load(path);

  back.insert(obj(5), loc(50));  // full set: must displace b (= obj 2)
  EXPECT_FALSE(back.lookup(obj(2)).has_value()) << "true LRU survived";
  for (std::uint64_t k : {1u, 3u, 4u, 5u}) {
    EXPECT_TRUE(back.lookup(obj(k)).has_value()) << "lost obj " << k;
  }
}

TEST(HintCacheTest, LoadRejectsTruncatedImage) {
  const std::string full = ::testing::TempDir() + "/bh_hints_full.img";
  const std::string cut = ::testing::TempDir() + "/bh_hints_cut.img";
  AssociativeHintCache c(4096);
  for (std::uint64_t k = 1; k <= 20; ++k) c.insert(obj(k), loc(k));
  c.save(full);

  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(AssociativeHintCache::load(cut), std::runtime_error);
}

TEST(HintCacheTest, LoadRejectsVersionMismatch) {
  const std::string path = ::testing::TempDir() + "/bh_hints_version.img";
  AssociativeHintCache c(4096);
  c.insert(obj(1), loc(2));
  c.save(path);

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[8] = 99;  // the version field follows the 8-byte magic
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(AssociativeHintCache::load(path), std::runtime_error);
}

// --- crash-atomic save / granular load errors ---

std::string load_error(const std::string& path) {
  try {
    AssociativeHintCache::load(path);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// A crash mid-save (simulated by the fault hook: the write stops partway and
// the rename never happens) must leave the previous image byte-identical and
// loadable — the torn-write bug this save path used to have.
TEST(HintCacheTest, SaveIsCrashAtomic) {
  const std::string path = ::testing::TempDir() + "/bh_hints_atomic.img";
  AssociativeHintCache c(4096);
  for (std::uint64_t k = 1; k <= 20; ++k) c.insert(obj(k), loc(k * 3));
  c.save(path);
  const std::string before = read_raw(path);

  for (std::uint64_t k = 21; k <= 40; ++k) c.insert(obj(k), loc(k * 3));
  set_atomic_write_fault([&](const std::string& target) {
    return target == path ? std::optional<std::size_t>(before.size() / 2)
                          : std::nullopt;
  });
  EXPECT_THROW(c.save(path), std::runtime_error);
  set_atomic_write_fault(nullptr);

  EXPECT_EQ(read_raw(path), before) << "interrupted save damaged the image";
  AssociativeHintCache back = AssociativeHintCache::load(path);
  EXPECT_EQ(back.entry_count(), 20u);

  // With the hook gone the same save completes and replaces the image whole.
  c.save(path);
  EXPECT_EQ(AssociativeHintCache::load(path).entry_count(), 40u);
}

TEST(HintCacheTest, LoadFailureModesAreDistinct) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/bh_hints_modes.img";
  AssociativeHintCache c(4096);
  for (std::uint64_t k = 1; k <= 20; ++k) c.insert(obj(k), loc(k));
  c.save(good);
  const std::string bytes = read_raw(good);

  EXPECT_NE(load_error(dir + "/bh_hints_missing.img").find("cannot open"),
            std::string::npos);

  const std::string header_cut = dir + "/bh_hints_header_cut.img";
  write_raw(header_cut, bytes.substr(0, 10));
  EXPECT_NE(load_error(header_cut).find("truncated header"),
            std::string::npos);

  const std::string foreign = dir + "/bh_hints_foreign.img";
  write_raw(foreign, std::string(4096, 'z'));
  EXPECT_NE(load_error(foreign).find("not a hint image"), std::string::npos);

  const std::string version = dir + "/bh_hints_vers.img";
  std::string v = bytes;
  v[8] = 99;  // version field follows the 8-byte magic
  write_raw(version, v);
  EXPECT_NE(load_error(version).find("version mismatch"), std::string::npos);

  const std::string record_cut = dir + "/bh_hints_record_cut.img";
  write_raw(record_cut, bytes.substr(0, 32 + 100));  // header + partial records
  EXPECT_NE(load_error(record_cut).find("truncated record region"),
            std::string::npos);

  const std::string recency_cut = dir + "/bh_hints_recency_cut.img";
  write_raw(recency_cut, bytes.substr(0, bytes.size() - 8));
  EXPECT_NE(load_error(recency_cut).find("truncated recency region"),
            std::string::npos);
}

// restore() must have the strong guarantee: a failed restore leaves the
// in-memory cache exactly as it was (the old in-place-parse could not).
TEST(HintCacheTest, RestoreLeavesCacheUntouchedOnFailure) {
  const std::string dir = ::testing::TempDir();
  const std::string good = dir + "/bh_hints_restore_good.img";
  const std::string bad = dir + "/bh_hints_restore_bad.img";

  AssociativeHintCache saved(4096);
  for (std::uint64_t k = 1; k <= 10; ++k) saved.insert(obj(k), loc(k * 7));
  saved.save(good);
  write_raw(bad, read_raw(good).substr(0, 40));  // truncated mid-records

  AssociativeHintCache live(4096);
  for (std::uint64_t k = 100; k < 130; ++k) live.insert(obj(k), loc(k));
  EXPECT_THROW(live.restore(bad), std::runtime_error);
  EXPECT_EQ(live.entry_count(), 30u);
  for (std::uint64_t k = 100; k < 130; ++k) {
    EXPECT_TRUE(live.lookup(obj(k)).has_value()) << k;
  }

  live.restore(good);
  EXPECT_EQ(live.entry_count(), 10u);
  EXPECT_EQ(live.lookup(obj(3))->value, 21u);
  EXPECT_FALSE(live.lookup(obj(100)).has_value());
}

// for_each enumerates LRU -> MRU, so replaying into a fresh cache through
// insert() preserves which record a future set conflict will evict.
TEST(HintCacheTest, ForEachEnumeratesInRecencyOrder) {
  AssociativeHintCache c(64);  // one 4-way set
  for (std::uint64_t k = 1; k <= 4; ++k) c.insert(obj(k), loc(k));
  ASSERT_TRUE(c.lookup(obj(2)).has_value());  // obj 1 is now the LRU

  std::vector<std::uint64_t> order;
  c.for_each([&](ObjectId id, MachineId) { order.push_back(id.value); });
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 1u);
  EXPECT_EQ(order.back(), 2u);

  AssociativeHintCache replay(64);
  for (const std::uint64_t k : order) replay.insert(obj(k), loc(k));
  replay.insert(obj(5), loc(5));  // conflict: must evict the true LRU, obj 1
  EXPECT_FALSE(replay.lookup(obj(1)).has_value());
  EXPECT_TRUE(replay.lookup(obj(2)).has_value());
}

TEST(UnboundedHintStoreTest, Basics) {
  UnboundedHintStore s;
  EXPECT_EQ(s.lookup(obj(1)), std::nullopt);
  s.insert(obj(1), loc(2));
  EXPECT_EQ(s.lookup(obj(1))->value, 2u);
  EXPECT_EQ(s.entry_count(), 1u);
  EXPECT_TRUE(s.erase(obj(1)));
  EXPECT_EQ(s.entry_count(), 0u);
}

TEST(HintStoreFactoryTest, SelectsByCapacity) {
  auto bounded = make_hint_store(1_MB);
  auto unbounded = make_hint_store(kUnlimitedBytes);
  EXPECT_NE(dynamic_cast<AssociativeHintCache*>(bounded.get()), nullptr);
  EXPECT_NE(dynamic_cast<UnboundedHintStore*>(unbounded.get()), nullptr);
}

// --- metadata hierarchy ---

struct Hier {
  net::HierarchyTopology topo{16, 4, 4};  // 16 leaves, 4 groups
  sim::EventQueue queue;
  MetadataHierarchy meta;

  explicit Hier(MetadataConfig cfg = {})
      : meta(topo, cfg, queue) {}
};

TEST(MetadataHierarchyTest, FirstCopyPropagatesEverywhere) {
  Hier h;
  h.meta.inform(0, obj(99));
  for (NodeIndex n = 1; n < 16; ++n) {
    auto near = h.meta.find_nearest(n, obj(99));
    ASSERT_TRUE(near.has_value()) << "leaf " << n;
    EXPECT_EQ(*near, 0u);
  }
  // The origin leaf has no hint about itself.
  EXPECT_EQ(h.meta.find_nearest(0, obj(99)), std::nullopt);
  EXPECT_EQ(h.meta.root_updates(), 1u);
}

TEST(MetadataHierarchyTest, SecondCopyInSameSubtreeIsFiltered) {
  Hier h;
  h.meta.inform(0, obj(99));
  const auto msgs_before = h.meta.total_messages();
  // Leaf 1 (same L2 group as 0) pulls a copy: its hint points at 0, so the
  // update must die at the leaf and nothing new reaches the root.
  h.meta.inform(1, obj(99));
  EXPECT_EQ(h.meta.root_updates(), 1u);
  EXPECT_EQ(h.meta.total_messages(), msgs_before);
}

TEST(MetadataHierarchyTest, CopyInOtherSubtreeUpdatesItsGroupOnly) {
  Hier h;
  h.meta.inform(0, obj(99));
  h.meta.inform(8, obj(99));  // group 2
  // Leaves in group 2 now prefer the near copy at 8.
  EXPECT_EQ(*h.meta.find_nearest(9, obj(99)), 8u);
  EXPECT_EQ(*h.meta.find_nearest(11, obj(99)), 8u);
  // Leaves in group 0 keep pointing at 0 (their near copy).
  EXPECT_EQ(*h.meta.find_nearest(1, obj(99)), 0u);
}

TEST(MetadataHierarchyTest, SequentialEvictionDropsHintsInOrphanedGroup) {
  Hier h;
  h.meta.inform(0, obj(99));
  h.meta.inform(8, obj(99));  // filtered upward: the root never learns of it
  h.meta.invalidate(0, obj(99));
  // Group-0 leaves lose their hint (the root knew no other copy) and will
  // self-heal on the next demand fetch; group-2 leaves keep their near copy.
  EXPECT_EQ(h.meta.find_nearest(1, obj(99)), std::nullopt);
  EXPECT_EQ(*h.meta.find_nearest(9, obj(99)), 8u);
}

TEST(MetadataHierarchyTest, EvictionAdvertisesNextBestLocation) {
  // Two copies appear concurrently (before propagation), so both register at
  // the root; evicting one must fail the system over to the other.
  MetadataConfig cfg;
  cfg.hop_delay = 1.0;
  Hier h(cfg);
  h.meta.inform(0, obj(99));
  h.meta.inform(8, obj(99));
  h.queue.run_until(100.0);  // let everything settle
  h.meta.invalidate(0, obj(99));
  h.queue.run_until(200.0);
  auto near = h.meta.find_nearest(1, obj(99));
  ASSERT_TRUE(near.has_value());
  EXPECT_EQ(*near, 8u);
}

TEST(MetadataHierarchyTest, LastEvictionForgetsObject) {
  Hier h;
  h.meta.inform(0, obj(99));
  h.meta.invalidate(0, obj(99));
  for (NodeIndex n = 0; n < 16; ++n) {
    EXPECT_EQ(h.meta.find_nearest(n, obj(99)), std::nullopt) << n;
  }
}

TEST(MetadataHierarchyTest, ConsistencyInvalidationWipesHints) {
  Hier h;
  h.meta.inform(0, obj(99));
  h.meta.inform(8, obj(99));
  h.meta.invalidate_object(obj(99));
  for (NodeIndex n = 0; n < 16; ++n) {
    EXPECT_EQ(h.meta.find_nearest(n, obj(99)), std::nullopt) << n;
  }
}

TEST(MetadataHierarchyTest, NearestPrefersOwnSubtree) {
  Hier h;
  h.meta.inform(12, obj(5));  // group 3
  EXPECT_EQ(*h.meta.find_nearest(1, obj(5)), 12u);
  h.meta.inform(2, obj(5));  // group 0: nearer for leaf 1
  EXPECT_EQ(*h.meta.find_nearest(1, obj(5)), 2u);
}

TEST(MetadataHierarchyTest, RootSeesFractionOfUpdates) {
  Hier h;
  // Copies of 50 objects appear at several leaves each.
  for (std::uint64_t o = 1; o <= 50; ++o) {
    h.meta.inform(static_cast<NodeIndex>(o % 16), obj(o));
    h.meta.inform(static_cast<NodeIndex>((o + 5) % 16), obj(o));
    h.meta.inform(static_cast<NodeIndex>((o + 9) % 16), obj(o));
  }
  EXPECT_EQ(h.meta.leaf_updates(), 150u);
  // The hierarchy filters: the root hears far fewer than all updates.
  EXPECT_LT(h.meta.root_updates(), h.meta.leaf_updates() / 2);
  EXPECT_GE(h.meta.root_updates(), 50u);  // at least the first copies
}

TEST(MetadataHierarchyTest, DelayedPropagationArrivesAfterDelay) {
  MetadataConfig cfg;
  cfg.hop_delay = 10.0;
  Hier h(cfg);
  h.meta.inform(0, obj(7));
  // Nothing visible yet anywhere else.
  EXPECT_EQ(h.meta.find_nearest(9, obj(7)), std::nullopt);
  // After one hop (leaf->L2) siblings still don't know; the full path to a
  // distant group is leaf -> L2 -> root -> L2 -> leaf = 4 hops.
  h.queue.run_until(15.0);
  EXPECT_EQ(h.meta.find_nearest(9, obj(7)), std::nullopt);
  h.queue.run_until(100.0);
  ASSERT_TRUE(h.meta.find_nearest(9, obj(7)).has_value());
  EXPECT_EQ(*h.meta.find_nearest(9, obj(7)), 0u);
  // Same-group sibling needed only 2 hops.
  EXPECT_EQ(*h.meta.find_nearest(1, obj(7)), 0u);
}

TEST(MetadataHierarchyTest, BoundedLeafStoresLoseHints) {
  MetadataConfig cfg;
  cfg.leaf_hint_bytes = 64;  // one 4-way set per leaf
  Hier h(cfg);
  for (std::uint64_t o = 1; o <= 100; ++o) {
    h.meta.inform(static_cast<NodeIndex>(o % 4), obj(o * 31 + 7));
  }
  // A leaf in another group can remember at most 4 of the 100.
  std::size_t remembered = 0;
  for (std::uint64_t o = 1; o <= 100; ++o) {
    remembered += h.meta.find_nearest(12, obj(o * 31 + 7)).has_value();
  }
  EXPECT_LE(remembered, 4u);
}

// An unbounded leaf store is a view of one slot of its group's rows. Driven
// through the HintStore interface it must behave exactly like a standalone
// UnboundedHintStore, per leaf, for ids that share rows across leaves and
// ids at both ends of the key space.
TEST(MetadataHierarchyTest, UnboundedLeafViewMatchesUnboundedStore) {
  const net::HierarchyTopology topo(20, 8, 1);  // groups of 8, 8 and 4
  sim::EventQueue queue;
  MetadataHierarchy meta(topo, {}, queue);
  std::vector<UnboundedHintStore> model(topo.num_l1());
  const std::vector<std::uint64_t> keys = {0,  1,  2,  3,  5,  8,  13, 21,
                                           34, 55, 89, ~std::uint64_t{0}};
  const auto contents = [](const HintStore& s) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    s.for_each([&](ObjectId id, MachineId m) {
      out.emplace_back(id.value, m.value);
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const auto leaf = NodeIndex(rng.next_below(topo.num_l1()));
    const ObjectId id{keys[rng.next_below(keys.size())]};
    HintStore& view = meta.leaf_store(leaf);
    switch (rng.next_below(3)) {
      case 0: {
        const MachineId m =
            machine_of_node(NodeIndex(rng.next_below(topo.num_l1())));
        view.insert(id, m);
        model[leaf].insert(id, m);
        break;
      }
      case 1:
        ASSERT_EQ(view.erase(id), model[leaf].erase(id)) << "step " << step;
        break;
      case 2:
        break;
    }
    ASSERT_EQ(view.lookup(id), model[leaf].lookup(id)) << "step " << step;
    if (step % 500 == 0) {
      for (NodeIndex l = 0; l < topo.num_l1(); ++l) {
        ASSERT_EQ(meta.leaf_store(l).entry_count(), model[l].entry_count());
        ASSERT_EQ(contents(meta.leaf_store(l)), contents(model[l]));
      }
    }
  }
  for (NodeIndex l = 0; l < topo.num_l1(); ++l) {
    for (const std::uint64_t k : keys) meta.leaf_store(l).erase(ObjectId{k});
    EXPECT_EQ(meta.leaf_store(l).entry_count(), 0u);
  }
  EXPECT_EQ(meta.rows_in_use(), 0u);
}

// A group row lives while any slot or any metadata in it is live, and a
// freed row is reused before the slab grows.
TEST(MetadataHierarchyTest, GroupRowsAreReleasedAndReused) {
  Hier h;  // groups of 4 leaves
  HintStore& a = h.meta.leaf_store(0);
  HintStore& b = h.meta.leaf_store(1);
  a.insert(obj(1), machine_of_node(5));
  b.insert(obj(1), machine_of_node(9));
  EXPECT_EQ(h.meta.rows_in_use(), 1u);  // both leaves share the row
  EXPECT_TRUE(a.erase(obj(1)));
  EXPECT_EQ(h.meta.rows_in_use(), 1u);  // b's slot is still live
  EXPECT_TRUE(b.erase(obj(1)));
  EXPECT_EQ(h.meta.rows_in_use(), 0u);  // the last live slot frees it
  EXPECT_FALSE(b.erase(obj(1)));

  const std::size_t allocated = h.meta.rows_allocated();
  a.insert(obj(2), machine_of_node(3));
  EXPECT_EQ(h.meta.rows_in_use(), 1u);
  EXPECT_EQ(h.meta.rows_allocated(), allocated);  // the freed row, reused
  EXPECT_EQ(a.lookup(obj(2)), machine_of_node(3));
  EXPECT_EQ(b.lookup(obj(2)), std::nullopt);  // and blank for the new object
  EXPECT_TRUE(a.erase(obj(2)));

  // Metadata keeps a row alive after every hint in it is gone; the object's
  // invalidation frees it with the root's row.
  h.meta.inform(0, obj(3));
  for (NodeIndex n = 1; n < 4; ++n) {
    EXPECT_TRUE(h.meta.leaf_store(n).erase(obj(3)));
  }
  EXPECT_GT(h.meta.rows_in_use(), 0u);
  h.meta.invalidate_object(obj(3));
  EXPECT_EQ(h.meta.rows_in_use(), 0u);
}

}  // namespace
}  // namespace bh::hints
