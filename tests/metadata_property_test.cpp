// Property-style tests for the metadata hierarchy: randomized operation
// sequences checked against a ground-truth oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "hints/metadata_hierarchy.h"
#include "net/topology.h"
#include "sim/event_queue.h"

namespace bh::hints {
namespace {

ObjectId obj(std::uint64_t v) { return ObjectId{v + 1} ; }

struct Oracle {
  std::unordered_map<std::uint64_t, std::unordered_set<NodeIndex>> holders;

  bool holds(std::uint64_t o, NodeIndex n) const {
    auto it = holders.find(o);
    return it != holders.end() && it->second.count(n) > 0;
  }
};

// With synchronous propagation and no evictions/invalidations, every hint
// must name a true holder: informs are monotone, so no hint can go stale.
TEST(MetadataPropertyTest, InsertOnlyHintsAlwaysNameRealHolders) {
  const net::HierarchyTopology topo(32, 8, 4);
  sim::EventQueue queue;
  MetadataHierarchy meta(topo, {}, queue);
  Oracle oracle;
  Rng rng(404);

  for (int step = 0; step < 4000; ++step) {
    const std::uint64_t o = rng.next_below(200);
    const auto n = NodeIndex(rng.next_below(32));
    meta.inform(n, obj(o));
    oracle.holders[o].insert(n);

    if (step % 50 != 0) continue;
    for (NodeIndex leaf = 0; leaf < 32; leaf += 5) {
      for (std::uint64_t q = 0; q < 200; q += 13) {
        const auto near = meta.find_nearest(leaf, obj(q));
        if (!near) continue;
        ASSERT_NE(*near, leaf) << "hint points at the asking node";
        ASSERT_TRUE(oracle.holds(q, *near))
            << "hint names node " << *near << " which never held object " << q;
      }
    }
  }
}

// Full chaos: informs, evictions, and consistency invalidations at zero
// delay. Structural invariants: hints never point at the asking node, and a
// consistency invalidation leaves no trace of the object anywhere.
TEST(MetadataPropertyTest, ChaosMaintainsStructuralInvariants) {
  const net::HierarchyTopology topo(32, 8, 4);
  sim::EventQueue queue;
  MetadataHierarchy meta(topo, {}, queue);
  Oracle oracle;
  Rng rng(505);

  for (int step = 0; step < 6000; ++step) {
    const std::uint64_t o = rng.next_below(100);
    const auto n = NodeIndex(rng.next_below(32));
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        meta.inform(n, obj(o));
        oracle.holders[o].insert(n);
        break;
      case 2:
        if (oracle.holds(o, n)) {
          meta.invalidate(n, obj(o));
          oracle.holders[o].erase(n);
        }
        break;
      case 3:
        if (rng.next_below(10) == 0) {  // rarer: object changes server-side
          meta.invalidate_object(obj(o));
          oracle.holders.erase(o);
          for (NodeIndex leaf = 0; leaf < 32; ++leaf) {
            ASSERT_EQ(meta.find_nearest(leaf, obj(o)), std::nullopt);
          }
        }
        break;
    }
    if (step % 200 == 0) {
      for (NodeIndex leaf = 0; leaf < 32; leaf += 3) {
        for (std::uint64_t q = 0; q < 100; q += 7) {
          const auto near = meta.find_nearest(leaf, obj(q));
          if (near) {
            ASSERT_NE(*near, leaf);
          }
        }
      }
    }
  }
}

// Under synchronous removals, a hint may only name a non-holder transiently
// never — removals correct every leaf before returning. Verify: after any
// single eviction, no leaf hint names the evicted node for that object.
TEST(MetadataPropertyTest, EvictionLeavesNoDanglingPointerToTheEvictee) {
  const net::HierarchyTopology topo(32, 8, 4);
  sim::EventQueue queue;
  MetadataHierarchy meta(topo, {}, queue);
  Rng rng(606);

  for (int round = 0; round < 300; ++round) {
    const std::uint64_t o = rng.next_below(50);
    const auto a = NodeIndex(rng.next_below(32));
    const auto b = NodeIndex(rng.next_below(32));
    meta.inform(a, obj(o));
    meta.inform(b, obj(o));
    meta.invalidate(a, obj(o));
    for (NodeIndex leaf = 0; leaf < 32; ++leaf) {
      const auto near = meta.find_nearest(leaf, obj(o));
      if (near) {
        ASSERT_NE(*near, a) << "round " << round;
      }
    }
    // Clean the slate for the next round.
    meta.invalidate_object(obj(o));
  }
}

// Regression for the old uint64_t child mask: with more than 64 leaves per
// L2 group or more than 64 groups, `1ULL << slot` past bit 63 was UB that
// (on x86) aliased slot k onto slot k % 64 — a holder at slot 65 made the
// hierarchy believe slot 1 held a copy, so slot-1 leaves were never told
// about it. The NodeSet-backed entries must keep every slot distinct.
TEST(MetadataPropertyTest, WideTopologiesKeepChildSlotsDistinct) {
  // 70 leaves per group (slots past 64 within an L2) and 66 groups (slots
  // past 64 at the root).
  const net::HierarchyTopology topo(4620, 70, 1);
  sim::EventQueue queue;
  MetadataHierarchy meta(topo, {}, queue);

  // L2-level aliasing: the first copy lands at slot 65 of group 0. Every
  // other leaf of the group must learn of it — under aliasing the leaf at
  // slot 1 was skipped as a supposed holder.
  meta.inform(65, obj(1));
  const auto near_slot1 = meta.find_nearest(1, obj(1));
  ASSERT_TRUE(near_slot1.has_value()) << "slot-1 leaf never told of the copy";
  EXPECT_EQ(*near_slot1, 65u);

  // Removing a same-group second copy at slot 1 must not wipe knowledge of
  // the slot-65 holder (aliased, both lived in bit 1).
  meta.inform(1, obj(1));
  meta.invalidate(1, obj(1));
  const auto near_after = meta.find_nearest(2, obj(1));
  ASSERT_TRUE(near_after.has_value());
  EXPECT_EQ(*near_after, 65u);

  // Root-level aliasing: the first copy of a fresh object lands in group 65
  // (leaf 65*70+3). Group 1's leaves must learn of it — under aliasing
  // group 1 was skipped as a supposed holder group.
  meta.inform(65 * 70 + 3, obj(2));
  const auto near_group1 = meta.find_nearest(70, obj(2));
  ASSERT_TRUE(near_group1.has_value()) << "group-1 leaf never told of the copy";
  EXPECT_EQ(*near_group1, 65u * 70 + 3);
}

// The insert-only oracle property, re-run on the wide topology so randomized
// traffic crosses the 64-slot boundary in both dimensions.
TEST(MetadataPropertyTest, WideTopologyHintsAlwaysNameRealHolders) {
  const net::HierarchyTopology topo(4620, 70, 1);
  sim::EventQueue queue;
  MetadataHierarchy meta(topo, {}, queue);
  Oracle oracle;
  Rng rng(909);

  for (int step = 0; step < 3000; ++step) {
    const std::uint64_t o = rng.next_below(60);
    const auto n = NodeIndex(rng.next_below(4620));
    meta.inform(n, obj(o));
    oracle.holders[o].insert(n);

    if (step % 100 != 0) continue;
    for (NodeIndex leaf = 0; leaf < 4620; leaf += 301) {
      for (std::uint64_t q = 0; q < 60; q += 11) {
        const auto near = meta.find_nearest(leaf, obj(q));
        if (!near) continue;
        ASSERT_NE(*near, leaf) << "hint points at the asking node";
        ASSERT_TRUE(oracle.holds(q, *near))
            << "hint names node " << *near << " which never held object " << q;
      }
    }
  }
}

// Delayed propagation: messages in flight are allowed to create stale hints
// (priced as false positives at request time), but the system must converge
// once the queue drains, and draining must terminate.
TEST(MetadataPropertyTest, DelayedChaosConvergesWhenDrained) {
  const net::HierarchyTopology topo(32, 8, 4);
  sim::EventQueue queue;
  MetadataConfig cfg;
  cfg.hop_delay = 5.0;
  MetadataHierarchy meta(topo, cfg, queue);
  Rng rng(707);

  double t = 0;
  for (int step = 0; step < 2000; ++step) {
    t += rng.exponential(1.0);
    queue.run_until(t);
    const std::uint64_t o = rng.next_below(50);
    const auto n = NodeIndex(rng.next_below(32));
    if (rng.bernoulli(0.7)) {
      meta.inform(n, obj(o));
    } else {
      meta.invalidate(n, obj(o));
    }
  }
  queue.run_all();
  EXPECT_TRUE(queue.empty());
  // Reads must be safe after the dust settles.
  for (NodeIndex leaf = 0; leaf < 32; ++leaf) {
    for (std::uint64_t q = 0; q < 50; ++q) {
      const auto near = meta.find_nearest(leaf, obj(q));
      if (near) {
        EXPECT_NE(*near, leaf);
      }
    }
  }
}

// An L2 entry that names no copy and no external location is still an
// entry: the root's correction after a removal installs an external pointer
// only in groups with no entry at all. This delayed stream (found by random
// search) leaves group 0 with such an entry when the correction for leaf 1's
// removal arrives, so group 0 keeps no external pointer and its next first
// copy goes up to the root. Had the entry counted as absent, group 0 would
// point at leaf 2 and the root would hear one update fewer.
TEST(MetadataPropertyTest, EmptyGroupEntryStopsTheRootsCorrection) {
  const net::HierarchyTopology topo(4, 2, 1);
  sim::EventQueue queue;
  MetadataConfig cfg;
  cfg.hop_delay = 0.5;
  MetadataHierarchy meta(topo, cfg, queue);
  struct Op {
    SimTime at;
    bool inform;
    NodeIndex leaf;
  };
  const Op ops[] = {{0.4072, true, 2},  {0.4987, false, 2}, {2.746, true, 2},
                    {2.8845, false, 2}, {2.981, true, 1},   {3.238, true, 2},
                    {3.7215, false, 1}, {4.04, true, 0}};
  for (const Op& op : ops) {
    queue.run_until(op.at);
    if (op.inform) {
      meta.inform(op.leaf, obj(0));
    } else {
      meta.invalidate(op.leaf, obj(0));
    }
  }
  queue.run_all();
  meta.invalidate(0, obj(0));
  queue.run_all();
  EXPECT_EQ(meta.root_updates(), 7u);
  meta.inform(1, obj(0));  // group 0's first copy again
  queue.run_all();
  EXPECT_EQ(meta.root_updates(), 8u);
  EXPECT_EQ(meta.total_messages(), 47u);
  EXPECT_EQ(meta.find_nearest(0, obj(0)), std::optional<NodeIndex>(1));
  EXPECT_EQ(meta.find_nearest(3, obj(0)), std::nullopt);
}

// --- pinned observable state ----------------------------------------------

// One hierarchy shape for the pinned digest below.
struct DigestSetup {
  const char* name;
  std::uint32_t num_l1;
  std::uint32_t l1_per_l2;
  SimTime hop_delay;
  std::uint64_t leaf_hint_bytes;
};

// Folds 64-bit words into an FNV-1a hash, a byte at a time.
struct Fnv64 {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
};

// Replays a seeded stream of informs, evictions and consistency
// invalidations shaped like a cache's (a leaf informs only while it lacks a
// copy and evicts only what it holds), and digests what every leaf would
// answer for every object at checkpoints and after the queue drains, plus
// the three message counters.
std::uint64_t digest_stream(const DigestSetup& s, std::uint64_t seed) {
  const net::HierarchyTopology topo(s.num_l1, s.l1_per_l2, 1);
  sim::EventQueue queue;
  MetadataHierarchy meta(topo, MetadataConfig{s.leaf_hint_bytes, s.hop_delay},
                         queue);
  constexpr std::uint64_t kObjects = 96;
  std::vector<std::vector<NodeIndex>> holders(kObjects);
  const auto holds = [&](std::uint64_t o, NodeIndex n) {
    return std::find(holders[o].begin(), holders[o].end(), n) !=
           holders[o].end();
  };
  Rng rng(seed);
  Fnv64 digest;
  const auto fold_state = [&] {
    for (NodeIndex leaf = 0; leaf < s.num_l1; ++leaf) {
      for (std::uint64_t q = 0; q < kObjects; ++q) {
        const auto near = meta.find_nearest(leaf, obj(q));
        digest.add(near ? *near : kInvalidNode);
      }
    }
    digest.add(meta.root_updates());
    digest.add(meta.leaf_updates());
    digest.add(meta.total_messages());
  };

  double t = 0;
  for (int step = 1; step <= 6000; ++step) {
    if (s.hop_delay > 0) {
      t += rng.exponential(s.hop_delay / 2);
      queue.run_until(t);
    }
    const std::uint64_t o = rng.next_below(kObjects);
    const std::uint64_t op = rng.next_below(100);
    if (op < 58) {
      const auto n = NodeIndex(rng.next_below(s.num_l1));
      if (!holds(o, n)) {
        meta.inform(n, obj(o));
        holders[o].push_back(n);
      }
    } else if (op < 98) {
      if (!holders[o].empty()) {
        const std::size_t i = rng.next_below(holders[o].size());
        const NodeIndex n = holders[o][i];
        holders[o][i] = holders[o].back();
        holders[o].pop_back();
        meta.invalidate(n, obj(o));
      }
    } else {
      meta.invalidate_object(obj(o));
      holders[o].clear();
    }
    if (step % 1000 == 0) fold_state();
  }
  queue.run_all();
  fold_state();
  return digest.h;
}

// Pins what the hierarchy answers, and what it sends, across the shapes that
// exercise its corners: a partial last L2 group, a group wider than 64
// slots, delayed propagation drained at the end, and bounded leaves small
// enough (one 4-way set) that conflict evictions happen constantly. A change
// to how the hierarchy stores its state must leave every digest unchanged.
TEST(MetadataPropertyTest, PinnedHintStateDigest) {
  constexpr std::uint64_t kBounded = 64;
  const DigestSetup setups[] = {
      {"66x8/sync/unbounded", 66, 8, 0.0, kUnlimitedBytes},
      {"66x8/sync/64B", 66, 8, 0.0, kBounded},
      {"66x8/0.5s/unbounded", 66, 8, 0.5, kUnlimitedBytes},
      {"66x8/0.5s/64B", 66, 8, 0.5, kBounded},
      {"130x130/sync/unbounded", 130, 130, 0.0, kUnlimitedBytes},
      {"130x130/sync/64B", 130, 130, 0.0, kBounded},
      {"130x130/0.5s/unbounded", 130, 130, 0.5, kUnlimitedBytes},
      {"130x130/0.5s/64B", 130, 130, 0.5, kBounded},
  };
  const std::uint64_t pinned[] = {
      0x04e9927fcb18e956, 0x6bad97a25640cd71, 0x40e9408b854acc84,
      0x7e720de73ddd18d1, 0xb27c5400d082415b, 0x415891ba6e6e2a1f,
      0x0bed19d31d7448ed, 0xceea87cec32b6613,
  };
  static_assert(std::size(setups) == std::size(pinned));
  for (std::size_t i = 0; i < std::size(setups); ++i) {
    const std::uint64_t got = digest_stream(setups[i], 1700 + i);
    EXPECT_EQ(got, pinned[i]) << setups[i].name << ": 0x" << std::hex << got;
  }
}

}  // namespace
}  // namespace bh::hints
