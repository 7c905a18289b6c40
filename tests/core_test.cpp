// Tests for the hint-hierarchy cache system and push caching.
#include <gtest/gtest.h>

#include "core/hint_system.h"
#include "net/cost_model.h"
#include "net/topology.h"
#include "sim/event_queue.h"

namespace bh::core {
namespace {

trace::Record req(std::uint64_t object, ClientIndex client,
                  std::uint32_t size = 8192, Version version = 1) {
  trace::Record r;
  r.type = trace::RecordType::kRequest;
  r.object = ObjectId{object};
  r.client = client;
  r.size = size;
  r.version = version;
  return r;
}

trace::Record modify(std::uint64_t object, Version version,
                     std::uint32_t size = 8192) {
  trace::Record r;
  r.type = trace::RecordType::kModify;
  r.object = ObjectId{object};
  r.version = version;
  r.size = size;
  return r;
}

struct Fixture {
  net::HierarchyTopology topo{16, 4, 4};
  net::RousskovCostModel cost = net::RousskovCostModel::min();
  sim::EventQueue queue;
  HintSystem sys;

  explicit Fixture(HintSystemConfig cfg = {}) : sys(topo, cost, cfg, queue) {}
};

TEST(HintSystemTest, MissGoesStraightToServer) {
  Fixture f;
  auto out = f.sys.handle_request(req(1, 0));
  EXPECT_EQ(out.source, Source::kServer);
  // via-L1 miss (641) plus the in-memory hint lookup (4.3 us) — no hierarchy
  // traversal: misses are not slowed down.
  EXPECT_NEAR(out.latency, 641, 0.01);
  EXPECT_FALSE(out.hint_false_negative);
}

TEST(HintSystemTest, LocalHitCostsLeafAccess) {
  Fixture f;
  f.sys.handle_request(req(1, 0));
  auto out = f.sys.handle_request(req(1, 0));
  EXPECT_EQ(out.source, Source::kL1);
  EXPECT_DOUBLE_EQ(out.latency, 163);
}

TEST(HintSystemTest, RemoteHitUsesDirectTransfer) {
  Fixture f;
  f.sys.handle_request(req(1, 0));  // copy at L1 0
  // Client 4 -> L1 1, same subtree: via_l1_hit(2) = 271 (+ lookup).
  auto out = f.sys.handle_request(req(1, 4));
  EXPECT_EQ(out.source, Source::kRemoteL2);
  EXPECT_NEAR(out.latency, 271, 0.01);

  // Client 32 -> L1 8, other subtree: nearest is now its own group? No —
  // the L1-1 copy just landed; L1 8's hint still points at L1 0 or 1, both
  // at root distance: via_l1_hit(3) = 411 (+ lookup).
  out = f.sys.handle_request(req(1, 32));
  EXPECT_EQ(out.source, Source::kRemoteL3);
  EXPECT_NEAR(out.latency, 411, 0.01);
}

TEST(HintSystemTest, HintsPreferNearbyCopies) {
  Fixture f;
  f.sys.handle_request(req(1, 32));  // copy at L1 8 (group 2)
  f.sys.handle_request(req(1, 0));   // L1 0 fetches remotely; copy at L1 0 too
  // Client 4 -> L1 1: its group's copy (L1 0) wins over L1 8.
  auto out = f.sys.handle_request(req(1, 4));
  EXPECT_EQ(out.source, Source::kRemoteL2);
}

TEST(HintSystemTest, FalsePositiveProbesThenGoesToServer) {
  Fixture f;
  f.sys.handle_request(req(1, 0));  // copy at L1 0; everyone has hints
  // Make the copy disappear without telling anyone: version guard makes the
  // hinted holder stale.
  auto out = f.sys.handle_request(req(1, 4, 8192, /*version=*/2));
  EXPECT_TRUE(out.hint_false_positive);
  EXPECT_EQ(out.source, Source::kServer);
  // Error probe at intermediate distance (50+70) + via-L1 miss (641).
  EXPECT_NEAR(out.latency, 120 + 641, 0.01);
  // The bogus hint was dropped: the next miss pays no probe.
  out = f.sys.handle_request(req(2, 4));
  EXPECT_FALSE(out.hint_false_positive);
}

TEST(HintSystemTest, FalseNegativeIsDetected) {
  HintSystemConfig cfg;
  cfg.hint_hop_delay = 1e6;  // hints effectively never propagate
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));
  auto out = f.sys.handle_request(req(1, 32));
  EXPECT_EQ(out.source, Source::kServer);
  EXPECT_TRUE(out.hint_false_negative);
}

TEST(HintSystemTest, ModifyInvalidatesCopiesAndHints) {
  Fixture f;
  f.sys.handle_request(req(1, 0));
  f.sys.handle_request(req(1, 4));
  f.sys.handle_modify(modify(1, 2));
  auto out = f.sys.handle_request(req(1, 8, 8192, 2));
  EXPECT_EQ(out.source, Source::kServer);
  EXPECT_FALSE(out.hint_false_positive);  // hints were wiped, not stale
}

TEST(HintSystemTest, EvictionInvalidatesHintsEventually) {
  HintSystemConfig cfg;
  cfg.l1_capacity = 10000;
  Fixture f(cfg);
  for (std::uint64_t o = 1; o <= 5; ++o) f.sys.handle_request(req(o, 0, 4000));
  // Object 1 fell out of L1 0 — the only copy. A far client's request must
  // not find a live hint (the removal propagated synchronously).
  auto out = f.sys.handle_request(req(1, 32, 4000));
  EXPECT_EQ(out.source, Source::kServer);
  EXPECT_FALSE(out.hint_false_positive);
}

TEST(HintSystemTest, ClientDirectSkipsTheProxyWrap) {
  HintSystemConfig cfg;
  cfg.client_direct = true;
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));
  // direct_hit(2) = 180 instead of via_l1_hit(2) = 271.
  auto out = f.sys.handle_request(req(1, 4));
  EXPECT_EQ(out.source, Source::kRemoteL2);
  EXPECT_NEAR(out.latency, 180, 0.01);
  // Misses go direct too: 550 instead of 641.
  out = f.sys.handle_request(req(2, 4));
  EXPECT_NEAR(out.latency, 550, 0.01);
}

TEST(HintSystemTest, ClientFalseNegativesForceServerFetches) {
  HintSystemConfig cfg;
  cfg.client_direct = true;
  cfg.client_hint_false_negative = 1.0;  // client hint cache always misses
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));
  auto out = f.sys.handle_request(req(1, 4));
  EXPECT_EQ(out.source, Source::kServer);
}

TEST(HintSystemTest, RealClientHintStoresServeLookups) {
  HintSystemConfig cfg;
  cfg.client_direct = true;
  cfg.client_hint_bytes = 1_MB;  // roomy: clients track everything
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));  // copy at L1 0; hints fan out to clients
  // Client 4 (behind L1 1) resolves from its own hint cache and fetches the
  // copy directly: direct_hit(2) = 180 plus the local lookup.
  auto out = f.sys.handle_request(req(1, 4));
  EXPECT_EQ(out.source, Source::kRemoteL2);
  EXPECT_NEAR(out.latency, 180, 0.01);
  EXPECT_FALSE(out.hint_false_negative);
}

TEST(HintSystemTest, TinyClientHintStoresForgetAndMiss) {
  HintSystemConfig cfg;
  cfg.client_direct = true;
  cfg.client_hint_bytes = 64;  // one 4-way set per client
  Fixture f(cfg);
  // Client 0 (L1 0) caches nothing itself; 30 objects land at L1 8, and
  // client 4's 4-entry hint cache can remember only a handful.
  for (std::uint64_t o = 1; o <= 30; ++o) {
    f.sys.handle_request(req(o * 977 + 5, 32));
  }
  int remote = 0, server = 0;
  for (std::uint64_t o = 1; o <= 30; ++o) {
    const auto out = f.sys.handle_request(req(o * 977 + 5, 4));
    (out.source == Source::kServer ? server : remote) += 1;
  }
  EXPECT_GT(server, 20);  // most hints were lost to capacity
  EXPECT_LE(remote, 10);
}

TEST(HintSystemTest, ClientStoreFalsePositiveDropsClientHint) {
  HintSystemConfig cfg;
  cfg.client_direct = true;
  cfg.client_hint_bytes = 1_MB;
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));
  // Version bump without a modify record: the client's hint goes stale.
  auto out = f.sys.handle_request(req(1, 4, 8192, 2));
  EXPECT_TRUE(out.hint_false_positive);
  // The client dropped it: a re-request of the same version pays no probe.
  auto again = f.sys.handle_request(req(2, 4, 8192, 2));
  EXPECT_FALSE(again.hint_false_positive);
}

TEST(HintSystemTest, NamesDescribeConfiguration) {
  Fixture plain;
  EXPECT_EQ(plain.sys.name(), "hints");
  HintSystemConfig cfg;
  cfg.client_direct = true;
  Fixture client(cfg);
  EXPECT_EQ(client.sys.name(), "hints-client");
  cfg.client_direct = false;
  cfg.push_policy = "push-half";
  Fixture pushy(cfg);
  EXPECT_EQ(pushy.sys.name(), "hints+push-half");
}

// --- push caching ---

TEST(PushTest, IdealPushPricesRemoteHitsAsLocal) {
  HintSystemConfig cfg;
  cfg.push_policy = "push-ideal";
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));
  auto out = f.sys.handle_request(req(1, 32));
  EXPECT_EQ(out.source, Source::kRemoteL3);  // still counted as a remote hit
  EXPECT_NEAR(out.latency, 163, 0.01);       // but priced as a leaf access
  // Misses are unchanged.
  out = f.sys.handle_request(req(2, 32));
  EXPECT_NEAR(out.latency, 641, 0.01);
}

TEST(PushTest, CrossSubtreeFetchSeedsEveryGroup) {
  HintSystemConfig cfg;
  cfg.push_policy = "push-1";
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));   // copy at L1 0 (group 0)
  f.sys.handle_request(req(1, 32));  // L1 8 fetches at root distance -> push
  // One copy per group was pushed; the group-1 holder serves local clients.
  const auto& stats = f.sys.push_stats();
  EXPECT_GE(stats.copies_pushed, 2u);  // groups 1 and 3 at least
  EXPECT_LE(stats.copies_pushed, 16u);
  // Any client in group 1 (L1s 4..7) now finds a copy at distance <= 2.
  auto out = f.sys.handle_request(req(1, 16));  // client 16 -> L1 4
  EXPECT_TRUE(out.source == Source::kL1 || out.source == Source::kRemoteL2);
}

TEST(PushTest, WithinSubtreeFetchSeedsTheWholeGroup) {
  HintSystemConfig cfg;
  cfg.push_policy = "push-1";
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));  // copy at L1 0
  f.sys.handle_request(req(1, 4));  // L1 1 fetches at distance 2 -> push B
  // Figure 9: all L1s under the shared L2 parent get a copy (L1 2 and 3).
  auto out = f.sys.handle_request(req(1, 8));  // client 8 -> L1 2
  EXPECT_EQ(out.source, Source::kL1);
  EXPECT_TRUE(out.served_from_pushed);
}

TEST(PushTest, PushAllOutpushesPushOne) {
  for (bool all : {false, true}) {
    HintSystemConfig cfg;
    cfg.push_policy = all ? "push-all" : "push-1";
    Fixture f(cfg);
    f.sys.handle_request(req(1, 0));
    f.sys.handle_request(req(1, 32));
    const auto pushed = f.sys.push_stats().copies_pushed;
    if (all) {
      EXPECT_GE(pushed, 6u);  // every cache of every copyless group
    } else {
      EXPECT_LE(pushed, 4u);  // one per copyless group
    }
  }
}

TEST(PushTest, PushedBytesAreCountedAndUseIsTracked) {
  HintSystemConfig cfg;
  cfg.push_policy = "push-all";
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0, 1000));
  f.sys.handle_request(req(1, 32, 1000));
  const auto& s = f.sys.push_stats();
  ASSERT_GT(s.copies_pushed, 0u);
  EXPECT_EQ(s.bytes_pushed, s.copies_pushed * 1000u);
  EXPECT_EQ(s.copies_used, 0u);
  // A hit on a pushed copy marks it used exactly once.
  auto out = f.sys.handle_request(req(1, 16, 1000));  // L1 4, pushed copy
  EXPECT_TRUE(out.served_from_pushed);
  EXPECT_EQ(f.sys.push_stats().copies_used, 1u);
  f.sys.handle_request(req(1, 16, 1000));
  EXPECT_EQ(f.sys.push_stats().copies_used, 1u);  // not double-counted
}

TEST(PushTest, UpdatePushReseedsPreviousHolders) {
  HintSystemConfig cfg;
  cfg.push_policy = "update-push";
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));   // holders: L1 0
  f.sys.handle_request(req(1, 32)); // holders: L1 0, 8
  f.sys.handle_modify(modify(1, 2));
  // First fetch of the new version (by a third party) re-seeds 0 and 8.
  f.sys.handle_request(req(1, 16, 8192, 2));
  EXPECT_EQ(f.sys.push_stats().copies_pushed, 2u);
  auto out = f.sys.handle_request(req(1, 0, 8192, 2));
  EXPECT_EQ(out.source, Source::kL1);
  EXPECT_TRUE(out.served_from_pushed);
}

TEST(PushTest, UpdatePushRespectsBandwidthCap) {
  HintSystemConfig cfg;
  cfg.push_policy = "update-push";
  cfg.push_params.push_max_bytes_per_sec = 1e-9;  // effectively zero budget
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));
  f.sys.handle_request(req(1, 32));
  f.sys.handle_modify(modify(1, 2));
  f.sys.handle_request(req(1, 16, 8192, 2));
  EXPECT_EQ(f.sys.push_stats().copies_pushed, 0u);
  EXPECT_GT(f.sys.push_stats().pushes_rate_limited, 0u);
}

TEST(PushTest, UpdatePushWithoutPriorHoldersDoesNothing) {
  HintSystemConfig cfg;
  cfg.push_policy = "update-push";
  Fixture f(cfg);
  f.sys.handle_request(req(1, 0));
  EXPECT_EQ(f.sys.push_stats().copies_pushed, 0u);
}

TEST(PushTest, PushedCopiesChargeCacheSpace) {
  HintSystemConfig cfg;
  cfg.push_policy = "push-all";
  cfg.l1_capacity = 10000;
  Fixture f(cfg);
  // Fill L1 4 with its own objects.
  for (std::uint64_t o = 10; o < 12; ++o) f.sys.handle_request(req(o, 16, 4000));
  // A cross-subtree fetch pushes object 1 everywhere, displacing LRU data.
  f.sys.handle_request(req(1, 0, 4000));
  f.sys.handle_request(req(1, 32, 4000));
  // L1 4 now holds at most 2 of its 3 objects plus the pushed one.
  auto out = f.sys.handle_request(req(10, 16, 4000));
  EXPECT_EQ(out.source, Source::kServer);  // object 10 was displaced
}

TEST(PushTest, EfficiencyComputation) {
  PushStats s;
  EXPECT_DOUBLE_EQ(s.efficiency(), 0.0);
  s.bytes_pushed = 1000;
  s.bytes_used = 250;
  EXPECT_DOUBLE_EQ(s.efficiency(), 0.25);
}

// A hint table larger than its RAM budget faults lookups in from disk
// (Section 3.2.1): the expected fault cost joins the local lookup time.
TEST(HintDiskCostTest, FullyResidentTableCostsMicroseconds) {
  HintSystemConfig cfg;
  cfg.hint_bytes = 1_MB;
  cfg.hint_memory_bytes = 1_MB;
  Fixture f(cfg);
  auto out = f.sys.handle_request(req(1, 0));
  EXPECT_NEAR(out.latency, 641 + 0.0043, 1e-6);
}

TEST(HintDiskCostTest, OverflowingTablePaysExpectedFaults) {
  HintSystemConfig cfg;
  cfg.hint_bytes = 4_MB;
  cfg.hint_memory_bytes = 1_MB;  // 75% of lookups fault in from disk
  Fixture f(cfg);
  auto out = f.sys.handle_request(req(1, 0));
  EXPECT_NEAR(out.latency, 641 + 0.0043 + 0.75 * 10.8, 1e-6);
}

}  // namespace
}  // namespace bh::core
