// Tests for the baseline architectures: the traditional data hierarchy and
// the centralized directory.
#include <gtest/gtest.h>

#include "baseline/central_directory.h"
#include "baseline/data_hierarchy.h"
#include "net/cost_model.h"
#include "net/topology.h"

namespace bh::baseline {
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

trace::Record modify(std::uint64_t object, Version version) {
  trace::Record r;
  r.type = trace::RecordType::kModify;
  r.object = ObjectId{object};
  r.version = version;
  return r;
}

struct HierFixture {
  net::HierarchyTopology topo{16, 4, 4};  // clients 0..63
  net::RousskovCostModel cost = net::RousskovCostModel::min();
  DataHierarchySystem sys{topo, cost, {}};
};

TEST(DataHierarchyTest, MissThenHitsDescendTheHierarchy) {
  HierFixture f;
  // client 0 -> L1 0. First access: full miss (981 ms at Rousskov-min).
  auto out = f.sys.handle_request(req(1, 0));
  EXPECT_EQ(out.source, core::Source::kServer);
  EXPECT_DOUBLE_EQ(out.latency, 981);

  // Same client again: L1 hit (163 ms).
  out = f.sys.handle_request(req(1, 0));
  EXPECT_EQ(out.source, core::Source::kL1);
  EXPECT_DOUBLE_EQ(out.latency, 163);

  // Client 4 -> L1 1 (same L2 subtree): L2 hit (271 ms).
  out = f.sys.handle_request(req(1, 4));
  EXPECT_EQ(out.source, core::Source::kL2);
  EXPECT_DOUBLE_EQ(out.latency, 271);

  // Client 32 -> L1 8 (different subtree): L3 hit (531 ms).
  out = f.sys.handle_request(req(1, 32));
  EXPECT_EQ(out.source, core::Source::kL3);
  EXPECT_DOUBLE_EQ(out.latency, 531);

  // And the L2/L3 hits left copies along the path: now both are L1 hits.
  EXPECT_EQ(f.sys.handle_request(req(1, 4)).source, core::Source::kL1);
  EXPECT_EQ(f.sys.handle_request(req(1, 32)).source, core::Source::kL1);
}

TEST(DataHierarchyTest, ModifyInvalidatesEveryLevel) {
  HierFixture f;
  f.sys.handle_request(req(1, 0));
  f.sys.handle_request(req(1, 32));
  f.sys.handle_modify(modify(1, 2));
  auto out = f.sys.handle_request(req(1, 0, 8192, 2));
  EXPECT_EQ(out.source, core::Source::kServer);
}

TEST(DataHierarchyTest, StaleCopyIsNotServed) {
  HierFixture f;
  f.sys.handle_request(req(1, 0, 8192, 1));
  // Version 2 requested without a modify record: the version guard refuses
  // the stale copy.
  auto out = f.sys.handle_request(req(1, 0, 8192, 2));
  EXPECT_EQ(out.source, core::Source::kServer);
}

TEST(DataHierarchyTest, LevelCountersTrackHitsAndBytes) {
  HierFixture f;
  f.sys.handle_request(req(1, 0, 1000));   // miss
  f.sys.handle_request(req(1, 0, 1000));   // L1 hit
  f.sys.handle_request(req(1, 4, 1000));   // L2 hit
  f.sys.handle_request(req(1, 32, 1000));  // L3 hit
  const auto& c = f.sys.level_counters();
  EXPECT_EQ(c.requests, 4u);
  EXPECT_EQ(c.hits[1], 1u);
  EXPECT_EQ(c.hits[2], 1u);
  EXPECT_EQ(c.hits[3], 1u);
  EXPECT_EQ(c.hit_bytes[1], 1000u);
  EXPECT_EQ(c.bytes, 4000u);
}

TEST(DataHierarchyTest, RecordingGateFreezesCounters) {
  HierFixture f;
  f.sys.set_recording(false);
  f.sys.handle_request(req(1, 0));
  EXPECT_EQ(f.sys.level_counters().requests, 0u);
  f.sys.set_recording(true);
  f.sys.handle_request(req(1, 0));
  EXPECT_EQ(f.sys.level_counters().requests, 1u);
  EXPECT_EQ(f.sys.level_counters().hits[1], 1u);
}

TEST(DataHierarchyTest, CapacityConstrainedL1EvictsButL3Retains) {
  net::HierarchyTopology topo{16, 4, 4};
  auto cost = net::RousskovCostModel::min();
  DataHierarchyConfig cfg;
  cfg.l1_capacity = 10000;  // tiny L1s
  DataHierarchySystem sys{topo, cost, cfg};
  // Fill L1 0 beyond capacity.
  for (std::uint64_t o = 1; o <= 5; ++o) {
    sys.handle_request(req(o, 0, 4000));
  }
  // Object 1 fell out of L1 but survives in L2/L3.
  auto out = sys.handle_request(req(1, 0, 4000));
  EXPECT_EQ(out.source, core::Source::kL2);
}

struct DirFixture {
  net::HierarchyTopology topo{16, 4, 4};
  net::RousskovCostModel cost = net::RousskovCostModel::min();
  CentralDirectorySystem sys{topo, cost, {}};
};

TEST(CentralDirectoryTest, MissPaysDirectoryQuery) {
  DirFixture f;
  auto out = f.sys.handle_request(req(1, 0));
  EXPECT_EQ(out.source, core::Source::kServer);
  // via-L1 miss (641) plus an intermediate-distance query round trip (120).
  EXPECT_DOUBLE_EQ(out.latency, 641 + 120);
}

TEST(CentralDirectoryTest, RemoteHitGoesDirect) {
  DirFixture f;
  f.sys.handle_request(req(1, 0));  // copy lands at L1 0
  // Client 4 -> L1 1 (same subtree): directory query + direct fetch at
  // intermediate distance: 120 + via_l1_hit(2) = 120 + 271.
  auto out = f.sys.handle_request(req(1, 4));
  EXPECT_EQ(out.source, core::Source::kRemoteL2);
  EXPECT_DOUBLE_EQ(out.latency, 120 + 271);

  // Client 32 -> L1 8 (other subtree): nearest holder is at root distance.
  out = f.sys.handle_request(req(1, 32));
  EXPECT_EQ(out.source, core::Source::kRemoteL3);
  EXPECT_DOUBLE_EQ(out.latency, 120 + 411);
}

TEST(CentralDirectoryTest, PrefersNearestHolder) {
  DirFixture f;
  f.sys.handle_request(req(1, 32));  // copy at L1 8 (group 2)
  f.sys.handle_request(req(1, 4));   // copy also at L1 1 (group 0)
  // Client 8 -> L1 2: nearest copy is L1 1 (same group), not L1 8.
  auto out = f.sys.handle_request(req(1, 8));
  EXPECT_EQ(out.source, core::Source::kRemoteL2);
}

TEST(CentralDirectoryTest, LocalHitSkipsDirectory) {
  DirFixture f;
  f.sys.handle_request(req(1, 0));
  auto out = f.sys.handle_request(req(1, 0));
  EXPECT_EQ(out.source, core::Source::kL1);
  EXPECT_DOUBLE_EQ(out.latency, 163);
}

TEST(CentralDirectoryTest, CountsEveryUpdate) {
  DirFixture f;
  f.sys.handle_request(req(1, 0));
  f.sys.handle_request(req(2, 0));
  f.sys.handle_request(req(1, 32));
  EXPECT_EQ(f.sys.directory_updates(), 3u);  // three inserts, no evictions
}

TEST(CentralDirectoryTest, ModifyPurgesDirectoryAndCaches) {
  DirFixture f;
  f.sys.handle_request(req(1, 0));
  f.sys.handle_request(req(1, 32));
  f.sys.handle_modify(modify(1, 2));
  auto out = f.sys.handle_request(req(1, 4, 8192, 2));
  EXPECT_EQ(out.source, core::Source::kServer);
}

TEST(CentralDirectoryTest, EvictionsUpdateDirectory) {
  net::HierarchyTopology topo{16, 4, 4};
  auto cost = net::RousskovCostModel::min();
  CentralDirectoryConfig cfg;
  cfg.l1_capacity = 10000;
  CentralDirectorySystem sys{topo, cost, cfg};
  for (std::uint64_t o = 1; o <= 5; ++o) sys.handle_request(req(o, 0, 4000));
  // Object 1 was evicted at L1 0; the directory must not hand it out.
  auto out = sys.handle_request(req(1, 4, 4000));
  EXPECT_EQ(out.source, core::Source::kServer);
}

TEST(CentralDirectoryTest, FillTooLargeToCacheIsNotRecordedAsHeld) {
  net::HierarchyTopology topo{16, 4, 4};
  auto cost = net::RousskovCostModel::min();
  CentralDirectoryConfig cfg;
  cfg.l1_capacity = 10000;
  CentralDirectorySystem sys{topo, cost, cfg};
  sys.handle_request(req(1, 0, 20000));  // reported, but L1 0 cannot keep it
  EXPECT_EQ(sys.directory_updates(), 1u);
  EXPECT_EQ(sys.l1_cache(0).peek(ObjectId{1}), nullptr);
  EXPECT_EQ(sys.holders_of(ObjectId{1}), nullptr);
  sys.handle_request(req(1, 0, 4000));  // a later fill that fits is held
  ASSERT_NE(sys.holders_of(ObjectId{1}), nullptr);
  EXPECT_TRUE(sys.holders_of(ObjectId{1})->contains(0));
}

}  // namespace
}  // namespace bh::baseline
