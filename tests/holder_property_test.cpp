// Property test for the holder index (common/holder_index.h): replaying a
// DEC trace with modifications, after every record the index's set for the
// touched object must be exactly the L1 caches that hold it, and every held
// copy must carry the object's latest version. Placement relies on both: a
// push policy reads the holder set instead of probing each cache, and
// place_copy and the false-negative check test set membership.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "baseline/central_directory.h"
#include "core/hint_system.h"
#include "net/cost_model.h"
#include "net/topology.h"
#include "placement/placement.h"
#include "sim/event_queue.h"
#include "trace/generator.h"

namespace bh {
namespace {

constexpr double kScale = 1.0 / 256.0;
// Small enough that every configuration evicts, large enough that every
// object fits: the caches never refuse a fill. A fill too large to cache is
// covered by its own test in baseline_test.
constexpr std::uint64_t kL1Capacity = 2ull << 20;

trace::WorkloadParams dec_workload() {
  trace::WorkloadParams w = trace::workload_by_name("dec").scaled(kScale);
  w.max_object_size = kL1Capacity / 2;
  return w;
}

const std::vector<trace::Record>& dec_records() {
  static const std::vector<trace::Record> records =
      trace::TraceGenerator(dec_workload()).generate_all();
  return records;
}

net::HierarchyTopology dec_topology() {
  const trace::WorkloadParams w = dec_workload();
  return net::HierarchyTopology(w.num_l1(), w.l1_per_l2, w.clients_per_l1);
}

// The L1 caches that hold `id`, checking each copy's version on the way.
template <typename System>
::testing::AssertionResult actual_holders(const System& sys,
                                          std::uint32_t num_l1, ObjectId id,
                                          Version latest, NodeSet& out) {
  out.clear();
  for (NodeIndex n = 0; n < num_l1; ++n) {
    const cache::LruCache::Entry* e = sys.l1_cache(n).peek(id);
    if (e == nullptr) continue;
    if (e->version != latest) {
      return ::testing::AssertionFailure()
             << "L1 " << n << " holds version " << e->version
             << ", latest is " << latest;
    }
    out.insert(n);
  }
  return ::testing::AssertionSuccess();
}

struct ReplayStats {
  std::uint64_t checks = 0;
  std::uint64_t modifies = 0;
  std::uint64_t evictions = 0;  // copies lost between two records, no modify
};

// Replays the trace as run_experiment_on does and checks the touched
// object's holder set after every record.
template <typename System>
ReplayStats replay_and_check(System& sys, std::uint32_t num_l1,
                             sim::EventQueue* queue) {
  ReplayStats stats;
  std::unordered_map<std::uint64_t, Version> latest;
  std::unordered_map<std::uint64_t, NodeSet> after_last;
  NodeSet before, actual;
  for (const trace::Record& r : dec_records()) {
    if (queue != nullptr) queue->run_until(r.time);
    Version& v = latest[r.object.value];
    v = std::max(v, r.version);
    if (r.type == trace::RecordType::kModify) {
      sys.handle_modify(r);
      ++stats.modifies;
      after_last.erase(r.object.value);
    } else {
      if (r.uncachable || r.error) continue;
      EXPECT_TRUE(actual_holders(sys, num_l1, r.object, v, before));
      if (const auto it = after_last.find(r.object.value);
          it != after_last.end()) {
        it->second.for_each([&](NodeIndex n) {
          if (!before.contains(n)) ++stats.evictions;
        });
      }
      sys.handle_request(r);
    }
    const ::testing::AssertionResult ok =
        actual_holders(sys, num_l1, r.object, v, actual);
    const NodeSet* indexed = sys.holders_of(r.object);
    const NodeSet recorded = indexed != nullptr ? *indexed : NodeSet{};
    if (!ok || !(recorded == actual) ||
        (indexed != nullptr && indexed->empty())) {
      ADD_FAILURE() << "object " << r.object.value << " at t=" << r.time
                    << ": " << ok.message() << " indexed "
                    << recorded.size() << " holders, caches hold "
                    << actual.size()
                    << (indexed != nullptr && indexed->empty()
                            ? " (empty entry kept)"
                            : "");
      return stats;
    }
    after_last[r.object.value] = actual;
    ++stats.checks;
  }
  // Every object at the end, including those whose last copies were
  // evicted while other objects were requested: no entry outlives them.
  for (const auto& [id, v] : latest) {
    const ::testing::AssertionResult ok =
        actual_holders(sys, num_l1, ObjectId{id}, v, actual);
    const NodeSet* indexed = sys.holders_of(ObjectId{id});
    if (!ok || !((indexed != nullptr ? *indexed : NodeSet{}) == actual) ||
        (indexed != nullptr && indexed->empty())) {
      ADD_FAILURE() << "object " << id << " at the end: " << ok.message()
                    << " caches hold " << actual.size() << ", index has "
                    << (indexed != nullptr ? "an entry" : "no entry");
      break;
    }
  }
  return stats;
}

void expect_exercised(const ReplayStats& stats) {
  EXPECT_GT(stats.checks, 10'000u);
  EXPECT_GT(stats.modifies, 100u);
  EXPECT_GT(stats.evictions, 100u);
}

class HolderIndexProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(HolderIndexProperty, HintSystemIndexMatchesCachesAtLatestVersion) {
  const net::HierarchyTopology topo = dec_topology();
  const net::RousskovCostModel cost = net::RousskovCostModel::min();
  sim::EventQueue queue;
  core::HintSystemConfig cfg;
  cfg.l1_capacity = kL1Capacity;
  cfg.push_policy = GetParam();
  core::HintSystem sys(topo, cost, cfg, queue);
  expect_exercised(replay_and_check(sys, topo.num_l1(), &queue));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HolderIndexProperty,
    ::testing::ValuesIn(placement::policy_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

TEST(HolderIndexPropertyTest, CentralDirectoryMatchesCachesAtLatestVersion) {
  const net::HierarchyTopology topo = dec_topology();
  const net::RousskovCostModel cost = net::RousskovCostModel::min();
  baseline::CentralDirectorySystem sys(topo, cost, {kL1Capacity});
  expect_exercised(replay_and_check(sys, topo.num_l1(), nullptr));
}

}  // namespace
}  // namespace bh
