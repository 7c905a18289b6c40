// Tests for bh::common — hashing, RNG, Zipf sampling, node sets, the
// flat hash map, and table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "common/node_set.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/types.h"
#include "common/zipf.h"

namespace bh {
namespace {

// --- hashing ---

TEST(HashTest, Fnv1aKnownValues) {
  // FNV-1a 64-bit reference values.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
}

TEST(HashTest, Mix64IsBijectiveOnSample) {
  std::set<std::uint64_t> outs;
  for (std::uint64_t i = 0; i < 10000; ++i) outs.insert(mix64(i));
  EXPECT_EQ(outs.size(), 10000u);
}

// --- FlatMap (model-checked against std::unordered_map) ---

// Asserts that `m` holds exactly the entries of `ref`: same size, every
// reference entry found with an equal value, and for_each visiting each
// stored key once with its value.
template <typename V>
void expect_same(const FlatMap<V>& m,
                 const std::unordered_map<std::uint64_t, V>& ref) {
  ASSERT_EQ(m.size(), ref.size());
  for (const auto& [key, value] : ref) {
    const V* got = m.find(key);
    ASSERT_NE(got, nullptr) << "key " << key;
    ASSERT_EQ(*got, value) << "key " << key;
  }
  std::size_t visited = 0;
  m.for_each([&](std::uint64_t key, const V& value) {
    ++visited;
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "stray key " << key;
    ASSERT_EQ(value, it->second) << "key " << key;
  });
  ASSERT_EQ(visited, ref.size());
}

// The first `n` keys whose mix64 has all of `low_mask`'s bits set: every one
// of them homes at the last slot of any table no larger than low_mask + 1.
std::vector<std::uint64_t> keys_homing_at_end(std::size_t n,
                                              std::uint64_t low_mask) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t k = 0; keys.size() < n; ++k) {
    if ((mix64(k) & low_mask) == low_mask) keys.push_back(k);
  }
  return keys;
}

// Random insert/overwrite/find/erase over `keys`, compared with the
// reference after every operation.
void run_model(FlatMap<std::uint64_t>& m, const std::vector<std::uint64_t>& keys,
               std::uint64_t seed, int ops) {
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(seed);
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t key = keys[rng.next_below(keys.size())];
    const std::uint64_t value = rng.next_u64();
    switch (rng.next_below(4)) {
      case 0: {
        const auto [got, inserted] = m.try_emplace(key, value);
        const auto [it, ref_inserted] = ref.try_emplace(key, value);
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*got, it->second);
        break;
      }
      case 1:
        m[key] = value;
        ref[key] = value;
        break;
      case 2: {
        const std::uint64_t* got = m.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end());
        if (got != nullptr) {
          ASSERT_EQ(*got, it->second);
        }
        break;
      }
      case 3:
        ASSERT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
    }
    expect_same(m, ref);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FlatMapTest, CollidingKeysClusterAndWrapAroundTheEnd) {
  // 400 keys that all home at the last slot of any table up to 1024 slots;
  // at most 400 are live, so the table never passes 1024 slots and holds one
  // cluster that starts at its last slot and wraps to the front. Every probe,
  // insert and backward shift crosses the wrap.
  const auto keys = keys_homing_at_end(400, 0x3ff);
  FlatMap<std::uint64_t> m;
  run_model(m, keys, 1, 20000);
  EXPECT_GT(m.size(), 100u);
  EXPECT_LE(m.capacity(), 1024u);
}

TEST(FlatMapTest, ReservedKeyAndZeroAreOrdinaryKeys) {
  // The reserved empty-slot key lives in a side slot; it and 0 must behave
  // like any other key, mixed with ordinary ones through growth.
  std::vector<std::uint64_t> keys = {FlatMap<std::uint64_t>::kEmptyKey, 0};
  for (std::uint64_t k = 1; k <= 200; ++k) keys.push_back(k * 0x9e3779b9ULL);
  FlatMap<std::uint64_t> m;
  run_model(m, keys, 2, 20000);
}

TEST(FlatMapTest, EraseInsideClusterShiftsBack) {
  // A 16-slot table (at most 12 entries before it grows) filled with keys of
  // two adjacent homes plus a few others, so clusters overlap and wrap.
  // Erasing the members in many random orders must leave the rest findable:
  // a shifted entry may never move in front of its home slot.
  std::vector<std::uint64_t> keys = keys_homing_at_end(5, 0xf);  // home 15
  for (std::uint64_t k = 0; keys.size() < 9; ++k) {
    if ((mix64(k) & 0xf) == 14) keys.push_back(k);  // home 14
  }
  for (std::uint64_t k = 0; keys.size() < 12; ++k) {
    if ((mix64(k) & 0xf) == 1) keys.push_back(k);  // home 1, inside the wrap
  }
  Rng rng(3);
  auto shuffle = [&](std::vector<std::uint64_t>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[rng.next_below(i)]);
    }
  };
  for (int round = 0; round < 300; ++round) {
    FlatMap<std::uint64_t> m;
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::vector<std::uint64_t> order = keys;
    shuffle(order);
    for (std::uint64_t k : order) {
      m[k] = k + 1;
      ref[k] = k + 1;
    }
    ASSERT_EQ(m.capacity(), 16u);
    shuffle(order);
    for (std::uint64_t k : order) {
      ASSERT_TRUE(m.erase(k));
      ASSERT_FALSE(m.erase(k));
      ref.erase(k);
      expect_same(m, ref);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(FlatMapTest, VectorValuesMoveAcrossGrowth) {
  // Non-trivial values: growth and backward shift move them, never copy or
  // drop them.
  FlatMap<std::vector<int>> m;
  std::unordered_map<std::uint64_t, std::vector<int>> ref;
  Rng rng(4);
  for (int op = 0; op < 8000; ++op) {
    const std::uint64_t key = rng.next_below(600);
    switch (rng.next_below(3)) {
      case 0: {
        std::vector<int> v(1 + rng.next_below(8), op);
        const auto [got, inserted] = m.try_emplace(key, v);
        const auto [it, ref_inserted] = ref.try_emplace(key, std::move(v));
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*got, it->second);
        break;
      }
      case 1:
        m[key].push_back(op);
        ref[key].push_back(op);
        break;
      case 2:
        ASSERT_EQ(m.erase(key), ref.erase(key) > 0);
        break;
    }
    expect_same(m, ref);
    if (HasFatalFailure()) return;
  }
  ASSERT_GE(m.capacity(), 512u);

  // Each value's heap buffer is the same one after a growth and after a
  // round of erases: entries were moved, not copied.
  std::unordered_map<std::uint64_t, const int*> buffers;
  m.for_each([&](std::uint64_t key, const std::vector<int>& v) {
    buffers[key] = v.data();
  });
  const std::size_t before = m.capacity();
  for (std::uint64_t fresh = 1000; m.capacity() == before; ++fresh) {
    m.try_emplace(fresh, std::vector<int>{1});
  }
  for (std::uint64_t fresh = 1000; m.contains(fresh); fresh += 2) {
    m.erase(fresh);
  }
  for (const auto& [key, data] : buffers) {
    ASSERT_NE(m.find(key), nullptr);
    EXPECT_EQ(m.find(key)->data(), data);
    EXPECT_EQ(*m.find(key), ref[key]);
  }
}

// --- RNG ---

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(9);
  double sum = 0;
  for (int i = 0; i < 100000; ++i) {
    const double v = r.next_double();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000, 0.5, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng r(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.05);
}

TEST(RngTest, LognormalMedian) {
  Rng r(13);
  std::vector<double> v(100001);
  for (auto& x : v) x = r.lognormal(8.3, 1.3);
  std::nth_element(v.begin(), v.begin() + 50000, v.end());
  // Median of lognormal(mu, sigma) is exp(mu) ~= 4024.
  EXPECT_NEAR(v[50000], std::exp(8.3), std::exp(8.3) * 0.05);
}

TEST(RngTest, ForkIsIndependent) {
  Rng a(5);
  Rng f1 = a.fork(1);
  Rng f2 = a.fork(2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

// --- Zipf ---

TEST(ZipfTest, RejectsBadArguments) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, 0.0), std::invalid_argument);
}

TEST(ZipfTest, SingleElement) {
  ZipfSampler z(1, 0.8);
  Rng r(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(z.sample(r), 0u);
}

TEST(ZipfTest, RanksWithinBounds) {
  ZipfSampler z(1000, 0.8);
  Rng r(17);
  for (int i = 0; i < 100000; ++i) ASSERT_LT(z.sample(r), 1000u);
}

// The empirical rank frequencies must follow rank^-s: check the ratio of
// rank-0 to rank-9 frequencies against the analytic value.
TEST(ZipfTest, FrequenciesFollowPowerLaw) {
  const double s = 1.0;
  ZipfSampler z(100000, s);
  Rng r(23);
  std::vector<std::uint64_t> counts(16, 0);
  const int n = 2000000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t k = z.sample(r);
    if (k < counts.size()) ++counts[k];
  }
  const double ratio = static_cast<double>(counts[0]) / static_cast<double>(counts[9]);
  EXPECT_NEAR(ratio, std::pow(10.0, s), std::pow(10.0, s) * 0.1);
}

TEST(ZipfTest, LowerExponentIsFlatter) {
  ZipfSampler steep(10000, 1.2), flat(10000, 0.5);
  Rng r1(29), r2(29);
  std::uint64_t head_steep = 0, head_flat = 0;
  for (int i = 0; i < 200000; ++i) {
    head_steep += steep.sample(r1) < 10;
    head_flat += flat.sample(r2) < 10;
  }
  EXPECT_GT(head_steep, head_flat);
}

// --- NodeSet ---

TEST(NodeSetTest, InsertEraseContains) {
  NodeSet s;
  EXPECT_TRUE(s.empty());
  s.insert(3);
  s.insert(64);
  s.insert(200);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(64));
  EXPECT_TRUE(s.contains(200));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.size(), 3u);
  s.erase(64);
  EXPECT_FALSE(s.contains(64));
  EXPECT_EQ(s.size(), 2u);
}

TEST(NodeSetTest, ForEachVisitsInOrder) {
  NodeSet s;
  s.insert(100);
  s.insert(1);
  s.insert(65);
  std::vector<NodeIndex> seen;
  s.for_each([&](NodeIndex n) { seen.push_back(n); });
  EXPECT_EQ(seen, (std::vector<NodeIndex>{1, 65, 100}));
}

TEST(NodeSetTest, EqualityIgnoresCapacity) {
  NodeSet a, b;
  a.insert(5);
  a.insert(300);
  a.erase(300);
  b.insert(5);
  EXPECT_TRUE(a == b);
}

TEST(NodeSetTest, InsertIsIdempotent) {
  NodeSet s;
  s.insert(7);
  s.insert(7);
  EXPECT_EQ(s.size(), 1u);
}

// --- units & ids ---

TEST(TypesTest, ByteLiterals) {
  EXPECT_EQ(4_KB, 4096u);
  EXPECT_EQ(1_MB, 1048576u);
  EXPECT_EQ(2_GB, 2147483648u);
}

TEST(TypesTest, StrongIdsCompare) {
  EXPECT_EQ(ObjectId{1}, ObjectId{1});
  EXPECT_NE(ObjectId{1}, ObjectId{2});
  EXPECT_LT(MachineId{1}, MachineId{2});
}

// --- table formatting ---

TEST(TableTest, AlignsAndRejectsBadArity) {
  TextTable t({"a", "long-header"});
  t.add_row({"x", "y"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find('x'), std::string::npos);
}

TEST(TableTest, FmtHelpers) {
  EXPECT_EQ(fmt(1.25, 1), "1.2");
  EXPECT_EQ(fmt(1.25, 2), "1.25");
  EXPECT_EQ(fmt_count(22100000), "22.1M");
  EXPECT_EQ(fmt_count(4150), "4.2K");
  EXPECT_EQ(fmt_count(12), "12");
}

}  // namespace
}  // namespace bh
