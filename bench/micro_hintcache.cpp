// Microbenchmarks for the prototype data structures. The paper (Section
// 3.2.1) measured a 4.3us in-memory hint lookup on a 200 MHz UltraSPARC-2;
// on modern hardware the same structure should be tens of nanoseconds.
// Results are also merged into BENCH_core.json (see micro_util.h) so the
// perf trajectory is tracked across PRs. The simulator LRU, the event queue
// and the hint wire codec are timed by perfbench's per-layer metrics
// (cache.lru.ns_per_access, sim.eventqueue.ns_per_event,
// proto.wire.ns_per_update) on trace-driven inputs, not here.
#include "micro_util.h"

#include "common/rng.h"
#include "common/zipf.h"
#include "hints/hint_cache.h"
#include "hints/metadata_hierarchy.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "trace/workload.h"

using namespace bh;

namespace {

void BM_HintCacheLookupHit(benchmark::State& state) {
  hints::AssociativeHintCache cache(64_MB);
  Rng rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 100000; ++i) {
    keys.push_back(rng.next_u64() | 1);
    cache.insert(ObjectId{keys.back()}, hints::machine_of_node(i % 64));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(ObjectId{keys[i]}));
    i = (i + 1) % keys.size();
  }
}
BENCHMARK(BM_HintCacheLookupHit);

void BM_HintCacheLookupMiss(benchmark::State& state) {
  hints::AssociativeHintCache cache(64_MB);
  Rng rng(2);
  for (int i = 0; i < 100000; ++i) {
    cache.insert(ObjectId{rng.next_u64() | 1}, hints::machine_of_node(1));
  }
  std::uint64_t k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(ObjectId{k += 2}));
  }
}
BENCHMARK(BM_HintCacheLookupMiss);

void BM_HintCacheInsert(benchmark::State& state) {
  hints::AssociativeHintCache cache(64_MB);
  std::uint64_t k = 1;
  for (auto _ : state) {
    cache.insert(ObjectId{k += 2}, hints::machine_of_node(3));
  }
}
BENCHMARK(BM_HintCacheInsert);

// The unbounded store (simulated client hint caches, unlimited daemon
// stores), churned the way the metadata hierarchy churns a leaf: over 64K
// object ids, half lookups, a quarter inserts (new hint or moved hint) and a
// quarter erases.
void BM_UnboundedHintStoreChurn(benchmark::State& state) {
  constexpr std::size_t kIds = 64 << 10;
  hints::UnboundedHintStore store;
  Rng rng(5);
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < kIds; ++i) ids.push_back(ObjectId{rng.next_u64()});
  for (std::size_t i = 0; i < kIds; i += 2) {
    store.insert(ids[i], hints::machine_of_node(static_cast<NodeIndex>(i % 64)));
  }
  // A precomputed op stream, so the loop times the store, not the RNG.
  std::vector<std::uint32_t> ops(kIds);
  for (auto& op : ops) op = static_cast<std::uint32_t>(rng.next_u64());
  std::size_t i = 0;
  for (auto _ : state) {
    const std::uint32_t op = ops[i];
    const ObjectId id = ids[op % kIds];
    switch (op >> 30) {
      case 0:
        store.insert(id, hints::machine_of_node(op % 64));
        break;
      case 1:
        benchmark::DoNotOptimize(store.erase(id));
        break;
      default:
        benchmark::DoNotOptimize(store.lookup(id));
        break;
    }
    i = (i + 1) % kIds;
  }
  state.counters["entries"] = static_cast<double>(store.entry_count());
}
BENCHMARK(BM_UnboundedHintStoreChurn);

// The simulator's hint layer end to end: inform/invalidate against the
// metadata hierarchy on the DEC trace's 66-leaf topology with zero hop delay,
// so every L2/root update and leaf hint change runs inline. 16K copies are
// live at random (leaf, object) places among 16K objects; each iteration
// invalidates the oldest and informs a new one, so the state is the same
// from the first iteration to the last. "msgs/op" is the metadata fan-out
// per iteration.
void BM_MetadataInformInvalidate(benchmark::State& state) {
  const trace::WorkloadParams dec = trace::dec_workload();
  const net::HierarchyTopology topo(dec.num_l1(), dec.l1_per_l2,
                                    dec.clients_per_l1);
  sim::EventQueue queue;
  hints::MetadataHierarchy meta(topo, hints::MetadataConfig{}, queue);
  constexpr std::uint32_t kObjects = 16 << 10;
  constexpr std::size_t kLive = 16 << 10;
  Rng rng(9);
  std::vector<ObjectId> ids;
  for (std::uint32_t o = 0; o < kObjects; ++o) ids.push_back(ObjectId{rng.next_u64()});
  // Copy places as leaf * kObjects + object; a place holds at most one copy.
  std::vector<std::uint8_t> has_copy(std::size_t{topo.num_l1()} * kObjects, 0);
  auto place_copy = [&] {
    std::size_t place = 0;
    do {
      place = rng.next_below(has_copy.size());
    } while (has_copy[place] != 0);
    has_copy[place] = 1;
    meta.inform(static_cast<NodeIndex>(place / kObjects), ids[place % kObjects]);
    return place;
  };
  std::vector<std::size_t> live(kLive);
  for (auto& place : live) place = place_copy();
  const std::uint64_t warm_messages = meta.total_messages();
  std::size_t oldest = 0;
  for (auto _ : state) {
    const std::size_t place = live[oldest];
    has_copy[place] = 0;
    meta.invalidate(static_cast<NodeIndex>(place / kObjects), ids[place % kObjects]);
    live[oldest] = place_copy();
    oldest = (oldest + 1) % kLive;
  }
  state.counters["msgs/op"] = benchmark::Counter(
      static_cast<double>(meta.total_messages() - warm_messages),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_MetadataInformInvalidate);

// One received update batch applied to the striped store: per-id
// lookup+insert takes two stripe-lock acquisitions per update, apply_batch
// sorts the batch by stripe and takes each touched stripe lock once.
void BM_StripedHintPerIdBatch(benchmark::State& state) {
  auto store = hints::make_striped_hint_store(64_MB, 16);
  Rng rng(7);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 256; ++i) ids.push_back(ObjectId{rng.next_u64() | 1});
  for (auto _ : state) {
    // Each update is a read-modify-write (inform if unknown, retire if
    // known), as in the proxy's /updates handler: two lock rounds per id.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (store->lookup(ids[i]).has_value()) {
        store->erase(ids[i]);
      } else {
        store->insert(ids[i], hints::machine_of_node(i % 64));
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ids.size()));
}
BENCHMARK(BM_StripedHintPerIdBatch);

void BM_StripedHintApplyBatch(benchmark::State& state) {
  auto store = hints::make_striped_hint_store(64_MB, 16);
  Rng rng(7);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 256; ++i) ids.push_back(ObjectId{rng.next_u64() | 1});
  for (auto _ : state) {
    using Decision = hints::StripedHintStore::BatchDecision;
    store->apply_batch(ids, [](std::size_t i, std::optional<MachineId> cur) {
      if (cur.has_value()) return Decision::erase_hint();
      return Decision::insert_loc(hints::machine_of_node(i % 64));
    });
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ids.size()));
}
BENCHMARK(BM_StripedHintApplyBatch);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler z(4150000, 0.8);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

}  // namespace

int main(int argc, char** argv) {
  return bh::benchutil::micro_main(argc, argv, "hintcache");
}
