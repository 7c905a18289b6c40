// The hint-hierarchy cache architecture (Sections 3 and 4) — the paper's
// primary contribution.
//
// Data is cached only at L1 proxies. Each proxy keeps a local hint cache of
// 16-byte location records maintained by the metadata hierarchy; on a local
// miss it consults the hint cache (a memory lookup, never a network hop) and
// either fetches the object cache-to-cache from the hinted node or — on a
// false negative — goes straight to the origin server. False positives cost
// one error round trip to the hinted cache before falling through to the
// server. The alternate configuration of Figure 4(b) moves the hint lookup
// to the clients, which then bypass the L1 proxy for remote fetches at the
// price of a smaller (modeled by a false-negative rate) client hint cache.
//
// Push caching layers on top (Section 4) through the pluggable
// placement::Policy interface: the system reports accesses (local hits,
// remote cache-to-cache hits, server fetches, modifications) to the
// configured policy, and the policy decides which nodes receive pushed
// copies. The paper's heuristics (update push, push-1/half/all, the ideal
// bound) and the adaptive greedy policy all live in src/placement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/lru_cache.h"
#include "common/holder_index.h"
#include "common/rng.h"
#include "core/cache_system.h"
#include "hints/metadata_hierarchy.h"
#include "net/cost_model.h"
#include "net/topology.h"
#include "placement/placement.h"
#include "sim/event_queue.h"

namespace bh::core {

// Push accounting lives in the policy object; core re-exports the type for
// result plumbing.
using PushStats = placement::PushStats;

struct HintSystemConfig {
  std::uint64_t l1_capacity = kUnlimitedBytes;  // data bytes per L1 proxy
  std::uint64_t hint_bytes = kUnlimitedBytes;   // hint bytes per L1 proxy
  SimTime hint_hop_delay = 0.0;                 // metadata propagation delay/hop

  // Measured prototype lookup times (Section 3.2.1): 4.3us when the hint
  // table is memory-resident, 10.8ms when the entry faults in from the
  // memory-mapped file. When the table exceeds `hint_memory_bytes`, lookups
  // are charged the expected cost under the paper's own observation that the
  // hint reference stream has essentially no locality (uniform-miss model).
  Millis hint_lookup_ms = 0.0043;
  Millis hint_disk_lookup_ms = 10.8;
  std::uint64_t hint_memory_bytes = kUnlimitedBytes;

  // Alternate configuration (Figure 4b): clients hold the hints and fetch
  // remote copies directly. Two fidelity levels: client_hint_bytes > 0
  // instantiates a real bounded hint cache per client, fed by the metadata
  // hierarchy one level beyond the proxies; client_hint_bytes == 0 models
  // the smaller client cache with an extra false-negative probability (the
  // parameterization the paper's own discussion uses).
  bool client_direct = false;
  double client_hint_false_negative = 0.0;
  std::uint64_t client_hint_bytes = 0;

  // Canonical placement-policy name (placement::policy_names()); HintSystem
  // construction throws std::invalid_argument on an unknown name, so a typo
  // in a sweep config fails the run instead of silently not pushing.
  std::string push_policy = "none";
  // Knobs for the budgeted/adaptive policies: the update-push and
  // adaptive-greedy byte budget (pushes beyond it are discarded, Section
  // 4.1.2) and the adaptive demand-estimator parameters.
  placement::PolicyParams push_params;

  std::uint64_t seed = 0x9A9A;
};

class HintSystem final : public CacheSystem, private placement::Host {
 public:
  HintSystem(const net::HierarchyTopology& topo, const net::CostModel& cost,
             HintSystemConfig cfg, sim::EventQueue& queue);

  RequestOutcome handle_request(const trace::Record& r) override;
  void handle_modify(const trace::Record& r) override;
  void set_recording(bool on) override;
  void export_metrics(obs::MetricsRegistry& reg) const override;
  std::string name() const override;

  hints::MetadataHierarchy& metadata() { return meta_; }
  const placement::Policy& policy() const { return *policy_; }
  const PushStats& push_stats() const { return policy_->stats(); }
  // Demand-fetch bytes brought into L1 caches from outside (remote caches or
  // servers) while recording — the "Demand Fetch" bars of Figure 11(b).
  std::uint64_t demand_bytes() const { return demand_bytes_; }
  // Test-only: the holder index's set for `id` and L1 `n`'s data cache.
  const NodeSet* holders_of(ObjectId id) const { return holders_.find(id); }
  const cache::LruCache& l1_cache(NodeIndex n) const { return l1_[n]; }

 private:
  // placement::Host — the surface the policy sees.
  std::uint32_t num_l1() const override { return topo_.num_l1(); }
  std::uint32_t l1_per_l2() const override { return topo_.l1_per_l2(); }
  std::uint32_t num_l2() const override { return topo_.num_l2(); }
  std::uint32_t l2_of_l1(NodeIndex n) const override {
    return topo_.l2_of_l1(n);
  }
  int lca_level(NodeIndex a, NodeIndex b) const override {
    return topo_.lca_level(a, b);
  }
  const NodeSet& holders(const placement::Access& a) const override;
  bool pushed_copy_unused(NodeIndex node,
                          const placement::Access& a) const override;
  bool place_copy(NodeIndex node, const placement::Access& a) override;
  Rng& rng() override { return rng_; }

  placement::Access access_of(const trace::Record& r) const;

  // Expected latency of one local hint lookup given how much of the hint
  // table fits in memory.
  Millis hint_lookup_cost() const;

  // Inserts a copy at `node`, maintaining ground truth and metadata.
  void insert_copy(NodeIndex node, ObjectId id, std::uint64_t size,
                   Version version, bool pushed);
  // Marks a (possibly pushed) entry as used and reports whether it was a
  // push-placed copy.
  bool note_use(cache::LruCache::Entry& e);

  net::HierarchyTopology topo_;
  const net::CostModel& cost_;
  HintSystemConfig cfg_;
  sim::EventQueue& queue_;
  hints::MetadataHierarchy meta_;
  std::vector<cache::LruCache> l1_;
  // Per-client hint caches (alternate configuration, real mechanism).
  std::vector<std::unique_ptr<hints::HintStore>> client_stores_;
  HolderIndex holders_;  // ground truth: which L1s hold each object
  std::unique_ptr<placement::Policy> policy_;
  Rng rng_;

  std::uint64_t demand_bytes_ = 0;
  bool recording_ = true;
};

}  // namespace bh::core
