// CRISP-style centralized-directory architecture (the "Directory" bars of
// Figure 8 and the "Centralized directory" row of Table 5).
//
// Data lives only at L1 proxies. A single global directory, placed at root
// distance, maps every object to its current holders. On an L1 miss the
// proxy queries the directory (one control round trip), then fetches
// cache-to-cache from the nearest holder or goes to the server. Every cache
// insert and evict is reported to the directory, which is why its update
// load is the unfiltered total the hierarchy's root avoids.
#pragma once

#include <vector>

#include "cache/lru_cache.h"
#include "common/holder_index.h"
#include "core/cache_system.h"
#include "net/cost_model.h"
#include "net/topology.h"

namespace bh::baseline {

struct CentralDirectoryConfig {
  std::uint64_t l1_capacity = kUnlimitedBytes;
};

class CentralDirectorySystem final : public core::CacheSystem {
 public:
  CentralDirectorySystem(const net::HierarchyTopology& topo,
                         const net::CostModel& cost,
                         CentralDirectoryConfig cfg);

  core::RequestOutcome handle_request(const trace::Record& r) override;
  void handle_modify(const trace::Record& r) override;
  std::string name() const override { return "central-directory"; }

  // Updates received by the central directory (Table 5).
  std::uint64_t directory_updates() const { return directory_updates_; }
  void set_recording(bool on) override { recording_ = on; }
  void export_metrics(obs::MetricsRegistry& reg) const override {
    reg.counter("bh.directory.updates").set(directory_updates_);
  }
  // Test-only: the directory's holder set for `id` and L1 `n`'s data cache.
  const NodeSet* holders_of(ObjectId id) const { return directory_.find(id); }
  const cache::LruCache& l1_cache(NodeIndex n) const { return l1_[n]; }

 private:
  net::HierarchyTopology topo_;
  const net::CostModel& cost_;
  std::vector<cache::LruCache> l1_;
  HolderIndex directory_;
  std::uint64_t directory_updates_ = 0;
  bool recording_ = true;
};

}  // namespace bh::baseline
