#include "baseline/central_directory.h"

namespace bh::baseline {

CentralDirectorySystem::CentralDirectorySystem(
    const net::HierarchyTopology& topo, const net::CostModel& cost,
    CentralDirectoryConfig cfg)
    : topo_(topo), cost_(cost) {
  l1_.reserve(topo_.num_l1());
  for (std::uint32_t i = 0; i < topo_.num_l1(); ++i) {
    l1_.emplace_back(cfg.l1_capacity);
  }
}

core::RequestOutcome CentralDirectorySystem::handle_request(
    const trace::Record& r) {
  const NodeIndex l1 = topo_.l1_of_client(r.client);
  core::RequestOutcome out;
  out.bytes = r.size;

  if (cache::LruCache::Entry* e = l1_[l1].find(r.object);
      e != nullptr && e->version >= r.version) {
    out.latency = cost_.hierarchy_hit(1, r.size);
    out.source = core::Source::kL1;
    return out;
  }

  // Miss at the proxy: one round trip to the central directory, then either
  // a direct cache-to-cache fetch or the origin server. The directory is
  // authoritative, so there are no false positives. CRISP deploys the
  // mapping service regionally, near its proxies, so the query is priced at
  // intermediate distance.
  const Millis query = cost_.control_rtt(net::kIntermediateDistance);
  NodeIndex best = kInvalidNode;
  int best_dist = 4;
  if (const NodeSet* held = directory_.find(r.object)) {
    held->for_each([&](NodeIndex holder) {
      if (holder == l1) return;  // our own stale copy does not count
      const cache::LruCache::Entry* he = l1_[holder].peek(r.object);
      if (he->version < r.version) return;
      const int d = topo_.lca_level(l1, holder);
      if (d < best_dist) {
        best_dist = d;
        best = holder;
      }
    });
  }

  // The proxy reports every fill, even one too large to cache; only a
  // cached copy is recorded as held.
  auto insert_local = [&] {
    if (l1_[l1].insert(r.object, r.size, r.version, /*pushed=*/false,
                       [&](const cache::LruCache::Entry& v) {
                         directory_.remove(v.id, l1);
                         ++directory_updates_;
                       })) {
      directory_.add(r.object, l1);
    }
    ++directory_updates_;
  };

  if (best != kInvalidNode) {
    out.latency = query + cost_.via_l1_hit(best_dist, r.size);
    out.source = best_dist == 2 ? core::Source::kRemoteL2 : core::Source::kRemoteL3;
    insert_local();
    return out;
  }

  out.latency = query + cost_.via_l1_miss(r.size);
  out.source = core::Source::kServer;
  insert_local();
  return out;
}

void CentralDirectorySystem::handle_modify(const trace::Record& r) {
  directory_.take(r.object).for_each(
      [&](NodeIndex holder) { l1_[holder].erase(r.object); });
}

}  // namespace bh::baseline
