#include "core/hint_system.h"

#include <algorithm>

namespace bh::core {

HintSystem::HintSystem(const net::HierarchyTopology& topo,
                       const net::CostModel& cost, HintSystemConfig cfg,
                       sim::EventQueue& queue)
    : topo_(topo),
      cost_(cost),
      cfg_(cfg),
      queue_(queue),
      meta_(topo,
            hints::MetadataConfig{cfg.hint_bytes, cfg.hint_hop_delay},
            queue),
      policy_(placement::make_policy(cfg.push_policy, cfg.push_params)),
      rng_(cfg.seed) {
  l1_.reserve(topo_.num_l1());
  for (std::uint32_t i = 0; i < topo_.num_l1(); ++i) {
    l1_.emplace_back(cfg_.l1_capacity);
  }
  if (cfg_.client_direct && cfg_.client_hint_bytes > 0) {
    // Real per-client hint caches, extending the metadata hierarchy one
    // level past the proxies: every change to a proxy's hint store fans out
    // to that proxy's clients.
    client_stores_.reserve(topo_.num_clients());
    for (std::uint32_t c = 0; c < topo_.num_clients(); ++c) {
      client_stores_.push_back(hints::make_hint_store(cfg_.client_hint_bytes));
    }
    meta_.set_leaf_observer([this](NodeIndex leaf, ObjectId id, NodeIndex loc) {
      const std::uint32_t base = leaf * topo_.clients_per_l1();
      const std::uint32_t end =
          std::min(base + topo_.clients_per_l1(), topo_.num_clients());
      for (std::uint32_t c = base; c < end; ++c) {
        if (loc == kInvalidNode) {
          client_stores_[c]->erase(id);
        } else {
          client_stores_[c]->insert(id, hints::machine_of_node(loc));
        }
      }
    });
  }
}

std::string HintSystem::name() const {
  std::string n = cfg_.client_direct ? "hints-client" : "hints";
  if (policy_->name() != "none") {
    n += "+";
    n += policy_->name();
  }
  return n;
}

void HintSystem::set_recording(bool on) {
  recording_ = on;
  policy_->set_recording(on);
}

void HintSystem::export_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("bh.hints.root_updates").set(meta_.root_updates());
  reg.counter("bh.hints.leaf_updates").set(meta_.leaf_updates());
  reg.counter("bh.hints.meta_messages").set(meta_.total_messages());
  reg.counter("bh.hints.demand_bytes").set(demand_bytes_);
  policy_->export_metrics(reg);
}

Millis HintSystem::hint_lookup_cost() const {
  if (cfg_.hint_memory_bytes == kUnlimitedBytes ||
      cfg_.hint_bytes == kUnlimitedBytes ||
      cfg_.hint_bytes <= cfg_.hint_memory_bytes) {
    return cfg_.hint_lookup_ms;
  }
  // Hint references have essentially no locality (Section 3.2.1), so the
  // fault probability is simply the fraction of the table not resident.
  const double resident = double(cfg_.hint_memory_bytes) / double(cfg_.hint_bytes);
  return cfg_.hint_lookup_ms + (1.0 - resident) * cfg_.hint_disk_lookup_ms;
}

placement::Access HintSystem::access_of(const trace::Record& r) const {
  return placement::Access{r.object, r.size, r.version, queue_.now()};
}

const NodeSet& HintSystem::holders(const placement::Access& a) const {
  static const NodeSet kNone;
  const NodeSet* s = holders_.find(a.object);
  return s != nullptr ? *s : kNone;
}

bool HintSystem::pushed_copy_unused(NodeIndex node,
                                    const placement::Access& a) const {
  const cache::LruCache::Entry* e = l1_[node].peek(a.object);
  return e != nullptr && e->pushed && !e->used_since_push;
}

bool HintSystem::place_copy(NodeIndex node, const placement::Access& a) {
  if (holders_.holds(a.object, node)) return false;
  insert_copy(node, a.object, a.size, a.version, /*pushed=*/true);
  return true;
}

bool HintSystem::note_use(cache::LruCache::Entry& e) {
  if (!e.pushed) return false;
  if (!e.used_since_push) {
    e.used_since_push = true;
    policy_->note_copy_used(e.size);
  }
  return true;
}

void HintSystem::insert_copy(NodeIndex node, ObjectId id, std::uint64_t size,
                             Version version, bool pushed) {
  const bool ok = l1_[node].insert(
      id, size, version, pushed, [this, node](const cache::LruCache::Entry& v) {
        holders_.remove(v.id, node);
        meta_.invalidate(node, v.id);
      });
  if (!ok) return;
  holders_.add(id, node);
  meta_.inform(node, id);
}

RequestOutcome HintSystem::handle_request(const trace::Record& r) {
  const NodeIndex l1 = topo_.l1_of_client(r.client);
  RequestOutcome out;
  out.bytes = r.size;

  // 1. The local L1 data cache.
  if (cache::LruCache::Entry* e = l1_[l1].find(r.object);
      e != nullptr && e->version >= r.version) {
    out.latency = cost_.hierarchy_hit(1, r.size);
    out.source = Source::kL1;
    out.served_from_pushed = note_use(*e);
    policy_->on_local_hit(*this, access_of(r), l1);
    return out;
  }

  // 2. The local hint cache — a memory (or memory-mapped-file) access,
  // never a network hop. In the alternate configuration the *client's* hint
  // cache answers instead of the proxy's.
  out.latency = hint_lookup_cost();
  std::optional<NodeIndex> hint;
  if (!client_stores_.empty()) {
    const auto c = static_cast<std::uint32_t>(
        r.client % client_stores_.size());
    if (auto m = client_stores_[c]->lookup(r.object)) {
      hint = hints::node_of_machine(*m);
    }
  } else {
    hint = meta_.find_nearest(l1, r.object);
    if (hint && cfg_.client_direct &&
        rng_.bernoulli(cfg_.client_hint_false_negative)) {
      // The smaller client hint cache missed an entry the proxy would have
      // had (parameterized model, used when no real client stores exist).
      hint.reset();
    }
  }
  if (hint && *hint == l1) hint.reset();  // our own (stale) copy is useless

  const auto remote_cost = [&](int dist) {
    return cfg_.client_direct ? cost_.direct_hit(dist, r.size)
                              : cost_.via_l1_hit(dist, r.size);
  };
  const auto miss_cost = [&] {
    return cfg_.client_direct ? cost_.direct_miss(r.size)
                              : cost_.via_l1_miss(r.size);
  };

  if (hint) {
    const NodeIndex m = *hint;
    const int dist = topo_.lca_level(l1, m);
    cache::LruCache::Entry* he = l1_[m].peek_mut(r.object);
    if (he != nullptr && he->version >= r.version) {
      // 3a. Direct cache-to-cache transfer from the hinted node.
      if (policy_->prices_remote_as_local()) {
        // Best case: the copy would already have been pushed next to the
        // client, at no space cost (Section 4.1.1).
        out.latency = cost_.hierarchy_hit(1, r.size);
      } else {
        out.latency += remote_cost(dist);
      }
      out.source = dist == 2 ? Source::kRemoteL2 : Source::kRemoteL3;
      out.served_from_pushed = note_use(*he);
      insert_copy(l1, r.object, r.size, r.version, /*pushed=*/false);
      demand_bytes_ += recording_ ? r.size : 0;
      // The object just crossed the hierarchy: let the policy seed sibling
      // subtrees (hierarchical push on miss, Figure 9).
      policy_->on_remote_hit(*this, access_of(r), l1, m);
      return out;
    }
    // 3b. False positive: the hinted cache no longer has a fresh copy. It
    // replies with an error and we fall through to the server; the bogus
    // hint is dropped (no further searching — do not slow down misses).
    out.hint_false_positive = true;
    out.latency += cost_.control_rtt(dist);
    meta_.leaf_store(l1).erase(r.object);
    if (!client_stores_.empty()) {
      client_stores_[r.client % client_stores_.size()]->erase(r.object);
    }
  } else if (const NodeSet* held = holders_.find(r.object)) {
    // No hint although another cache holds a copy: false negative.
    out.hint_false_negative = held->size() > (held->contains(l1) ? 1 : 0);
  }

  // 4. Origin server.
  out.latency += miss_cost();
  out.source = Source::kServer;
  insert_copy(l1, r.object, r.size, r.version, /*pushed=*/false);
  demand_bytes_ += recording_ ? r.size : 0;
  // First fetch of this version from the server: the update-push trigger.
  policy_->on_server_fetch(*this, access_of(r), l1);
  return out;
}

void HintSystem::handle_modify(const trace::Record& r) {
  // The policy sees the stale holders before their copies are dropped
  // (update push remembers them as candidates for the new version).
  const NodeSet stale = holders_.take(r.object);
  if (!stale.empty()) {
    policy_->on_modify(*this, access_of(r), stale);
    stale.for_each([&](NodeIndex n) { l1_[n].erase(r.object); });
  }
  meta_.invalidate_object(r.object);
}

}  // namespace bh::core
