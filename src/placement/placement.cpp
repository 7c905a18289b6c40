#include "placement/placement.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace bh::placement {

std::string Policy::slug() const {
  std::string s = name_;
  std::replace(s.begin(), s.end(), '-', '_');
  return s;
}

void Policy::export_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("bh.push.copies_pushed").set(stats_.copies_pushed);
  reg.counter("bh.push.bytes_pushed").set(stats_.bytes_pushed);
  reg.counter("bh.push.copies_used").set(stats_.copies_used);
  reg.counter("bh.push.bytes_used").set(stats_.bytes_used);
  reg.counter("bh.push.rate_limited").set(stats_.pushes_rate_limited);
}

bool Policy::push(Host& host, const Access& a, NodeIndex node) {
  if (!host.place_copy(node, a)) return false;
  note_pushed(a.size);
  return true;
}

bool Policy::spend_budget(double max_bytes_per_sec, const Access& a) {
  const double allowed = max_bytes_per_sec * std::max(a.now, 1.0);
  if (budget_used_ + static_cast<double>(a.size) > allowed) {
    if (recording_) ++stats_.pushes_rate_limited;
    return false;
  }
  budget_used_ += static_cast<double>(a.size);
  return true;
}

template <typename Admit>
void Policy::push_on_miss(Host& host, const Access& a, NodeIndex requester,
                          NodeIndex supplier, std::size_t sibling_count,
                          std::size_t group_count, Admit&& admit) {
  const int k = host.lca_level(requester, supplier);
  if (k < 2) return;
  holders_ = host.holders(a);

  const std::uint32_t group_size = host.l1_per_l2();
  const std::uint32_t num_l1 = host.num_l1();
  const auto group_end = [&](std::uint32_t base) {
    return std::min(base + group_size, num_l1);
  };
  const auto push_into_group = [&](std::uint32_t g, std::size_t count) {
    candidates_.clear();
    const std::uint32_t base = g * group_size;
    for (std::uint32_t n = base; n < group_end(base); ++n) {
      if (n == requester || n == supplier || holders_.contains(n)) continue;
      candidates_.push_back(n);
    }
    // Random subset of the group, `count` wide.
    for (std::size_t pick = 0; pick < count && !candidates_.empty(); ++pick) {
      if (!admit()) return;
      const std::size_t j = host.rng().next_below(candidates_.size());
      push(host, a, candidates_[j]);
      candidates_[j] = candidates_.back();
      candidates_.pop_back();
    }
  };

  // Eligible subtrees are the level-(k-1) subtrees sharing the level-k
  // parent. For k == 2 those are the individual L1 caches under the shared
  // L2 parent. For k == 3 they are the L2 groups; the two that fetched the
  // object already hold a copy and are skipped (Figure 9).
  if (k == 2) {
    push_into_group(host.l2_of_l1(requester), sibling_count);
    return;
  }
  for (std::uint32_t g = 0; g < host.num_l2(); ++g) {
    const std::uint32_t base = g * group_size;
    std::uint32_t n = base;
    while (n < group_end(base) && !holders_.contains(n)) ++n;
    if (n == group_end(base)) push_into_group(g, group_count);
  }
}

// ---------------------------------------------------------------------------
// update push (Section 4.1.2)
// ---------------------------------------------------------------------------

void UpdatePushPolicy::on_modify(Host& host, const Access& a,
                                 const NodeSet& holders) {
  // Remember who held the stale version; they are prime candidates for the
  // new one. A holder whose previous pushed copy was never read is skipped —
  // the aging mechanism: objects updated many times without being read stop
  // receiving pushes.
  NodeSet interested;
  holders.for_each([&](NodeIndex n) {
    if (host.pushed_copy_unused(n, a)) return;
    interested.insert(n);
  });
  if (!interested.empty()) prior_holders_[a.object.value] = interested;
}

void UpdatePushPolicy::on_server_fetch(Host& host, const Access& a,
                                       NodeIndex fetcher) {
  NodeSet* prior = prior_holders_.find(a.object.value);
  if (prior == nullptr) return;
  const NodeSet targets = std::move(*prior);
  prior_holders_.erase(a.object.value);
  targets.for_each([&](NodeIndex n) {
    if (n == fetcher) return;
    if (spend_budget(max_bytes_per_sec_, a)) push(host, a, n);
  });
}

// ---------------------------------------------------------------------------
// hierarchical push on miss (Section 4.1.1)
// ---------------------------------------------------------------------------

namespace {

const char* degree_policy_name(HierarchicalPushPolicy::Degree d) {
  switch (d) {
    case HierarchicalPushPolicy::Degree::kOne: return "push-1";
    case HierarchicalPushPolicy::Degree::kHalf: return "push-half";
    case HierarchicalPushPolicy::Degree::kAll: return "push-all";
  }
  return "?";
}

}  // namespace

HierarchicalPushPolicy::HierarchicalPushPolicy(Degree degree)
    : Policy(degree_policy_name(degree)), degree_(degree) {}

std::size_t HierarchicalPushPolicy::degree_count(
    std::uint32_t group_size) const {
  switch (degree_) {
    case Degree::kOne: return 1;
    case Degree::kHalf: return (group_size + 1) / 2;
    case Degree::kAll: return group_size;
  }
  return group_size;
}

void HierarchicalPushPolicy::on_remote_hit(Host& host, const Access& a,
                                           NodeIndex requester,
                                           NodeIndex supplier) {
  // k == 2: every single-cache subtree under the shared parent gets one, so
  // every degree seeds the whole group. k == 3: the degree picks 1 / half /
  // all of each copy-less group's caches.
  const std::uint32_t group_size = host.l1_per_l2();
  push_on_miss(host, a, requester, supplier, group_size,
               degree_count(group_size), [] { return true; });
}

void HierarchicalPushPolicy::select_push_targets(
    const Access& a, const std::vector<std::uint16_t>& candidates,
    std::uint16_t requester, Rng& rng, std::vector<std::uint16_t>& out) {
  (void)a;
  std::vector<std::uint16_t> pool;
  pool.reserve(candidates.size());
  for (const std::uint16_t p : candidates) {
    if (p != requester) pool.push_back(p);
  }
  const std::size_t want =
      degree_count(static_cast<std::uint32_t>(pool.size()));
  if (want >= pool.size()) {
    out.insert(out.end(), pool.begin(), pool.end());
    return;
  }
  for (std::size_t pick = 0; pick < want && !pool.empty(); ++pick) {
    const std::size_t j = rng.next_below(pool.size());
    out.push_back(pool[j]);
    pool[j] = pool.back();
    pool.pop_back();
  }
}

// ---------------------------------------------------------------------------
// adaptive greedy placement (Ioannidis & Yeh)
// ---------------------------------------------------------------------------

double AdaptiveGreedyPolicy::observe(const Access& a) {
  Demand& d = demand_[a.object.value];
  if (d.last > 0 && a.now > d.last) {
    d.rate *= std::exp((d.last - a.now) / p_.adaptive_tau_seconds);
  }
  d.rate += 1.0 / p_.adaptive_tau_seconds;
  d.last = a.now;
  const double density =
      d.rate / static_cast<double>(std::max<std::uint64_t>(a.size, 1));
  // Window of recent stream densities — what a marginal push competes
  // against for cache space. Quantiles of the window set the acceptance
  // thresholds; a mean would be useless here (the Zipf head dominates it,
  // rejecting everything below the very hottest objects).
  if (window_.size() < kWindowSize) {
    window_.push_back(density);
  } else {
    window_[window_pos_] = density;
    window_pos_ = (window_pos_ + 1) % kWindowSize;
  }
  if (++observations_ % kRefreshEvery == 0) refresh_thresholds();
  return density;
}

void AdaptiveGreedyPolicy::refresh_thresholds() {
  std::vector<double> sorted(window_);
  std::sort(sorted.begin(), sorted.end());
  const auto at = [&](double q) {
    const std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(sorted.size() - 1));
    return sorted[i];
  };
  thr_hot_ = at(p_.adaptive_hot_q);
  thr_warm_ = at(p_.adaptive_warm_q);
  thr_cool_ = at(p_.adaptive_cool_q);
}

double AdaptiveGreedyPolicy::demand_rate(ObjectId id, double now) const {
  const Demand* d = demand_.find(id.value);
  if (d == nullptr) return 0.0;
  double rate = d->rate;
  if (now > d->last) {
    rate *= std::exp((d->last - now) / p_.adaptive_tau_seconds);
  }
  return rate;
}

std::size_t AdaptiveGreedyPolicy::degree_for(double density,
                                             std::uint32_t group_size) const {
  // The greedy rule: rank a candidate placement by estimated caching gain
  // per byte (demand rate / size) and accept only placements whose density
  // clears the adaptive quantile thresholds. Hot objects — the head of the
  // Zipf curve, which generates most future requests — replicate widely;
  // the long cold tail is never pushed, so it cannot displace
  // demand-fetched copies.
  if (observations_ < kMinSamples) return (group_size + 1) / 2;
  if (density >= thr_hot_) return group_size;
  if (density >= thr_warm_) return (group_size + 1) / 2;
  if (density >= thr_cool_) return 1;
  return 0;
}

void AdaptiveGreedyPolicy::on_local_hit(Host& host, const Access& a,
                                        NodeIndex node) {
  (void)host, (void)node;
  observe(a);
}

void AdaptiveGreedyPolicy::on_server_fetch(Host& host, const Access& a,
                                           NodeIndex fetcher) {
  (void)host, (void)fetcher;
  observe(a);
}

void AdaptiveGreedyPolicy::on_remote_hit(Host& host, const Access& a,
                                         NodeIndex requester,
                                         NodeIndex supplier) {
  const double density = observe(a);
  const std::uint32_t group_size = host.l1_per_l2();
  const std::size_t degree = degree_for(density, group_size);
  if (degree == 0) return;
  // A miss that crossed inside one L2 subtree proves demand in the whole
  // sibling group, so a warm-or-hotter object seeds the full group (the
  // paper's k==2 rule); the demand estimate gates cool objects down to a
  // single copy and cold ones to none.
  push_on_miss(host, a, requester, supplier, degree == 1 ? 1 : group_size,
               degree,
               [&] { return spend_budget(p_.push_max_bytes_per_sec, a); });
}

void AdaptiveGreedyPolicy::select_push_targets(
    const Access& a, const std::vector<std::uint16_t>& candidates,
    std::uint16_t requester, Rng& rng, std::vector<std::uint16_t>& out) {
  const double density = observe(a);
  std::vector<std::uint16_t> pool;
  pool.reserve(candidates.size());
  for (const std::uint16_t p : candidates) {
    if (p != requester) pool.push_back(p);
  }
  const std::size_t want =
      degree_for(density, static_cast<std::uint32_t>(pool.size()));
  for (std::size_t pick = 0; pick < want && !pool.empty(); ++pick) {
    if (!spend_budget(p_.push_max_bytes_per_sec, a)) return;
    const std::size_t j = rng.next_below(pool.size());
    out.push_back(pool[j]);
    pool[j] = pool.back();
    pool.pop_back();
  }
}

// ---------------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------------

const std::vector<std::string>& policy_names() {
  static const std::vector<std::string> names = {
      "none",     "update-push", "push-1",         "push-half",
      "push-all", "push-ideal",  "adaptive-greedy",
  };
  return names;
}

bool is_policy_name(const std::string& name) {
  const auto& names = policy_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::unique_ptr<Policy> make_policy(const std::string& name,
                                    const PolicyParams& params) {
  using Degree = HierarchicalPushPolicy::Degree;
  if (name == "none") return std::make_unique<NonePolicy>();
  if (name == "update-push") {
    return std::make_unique<UpdatePushPolicy>(params);
  }
  if (name == "push-1") {
    return std::make_unique<HierarchicalPushPolicy>(Degree::kOne);
  }
  if (name == "push-half") {
    return std::make_unique<HierarchicalPushPolicy>(Degree::kHalf);
  }
  if (name == "push-all") {
    return std::make_unique<HierarchicalPushPolicy>(Degree::kAll);
  }
  if (name == "push-ideal") return std::make_unique<IdealPolicy>();
  if (name == "adaptive-greedy") {
    return std::make_unique<AdaptiveGreedyPolicy>(params);
  }
  std::string valid;
  for (const std::string& n : policy_names()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  throw std::invalid_argument("unknown push policy '" + name +
                              "' (valid: " + valid + ")");
}

}  // namespace bh::placement
