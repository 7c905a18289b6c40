// Pluggable content-placement (push) policies, shared by the simulator and
// the live proxy daemons.
//
// The paper's Section-4 push algorithms — update push, hierarchical push on
// miss at degrees 1 / half / all, and the ideal-push upper bound — were
// originally hard-coded as an enum switched inside the hint system. This
// layer extracts them behind one interface: a Policy observes object
// accesses through a small set of hooks, decides which nodes should receive
// pushed copies, and owns its own accounting (pushed/used byte counters and
// the rate-limit budget), so every discard is attributed to the policy that
// caused it.
//
// Two host surfaces drive a policy:
//   - the simulator calls the on_* hooks with the hierarchy topology exposed
//     through `Host` (the object's holder set, copy placement, the shared RNG
//     whose draw order makes runs reproducible);
//   - the live proxy calls `select_push_targets` with a flat candidate list
//     of neighbour ports when a peer fetches an object from it, and records
//     successful PUTs through note_pushed().
//
// Beyond the paper's heuristics, AdaptiveGreedyPolicy implements the greedy
// marginal-gain-per-byte placement of Ioannidis & Yeh ("Adaptive Caching
// Networks with Optimality Guarantees"): per-object demand rates are
// estimated online with an exponentially-weighted moving average, and a copy
// is pushed to a subtree only when its estimated gain density clears an
// adaptive threshold — the greedy rule whose placements are within (1 - 1/e)
// of the optimum for the underlying submodular caching-gain objective.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/node_set.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace bh::placement {

// One observed access to an object, in the host's clock (simulated seconds
// for the sim, wall-clock seconds for the daemons).
struct Access {
  ObjectId object;
  std::uint64_t size = 0;
  Version version = 0;
  double now = 0.0;
};

// What the simulator exposes to a policy: the three-level hierarchy's shape,
// holder/usage queries, copy placement, and the run's deterministic RNG.
// Draw order through rng() is part of the reproducibility contract — a
// policy must only draw when it actually places copies.
class Host {
 public:
  virtual ~Host() = default;

  // L1 caches are grouped into L2 subtrees of l1_per_l2() nodes each.
  virtual std::uint32_t num_l1() const = 0;
  virtual std::uint32_t l1_per_l2() const = 0;
  virtual std::uint32_t num_l2() const = 0;
  virtual std::uint32_t l2_of_l1(NodeIndex n) const = 0;
  // Level of the lowest common ancestor: 1 = same cache, 2 = same L2
  // subtree, 3 = different L2 subtrees.
  virtual int lca_level(NodeIndex a, NodeIndex b) const = 0;

  // The nodes holding a copy of the accessed object. Every holder has the
  // latest version (a modification drops all copies first). The reference
  // is valid only until the next place_copy(): a policy that places copies
  // snapshots the set first.
  virtual const NodeSet& holders(const Access& a) const = 0;
  // Whether `node` holds a push-placed copy of the object that was never
  // read — the update-push aging signal (stop pushing to the uninterested).
  virtual bool pushed_copy_unused(NodeIndex node, const Access& a) const = 0;
  // Places a pushed copy at `node`. Returns false when the node already
  // holds the object (nothing placed, nothing for the policy to account).
  virtual bool place_copy(NodeIndex node, const Access& a) = 0;

  virtual Rng& rng() = 0;
};

// Per-policy push accounting (Figure 11's quantities). Lives inside the
// policy object so budget discards and efficiency are attributed to the
// policy that produced them.
struct PushStats {
  std::uint64_t copies_pushed = 0;
  std::uint64_t bytes_pushed = 0;
  std::uint64_t copies_used = 0;
  std::uint64_t bytes_used = 0;
  std::uint64_t pushes_rate_limited = 0;

  double efficiency() const {
    return bytes_pushed == 0 ? 0.0
                             : static_cast<double>(bytes_used) /
                                   static_cast<double>(bytes_pushed);
  }
};

class Policy {
 public:
  explicit Policy(std::string name) : name_(std::move(name)) {}
  virtual ~Policy() = default;

  Policy(const Policy&) = delete;
  Policy& operator=(const Policy&) = delete;

  // Canonical name; make_policy(name())->name() == name() (round-trip).
  const std::string& name() const { return name_; }
  // Metric-key form of the name ('-' becomes '_').
  std::string slug() const;

  // Ideal push prices every remote cache hit as a local one (the Section
  // 4.1.1 upper bound); the host applies the pricing, the policy declares it.
  virtual bool prices_remote_as_local() const { return false; }

  // --- simulator hooks (no-ops by default) ---
  // The requester's own L1 held a fresh copy.
  virtual void on_local_hit(Host& host, const Access& a, NodeIndex node) {
    (void)host, (void)a, (void)node;
  }
  // `requester` fetched cache-to-cache from `supplier` (the push-on-miss
  // trigger: the object just crossed the hierarchy).
  virtual void on_remote_hit(Host& host, const Access& a, NodeIndex requester,
                             NodeIndex supplier) {
    (void)host, (void)a, (void)requester, (void)supplier;
  }
  // `fetcher` brought the object in from the origin server (the update-push
  // trigger: the first fetch of a new version).
  virtual void on_server_fetch(Host& host, const Access& a,
                               NodeIndex fetcher) {
    (void)host, (void)a, (void)fetcher;
  }
  // The object was modified server-side; `holders` are the nodes caching the
  // now-stale version (called before those copies are dropped).
  virtual void on_modify(Host& host, const Access& a, const NodeSet& holders) {
    (void)host, (void)a, (void)holders;
  }

  // --- live-proxy hook ---
  // A peer (port `requester`, 0 when unknown) just fetched the object from
  // this daemon; `candidates` are the usable neighbour ports. Appends the
  // ports to push a copy to onto `out`. The default pushes nothing.
  virtual void select_push_targets(const Access& a,
                                   const std::vector<std::uint16_t>& candidates,
                                   std::uint16_t requester, Rng& rng,
                                   std::vector<std::uint16_t>& out) {
    (void)a, (void)candidates, (void)requester, (void)rng, (void)out;
  }

  // --- accounting, driven by the hosts ---
  // Statistics accumulate only while recording (the sim's warmup gate).
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }
  // A push-placed copy served its first request.
  void note_copy_used(std::uint64_t bytes) {
    if (!recording_) return;
    ++stats_.copies_used;
    stats_.bytes_used += bytes;
  }
  // The proxy host completed a push of `bytes` chosen by this policy.
  void note_pushed(std::uint64_t bytes) {
    if (!recording_) return;
    ++stats_.copies_pushed;
    stats_.bytes_pushed += bytes;
  }

  const PushStats& stats() const { return stats_; }
  // Publishes the counters under `bh.push.*` (and nothing else; hosts add
  // their own metrics).
  void export_metrics(obs::MetricsRegistry& reg) const;

 protected:
  // Places a copy via the host and accounts it; returns whether a copy was
  // actually placed (false when the target already held one).
  bool push(Host& host, const Access& a, NodeIndex node);
  // Hierarchical push on miss (Section 4.1.1, Figure 9): the object crossed
  // the hierarchy from `supplier` to `requester`. If they share an L2
  // subtree, pushes `sibling_count` copies into it; if not, pushes
  // `group_count` copies into every L2 group that holds no copy yet. Within
  // a group, each copy goes to a node drawn uniformly at random among those
  // that are neither holders nor the requester or supplier. `admit()` runs
  // before each draw and may stop the group (a byte budget).
  template <typename Admit>
  void push_on_miss(Host& host, const Access& a, NodeIndex requester,
                    NodeIndex supplier, std::size_t sibling_count,
                    std::size_t group_count, Admit&& admit);
  // Spends `a.size` bytes of a `max_bytes_per_sec` * elapsed budget
  // (Section 4.1.2's update-fetch cap). Returns false, counting the push as
  // rate-limited, when the budget is used up.
  bool spend_budget(double max_bytes_per_sec, const Access& a);

 private:
  std::string name_;
  PushStats stats_;
  bool recording_ = true;
  double budget_used_ = 0;  // bytes spend_budget has granted
  // push_on_miss scratch: the holder snapshot (pushes may evict, so the
  // host's set cannot be walked while placing) and one group's candidates.
  NodeSet holders_;
  std::vector<NodeIndex> candidates_;
};

// Knobs shared by the built-in policies. A single struct keeps config
// plumbing (sim sweeps, proxy flags) to one value.
struct PolicyParams {
  // Byte budget for the budgeted policies (update-push, adaptive-greedy):
  // pushes beyond max_bytes_per_sec * elapsed are discarded and counted as
  // rate-limited (Section 4.1.2's update-fetch cap).
  double push_max_bytes_per_sec = 1e18;

  // AdaptiveGreedy demand estimator: EWMA time constant of the per-object
  // request-rate estimate, in the host's clock.
  double adaptive_tau_seconds = 4.0 * 3600.0;
  // Gain-density acceptance thresholds, as quantiles of the recent access
  // stream's density distribution (self-calibrating under the heavy-tailed
  // Zipf densities, where a mean would be dominated by the head): an object
  // whose density clears the `hot` quantile seeds whole subtrees, the
  // `warm` quantile half, the `cool` quantile a single node; below that
  // nothing is pushed (the greedy rule's acceptance threshold).
  double adaptive_hot_q = 0.75;
  double adaptive_warm_q = 0.25;
  double adaptive_cool_q = 0.05;
};

// --- the paper's heuristics, as policies ---

// Plain hint hierarchy: never pushes.
class NonePolicy final : public Policy {
 public:
  NonePolicy() : Policy("none") {}
};

// Section 4.1.1 upper bound: no copies move, every remote hit is priced as
// a local hit by the host.
class IdealPolicy final : public Policy {
 public:
  IdealPolicy() : Policy("push-ideal") {}
  bool prices_remote_as_local() const override { return true; }
};

// Section 4.1.2: when a modified object's new version is first fetched from
// the server, re-seed the previous holders (skipping holders whose earlier
// pushed copy was never read), within a bytes-per-second budget.
class UpdatePushPolicy final : public Policy {
 public:
  explicit UpdatePushPolicy(const PolicyParams& params)
      : Policy("update-push"),
        max_bytes_per_sec_(params.push_max_bytes_per_sec) {}

  void on_modify(Host& host, const Access& a, const NodeSet& holders) override;
  void on_server_fetch(Host& host, const Access& a, NodeIndex fetcher) override;

 private:
  double max_bytes_per_sec_;
  // Holders of the stale version, awaiting the new version's first fetch.
  FlatMap<NodeSet> prior_holders_;
};

// Section 4.1.1 hierarchical push on miss: when an object crosses the
// hierarchy (a remote cache-to-cache fetch), seed the sibling subtrees under
// the crossing point with 1 / half / all copies per eligible subtree.
class HierarchicalPushPolicy final : public Policy {
 public:
  enum class Degree : std::uint8_t { kOne, kHalf, kAll };

  explicit HierarchicalPushPolicy(Degree degree);

  void on_remote_hit(Host& host, const Access& a, NodeIndex requester,
                     NodeIndex supplier) override;
  void select_push_targets(const Access& a,
                           const std::vector<std::uint16_t>& candidates,
                           std::uint16_t requester, Rng& rng,
                           std::vector<std::uint16_t>& out) override;

 private:
  std::size_t degree_count(std::uint32_t group_size) const;
  Degree degree_;
};

// Ioannidis & Yeh greedy placement with online EWMA demand estimates: push a
// copy only where its estimated caching gain per byte clears an adaptive
// threshold, within a byte budget. The greedy rule inherits the (1 - 1/e)
// approximation guarantee of submodular caching-gain maximization.
class AdaptiveGreedyPolicy final : public Policy {
 public:
  explicit AdaptiveGreedyPolicy(const PolicyParams& params)
      : Policy("adaptive-greedy"), p_(params) {}

  void on_local_hit(Host& host, const Access& a, NodeIndex node) override;
  void on_remote_hit(Host& host, const Access& a, NodeIndex requester,
                     NodeIndex supplier) override;
  void on_server_fetch(Host& host, const Access& a, NodeIndex fetcher) override;
  void select_push_targets(const Access& a,
                           const std::vector<std::uint16_t>& candidates,
                           std::uint16_t requester, Rng& rng,
                           std::vector<std::uint16_t>& out) override;

  // Estimated request rate (1/s) for an object, 0 when never seen. Exposed
  // for tests.
  double demand_rate(ObjectId id, double now) const;

 private:
  struct Demand {
    double rate = 0;  // EWMA accesses/second
    double last = 0;  // host-clock time of the last observation
  };

  // Folds one access into the demand estimate; returns the object's gain
  // density (estimated rate per byte).
  double observe(const Access& a);
  // Copies to place per eligible subtree of `group_size` nodes for an object
  // at gain density `density`; 0 means "not worth a push".
  std::size_t degree_for(double density, std::uint32_t group_size) const;
  // Recomputes the quantile thresholds from the density window.
  void refresh_thresholds();

  PolicyParams p_;
  FlatMap<Demand> demand_;
  // Sliding window of recent observed densities; the acceptance thresholds
  // are its configured quantiles, refreshed every kRefreshEvery
  // observations. Until kMinSamples observations arrive the policy behaves
  // like push-half (the best paper heuristic) while it calibrates.
  static constexpr std::size_t kWindowSize = 512;
  static constexpr std::uint64_t kRefreshEvery = 128;
  static constexpr std::uint64_t kMinSamples = 64;
  std::vector<double> window_;
  std::size_t window_pos_ = 0;
  std::uint64_t observations_ = 0;
  double thr_hot_ = 0, thr_warm_ = 0, thr_cool_ = 0;
};

// --- registry ---

// Canonical policy names, in presentation order: none, update-push, push-1,
// push-half, push-all, push-ideal, adaptive-greedy.
const std::vector<std::string>& policy_names();

// Builds the named policy. Throws std::invalid_argument naming the unknown
// policy and listing the valid names — config parsing is required to reject
// typos loudly, never fall back silently.
std::unique_ptr<Policy> make_policy(const std::string& name,
                                    const PolicyParams& params = {});

// True iff `name` is a canonical policy name.
bool is_policy_name(const std::string& name);

}  // namespace bh::placement
