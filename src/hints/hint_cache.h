// Location-hint stores.
//
// AssociativeHintCache is the prototype's structure: a flat array of 16-byte
// records managed as a 4-way set-associative cache indexed by the URL hash,
// sized in bytes (Figure 5's x-axis). The flat array can be saved to and
// loaded from a file, standing in for the prototype's memory-mapped file. A
// modest amount of associativity guards against hot URLs landing in the same
// bucket; within a set, replacement prefers empty slots and then evicts the
// least recently touched record (the prototype's "preferentially cache
// recently updated entries" mechanism).
//
// UnboundedHintStore is an infinite hint cache in a flat open-addressing
// table (common/flat_map.h): a daemon's striped store with unlimited
// capacity, a simulated client's hint cache. The simulated L1s' infinite
// hint caches (Figures 5/6) live instead in their L2 group's rows in the
// metadata hierarchy (metadata_hierarchy.h), where one fan-out touches one
// row.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/hash.h"
#include "hints/hint_record.h"
#include "obs/metrics.h"

namespace bh::hints {

class HintStore {
 public:
  virtual ~HintStore() = default;

  // Nearest known location for the object, if any.
  virtual std::optional<MachineId> lookup(ObjectId id) = 0;

  // Records `loc` as the nearest known copy of `id`, replacing any previous
  // hint for the same object.
  virtual void insert(ObjectId id, MachineId loc) = 0;

  // Drops the hint for `id`. Returns true if one was present.
  virtual bool erase(ObjectId id) = 0;

  virtual std::size_t entry_count() const = 0;

  // Enumerates every stored hint — the persistence path walks the striped
  // store through this to build a save image. Thread safety follows the
  // store's own contract; `fn` must not re-enter the store.
  virtual void for_each(
      const std::function<void(ObjectId, MachineId)>& fn) const = 0;
};

struct HintCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t conflict_evictions = 0;  // valid records displaced by inserts
};

// Publishes the counters into a registry under `bh.hintcache.*`.
void export_stats(const HintCacheStats& stats, obs::MetricsRegistry& reg);

class AssociativeHintCache final : public HintStore {
 public:
  static constexpr std::uint32_t kWays = 4;

  // `capacity_bytes` is rounded down to a whole number of 4-way sets; at
  // least one set is always allocated.
  explicit AssociativeHintCache(std::uint64_t capacity_bytes);

  std::optional<MachineId> lookup(ObjectId id) override;
  void insert(ObjectId id, MachineId loc) override;
  bool erase(ObjectId id) override;
  std::size_t entry_count() const override;

  // Valid records in least- to most-recently-touched order, so replaying
  // them through insert() into a fresh cache reproduces the recency order.
  void for_each(
      const std::function<void(ObjectId, MachineId)>& fn) const override;

  std::uint64_t capacity_bytes() const { return records_.size() * sizeof(HintRecord); }
  std::size_t capacity_entries() const { return records_.size(); }
  const HintCacheStats& stats() const { return stats_; }

  // Persists / restores the raw record array (the prototype keeps it in a
  // memory-mapped file so a cold hint is one disk access away). save() is
  // crash-atomic (unique temp + fsync + rename): a crash mid-save leaves the
  // previous image intact, never a torn one. load() rejects every damaged or
  // foreign image with a distinct std::runtime_error (cannot open, truncated
  // header, wrong magic, version mismatch, layout mismatch, corrupt record
  // count, truncated record/recency region) naming the path; it parses into
  // a local instance, so a throw never leaves partially-applied state.
  void save(const std::string& path) const;
  static AssociativeHintCache load(const std::string& path);

  // In-place variant of load with the same strong guarantee: parses into a
  // temporary and swaps only on success — on throw *this is untouched.
  void restore(const std::string& path);

 private:
  std::size_t set_base(std::uint64_t key) const;
  void touch(std::size_t slot);

  std::vector<HintRecord> records_;
  // Per-slot recency, kept outside the records so the on-disk image stays
  // exactly 16 bytes per hint.
  std::vector<std::uint32_t> last_touch_;
  std::uint32_t tick_ = 0;
  std::size_t num_sets_ = 0;
  std::size_t valid_ = 0;
  HintCacheStats stats_;
};

class UnboundedHintStore final : public HintStore {
 public:
  std::optional<MachineId> lookup(ObjectId id) override;
  void insert(ObjectId id, MachineId loc) override;
  bool erase(ObjectId id) override;
  std::size_t entry_count() const override { return map_.size(); }
  void for_each(
      const std::function<void(ObjectId, MachineId)>& fn) const override;

 private:
  FlatMap<std::uint64_t> map_;  // object id -> MachineId value
};

// Lock-striped thread-safe front over N sub-stores: the stripe for an object
// is chosen by mix64(id), each stripe owns its own mutex and a sub-store of
// capacity/stripes bytes, so concurrent proxy handlers looking up hints for
// different objects almost never contend. Plain HintStores (including the
// associative cache) are single-threaded by contract; this is the concurrent
// variant the live proxy data path mounts in front of them.
class StripedHintStore final : public HintStore {
 public:
  StripedHintStore(std::uint64_t capacity_bytes, std::size_t stripes);

  std::optional<MachineId> lookup(ObjectId id) override;
  void insert(ObjectId id, MachineId loc) override;
  bool erase(ObjectId id) override;
  std::size_t entry_count() const override;

  // One outcome of an apply_batch decision callback.
  struct BatchDecision {
    enum class Op : std::uint8_t { kKeep, kInsert, kErase };
    Op op = Op::kKeep;
    MachineId loc{0};

    static BatchDecision keep() { return {}; }
    static BatchDecision insert_loc(MachineId l) {
      return {Op::kInsert, l};
    }
    static BatchDecision erase_hint() { return {Op::kErase, MachineId{0}}; }
  };

  // Batched read-modify-write: for each id, `decide(i, current)` sees the
  // current hint for ids[i] and returns the mutation to apply. Ids are
  // grouped by stripe and each group is applied under a single stripe-lock
  // acquisition instead of a lookup plus a mutation per id — the proxy
  // applies a whole received update batch through one pass. Ids on the same
  // stripe are decided in batch order relative to each other; cross-stripe
  // order is by stripe index. `decide` runs under a stripe lock and must
  // not re-enter the store.
  void apply_batch(
      std::span<const ObjectId> ids,
      const std::function<BatchDecision(std::size_t,
                                        std::optional<MachineId>)>& decide);

  // Walks each stripe under its own lock; entries from one stripe keep that
  // stripe's order, stripes are visited in index order.
  void for_each(
      const std::function<void(ObjectId, MachineId)>& fn) const override;

  std::size_t stripe_count() const { return stripes_.size(); }

 private:
  struct Stripe {
    mutable std::mutex mu;
    std::unique_ptr<HintStore> store;
  };

  // Inlined stripe selection: mix64 + Lemire multiply-shift, avoiding a div
  // per lookup on the proxy hot path.
  std::size_t stripe_index(ObjectId id) const {
    return static_cast<std::size_t>(
        (static_cast<unsigned __int128>(mix64(id.value)) * stripes_.size()) >>
        64);
  }
  Stripe& stripe_of(ObjectId id) { return stripes_[stripe_index(id)]; }
  const Stripe& stripe_of(ObjectId id) const {
    return stripes_[stripe_index(id)];
  }

  std::vector<Stripe> stripes_;
};

// Factory honouring kUnlimitedBytes.
std::unique_ptr<HintStore> make_hint_store(std::uint64_t capacity_bytes);

// Thread-safe striped variant for concurrent callers; `stripes` is clamped
// to at least 1.
std::unique_ptr<StripedHintStore> make_striped_hint_store(
    std::uint64_t capacity_bytes, std::size_t stripes);

}  // namespace bh::hints
