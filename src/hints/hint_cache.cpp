#include "hints/hint_cache.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/fs_util.h"
#include "common/hash.h"

namespace bh::hints {

AssociativeHintCache::AssociativeHintCache(std::uint64_t capacity_bytes) {
  const std::uint64_t set_bytes = sizeof(HintRecord) * kWays;
  num_sets_ = static_cast<std::size_t>(std::max<std::uint64_t>(1, capacity_bytes / set_bytes));
  records_.assign(num_sets_ * kWays, HintRecord{});
  last_touch_.assign(records_.size(), 0);
}

std::size_t AssociativeHintCache::set_base(std::uint64_t key) const {
  // Keys come from mix64 in the simulator and from the numeric /obj/<hex>
  // path in the daemons; fold them onto the set index with a multiplicative
  // scramble so power-of-two set counts don't expose low-bit structure.
  return static_cast<std::size_t>(mix64(key) % num_sets_) * kWays;
}

void AssociativeHintCache::touch(std::size_t slot) {
  last_touch_[slot] = ++tick_;
}

std::optional<MachineId> AssociativeHintCache::lookup(ObjectId id) {
  ++stats_.lookups;
  if (id.value == kInvalidHintKey) return std::nullopt;
  const std::size_t base = set_base(id.value);
  for (std::uint32_t w = 0; w < kWays; ++w) {
    if (records_[base + w].key == id.value) {
      ++stats_.hits;
      touch(base + w);
      return MachineId{records_[base + w].location};
    }
  }
  return std::nullopt;
}

void AssociativeHintCache::insert(ObjectId id, MachineId loc) {
  if (id.value == kInvalidHintKey) return;
  ++stats_.inserts;
  const std::size_t base = set_base(id.value);
  std::size_t victim = base;
  bool found_empty = false;
  for (std::uint32_t w = 0; w < kWays; ++w) {
    HintRecord& r = records_[base + w];
    if (r.key == id.value) {  // refresh in place
      r.location = loc.value;
      touch(base + w);
      return;
    }
    if (!found_empty && r.key == kInvalidHintKey) {
      victim = base + w;
      found_empty = true;
    }
  }
  if (!found_empty) {
    for (std::uint32_t w = 1; w < kWays; ++w) {
      if (last_touch_[base + w] < last_touch_[victim]) victim = base + w;
    }
    ++stats_.conflict_evictions;
  } else {
    ++valid_;
  }
  records_[victim] = HintRecord{id.value, loc.value};
  touch(victim);
}

bool AssociativeHintCache::erase(ObjectId id) {
  if (id.value == kInvalidHintKey) return false;
  const std::size_t base = set_base(id.value);
  for (std::uint32_t w = 0; w < kWays; ++w) {
    if (records_[base + w].key == id.value) {
      records_[base + w] = HintRecord{};
      last_touch_[base + w] = 0;
      --valid_;
      return true;
    }
  }
  return false;
}

std::size_t AssociativeHintCache::entry_count() const { return valid_; }

void AssociativeHintCache::for_each(
    const std::function<void(ObjectId, MachineId)>& fn) const {
  // LRU -> MRU, so replaying through insert() rebuilds the same victim
  // ordering in the receiving cache (the last-inserted entry is the one a
  // future conflict eviction spares longest).
  std::vector<std::size_t> slots;
  slots.reserve(valid_);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].key != kInvalidHintKey) slots.push_back(i);
  }
  std::sort(slots.begin(), slots.end(), [this](std::size_t a, std::size_t b) {
    return last_touch_[a] < last_touch_[b];
  });
  for (const std::size_t i : slots) {
    fn(ObjectId{records_[i].key}, MachineId{records_[i].location});
  }
}

namespace {

// On-disk image header. The record array alone is not enough to restore the
// cache: per-slot recency (`last_touch_`) decides conflict-eviction victims,
// so an image without it would make post-restore evictions pick arbitrary
// records. The header pins magic, layout version, record size, and
// associativity so a load can reject any image written by a different
// layout instead of silently misreading it.
struct HintImageHeader {
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint32_t record_bytes = 0;
  std::uint64_t records = 0;  // total slots; a whole number of sets
  std::uint32_t ways = 0;
  std::uint32_t tick = 0;  // recency clock at save time
};

// "bh.hints" as a little-endian u64.
constexpr std::uint64_t kHintImageMagic = 0x73746e69682e6862ULL;
constexpr std::uint32_t kHintImageVersion = 1;

}  // namespace

void AssociativeHintCache::save(const std::string& path) const {
  // Serialize the whole image, then hand it to the crash-atomic writer: the
  // previous save stays intact until the new one is complete on disk, so a
  // crash (or SIGKILL) mid-save can never leave a torn image behind.
  HintImageHeader h;
  h.magic = kHintImageMagic;
  h.version = kHintImageVersion;
  h.record_bytes = sizeof(HintRecord);
  h.records = records_.size();
  h.ways = kWays;
  h.tick = tick_;
  std::string image;
  image.reserve(sizeof h + records_.size() * sizeof(HintRecord) +
                last_touch_.size() * sizeof(std::uint32_t));
  image.append(reinterpret_cast<const char*>(&h), sizeof h);
  image.append(reinterpret_cast<const char*>(records_.data()),
               records_.size() * sizeof(HintRecord));
  image.append(reinterpret_cast<const char*>(last_touch_.data()),
               last_touch_.size() * sizeof(std::uint32_t));
  std::string err;
  if (!atomic_write_file(path, image, &err)) {
    throw std::runtime_error("hint cache: save failed: " + err);
  }
}

AssociativeHintCache AssociativeHintCache::load(const std::string& path) {
  // Every failure mode gets its own message so an operator reading the log
  // can tell a half-copied image from a version skew from a foreign file.
  // Everything parses into the local `cache`; a throw discards it whole.
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    throw std::runtime_error("hint cache: cannot open for read: " + path);
  }
  HintImageHeader h;
  f.read(reinterpret_cast<char*>(&h), sizeof h);
  if (f.gcount() != static_cast<std::streamsize>(sizeof h)) {
    throw std::runtime_error(
        "hint cache: truncated header (" + std::to_string(f.gcount()) +
        " of " + std::to_string(sizeof h) + " bytes): " + path);
  }
  if (h.magic != kHintImageMagic) {
    throw std::runtime_error("hint cache: not a hint image: " + path);
  }
  if (h.version != kHintImageVersion) {
    throw std::runtime_error(
        "hint cache: image version mismatch (found v" +
        std::to_string(h.version) + ", expected v" +
        std::to_string(kHintImageVersion) + "): " + path);
  }
  if (h.record_bytes != sizeof(HintRecord) || h.ways != kWays) {
    throw std::runtime_error(
        "hint cache: image layout mismatch (record_bytes=" +
        std::to_string(h.record_bytes) + " ways=" + std::to_string(h.ways) +
        "): " + path);
  }
  if (h.records == 0 || h.records % kWays != 0) {
    throw std::runtime_error("hint cache: corrupt record count (" +
                             std::to_string(h.records) + "): " + path);
  }
  AssociativeHintCache cache(h.records * sizeof(HintRecord));
  const auto record_bytes =
      static_cast<std::streamsize>(h.records * sizeof(HintRecord));
  f.read(reinterpret_cast<char*>(cache.records_.data()), record_bytes);
  if (f.gcount() != record_bytes) {
    throw std::runtime_error(
        "hint cache: truncated record region (" + std::to_string(f.gcount()) +
        " of " + std::to_string(record_bytes) + " bytes): " + path);
  }
  const auto recency_bytes =
      static_cast<std::streamsize>(h.records * sizeof(std::uint32_t));
  f.read(reinterpret_cast<char*>(cache.last_touch_.data()), recency_bytes);
  if (f.gcount() != recency_bytes) {
    throw std::runtime_error(
        "hint cache: truncated recency region (" + std::to_string(f.gcount()) +
        " of " + std::to_string(recency_bytes) + " bytes): " + path);
  }
  cache.tick_ = h.tick;
  cache.valid_ = static_cast<std::size_t>(
      std::count_if(cache.records_.begin(), cache.records_.end(),
                    [](const HintRecord& r) { return r.key != kInvalidHintKey; }));
  return cache;
}

void AssociativeHintCache::restore(const std::string& path) {
  AssociativeHintCache loaded = load(path);  // throws before any mutation
  *this = std::move(loaded);
}

std::optional<MachineId> UnboundedHintStore::lookup(ObjectId id) {
  const std::uint64_t* loc = map_.find(id.value);
  if (loc == nullptr) return std::nullopt;
  return MachineId{*loc};
}

void UnboundedHintStore::insert(ObjectId id, MachineId loc) {
  map_[id.value] = loc.value;
}

bool UnboundedHintStore::erase(ObjectId id) { return map_.erase(id.value); }

void UnboundedHintStore::for_each(
    const std::function<void(ObjectId, MachineId)>& fn) const {
  map_.for_each([&](std::uint64_t key, std::uint64_t loc) {
    fn(ObjectId{key}, MachineId{loc});
  });
}

StripedHintStore::StripedHintStore(std::uint64_t capacity_bytes,
                                   std::size_t stripes)
    : stripes_(std::max<std::size_t>(1, stripes)) {
  const std::size_t n = stripes_.size();
  for (std::size_t s = 0; s < n; ++s) {
    // Unlimited stays unlimited per stripe; finite capacity splits evenly
    // (the associative sub-stores round down to whole sets themselves).
    const std::uint64_t sub =
        capacity_bytes == kUnlimitedBytes ? kUnlimitedBytes : capacity_bytes / n;
    stripes_[s].store = make_hint_store(sub);
  }
}

std::optional<MachineId> StripedHintStore::lookup(ObjectId id) {
  Stripe& s = stripe_of(id);
  std::lock_guard lock(s.mu);
  return s.store->lookup(id);
}

void StripedHintStore::insert(ObjectId id, MachineId loc) {
  Stripe& s = stripe_of(id);
  std::lock_guard lock(s.mu);
  s.store->insert(id, loc);
}

bool StripedHintStore::erase(ObjectId id) {
  Stripe& s = stripe_of(id);
  std::lock_guard lock(s.mu);
  return s.store->erase(id);
}

std::size_t StripedHintStore::entry_count() const {
  std::size_t total = 0;
  for (const Stripe& s : stripes_) {
    std::lock_guard lock(s.mu);
    total += s.store->entry_count();
  }
  return total;
}

void StripedHintStore::apply_batch(
    std::span<const ObjectId> ids,
    const std::function<BatchDecision(std::size_t,
                                      std::optional<MachineId>)>& decide) {
  // Counting sort of the batch indices by stripe, then one lock acquisition
  // per touched stripe instead of two (lookup + mutate) per id.
  const std::size_t n = ids.size();
  std::vector<std::uint32_t> stripe(n);
  std::vector<std::uint32_t> offset(stripes_.size() + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    stripe[i] = static_cast<std::uint32_t>(stripe_index(ids[i]));
    ++offset[stripe[i] + 1];
  }
  for (std::size_t s = 1; s < offset.size(); ++s) offset[s] += offset[s - 1];
  std::vector<std::uint32_t> order(n);
  {
    std::vector<std::uint32_t> next(offset.begin(), offset.end() - 1);
    for (std::size_t i = 0; i < n; ++i) order[next[stripe[i]]++] = i;
  }
  for (std::size_t s = 0; s < stripes_.size(); ++s) {
    if (offset[s] == offset[s + 1]) continue;
    std::lock_guard lock(stripes_[s].mu);
    HintStore& store = *stripes_[s].store;
    for (std::uint32_t k = offset[s]; k < offset[s + 1]; ++k) {
      const std::size_t i = order[k];
      const BatchDecision d = decide(i, store.lookup(ids[i]));
      switch (d.op) {
        case BatchDecision::Op::kKeep:
          break;
        case BatchDecision::Op::kInsert:
          store.insert(ids[i], d.loc);
          break;
        case BatchDecision::Op::kErase:
          store.erase(ids[i]);
          break;
      }
    }
  }
}

void StripedHintStore::for_each(
    const std::function<void(ObjectId, MachineId)>& fn) const {
  for (const Stripe& s : stripes_) {
    std::lock_guard lock(s.mu);
    s.store->for_each(fn);
  }
}

std::unique_ptr<HintStore> make_hint_store(std::uint64_t capacity_bytes) {
  if (capacity_bytes == kUnlimitedBytes) {
    return std::make_unique<UnboundedHintStore>();
  }
  return std::make_unique<AssociativeHintCache>(capacity_bytes);
}

std::unique_ptr<StripedHintStore> make_striped_hint_store(
    std::uint64_t capacity_bytes, std::size_t stripes) {
  return std::make_unique<StripedHintStore>(capacity_bytes, stripes);
}

void export_stats(const HintCacheStats& stats, obs::MetricsRegistry& reg) {
  reg.counter("bh.hintcache.lookups").set(stats.lookups);
  reg.counter("bh.hintcache.hits").set(stats.hits);
  reg.counter("bh.hintcache.inserts").set(stats.inserts);
  reg.counter("bh.hintcache.conflict_evictions").set(stats.conflict_evictions);
}

}  // namespace bh::hints
