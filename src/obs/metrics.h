// The unified observability layer: a metrics registry shared by every
// subsystem (simulation core, hint machinery, proxy daemons, benches).
//
// Each layer used to grow its own ad-hoc stats struct (`ExperimentResult`'s
// flat counters, `HintCacheStats`, ...) with hand-rolled rate helpers and no
// common export path. The registry gives them one model:
//
//   - Counter    monotonically increasing u64, atomic (relaxed) so proxy
//                hot paths increment without a lock;
//   - Gauge      a double set to the latest observation (occupancy, clock);
//   - Histogram  a mutex-guarded bh::LatencyHistogram for distributions —
//                the paper reports means, a deployment wants tails.
//
// Naming convention: `bh.<subsystem>.<name>` (e.g. `bh.core.requests`,
// `bh.proxy.sibling_hits`, `bh.hintcache.lookups`). Names are created on
// first use and live as long as the registry; returned references are
// stable (node-based storage), so hot paths bind a metric once and then
// touch only the atomic.
//
// `snapshot()` produces a MetricsSnapshot: a plain, copyable, name-sorted
// value type that merges deterministically (counters add, gauges keep the
// max, histograms bucket-merge) and serializes to JSON and a
// Prometheus-style text format (obs/export.h). Determinism matters: the
// sweep runner merges per-run snapshots in job-index order, so the merged
// snapshot is bit-identical regardless of the worker-thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "common/histogram.h"

namespace bh::obs {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  void set(std::uint64_t n) { v_.store(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double v) {
    // fetch_add on atomic<double> needs C++20 and may not be lock-free; a
    // CAS loop keeps the gauge usable from concurrent scrape paths.
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// A distribution metric. Unlike Counter/Gauge the underlying histogram is
// not atomic, so record/merge/snapshot serialize on an internal mutex — the
// simulation records from one thread and never contends; the proxy records
// from many connection handlers and pays one uncontended lock per request.
class Histogram {
 public:
  explicit Histogram(double min_value = 0.001, double resolution = 1.05)
      : hist_(min_value, resolution) {}

  void record(double v) {
    std::lock_guard lock(mu_);
    hist_.record(v);
  }
  void merge(const LatencyHistogram& other) {
    std::lock_guard lock(mu_);
    hist_.merge(other);
  }
  LatencyHistogram snapshot() const {
    std::lock_guard lock(mu_);
    return hist_;
  }

 private:
  mutable std::mutex mu_;
  LatencyHistogram hist_;
};

// Point-in-time value of a whole registry: plain data, copyable, and
// deterministic to iterate (sorted by name). The unit every exporter and
// merger consumes.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, LatencyHistogram, std::less<>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  std::uint64_t counter(std::string_view name,
                        std::uint64_t fallback = 0) const {
    const auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
  }
  double gauge(std::string_view name, double fallback = 0.0) const {
    const auto it = gauges.find(name);
    return it == gauges.end() ? fallback : it->second;
  }
  const LatencyHistogram* histogram(std::string_view name) const {
    const auto it = histograms.find(name);
    return it == histograms.end() ? nullptr : &it->second;
  }

  // Deterministic combination: counters add, gauges keep the maximum (the
  // only symmetric choice that is meaningful for clocks and occupancies),
  // histograms merge bucket-wise. Merging the same snapshots in the same
  // order always yields the same bytes.
  void merge(const MetricsSnapshot& other);
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. References stay valid for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name, double min_value = 0.001,
                       double resolution = 1.05);

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;  // guards the maps, not the metric values
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

}  // namespace bh::obs
