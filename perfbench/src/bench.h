// Shared pieces of the benchmark binary: parameters, timing, in-memory
// spans, exact quantiles, /proc readers and the result record every
// workload fills in.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// `--key=value` flags. Every constant of a workload arrives this way from
// perfbench/workloads.json; nothing is derived from a measurement.
class Params {
 public:
  Params(int argc, char** argv);
  bool has(const std::string& key) const { return kv_.count(key) != 0; }
  std::string str(const std::string& key) const;
  double num(const std::string& key) const;
  std::uint64_t u64(const std::string& key) const;
  const std::map<std::string, std::string>& all() const { return kv_; }

 private:
  std::map<std::string, std::string> kv_;
};

// Spans recorded in memory while tracing is on and written out at the end
// of the run. Span ids are allocated up front so children can name their
// parent before the parent closes.
struct Span {
  std::string name;
  std::string tag;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  bool on() const { return on_; }
  void enable() { on_ = true; }
  void disable() { on_ = false; }
  std::uint64_t new_id() { return next_.fetch_add(1) + 1; }
  void add(Span span);
  // Writes one JSON object per span, each with its self time (duration
  // minus the union of its children's intervals).
  void write(const std::string& path) const;
  // Total duration and self time per span name, seconds.
  std::map<std::string, std::pair<double, double>> totals() const;
  std::size_t size() const;

 private:
  std::vector<double> self_times() const;
  bool on_ = false;
  std::atomic<std::uint64_t> next_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Records a span for its scope when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent = 0,
             std::uint64_t request = 0);
  ~ScopedSpan();
  std::uint64_t id() const { return span_.id; }
  void tag(std::string t) { span_.tag = std::move(t); }

 private:
  Tracer& tracer_;
  Span span_;
};

// Keeps a value the timed loop computed, so the loop cannot be optimized
// away.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Exact quantile with linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

// /proc readers.
double process_cpu_seconds(pid_t pid);  // utime + stime
double vm_hwm_mb(pid_t pid);            // peak resident set
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
HostCpu host_cpu();
double steal_pct(const HostCpu& a, const HostCpu& b);
double thread_cpu_seconds();

// What a workload hands back to main(): metric name -> (value, unit), the
// operation tallies, and the noise stamp / diagnostics printed before the
// result line.
struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, std::string> stamp;
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  // Leaves the metric out when nothing was measured.
  void set(const std::string& name, const std::optional<double>& value,
           const std::string& unit) {
    if (value) set(name, *value, unit);
  }
};

struct Context {
  const Params& params;
  Tracer& tracer;
  std::string work_dir;  // scratch space inside the build directory
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
};

Result run_sim_grid(Context& ctx);
// hot_get and coop_mix: the same code, shaped by the workload constants.
Result run_daemon_workload(Context& ctx);
[[noreturn]] void run_daemon(const Params& params);

}  // namespace perfbench
