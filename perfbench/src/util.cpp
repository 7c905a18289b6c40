#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

Params::Params(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      throw std::invalid_argument("unexpected argument: " + std::string(arg));
    }
    const auto eq = arg.find('=');
    const std::string key(arg.substr(2, eq == arg.npos ? arg.npos : eq - 2));
    kv_[key] = eq == arg.npos ? std::string("1") : std::string(arg.substr(eq + 1));
  }
}

std::string Params::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double Params::num(const std::string& key) const {
  const std::string s = str(key);
  std::size_t used = 0;
  const double v = std::stod(s, &used);
  if (used != s.size()) throw std::invalid_argument("bad --" + key + "=" + s);
  return v;
}

std::uint64_t Params::u64(const std::string& key) const {
  const double v = num(key);
  if (v < 0 || v != std::floor(v)) {
    throw std::invalid_argument("--" + key + " must be a whole number");
  }
  return static_cast<std::uint64_t>(v);
}

// --- spans -----------------------------------------------------------------

void Tracer::add(Span span) {
  std::lock_guard lock(mu_);
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::vector<double> Tracer::self_times() const {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans_.size(); ++i) index[spans_[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    const std::int64_t lo = spans_[i].start_ns, hi = spans_[i].end_ns;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (a > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
      } else {
        cur_hi = std::max(cur_hi, b);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = double(hi - lo - covered) * 1e-9;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::lock_guard lock(mu_);
  const std::vector<double> self = self_times();
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"tag\":\"" << s.tag
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"self_s\":" << self[i] << "}\n";
  }
}

std::map<std::string, std::pair<double, double>> Tracer::totals() const {
  std::lock_guard lock(mu_);
  const std::vector<double> self = self_times();
  std::map<std::string, std::pair<double, double>> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& t = out[spans_[i].name];
    t.first += double(spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    t.second += self[i];
  }
  return out;
}

ScopedSpan::ScopedSpan(Tracer& tracer, std::string name, std::uint64_t parent,
                       std::uint64_t request)
    : tracer_(tracer) {
  if (!tracer_.on()) return;
  span_.name = std::move(name);
  span_.parent = parent;
  span_.request = request;
  span_.id = tracer_.new_id();
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!tracer_.on()) return;
  span_.end_ns = now_ns();
  tracer_.add(std::move(span_));
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * double(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// --- /proc -------------------------------------------------------------------

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // The command name may contain spaces; fields resume after the last ')'.
  std::istringstream rest(line.substr(line.rfind(')') + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return double(utime + stime) / double(::sysconf(_SC_CLK_TCK));
}

double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 16, '\n');
  }
  return 0.0;
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  HostCpu h;
  for (int i = 0; i < 10; ++i) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user.
    if (i < 8) h.total += v;
    if (i == 7) h.steal = v;
  }
  return h;
}

double steal_pct(const HostCpu& a, const HostCpu& b) {
  const double total = double(b.total - a.total);
  return total > 0 ? 100.0 * double(b.steal - a.steal) / total : 0.0;
}

double thread_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_THREAD, &ru);
  return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

}  // namespace perfbench
