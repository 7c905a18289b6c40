// hot_get and coop_mix: live proxy daemons in child processes, driven over
// loopback TCP from this process (open loop, then closed loop), scraped
// through GET /metrics before and after each phase.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "cache/disk_store.h"
#include "cache/sharded_lru.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "hints/hint_cache.h"
#include "lab/openloop.h"
#include "obs/export.h"
#include "proto/wire.h"
#include "proxy/http.h"
#include "proxy/origin_server.h"
#include "proxy/proxy_server.h"

namespace perfbench {

namespace fs = std::filesystem;
using bh::ObjectId;
using bh::proxy::ClientConnection;
using bh::proxy::HttpRequest;
using bh::proxy::HttpResponse;

// --- the daemon child ---------------------------------------------------------

// Serves until stdin closes. Prints "PORT <port> <backend>" once ready and
// answers every "N <port>" command (add a hint neighbour) with "OK".
void run_daemon(const Params& p) {
  bh::proxy::ProxyConfig cfg;
  cfg.name = p.str("name");
  cfg.origin_port = static_cast<std::uint16_t>(p.u64("origin"));
  cfg.capacity_bytes = p.u64("capacity");
  cfg.hint_bytes = p.u64("hint_bytes");
  cfg.workers = p.u64("workers");
  cfg.flush_interval_seconds = p.num("flush_interval");
  cfg.register_with_origin = p.u64("register") != 0;
  if (p.has("disk_path")) {
    cfg.disk_path = p.str("disk_path");
    cfg.disk_capacity_bytes = p.u64("disk_capacity");
    cfg.disk_fsync = false;
  }
  try {
    bh::proxy::ProxyServer server(cfg);
    std::printf("PORT %u %s\n", unsigned(server.port()), server.backend_name());
    std::fflush(stdout);
    char line[64];
    while (std::fgets(line, sizeof line, stdin)) {
      unsigned port = 0;
      if (std::sscanf(line, "N %u", &port) == 1) {
        server.add_hint_neighbor(static_cast<std::uint16_t>(port));
      }
      std::printf("OK\n");
      std::fflush(stdout);
    }
    server.stop();
  } catch (const std::exception& e) {
    std::printf("ERROR %s\n", e.what());
    std::fflush(stdout);
    std::_Exit(3);
  }
  std::fflush(stdout);
  std::_Exit(0);
}

namespace {

// --- child process management ------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  std::uint16_t port = 0;
  std::string backend;
  int cmd_fd = -1;  // child's stdin
  int out_fd = -1;  // child's stdout
};

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  buf[n] = '\0';
  return buf;
}

std::string read_line(int fd, double timeout_s) {
  std::string line;
  const auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                           std::chrono::duration<double>(timeout_s));
  while (Clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    char c;
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) break;
    if (c == '\n') return line;
    line.push_back(c);
  }
  throw std::runtime_error("daemon did not answer: '" + line + "'");
}

// Pins the calling thread (or, from a forked child, the process) to one
// core; core < 0 leaves the affinity alone.
void pin_to_core(int core) {
  if (core < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

Daemon spawn_daemon(const std::vector<std::string>& flags, int core) {
  int in[2], out[2];
  if (::pipe2(in, O_CLOEXEC) != 0 || ::pipe2(out, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::vector<std::string> args{self_exe(), "--daemon"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    pin_to_core(core);
    ::dup2(in[0], 0);
    ::dup2(out[1], 1);
    ::syscall(SYS_close_range, 3u, ~0u, 0u);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  ::close(in[0]);
  ::close(out[1]);
  Daemon d;
  d.pid = pid;
  d.cmd_fd = in[1];
  d.out_fd = out[0];
  const std::string line = read_line(d.out_fd, 30.0);
  char backend[32] = {0};
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "PORT %u %31s", &port, backend) != 2) {
    throw std::runtime_error("daemon failed to start: " + line);
  }
  d.port = static_cast<std::uint16_t>(port);
  d.backend = backend;
  return d;
}

void add_neighbor(Daemon& d, std::uint16_t port) {
  const std::string cmd = "N " + std::to_string(port) + "\n";
  if (::write(d.cmd_fd, cmd.data(), cmd.size()) != ssize_t(cmd.size()) ||
      read_line(d.out_fd, 10.0) != "OK") {
    throw std::runtime_error("daemon did not accept a neighbour");
  }
}

// Closing stdin asks the daemon to stop; it is killed if it has not exited
// within the grace period. Always reaped.
void stop_daemon(Daemon& d) {
  if (d.pid <= 0) return;
  ::close(d.cmd_fd);
  int status = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (::waitpid(d.pid, &status, WNOHANG) == 0) {
    if (Clock::now() > deadline) {
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::close(d.out_fd);
  d.pid = -1;
}

// --- the generated workload -----------------------------------------------------

struct Op {
  std::uint32_t obj = 0;
  bool modify = false;
};

struct Workload {
  std::vector<ObjectId> ids;
  std::vector<std::uint32_t> sizes;
  std::vector<std::string> targets;  // request target per object
};

// "0.70:2048-8192,0.25:16384-65536,0.05:131072-262144"
std::uint32_t draw_size(const std::string& mix, bh::Rng& rng) {
  const double u = rng.next_double();
  double acc = 0;
  std::size_t pos = 0;
  while (pos < mix.size()) {
    const std::size_t end = std::min(mix.find(',', pos), mix.size());
    double share = 0;
    unsigned long lo = 0, hi = 0;
    std::sscanf(mix.substr(pos, end - pos).c_str(), "%lf:%lu-%lu", &share, &lo, &hi);
    acc += share;
    if (u < acc || end == mix.size()) {
      return static_cast<std::uint32_t>(lo + rng.next_below(hi - lo + 1));
    }
    pos = end + 1;
  }
  return 1024;
}

Workload make_objects(const Params& p, std::uint64_t seed) {
  Workload w;
  const std::size_t n = p.u64("objects");
  const std::string mix = p.str("size_mix");
  bh::Rng rng(bh::mix64(seed ^ 0x6f626a656374ULL));
  for (std::size_t i = 0; i < n; ++i) {
    w.ids.push_back(ObjectId{bh::mix64(seed * 0x9E3779B97F4A7C15ULL + i) | 1});
    w.sizes.push_back(draw_size(mix, rng));
    w.targets.push_back(bh::proxy::object_path(w.ids.back(), w.sizes.back()));
  }
  return w;
}

// One client's operation stream for one phase: Zipf ranks over a seeded
// permutation of the objects, with the configured share of modifies.
std::vector<Op> make_ops(const Params& p, std::uint64_t seed, int client,
                         std::uint64_t phase, std::size_t count,
                         bool with_modifies, std::uint64_t& digest) {
  const std::size_t n = p.u64("objects");
  bh::Rng perm_rng(bh::mix64(seed ^ 0x7065726dULL));
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = std::uint32_t(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[perm_rng.next_below(i)]);
  }
  const bh::ZipfSampler zipf(n, p.num("zipf"));
  const double modify_share = with_modifies ? p.num("modify_share") : 0.0;
  bh::Rng rng(bh::mix64(seed ^ (phase << 40) ^ (std::uint64_t(client) << 20)));
  std::vector<Op> ops(count);
  for (Op& op : ops) {
    op.obj = perm[zipf.sample(rng)];
    op.modify = rng.next_double() < modify_share;
    digest = bh::mix64(digest ^ (std::uint64_t(op.obj) << 1 | op.modify));
  }
  return ops;
}

// --- clients ---------------------------------------------------------------------

enum Tier { kHit, kDisk, kSibling, kMiss, kOther, kNumTiers };
const char* const kTierNames[] = {"hit", "disk", "sibling", "miss", "other"};

Tier tier_of(const HttpResponse& r) {
  const auto h = r.header("X-Cache");
  if (!h) return kOther;
  if (*h == "HIT") return kHit;
  if (*h == "DISK") return kDisk;
  if (*h == "SIBLING") return kSibling;
  if (*h == "MISS") return kMiss;
  return kOther;
}

// One response to verify after the phase: the body's digest and the range
// of versions it may legally carry.
struct Check {
  std::uint32_t obj;
  std::uint32_t lo;
  std::uint32_t hi;
  std::uint64_t digest;
  Tier tier;
};

struct Sample {
  std::uint64_t seq = 0;
  std::int64_t send_ns = 0;
  std::int64_t done_ns = 0;
  Tier tier = kOther;
  bool ok = false;
};

class Cluster;

// A keep-alive client bound to one daemon.
class Client {
 public:
  Client(Cluster& cluster, int index);
  // Runs one operation; GETs append a check (when a 200 arrived) and
  // return the tier. Returns false on a transport or status failure.
  bool run(const Op& op, Tier& tier, std::vector<Check>& checks,
           std::uint64_t request_id);

  std::uint64_t bytes = 0;
  // Pins the calling thread next to the client's daemon.
  void pin();

 private:
  Cluster& cluster_;
  int index_;
  std::optional<ClientConnection> conn_;
  HttpRequest req_;
};

class Cluster {
 public:
  Cluster(const Params& p, Context& ctx, const Workload& w, int daemons,
          bool with_disk)
      : ctx_(ctx), w_(w), returned_(w.ids.size()) {
    const std::string cores = p.str("pin_cores");
    for (std::size_t pos = 0; pos < cores.size();) {
      const std::size_t end = std::min(cores.find(',', pos), cores.size());
      cores_.push_back(std::stoi(cores.substr(pos, end - pos)));
      pos = end + 1;
    }
    origin_ = std::make_unique<bh::proxy::OriginServer>();
    for (auto& v : returned_) v.store(1);
    for (int i = 0; i < daemons; ++i) {
      std::vector<std::string> flags{
          "--name=d" + std::to_string(i),
          "--origin=" + std::to_string(origin_->port()),
          "--capacity=" + std::to_string(p.u64("ram_bytes")),
          "--hint_bytes=" + std::to_string(p.u64("hint_bytes")),
          "--workers=" + std::to_string(p.u64("workers")),
          "--flush_interval=" + p.str("flush_interval_s"),
          "--register=" + std::to_string(p.u64("register_with_origin")),
      };
      if (with_disk) {
        const std::string dir = ctx.work_dir + "/disk" + std::to_string(i);
        fs::remove_all(dir);
        flags.push_back("--disk_path=" + dir);
        flags.push_back("--disk_capacity=" + std::to_string(p.u64("disk_bytes")));
        disk_dirs_.push_back(dir);
      }
      daemons_.push_back(spawn_daemon(flags, core_of(i)));
    }
    for (Daemon& a : daemons_) {
      for (const Daemon& b : daemons_) {
        if (a.pid != b.pid) add_neighbor(a, b.port);
      }
    }
  }
  ~Cluster() { stop(); }

  void stop() {
    for (Daemon& d : daemons_) stop_daemon(d);
    if (origin_) origin_->stop();
    for (const std::string& dir : disk_dirs_) fs::remove_all(dir);
    disk_dirs_.clear();
  }

  int size() const { return int(daemons_.size()); }
  // The core daemon i and the clients talking to it are pinned to, or -1.
  int core_of(int i) const {
    if (cores_.empty()) return -1;
    return cores_[std::size_t(i) % cores_.size()] % int(std::thread::hardware_concurrency());
  }
  const Daemon& daemon(int i) const { return daemons_[std::size_t(i)]; }
  bh::proxy::OriginServer& origin() { return *origin_; }
  const Workload& workload() const { return w_; }
  Tracer& tracer() { return ctx_.tracer; }

  // Bumps the object's version at the origin. Modifies of one object are
  // serialized so the version recorded on return is exactly the one this
  // modify produced.
  void modify(std::uint32_t obj) {
    std::lock_guard lock(modify_mu_[obj % kModifyLocks]);
    origin_->modify(w_.ids[obj]);
    returned_[obj].store(origin_->version_of(w_.ids[obj]));
    modifies_.fetch_add(1);
  }
  std::uint32_t returned_version(std::uint32_t obj) const {
    return returned_[obj].load();
  }
  std::uint32_t current_version(std::uint32_t obj) const {
    return origin_->version_of(w_.ids[obj]);
  }
  std::uint64_t modifies() const { return modifies_.load(); }

  bh::obs::MetricsSnapshot scrape(int i) {
    ScopedSpan span(ctx_.tracer, "scrape");
    HttpRequest req;
    req.method = "GET";
    req.target = "/metrics?format=json";
    const auto resp = bh::proxy::http_call(daemons_[std::size_t(i)].port, req);
    if (!resp || resp->status != 200) throw std::runtime_error("scrape failed");
    auto snap = bh::obs::parse_snapshot(resp->body.str());
    if (!snap) throw std::runtime_error("scrape unparsable");
    return *snap;
  }
  bh::obs::MetricsSnapshot scrape_all() {
    bh::obs::MetricsSnapshot merged;
    for (int i = 0; i < size(); ++i) merged.merge(scrape(i));
    return merged;
  }

  double cpu_seconds() const {
    double s = 0;
    for (const Daemon& d : daemons_) s += process_cpu_seconds(d.pid);
    return s;
  }
  double rss_mb() const {
    double s = 0;
    for (const Daemon& d : daemons_) s += vm_hwm_mb(d.pid);
    return s;
  }

 private:
  static constexpr std::size_t kModifyLocks = 64;
  Context& ctx_;
  const Workload& w_;
  std::unique_ptr<bh::proxy::OriginServer> origin_;
  std::vector<Daemon> daemons_;
  std::vector<int> cores_;
  std::vector<std::string> disk_dirs_;
  std::vector<std::atomic<std::uint32_t>> returned_;
  std::mutex modify_mu_[kModifyLocks];
  std::atomic<std::uint64_t> modifies_{0};
};

Client::Client(Cluster& cluster, int index) : cluster_(cluster), index_(index) {
  req_.method = "GET";
}

void Client::pin() {
  // Load-generator threads sleep until each scheduled send; the default
  // 50 us timer slack would be charged to every open-loop latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  pin_to_core(cluster_.core_of(index_));
}

bool Client::run(const Op& op, Tier& tier, std::vector<Check>& checks,
                 std::uint64_t request_id) {
  tier = kOther;
  if (op.modify) {
    cluster_.modify(op.obj);
    return true;
  }
  ScopedSpan span(cluster_.tracer(), "client.get", 0, request_id);
  const std::uint32_t lo = cluster_.returned_version(op.obj);
  if (!conn_) {
    conn_ = ClientConnection::open(cluster_.daemon(index_).port, 5.0);
    if (!conn_) return false;
  }
  req_.target = cluster_.workload().targets[op.obj];
  const auto resp = conn_->exchange(req_, Clock::now() + std::chrono::seconds(10));
  if (!conn_->reusable()) conn_.reset();
  if (!resp || resp->status != 200) {
    std::fprintf(stderr, "perfbench: GET obj=%u failed: %s\n", op.obj,
                 resp ? std::to_string(resp->status).c_str() : "transport");
    return false;
  }
  tier = tier_of(*resp);
  span.tag(kTierNames[tier]);
  const std::string_view body = resp->body.view();
  bytes += body.size();
  checks.push_back(Check{op.obj, lo, cluster_.current_version(op.obj),
                         std::hash<std::string_view>{}(body), tier});
  return true;
}

// Verifies bodies against the origin's deterministic content, outside any
// timed interval. Returns the number of wrong bodies; the first few are
// described on stderr with the version they actually carried.
std::uint64_t verify(const Workload& w, const std::vector<Check>& checks) {
  constexpr std::uint64_t kReported = 5;
  std::unordered_map<std::uint64_t, std::uint64_t> expected;
  std::uint64_t wrong = 0;
  for (const Check& c : checks) {
    bool ok = false;
    for (std::uint32_t v = c.lo; v <= c.hi && !ok; ++v) {
      const std::uint64_t key = (std::uint64_t(c.obj) << 24) | v;
      auto it = expected.find(key);
      if (it == expected.end()) {
        const std::string body = bh::proxy::origin_body(w.ids[c.obj], v, w.sizes[c.obj]);
        it = expected.emplace(key, std::hash<std::string_view>{}(body)).first;
      }
      ok = it->second == c.digest;
    }
    if (!ok && wrong < kReported) {
      int got = -1;
      for (std::uint32_t v = 1; v <= c.hi + 4 && got < 0; ++v) {
        if (std::hash<std::string>{}(bh::proxy::origin_body(w.ids[c.obj], v, w.sizes[c.obj])) ==
            c.digest) {
          got = int(v);
        }
      }
      std::fprintf(stderr, "perfbench: wrong body obj=%u tier=%s versions=[%u,%u] got=%d\n",
                   c.obj, kTierNames[c.tier], c.lo, c.hi, got);
    }
    wrong += !ok;
  }
  return wrong;
}

// --- phases -------------------------------------------------------------------------

struct Tally {
  std::uint64_t ops = 0;
  std::uint64_t gets = 0;
  std::uint64_t failed = 0;  // transport/status failures plus wrong bodies
  std::uint64_t wrong = 0;   // wrong bodies alone
  std::uint64_t tiers[kNumTiers] = {};
  std::uint64_t bytes = 0;
  double loadgen_cpu_s = 0;
  std::vector<std::uint64_t> windows;  // correct GETs per closed-loop window
  void add(const Tally& o) {
    if (windows.size() < o.windows.size()) windows.resize(o.windows.size());
    for (std::size_t i = 0; i < o.windows.size(); ++i) windows[i] += o.windows[i];
    ops += o.ops;
    gets += o.gets;
    failed += o.failed;
    wrong += o.wrong;
    for (int t = 0; t < kNumTiers; ++t) tiers[t] += o.tiers[t];
    bytes += o.bytes;
    loadgen_cpu_s += o.loadgen_cpu_s;
  }
};

// Closed-loop throughput windows and open-loop tail windows (by scheduled
// send time); partial windows at the end are left out.
constexpr double kWindowS = 0.5;
constexpr auto kWindow = std::chrono::milliseconds(500);
constexpr double kOpenWindowS = 1.0;

// Closed loop: every client runs its own stream back to back for
// `seconds`, from op `start` on. Client c talks to daemon c % daemons.
Tally closed_loop(Cluster& cluster, const std::vector<std::vector<Op>>& ops,
                  double seconds, std::uint64_t id_base, std::size_t start_op) {
  const int clients = int(ops.size());
  std::vector<Tally> tallies(static_cast<std::size_t>(clients), Tally{});
  std::vector<std::vector<Check>> checks(static_cast<std::size_t>(clients));
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Client client(cluster, c % cluster.size());
      client.pin();
      Tally& t = tallies[std::size_t(c)];
      const auto& stream = ops[std::size_t(c)];
      const double cpu0 = thread_cpu_seconds();
      t.windows.assign(std::size_t(seconds / kWindowS), 0);
      std::size_t i = start_op;
      for (auto now = Clock::now(); now < deadline;) {
        const Op& op = stream[i++ % stream.size()];
        Tier tier = kOther;
        const bool ok = client.run(op, tier, checks[std::size_t(c)],
                                   id_base + (std::uint64_t(c) << 32) + i);
        ++t.ops;
        if (!op.modify) {
          ++t.gets;
          ++t.tiers[tier];
        }
        t.failed += !ok;
        now = Clock::now();
        const auto w = std::size_t((now - start) / kWindow);
        if (ok && !op.modify && w < t.windows.size()) ++t.windows[w];
      }
      t.loadgen_cpu_s = thread_cpu_seconds() - cpu0;
      t.bytes = client.bytes;
    });
  }
  for (auto& th : threads) th.join();
  Tally total;
  for (int c = 0; c < clients; ++c) {
    auto& t = tallies[std::size_t(c)];
    t.wrong = verify(cluster.workload(), checks[std::size_t(c)]);
    t.failed += t.wrong;
    total.add(t);
  }
  return total;
}

struct OpenLoopRun {
  Tally tally;
  std::vector<double> latency_ms;  // GETs, from the scheduled send time
  std::vector<double> late_ms;     // actual send minus scheduled send
  std::vector<double> tier_ms[kNumTiers];
  std::vector<std::vector<double>> window_ms;  // by scheduled-time window
};

// Open loop through lab::run_open_loop at a fixed total rate. Latencies are
// recomputed per request from the scheduled send time so quantiles are
// exact: the schedule is the lab's own arrival timeline, anchored at the
// instant the lab finishes building it (its last rate_profile call).
OpenLoopRun open_loop(Cluster& cluster, const std::vector<std::vector<Op>>& ops,
                      double rate, double seconds, double penalty_ms,
                      std::uint64_t id_base,
                      const std::function<void()>& tick = {}) {
  const int clients = int(ops.size());
  bh::lab::OpenLoopOptions opts;
  opts.clients = clients;
  opts.rate_per_client = rate / clients;
  opts.duration_seconds = seconds;
  opts.failure_penalty_ms = penalty_ms;
  std::int64_t anchor_ns = 0;
  opts.rate_profile = [&anchor_ns](double) {
    anchor_ns = now_ns();
    return 1.0;
  };
  // The lab's arrival offsets for a constant profile.
  std::vector<double> offsets;
  for (double t = 0.0; t < seconds;
       t += 1.0 / (std::max(opts.rate_per_client, 1e-6) * 1.0)) {
    offsets.push_back(t);
  }
  std::vector<std::vector<Sample>> samples(static_cast<std::size_t>(clients));
  std::vector<std::vector<Check>> checks(static_cast<std::size_t>(clients));
  std::vector<std::unique_ptr<Client>> conns;
  std::vector<Tally> tallies(static_cast<std::size_t>(clients), Tally{});
  std::vector<double> cpu0(static_cast<std::size_t>(clients), -1.0);
  for (int c = 0; c < clients; ++c) {
    conns.push_back(std::make_unique<Client>(cluster, c % cluster.size()));
    samples[std::size_t(c)].reserve(offsets.size());
  }
  std::atomic<bool> ticking{bool(tick)};
  std::thread ticker;
  if (tick) {
    ticker = std::thread([&] {
      while (ticking.load()) {
        try {
          tick();
        } catch (const std::exception& e) {
          std::fprintf(stderr, "perfbench: periodic scrape failed: %s\n", e.what());
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  const auto result = bh::lab::run_open_loop(opts, [&](int c, std::uint64_t seq) {
    auto& t = tallies[std::size_t(c)];
    if (cpu0[std::size_t(c)] < 0) {
      conns[std::size_t(c)]->pin();
      cpu0[std::size_t(c)] = thread_cpu_seconds();
    }
    const auto& stream = ops[std::size_t(c)];
    const Op& op = stream[seq % stream.size()];
    Sample s;
    s.seq = seq;
    s.send_ns = now_ns();
    const bool ok = conns[std::size_t(c)]->run(
        op, s.tier, checks[std::size_t(c)], id_base + (std::uint64_t(c) << 32) + seq);
    s.done_ns = now_ns();
    s.ok = ok;
    ++t.ops;
    t.failed += !ok;
    if (!op.modify) {
      ++t.gets;
      ++t.tiers[s.tier];
      samples[std::size_t(c)].push_back(s);
    }
    if (seq + 1 == offsets.size()) {
      t.loadgen_cpu_s = thread_cpu_seconds() - cpu0[std::size_t(c)];
    }
    return ok;
  });
  ticking.store(false);
  if (ticker.joinable()) ticker.join();
  if (result.scheduled != offsets.size() * std::uint64_t(clients)) {
    throw std::runtime_error("open loop: lab schedule differs from the recomputed one");
  }

  OpenLoopRun run;
  run.window_ms.resize(std::size_t(seconds / kOpenWindowS));
  for (int c = 0; c < clients; ++c) {
    for (const Sample& s : samples[std::size_t(c)]) {
      const double scheduled_ns = double(anchor_ns) + offsets[s.seq] * 1e9;
      double ms = (double(s.done_ns) - scheduled_ns) * 1e-6;
      if (!s.ok) ms = std::max(ms, penalty_ms);
      run.latency_ms.push_back(ms);
      const auto w = std::size_t(offsets[s.seq] / kOpenWindowS);
      if (w < run.window_ms.size()) run.window_ms[w].push_back(ms);
      run.late_ms.push_back((double(s.send_ns) - scheduled_ns) * 1e-6);
      if (s.ok) run.tier_ms[s.tier].push_back(ms);
    }
    auto& t = tallies[std::size_t(c)];
    t.wrong = verify(cluster.workload(), checks[std::size_t(c)]);
    t.failed += t.wrong;
    t.bytes = conns[std::size_t(c)]->bytes;
    run.tally.add(t);
  }
  return run;
}

// Counter / histogram deltas between two merged scrapes. A counter or
// histogram missing from the later scrape is a renamed or removed metric,
// not a zero, and stops the run.
std::uint64_t delta(const bh::obs::MetricsSnapshot& a,
                    const bh::obs::MetricsSnapshot& b, const std::string& name) {
  if (b.counters.find(name) == b.counters.end()) {
    throw std::runtime_error("/metrics has no counter " + name);
  }
  return b.counter(name) - a.counter(name);
}

// Empty when nothing was recorded between the scrapes.
std::optional<double> hist_delta_quantile(const bh::obs::MetricsSnapshot& a,
                                          const bh::obs::MetricsSnapshot& b,
                                          const std::string& name, double q) {
  const bh::LatencyHistogram* hb = b.histogram(name);
  if (!hb) throw std::runtime_error("/metrics has no histogram " + name);
  const bh::LatencyHistogram* ha = a.histogram(name);
  std::vector<std::uint64_t> counts = hb->bucket_counts();
  std::uint64_t total = hb->count();
  double sum = hb->sum();
  if (ha) {
    for (std::size_t i = 0; i < ha->bucket_counts().size() && i < counts.size(); ++i) {
      counts[i] -= ha->bucket_counts()[i];
    }
    total -= ha->count();
    sum -= ha->sum();
  }
  if (total == 0) return std::nullopt;
  return bh::LatencyHistogram::restore(hb->min_value(), hb->log_growth(),
                                       std::move(counts), total, sum, hb->max())
      .quantile(q);
}

// Empty when the layer did no work (a zero base).
std::optional<double> ratio(double num, double den) {
  if (den <= 0) return std::nullopt;
  return num / den;
}

std::optional<double> sample_quantile(const std::vector<double>& v, double q) {
  if (v.empty()) return std::nullopt;
  return quantile(v, q);
}

// Waits until no daemon holds pending hint updates (bounded).
void settle_hints(Cluster& cluster) {
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (Clock::now() < deadline) {
    bool idle = true;
    for (int i = 0; i < cluster.size() && idle; ++i) {
      idle = cluster.scrape(i).gauge("bh.proxy.pending_updates") == 0.0;
    }
    if (idle) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

// --- layers timed from outside (traced run only) ---------------------------------

void replay_proxy_layers(Cluster& cluster, const std::vector<std::vector<Op>>& ops,
                         Context& ctx, Result& out) {
  const std::uint64_t ram_bytes = ctx.params.u64("ram_bytes");
  const Workload& w = cluster.workload();
  Tracer& tracer = ctx.tracer;
  std::vector<std::uint32_t> stream;
  for (const auto& client_ops : ops) {
    for (const Op& op : client_ops) stream.push_back(op.obj);
  }
  stream.resize(std::min<std::size_t>(stream.size(), 200000));
  {
    ScopedSpan span(tracer, "layer.proxy.http");
    std::vector<std::string> wires;
    for (std::size_t i = 0; i < std::min<std::size_t>(stream.size(), 20000); ++i) {
      HttpRequest req;
      req.method = "GET";
      req.target = w.targets[stream[i]];
      req.headers.emplace_back("Connection", "keep-alive");
      wires.push_back(bh::proxy::serialize(req));
    }
    std::size_t parsed = 0;
    const auto t0 = Clock::now();
    for (int rep = 0; rep < 5; ++rep) {
      for (const std::string& wire : wires) {
        bh::proxy::HttpParser parser(bh::proxy::HttpParser::Kind::kRequest);
        parser.feed(wire);
        parsed += parser.complete();
      }
    }
    if (parsed != 5 * wires.size()) throw std::runtime_error("HttpParser rejected a request");
    out.set("proxy.http.parse_ns", seconds_since(t0) * 1e9 / double(5 * wires.size()),
            "ns");
  }
  {
    ScopedSpan span(tracer, "layer.cache.sharded");
    bh::cache::ShardedLruCache cache(ram_bytes, 8);
    for (std::uint32_t obj : stream) {
      if (!cache.contains(w.ids[obj])) {
        cache.insert(w.ids[obj], std::string(w.sizes[obj], 'x'));
      }
    }
    for (int threads : {1, 4}) {
      std::vector<double> per_thread(static_cast<std::size_t>(threads));
      std::vector<std::thread> pool;
      for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          std::size_t hits = 0;
          const auto t0 = Clock::now();
          for (std::size_t i = std::size_t(t); i < stream.size(); ++i) {
            hits += cache.find(w.ids[stream[i]]) != nullptr;
          }
          per_thread[std::size_t(t)] =
              seconds_since(t0) * 1e9 / double(stream.size() - std::size_t(t));
          keep(hits);
        });
      }
      for (auto& th : pool) th.join();
      out.set("cache.sharded.find_ns.t" + std::to_string(threads), median(per_thread),
              "ns");
    }
  }
  {
    ScopedSpan span(tracer, "layer.hints.striped");
    auto store = bh::hints::make_striped_hint_store(1ULL << 20, 8);
    for (std::size_t i = 0; i < w.ids.size(); ++i) {
      store->insert(w.ids[i], bh::MachineId{i % 4 + 1});
    }
    std::size_t found = 0;
    const auto t0 = Clock::now();
    for (std::uint32_t obj : stream) found += store->lookup(w.ids[obj]).has_value();
    keep(found);
    out.set("hints.striped.ns_per_lookup",
            seconds_since(t0) * 1e9 / double(stream.size()), "ns");
  }
  {
    ScopedSpan span(tracer, "layer.proto.wire");
    std::vector<bh::proto::HintUpdate> batch;
    std::size_t updates = 0, decoded = 0;
    const auto t0 = Clock::now();
    for (std::uint32_t obj : stream) {
      batch.push_back({bh::proto::Action::kInform, w.ids[obj], bh::MachineId{obj % 4 + 1}});
      if (batch.size() == 64) {
        const auto wire = bh::proto::encode_post(batch);
        if (const auto back = bh::proto::decode_post(wire)) decoded += back->size();
        updates += batch.size();
        batch.clear();
      }
    }
    if (decoded != updates) throw std::runtime_error("decode_post rejected a batch");
    out.set("proto.wire.ns_per_update", seconds_since(t0) * 1e9 / double(updates), "ns");
  }
  {
    ScopedSpan span(tracer, "layer.cache.disk");
    bh::cache::DiskStore::Options dopts;
    dopts.root = ctx.work_dir + "/layer_disk";
    dopts.fsync_writes = false;
    dopts.capacity_bytes = 1ULL << 30;
    fs::remove_all(dopts.root);
    double put_s = 0, get_s = 0, mb = 0;
    {
      bh::cache::DiskStore disk(dopts);
      const std::size_t n = std::min<std::size_t>(w.ids.size(), 512);
      std::vector<std::string> bodies;
      for (std::size_t i = 0; i < n; ++i) {
        bodies.push_back(bh::proxy::origin_body(w.ids[i], 1, w.sizes[i]));
        mb += double(w.sizes[i]) / double(1 << 20);
      }
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < n; ++i) disk.put(w.ids[i], bodies[i]);
      put_s = seconds_since(t0);
      t0 = Clock::now();
      std::string sink;
      for (std::size_t i = 0; i < n; ++i) {
        if (auto body = disk.get_body(w.ids[i])) {
          sink.clear();
          body->append_to(sink);
        }
      }
      get_s = seconds_since(t0);
    }
    fs::remove_all(dopts.root);
    out.set("cache.disk.put_us_per_mb", put_s * 1e6 / mb, "us/MB");
    out.set("cache.disk.get_us_per_mb", get_s * 1e6 / mb, "us/MB");
  }
  {
    ScopedSpan span(tracer, "layer.origin.fetch");
    std::vector<double> origin_ms, probe_ms;
    HttpRequest req;
    req.method = "GET";
    for (std::size_t i = 0; i < 200; ++i) {
      req.target = w.targets[stream[i]];
      req.headers.clear();
      auto t0 = Clock::now();
      if (bh::proxy::http_call(cluster.origin().port(), req)) {
        origin_ms.push_back(seconds_since(t0) * 1e3);
      }
      req.headers.emplace_back("X-No-Forward", "1");
      t0 = Clock::now();
      if (bh::proxy::http_call(cluster.daemon(int(i) % cluster.size()).port, req)) {
        probe_ms.push_back(seconds_since(t0) * 1e3);
      }
    }
    out.set("origin.fetch_ms.p50", median(origin_ms), "ms");
    out.set("peer.probe_ms.p50", median(probe_ms), "ms");
  }
}

}  // namespace

namespace {

// Runs each client's op list once (the warm pass), in parallel.
Tally run_once(Cluster& cluster, const std::vector<std::vector<Op>>& ops) {
  std::vector<Tally> tallies(ops.size(), Tally{});
  std::vector<std::vector<Check>> checks(ops.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < ops.size(); ++c) {
    threads.emplace_back([&, c] {
      Client client(cluster, int(c) % cluster.size());
      client.pin();
      for (const Op& op : ops[c]) {
        Tier tier = kOther;
        const bool ok = client.run(op, tier, checks[c], 0);
        ++tallies[c].ops;
        tallies[c].gets += !op.modify;
        tallies[c].failed += !ok;
      }
    });
  }
  for (auto& th : threads) th.join();
  Tally total;
  for (std::size_t c = 0; c < ops.size(); ++c) {
    tallies[c].wrong = verify(cluster.workload(), checks[c]);
    tallies[c].failed += tallies[c].wrong;
    total.add(tallies[c]);
  }
  return total;
}

}  // namespace

Result run_daemon_workload(Context& ctx) {
  const Params& p = ctx.params;
  const int daemons = int(p.u64("daemons"));
  const int clients = int(p.u64("clients"));
  const double rate = p.num("rate");
  const double open_s = ctx.seconds * p.num("open_share");
  const double closed_s = ctx.seconds - open_s;
  const double penalty_ms = p.num("penalty_ms");
  const bool with_disk = p.u64("disk_bytes") > 0;
  const std::size_t warm_per_client = p.u64("warm_requests_per_client");
  Tracer& tracer = ctx.tracer;
  Result out;

  // Inputs, all from the seed.
  const Workload w = make_objects(p, ctx.seed);
  std::uint64_t digest = 0;
  std::vector<std::vector<Op>> warm_ops(static_cast<std::size_t>(clients)), open_ops, closed_ops;
  for (int c = 0; c < clients; ++c) {
    if (warm_per_client == 0) {
      for (std::size_t i = std::size_t(c); i < w.ids.size(); i += std::size_t(clients)) {
        warm_ops[std::size_t(c)].push_back(Op{std::uint32_t(i), false});
      }
    } else {
      warm_ops[std::size_t(c)] = make_ops(p, ctx.seed, c, 1, warm_per_client, false, digest);
    }
    const auto open_count = std::size_t(rate / clients * open_s) + 2;
    open_ops.push_back(make_ops(p, ctx.seed, c, 2, open_count, true, digest));
    closed_ops.push_back(
        make_ops(p, ctx.seed, c, 3, p.u64("closed_ops_per_client"), true, digest));
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, digest);
  out.stamp["request_digest"] = hex;

  // Set-up, several times: spawn, wire, warm, settle. The last cluster is
  // the one measured.
  std::vector<double> setup_s;
  std::unique_ptr<Cluster> cluster;
  Tally warm;
  std::uint64_t origin_at_start = 0;
  for (std::uint64_t s = 0; s < p.u64("setup_repeats"); ++s) {
    if (cluster) cluster->stop();
    cluster.reset();
    ScopedSpan span(tracer, "setup");
    const auto t0 = Clock::now();
    cluster = std::make_unique<Cluster>(p, ctx, w, daemons, with_disk);
    origin_at_start = cluster->origin().requests_served();
    warm = run_once(*cluster, warm_ops);
    settle_hints(*cluster);
    setup_s.push_back(seconds_since(t0));
    out.attempted += warm.ops;
    out.failed += warm.failed;
  }
  Cluster& cl = *cluster;
  out.stamp["backend"] = cl.daemon(0).backend;

  // Open loop at the fixed rate.
  const HostCpu host0 = host_cpu();
  const bh::obs::MetricsSnapshot snap0 = cl.scrape_all();
  const std::uint64_t inval0 = cl.origin().invalidations_sent();
  const std::uint64_t modifies0 = cl.modifies();
  double queue_max = 0;
  std::function<void()> tick;
  if (ctx.traced) {
    tick = [&] {
      for (int i = 0; i < cl.size(); ++i) {
        queue_max = std::max(queue_max, cl.scrape(i).gauge("bh.proxy.queue_depth"));
      }
    };
  }
  OpenLoopRun open = open_loop(cl, open_ops, rate, open_s, penalty_ms, 1ULL << 56, tick);
  const std::uint64_t origin1 = cl.origin().requests_served();
  const bh::obs::MetricsSnapshot snap1 = cl.scrape_all();

  // Closed-loop warm-up, not timed: at closed-loop rates coop_mix's tiers
  // keep filling for several seconds (its first 0.5 s windows ran at 60-80%
  // of the later ones), so the timed loop starts from the filled state.
  // Its responses are still checked.
  Tally closed_warm;
  if (const double warm_s = p.num("closed_warm_s"); warm_s > 0) {
    const bool spans = tracer.on();
    tracer.disable();
    closed_warm = closed_loop(cl, closed_ops, warm_s, 6ULL << 56, closed_ops.front().size() / 2);
    if (spans) tracer.enable();
  }

  // Closed loop. The traced run splits it into quarters with spans off, on,
  // on, off (so a drift such as caches warming cancels out), each starting
  // at a different point of the streams; the two halves give the tracing
  // overhead.
  Tally closed, quiet;
  double closed_elapsed = 0, quiet_elapsed = 0;
  const double cpu0 = cl.cpu_seconds();
  if (ctx.traced) {
    const bool spans_on[] = {false, true, true, false};
    for (std::size_t k = 0; k < 4; ++k) {
      spans_on[k] ? tracer.enable() : tracer.disable();
      const auto t0 = Clock::now();
      const Tally t = closed_loop(cl, closed_ops, closed_s / 4, (k + 2) << 56,
                                  k * closed_ops.front().size() / 4);
      (spans_on[k] ? closed : quiet).add(t);
      (spans_on[k] ? closed_elapsed : quiet_elapsed) += seconds_since(t0);
    }
    tracer.enable();
  } else {
    const auto t0 = Clock::now();
    closed = closed_loop(cl, closed_ops, closed_s, 3ULL << 56, 0);
    closed_elapsed = seconds_since(t0);
  }
  const double cpu_s = cl.cpu_seconds() - cpu0;
  const bh::obs::MetricsSnapshot snap2 = cl.scrape_all();
  const HostCpu host1 = host_cpu();
  const double rss = cl.rss_mb();
  const std::uint64_t invalidations = cl.origin().invalidations_sent() - inval0;
  const std::uint64_t modifies = cl.modifies() - modifies0;

  if (ctx.traced) {
    ScopedSpan span(tracer, "layers");
    replay_proxy_layers(cl, closed_ops, ctx, out);
  }
  cl.stop();

  Tally measured;
  measured.add(open.tally);
  measured.add(quiet);
  measured.add(closed);
  out.attempted += closed_warm.ops + measured.ops;
  out.failed += closed_warm.failed + measured.failed;
  out.correct = out.failed == 0;
  out.stamp["wrong_bodies"] = std::to_string(warm.wrong + closed_warm.wrong + measured.wrong);

  const double closed_ok = double(closed.gets - closed.failed);
  const double quiet_ok = double(quiet.gets - quiet.failed);
  // Open-loop quantiles are medians over 1 s windows, so a burst of host
  // steal moves the windows it covers, not the run's figure. Both stay
  // per-layer diagnostics: on a shared VM their run-to-run spread reaches
  // the widest bound an end-to-end metric may have (see NOTES.md).
  std::vector<double> window_rps, window_p50, window_p99;
  for (std::uint64_t n : closed.windows) window_rps.push_back(double(n) / kWindowS);
  for (const auto& win : open.window_ms) {
    window_p50.push_back(quantile(win, 0.50));
    window_p99.push_back(quantile(win, 0.99));
  }
  out.set("setup_s", median(setup_s), "s");
  out.set("req_per_s", closed_ok / closed_elapsed, "req/s");
  out.set("openloop.p50_ms", median(window_p50), "ms");
  out.set("openloop.p99_ms", median(window_p99), "ms");
  out.set("cpu_us_per_req", cpu_s * 1e6 / double(closed.gets + quiet.gets), "us");
  // Origin load over everything the measured cluster served before the
  // closed loop: its warm pass and the open loop.
  out.set("origin_fetch_ratio",
          double(origin1 - origin_at_start) / double(warm.gets + open.tally.gets), "ratio");
  out.set("peak_rss_mb", rss, "MB");

  // Noise stamp.
  const double loadgen_cpu = open.tally.loadgen_cpu_s + closed.loadgen_cpu_s + quiet.loadgen_cpu_s;
  const double steal = steal_pct(host0, host1);
  auto series = [](const std::vector<double>& v) {
    std::string s;
    char buf[32];
    for (double x : v) {
      std::snprintf(buf, sizeof buf, "%s%.4g", s.empty() ? "" : ",", x);
      s += buf;
    }
    return s;
  };
  out.stamp["setup_s_all"] = series(setup_s);
  out.stamp["closed_window_rps"] = series(window_rps);
  out.stamp["open_window_p99_ms"] = series(window_p99);
  out.stamp["open_window_p50_ms"] = series(window_p50);
  out.stamp["open_p50_ms_all"] = std::to_string(quantile(open.latency_ms, 0.50));
  out.stamp["open_p99_ms_all"] = std::to_string(quantile(open.latency_ms, 0.99));
  out.stamp["open_loop_samples"] = std::to_string(open.latency_ms.size());
  out.stamp["steal_pct"] = std::to_string(steal);
  out.stamp["loadgen_us_per_req"] =
      std::to_string(loadgen_cpu * 1e6 / double(std::max<std::uint64_t>(1, measured.ops)));
  out.stamp["open_late_ms_p99"] = std::to_string(quantile(open.late_ms, 0.99));
  for (int t = 0; t < kNumTiers; ++t) {
    out.stamp[std::string("open_share_") + kTierNames[t]] =
        std::to_string(double(open.tally.tiers[t]) / double(open.tally.gets));
  }

  if (ctx.traced) {
    // A metric whose base is empty on this workload (no disk tier, no
    // modifies, no sibling traffic) is left out; run.py checks the set
    // emitted against the workload's per_layer list in workloads.json.
    const auto& a = snap0;
    const auto& b = snap1;
    const double reqs = double(delta(a, b, "bh.proxy.requests"));
    const double closed_reqs = double(delta(snap1, snap2, "bh.proxy.requests"));
    out.set("proxy.request_ms.p50", hist_delta_quantile(a, b, "bh.proxy.request_ms", 0.5), "ms");
    out.set("proxy.request_ms.p99", hist_delta_quantile(a, b, "bh.proxy.request_ms", 0.99), "ms");
    out.set("proxy.loop_iterations_per_req",
            ratio(double(delta(snap1, snap2, "bh.proxy.loop_iterations")), closed_reqs),
            "iter/req");
    out.set("proxy.submit_calls_per_req",
            ratio(double(delta(snap1, snap2, "bh.proxy.submit_calls")), closed_reqs),
            "calls/req");
    out.set("proxy.queue_depth.max", queue_max, "jobs");
    // Tier shares as the proxy labelled each client response (X-Cache): the
    // daemon's own disk-hit counter also counts sibling probes it served.
    const double gets = double(open.tally.gets);
    out.set("proxy.ram_hit_ratio", ratio(double(open.tally.tiers[kHit]), gets), "ratio");
    out.set("proxy.disk_hit_ratio", ratio(double(open.tally.tiers[kDisk]), gets), "ratio");
    out.set("proxy.sibling_hit_ratio", ratio(double(open.tally.tiers[kSibling]), gets), "ratio");
    out.set("proxy.false_positive_ratio",
            ratio(double(delta(a, b, "bh.proxy.false_positives")), reqs), "ratio");
    out.set("proxy.peer_failure_ratio",
            ratio(double(delta(a, b, "bh.proxy.peer_failures")), reqs), "ratio");
    const double outbound = double(
        delta(a, b, "bh.proxy.sibling_hits") + delta(a, b, "bh.proxy.false_positives") +
        delta(a, b, "bh.proxy.peer_failures") + delta(a, b, "bh.proxy.origin_fetches") +
        delta(a, b, "bh.proxy.origin_failures"));
    out.set("proxy.pool_reuse_ratio", ratio(double(delta(a, b, "bh.proxy.pool_reuse")), outbound),
            "ratio");
    const double sent = double(delta(a, b, "bh.proxy.updates_sent"));
    const double coalesced = double(delta(a, b, "bh.proxy.updates_coalesced"));
    out.set("proxy.updates_per_req", ratio(sent, reqs), "upd/req");
    out.set("proxy.update_bytes_per_req",
            ratio(double(delta(a, b, "bh.proxy.update_bytes_sent")), reqs), "B/req");
    out.set("proxy.updates_coalesced_ratio", ratio(coalesced, sent + coalesced), "ratio");
    out.set("proxy.zerocopy_byte_ratio",
            ratio(double(delta(a, b, "bh.proxy.bytes_zerocopy")), double(open.tally.bytes)),
            "ratio");
    if (with_disk) {
      const double dropped = double(delta(a, b, "bh.proxy.demote_dropped"));
      out.set("proxy.demote_dropped_ratio",
              ratio(dropped, dropped + double(delta(a, b, "bh.proxy.demote_queued"))), "ratio");
      out.set("proxy.disk.promote_ms.p50",
              hist_delta_quantile(a, b, "bh.proxy.disk.promote_ms", 0.5), "ms");
      out.set("proxy.disk.demote_ms.p50",
              hist_delta_quantile(a, b, "bh.proxy.disk.demote_ms", 0.5), "ms");
    }
    out.set("origin.invalidations_per_modify", ratio(double(invalidations), double(modifies)),
            "msg/modify");
    for (int t = 0; t < kMiss + 1; ++t) {
      const std::string name = std::string("client.") + kTierNames[t] + "_ms.";
      out.set(name + "p50", sample_quantile(open.tier_ms[t], 0.5), "ms");
      out.set(name + "p99", sample_quantile(open.tier_ms[t], 0.99), "ms");
    }
    out.set("cpu.loadgen_us_per_req",
            loadgen_cpu * 1e6 / double(std::max<std::uint64_t>(1, measured.ops)), "us");
    out.set("openloop.late_ms.p99", quantile(open.late_ms, 0.99), "ms");
    out.set("host.steal_pct", steal, "%");
    const double quiet_us = quiet_elapsed * 1e6 / std::max(1.0, quiet_ok);
    const double traced_us = closed_elapsed * 1e6 / std::max(1.0, closed_ok);
    out.set("trace.overhead_pct", 100.0 * (traced_us - quiet_us) / quiet_us, "%");
  }
  return out;
}

}  // namespace perfbench
