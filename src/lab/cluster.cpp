#include "lab/cluster.h"

#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "obs/export.h"
#include "proxy/http.h"
#include "proxy/proxy_server.h"

namespace bh::lab {
namespace {

// Everything above stderr goes: inherited listeners, epoll instances, pipe
// ends from earlier spawns. Async-signal-safe (runs between fork and exec).
void close_fds_from_3() {
#ifdef SYS_close_range
  if (::syscall(SYS_close_range, 3u, ~0u, 0u) == 0) return;
#endif
  for (int fd = 3; fd < 8192; ++fd) ::close(fd);
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return buf;
}

// Reads one '\n'-terminated line from `fd` within the deadline; nullopt on
// timeout, EOF before a newline returns what arrived.
std::optional<std::string> read_line_deadline(
    int fd, std::chrono::steady_clock::time_point deadline) {
  std::string line;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return std::nullopt;
    pollfd p{fd, POLLIN, 0};
    const int timeout_ms = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    const int rc = ::poll(&p, 1, std::max(timeout_ms, 1));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return std::nullopt;
    char c;
    const ssize_t n = ::read(fd, &c, 1);
    if (n == 0) return line;  // EOF: child died or closed stdout
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    if (c == '\n') return line;
    line.push_back(c);
  }
}

std::string flag(const char* name, const std::string& value) {
  return std::string(name) + "=" + value;
}

}  // namespace

std::size_t raise_nofile_limit(std::size_t need) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur < need && lim.rlim_cur < lim.rlim_max) {
    rlimit want = lim;
    want.rlim_cur = (lim.rlim_max == RLIM_INFINITY)
                        ? std::max<rlim_t>(need, 1 << 20)
                        : std::min<rlim_t>(lim.rlim_max, std::max<rlim_t>(
                                                             need, lim.rlim_cur));
    if (::setrlimit(RLIMIT_NOFILE, &want) == 0) lim = want;
  }
  if (lim.rlim_cur < need) {
    std::fprintf(stderr,
                 "[lab] WARNING: RLIMIT_NOFILE soft limit %llu < %zu needed "
                 "(hard limit %llu) — expect accept/connect failures\n",
                 static_cast<unsigned long long>(lim.rlim_cur), need,
                 static_cast<unsigned long long>(lim.rlim_max));
  }
  return static_cast<std::size_t>(lim.rlim_cur);
}

std::optional<Topology> parse_topology(std::string_view name) {
  if (name == "ring") return Topology::kRing;
  if (name == "hierarchy" || name == "tree") return Topology::kHierarchy;
  if (name == "mesh" || name == "plaxton") return Topology::kMesh;
  return std::nullopt;
}

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kRing: return "ring";
    case Topology::kHierarchy: return "hierarchy";
    case Topology::kMesh: return "mesh";
  }
  return "?";
}

std::vector<std::pair<int, int>> topology_edges(Topology t, int n) {
  std::vector<std::pair<int, int>> edges;
  if (n <= 1) return edges;
  switch (t) {
    case Topology::kRing:
      for (int i = 0; i < n; ++i) edges.emplace_back(i, (i + 1) % n);
      break;
    case Topology::kHierarchy: {
      constexpr int kFanout = 4;
      for (int child = 1; child < n; ++child) {
        const int parent = (child - 1) / kFanout;
        edges.emplace_back(child, parent);
        edges.emplace_back(parent, child);
      }
      break;
    }
    case Topology::kMesh: {
      // Base-4 digit rewriting: i and j are neighbours when their base-4
      // representations differ in exactly one digit. Emitting only i < j
      // pairs (then both directions) keeps the edge list duplicate-free.
      constexpr int kBase = 4;
      int digits = 1;
      for (int span = kBase; span < n; span *= kBase) ++digits;
      for (int i = 0; i < n; ++i) {
        int place = 1;
        for (int d = 0; d < digits; ++d, place *= kBase) {
          const int digit = (i / place) % kBase;
          for (int v = 0; v < kBase; ++v) {
            if (v == digit) continue;
            const int j = i + (v - digit) * place;
            if (j >= n || j <= i) continue;
            edges.emplace_back(i, j);
            edges.emplace_back(j, i);
          }
        }
      }
      break;
    }
  }
  return edges;
}

Cluster::Cluster(ClusterOptions opts) : opts_(std::move(opts)) {
  if (opts_.exe.empty()) opts_.exe = self_exe();
  edges_ = topology_edges(opts_.topology, opts_.proxies);
}

Cluster::~Cluster() {
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    if (daemons_[i].alive) reap(static_cast<int>(i), SIGKILL);
  }
}

void Cluster::start() {
  if (opts_.exe.empty()) {
    throw std::runtime_error("lab: cannot resolve daemon binary path");
  }
  raise_nofile_limit(static_cast<std::size_t>(opts_.proxies) * kFdsPerDaemon +
                     1024);
  origin_ = std::make_unique<proxy::OriginServer>();
  origin_port_ = origin_->port();
  daemons_.assign(static_cast<std::size_t>(opts_.proxies), Daemon{});
  for (int i = 0; i < opts_.proxies; ++i) {
    spawn_daemon(i, /*fixed_port=*/0);
  }
  for (int i = 0; i < opts_.proxies; ++i) {
    wire_neighbors_of(i);
  }
}

void Cluster::spawn_daemon(int index, std::uint16_t fixed_port) {
  int fds[2];
  if (::pipe(fds) != 0) {
    throw std::runtime_error("lab: pipe failed: " +
                             std::string(std::strerror(errno)));
  }
  const std::string name = "proxy-" + std::to_string(index);
  // argv assembled before fork: nothing between fork and exec may allocate.
  std::vector<std::string> args{
      opts_.exe,
      kDaemonFlag,
      flag("--name", name),
      flag("--port", std::to_string(fixed_port)),
      flag("--origin", std::to_string(origin_port_)),
  };
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("lab: fork failed: " +
                             std::string(std::strerror(errno)));
  }
  if (pid == 0) {
    // Child: pipe write end becomes stdout, every other inherited fd goes,
    // then exec. Only async-signal-safe calls until then.
    ::dup2(fds[1], STDOUT_FILENO);
    close_fds_from_3();
    ::execv(argv[0], argv.data());
    // exec failed: the parent sees EOF on the pipe and a dead child.
    ::_exit(127);
  }
  ::close(fds[1]);

  Daemon& d = daemons_[static_cast<std::size_t>(index)];
  d.pid = pid;
  d.alive = true;
  d.port = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(opts_.ready_timeout_seconds));
  const auto line = read_line_deadline(fds[0], deadline);
  ::close(fds[0]);
  std::string why;
  if (!line) {
    why = "no PORT report within " +
          std::to_string(opts_.ready_timeout_seconds) + "s";
  } else if (line->rfind("PORT ", 0) == 0) {
    if (const auto port = proxy::parse_port(line->substr(5))) {
      d.port = *port;
      return;  // ready
    }
    why = "malformed report \"" + *line + "\"";
  } else if (line->rfind("ERROR ", 0) == 0) {
    why = line->substr(6);
  } else {
    why = line->empty() ? "daemon exited before binding"
                        : "unexpected report \"" + *line + "\"";
  }
  reap(index, SIGKILL);
  throw std::runtime_error("lab: " + name + " failed to start: " + why);
}

void Cluster::wire_neighbors_of(int index) {
  const Daemon& d = daemons_[static_cast<std::size_t>(index)];
  for (const auto& [a, b] : edges_) {
    if (a != index) continue;
    proxy::HttpRequest req;
    req.method = "POST";
    req.target = "/admin/neighbor";
    req.body = std::to_string(daemons_[static_cast<std::size_t>(b)].port);
    const auto resp = proxy::http_call(d.port, req);
    if (!resp || resp->status != 200) {
      throw std::runtime_error("lab: wiring proxy-" + std::to_string(index) +
                               " -> proxy-" + std::to_string(b) + " failed");
    }
  }
}

std::uint16_t Cluster::proxy_port(int i) const {
  return daemons_.at(static_cast<std::size_t>(i)).port;
}

bool Cluster::alive(int i) const {
  return daemons_.at(static_cast<std::size_t>(i)).alive;
}

std::vector<int> Cluster::alive_indices() const {
  std::vector<int> out;
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    if (daemons_[i].alive) out.push_back(static_cast<int>(i));
  }
  return out;
}

void Cluster::stop_origin() {
  if (origin_) origin_->stop();
  origin_.reset();
}

void Cluster::restart_origin() {
  origin_ = std::make_unique<proxy::OriginServer>(origin_port_);
}

void Cluster::reap(int i, int signal) {
  Daemon& d = daemons_.at(static_cast<std::size_t>(i));
  if (d.pid <= 0) return;
  ::kill(d.pid, signal);
  // Clean exits are quick; escalate to SIGKILL rather than hang forever on
  // a wedged child.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(d.pid, &status, WNOHANG);
    if (r == d.pid || (r < 0 && errno == ECHILD)) break;
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(d.pid, SIGKILL);
      ::waitpid(d.pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  d.pid = -1;
  d.alive = false;
}

void Cluster::kill_daemon(int i) { reap(i, SIGKILL); }

void Cluster::restart_daemon(int i) {
  Daemon& d = daemons_.at(static_cast<std::size_t>(i));
  if (d.alive) reap(i, SIGTERM);
  const std::uint16_t port = d.port;
  spawn_daemon(i, port);
  wire_neighbors_of(i);
}

void Cluster::stop() {
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    if (daemons_[i].alive) reap(static_cast<int>(i), SIGTERM);
  }
  if (origin_) origin_->stop();
}

std::optional<obs::MetricsSnapshot> Cluster::scrape(int i) const {
  const Daemon& d = daemons_.at(static_cast<std::size_t>(i));
  if (!d.alive) return std::nullopt;
  proxy::HttpRequest req;
  req.method = "GET";
  req.target = "/metrics?format=json";
  const auto resp = proxy::http_call(d.port, req);
  if (!resp || resp->status != 200) return std::nullopt;
  return obs::parse_snapshot(resp->body.str());
}

obs::MetricsSnapshot Cluster::scrape_cluster() const {
  obs::MetricsSnapshot merged;
  for (std::size_t i = 0; i < daemons_.size(); ++i) {
    if (!daemons_[i].alive) continue;
    if (const auto snap = scrape(static_cast<int>(i))) {
      merged.merge(*snap);
    }
  }
  return merged;
}

// ---------------------------------------------------------------------------
// daemon side
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void daemon_fail(const std::string& why) {
  // The parent reads stdout; stderr is for humans watching the run.
  std::printf("ERROR %s\n", why.c_str());
  std::fflush(stdout);
  std::fprintf(stderr, "[lab daemon] %s\n", why.c_str());
  std::exit(3);
}

[[noreturn]] void run_daemon(int argc, char** argv) {
  proxy::ProxyConfig cfg;
  cfg.capacity_bytes = 4ULL << 20;
  cfg.hint_bytes = 1ULL << 20;
  cfg.cache_shards = 4;
  cfg.hint_stripes = 4;
  cfg.workers = 2;
  cfg.peer_deadline_seconds = 0.25;
  cfg.origin_deadline_seconds = 1.0;
  cfg.quarantine_threshold = 2;
  cfg.quarantine_seconds = 1.0;
  cfg.flush_interval_seconds = kDaemonFlushIntervalSeconds;
  std::uint16_t fixed_port = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&a]() { return a.substr(a.find('=') + 1); };
    if (a.rfind("--name=", 0) == 0) {
      cfg.name = val();
    } else if (a.rfind("--port=", 0) == 0) {
      if (val() == "0") {  // ephemeral; parse_port rejects 0 by design
        fixed_port = 0;
      } else {
        const auto p = proxy::parse_port(val());
        if (!p) daemon_fail("bad --port " + val());
        fixed_port = *p;
      }
    } else if (a.rfind("--origin=", 0) == 0) {
      const auto p = proxy::parse_port(val());
      if (!p) daemon_fail("bad --origin " + val());
      cfg.origin_port = *p;
    } else {
      daemon_fail("unknown daemon flag " + a);
    }
  }
  cfg.listen_port = fixed_port;

  // Block the shutdown signals before any thread exists so every server
  // thread inherits the mask and sigwait below is the only consumer.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGTERM);
  sigaddset(&set, SIGINT);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);

  std::unique_ptr<proxy::ProxyServer> server;
  // A restarted daemon rebinds the port its predecessor died holding; give
  // the kernel a few beats to release it before declaring failure.
  const int attempts = fixed_port != 0 ? 10 : 1;
  for (int attempt = 0; attempt < attempts && !server; ++attempt) {
    try {
      server = std::make_unique<proxy::ProxyServer>(cfg);
    } catch (const std::exception& e) {
      if (attempt + 1 == attempts) daemon_fail(e.what());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  }

  std::printf("PORT %u\n", server->port());
  std::fflush(stdout);

  int sig = 0;
  sigwait(&set, &sig);
  server->stop();
  std::exit(0);
}

}  // namespace

void maybe_run_daemon(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == kDaemonFlag) {
    run_daemon(argc, argv);  // never returns
  }
}

}  // namespace bh::lab
