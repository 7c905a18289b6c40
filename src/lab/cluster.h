// Multi-process proxy-cluster orchestration for the scenario lab.
//
// The live cluster had only ever run as a handful of in-process daemons in a
// ring (examples/proxy_daemons.cpp). This layer launches 50–200 *real*
// processes — each hosting one ProxyServer — wired into paper-style
// topologies, so failure scenarios can use the real thing: SIGKILL, not
// stop(), and a restarted daemon is a fresh process rebinding the dead
// one's port.
//
// Spawn protocol: the parent fork+execs its own binary (argv[0] must
// dispatch through maybe_run_daemon(), see below) with `--bh-scenario-daemon`
// plus the daemon's name, port and origin port as flags; every other
// setting is the child's own fixed config (see kDaemonFlushIntervalSeconds).
// The child closes every inherited descriptor above stderr (so a killed
// parent's sockets — and the origin's listener, which outage scenarios
// rebind — never leak into daemon processes), constructs the ProxyServer,
// and reports "PORT <n>" on stdout, which the parent reads through a pipe.
// A daemon that cannot bind reports "ERROR <why>" and exits nonzero; the
// parent turns a missing/failed report into a thrown error with the child's
// words — start() fails loudly, never hangs. First launches bind ephemeral
// ports (collision-free at any scale); restarts pin the old port so
// surviving peers' hints (keyed by port) reach the reborn instance and
// their quarantine re-probes find it.
//
// Topology is wired after every daemon is up, over HTTP (POST
// /admin/neighbor), because ephemeral ports are only known post-bind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "proxy/origin_server.h"

namespace bh::lab {

// Raises the RLIMIT_NOFILE soft limit to min(hard, need) when it is below
// `need`; returns the resulting soft limit and warns loudly on stderr when
// even the hard limit cannot cover the ask. 200 daemons' worth of listeners,
// pools, and keep-alive clients exhaust the usual 1024 default long before
// anything else breaks — and fd exhaustion surfaces as mysterious hangs, so
// probe up front.
std::size_t raise_nofile_limit(std::size_t need);

// Rough per-daemon descriptor budget used to size raise_nofile_limit asks:
// listener + reactor + pools + a few inbound keep-alive connections.
inline constexpr std::size_t kFdsPerDaemon = 32;

enum class Topology { kRing, kHierarchy, kMesh };

std::optional<Topology> parse_topology(std::string_view name);
const char* topology_name(Topology t);

// Directed hint-neighbour edges (a -> b: a sends hint batches to b) for `n`
// nodes. Ring: i -> i+1 (cyclic). Hierarchy: branching-factor-4 tree with
// parent<->child edges both ways — the paper's cache-hierarchy shape.
// Mesh: Plaxton-style, nodes are base-4 digit strings and each node links
// to every node reachable by rewriting one digit (both ways), giving
// O(log n) diameter without any root hotspot.
std::vector<std::pair<int, int>> topology_edges(Topology t, int n);

// Every lab daemon runs one fixed config (run_daemon in cluster.cpp): small
// caches, two workers, and a failure budget tight enough that failure
// scenarios play out in seconds. Hints flush by age at this interval, so
// they propagate without manual flushes; scenarios settle on it too.
inline constexpr double kDaemonFlushIntervalSeconds = 0.05;

struct ClusterOptions {
  int proxies = 8;
  Topology topology = Topology::kHierarchy;
  // Binary to exec for daemon processes; empty = /proc/self/exe. Whatever
  // it names must call maybe_run_daemon() first thing in main().
  std::string exe;
  // How long start()/restart_daemon() wait for a daemon's PORT report.
  double ready_timeout_seconds = 30.0;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions opts);
  ~Cluster();  // kills every still-running daemon

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Raises the fd limit, starts the origin, spawns every daemon, waits for
  // readiness, and wires the topology. Throws std::runtime_error (with the
  // failing daemon's own report) when any step fails.
  void start();

  int size() const { return static_cast<int>(daemons_.size()); }
  std::uint16_t proxy_port(int i) const;
  bool alive(int i) const;
  std::vector<int> alive_indices() const;

  std::uint16_t origin_port() const { return origin_port_; }
  proxy::OriginServer* origin() { return origin_.get(); }
  // Origin outage: tear the origin down mid-run / rebind it on the same
  // port. Daemon configs carry the port, so the reborn origin is found
  // without any daemon restart.
  void stop_origin();
  void restart_origin();

  // SIGKILL — the real signal, no shutdown path runs in the child.
  void kill_daemon(int i);
  // Fresh process on the dead daemon's port, topology re-wired.
  void restart_daemon(int i);
  // Clean SIGTERM + reap of everything still alive.
  void stop();

  // GET /metrics?format=json from daemon i, parsed. nullopt when the daemon
  // is dead or the scrape fails.
  std::optional<obs::MetricsSnapshot> scrape(int i) const;
  // Merged snapshot over every live daemon (counters add up cluster-wide).
  obs::MetricsSnapshot scrape_cluster() const;

 private:
  struct Daemon {
    pid_t pid = -1;
    std::uint16_t port = 0;
    bool alive = false;
  };

  // Spawns daemon `index` (fixed_port = 0 on first launch); fills in
  // daemons_[index]. Throws on spawn/bind failure.
  void spawn_daemon(int index, std::uint16_t fixed_port);
  void wire_neighbors_of(int index);
  void reap(int i, int signal);

  ClusterOptions opts_;
  std::vector<std::pair<int, int>> edges_;
  std::unique_ptr<proxy::OriginServer> origin_;
  std::uint16_t origin_port_ = 0;
  std::vector<Daemon> daemons_;
};

// Daemon-side dispatch: every binary that links bh_lab and spawns Clusters
// must call this first in main(). It returns immediately unless argv marks
// the process as a spawned cluster daemon, in which case it runs the daemon
// until SIGTERM and exits the process (never returns).
void maybe_run_daemon(int argc, char** argv);

inline constexpr const char* kDaemonFlag = "--bh-scenario-daemon";

}  // namespace bh::lab
