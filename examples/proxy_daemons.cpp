// Example: a live cooperative-cache deployment — one simulated origin server
// and N hint-exchanging proxy daemons (default 4, --daemons=N scales the
// ring to 100+), all real processes' worth of TCP on loopback (the
// library's analogue of the paper's modified-Squid prototype).
//
// Demonstrates: demand misses filling caches, hint batches propagating over
// the wire — around a *cyclic* neighbour ring, which the hop-bounded,
// deduplicated forwarding keeps storm-free — direct cache-to-cache
// transfers, the false-positive error path after an invalidation, and the
// failure model: when a daemon dies mid-run, its neighbours' probes fail
// within their tight per-call deadline, the dead peer is quarantined after a
// few consecutive failures, and the cluster degrades to origin-direct
// service instead of stalling.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/zipf.h"
#include "lab/cluster.h"
#include "obs/metrics.h"
#include "placement/placement.h"
#include "proxy/origin_server.h"
#include "proxy/proxy_server.h"

using namespace bh;

namespace {

void print_stats(const std::vector<std::unique_ptr<proxy::ProxyServer>>& ps) {
  std::printf("%-9s %9s %10s %12s %12s %10s %12s %8s %9s %8s\n", "daemon",
              "requests", "local", "cache2cache", "origin", "false+",
              "upd sent", "peerfail", "quarskip", "reprobe");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const obs::MetricsSnapshot s = ps[i]->metrics_snapshot();
    const auto c = [&s](const char* name) {
      return (unsigned long long)s.counter(std::string("bh.proxy.") + name);
    };
    std::printf(
        "proxy-%-3zu %9llu %10llu %12llu %12llu %10llu %12llu %8llu %9llu "
        "%8llu\n",
        i, c("requests"), c("local_hits"), c("sibling_hits"),
        c("origin_fetches"), c("false_positives"), c("updates_sent"),
        c("peer_failures"), c("quarantine_skips"), c("reprobes"));
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Data-path concurrency knobs: --shards=N sets both the cache shard and
  // hint stripe count, --workers=N sizes each daemon's handler pool, and
  // --persist=DIR gives each daemon an on-disk L2 tier and a hint image
  // under DIR/proxy-<i>/ (rerun with the same DIR to watch the cluster
  // start warm).
  std::size_t shards = 8;
  std::size_t workers = 8;
  std::string push_policy = "none";
  std::size_t daemons = 4;
  std::string persist_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--shards=", 0) == 0) {
      shards = std::strtoull(a.c_str() + 9, nullptr, 10);
    } else if (a.rfind("--daemons=", 0) == 0) {
      daemons = std::strtoull(a.c_str() + 10, nullptr, 10);
      if (daemons < 2) {
        std::fprintf(stderr, "--daemons must be >= 2\n");
        return 1;
      }
    } else if (a.rfind("--persist=", 0) == 0) {
      persist_dir = a.substr(10);
    } else if (a.rfind("--push-policy=", 0) == 0) {
      // Reject typos loudly: a daemon silently not pushing is the failure
      // mode this flag exists to avoid.
      push_policy = a.substr(14);
      if (!placement::is_policy_name(push_policy)) {
        std::string valid;
        for (const auto& n : placement::policy_names()) {
          if (!valid.empty()) valid += "|";
          valid += n;
        }
        std::fprintf(stderr, "unknown --push-policy '%s' (%s)\n",
                     push_policy.c_str(), valid.c_str());
        return 1;
      }
    } else if (a.rfind("--workers=", 0) == 0) {
      workers = std::strtoull(a.c_str() + 10, nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--daemons=N] [--shards=N] [--workers=N] "
                   "[--persist=DIR] [--push-policy=NAME]\n",
                   argv[0]);
      return 1;
    }
  }

  // Every daemon holds listener + worker + peer sockets; at 100+ daemons
  // the default 1024-descriptor rlimit is the first thing that breaks, and
  // it breaks as a hang (accept/connect stalls), not an error. Probe and
  // raise it up front, and shrink the per-daemon worker pool at scale so
  // the example does not spawn 800 threads.
  lab::raise_nofile_limit(daemons * lab::kFdsPerDaemon + 256);
  if (daemons > 16 && workers == 8) workers = 2;

  proxy::OriginServer origin;

  // A ring topology: each proxy exchanges hints with its successor. The
  // graph is cyclic — exactly the shape that used to circulate updates
  // forever; the seen-set and hop bound keep it quiescent now.
  std::vector<std::unique_ptr<proxy::ProxyServer>> proxies;
  for (std::size_t i = 0; i < daemons; ++i) {
    proxy::ProxyConfig cfg;
    cfg.name = "proxy-" + std::to_string(i);
    cfg.origin_port = origin.port();
    cfg.capacity_bytes = 8u << 20;
    cfg.cache_shards = shards;
    cfg.hint_stripes = shards;
    cfg.workers = workers;
    // Failure budget: tight data-path probes, short quarantine so the demo's
    // outage phase shows degradation and the stats stay legible.
    cfg.peer_deadline_seconds = 0.25;
    cfg.quarantine_threshold = 2;
    cfg.quarantine_seconds = 10.0;
    // Placement policy for supplier-driven push on peer fetches
    // ("none" keeps the cluster demand-only).
    cfg.push_policy = push_policy;
    if (!persist_dir.empty()) {
      // Per-daemon persistent state: demoted objects plus a hint image saved
      // every few seconds (and on clean stop), so a rerun over the same DIR
      // starts with a warm disk tier and hint table.
      const std::string home = persist_dir + "/proxy-" + std::to_string(i);
      if (std::system(("mkdir -p '" + home + "'").c_str()) != 0) {
        std::fprintf(stderr, "--persist: cannot create %s\n", home.c_str());
        return 1;
      }
      cfg.disk_path = home + "/objects";
      cfg.disk_capacity_bytes = 64u << 20;
      cfg.hint_image_path = home + "/hints.img";
      cfg.hint_image_save_seconds = 5.0;
    }
    // Each daemon binds an ephemeral loopback port. A bind failure at scale
    // (descriptor or port exhaustion) must be a loud, attributed error, not
    // a hang several daemons later.
    try {
      proxies.push_back(std::make_unique<proxy::ProxyServer>(cfg));
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "proxy-%zu failed to start after %zu daemon(s): %s\n", i,
                   proxies.size(), e.what());
      return 1;
    }
  }
  for (std::size_t i = 0; i < daemons; ++i) {
    proxies[i]->add_hint_neighbor(proxies[(i + 1) % daemons]->port());
  }

  if (!persist_dir.empty()) {
    for (std::size_t i = 0; i < proxies.size(); ++i) {
      const auto& p = proxies[i];
      const std::string hints =
          p->hint_image_restored()
              ? "warm hint image (" +
                    std::to_string(p->hint_image_entries()) + " hints)"
              : std::string("cold hint table");
      std::printf("proxy-%zu persistent state: %zu disk object(s), %s\n", i,
                  p->disk() ? p->disk()->object_count() : std::size_t{0},
                  hints.c_str());
    }
  }

  std::printf("origin on 127.0.0.1:%u; %zu proxies (hint ring, %s I/O) on",
              origin.port(), proxies.size(), proxies[0]->backend_name());
  for (std::size_t i = 0; i < proxies.size() && i < 16; ++i) {
    std::printf(" %u", proxies[i]->port());
  }
  if (proxies.size() > 16) std::printf(" ... (+%zu more)", proxies.size() - 16);
  std::printf("\n\n");

  // Drive a Zipf workload through random proxies, flushing hint batches
  // between bursts (a deployment would flush on the randomized 0-60 s timer).
  Rng rng(2718);
  ZipfSampler zipf(120, 0.9);
  int served = 0;
  auto drive_burst = [&](int requests, std::size_t alive) {
    for (int r = 0; r < requests; ++r) {
      const auto& p = proxies[rng.next_below(alive)];
      const ObjectId obj{0x1000 + zipf.sample(rng)};
      proxy::HttpRequest req;
      req.method = "GET";
      req.target = proxy::object_path(obj, 400 + rng.next_below(2000));
      if (auto resp = proxy::http_call(p->port(), req);
          resp && resp->status == 200) {
        ++served;
      }
    }
  };
  for (int burst = 0; burst < 25; ++burst) {
    drive_burst(20, proxies.size());
    // Relay around the ring: a hint needs up to three flush rounds to reach
    // the far side, and the loop-control keeps the cycle from storming.
    for (int round = 0; round < 3; ++round) {
      for (auto& p : proxies) p->flush_hints();
    }
  }

  // Force one false positive: invalidate a popular object behind the
  // system's back and fetch it through a proxy that hinted at the victim.
  const ObjectId popular{0x1000};
  for (auto& p : proxies) p->invalidate(popular);
  origin.modify(popular);
  proxy::HttpRequest req;
  req.method = "GET";
  req.target = proxy::object_path(popular, 1000);
  proxy::http_call(proxies[1]->port(), req);

  std::printf("-- healthy cluster --\n");
  print_stats(proxies);

  // Every daemon also serves its registry at GET /metrics (Prometheus text;
  // ?format=json for the structured rendering) — scrape proxy-0 the way a
  // monitoring agent would: `curl http://localhost:<port>/metrics`.
  proxy::HttpRequest scrape;
  scrape.method = "GET";
  scrape.target = "/metrics";
  if (auto resp = proxy::http_call(proxies[0]->port(), scrape);
      resp && resp->status == 200) {
    std::printf("\n-- GET /metrics on proxy-0 (excerpt) --\n");
    int lines = 0;
    for (std::size_t pos = 0; pos < resp->body.size() && lines < 8;) {
      const std::size_t eol = resp->body.str().find('\n', pos);
      const std::string line = resp->body.str().substr(pos, eol - pos);
      if (line.rfind("# TYPE", 0) != 0) {
        std::printf("  %s\n", line.c_str());
        ++lines;
      }
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
  }

  // Outage: the last daemon dies mid-run. Its neighbours' hinted probes
  // fail within the 0.25 s per-call deadline (never the generic socket
  // timeout), two consecutive failures quarantine it, and from then on
  // requests hinted at the corpse degrade straight to the origin.
  const std::size_t victim = daemons - 1;
  proxies[victim]->stop();
  std::printf("\nproxy-%zu killed; serving 200 more requests through the "
              "survivors\n\n",
              victim);
  for (int burst = 0; burst < 10; ++burst) {
    drive_burst(20, victim);
    for (std::size_t i = 0; i < proxies.size(); ++i) {
      if (i != victim) proxies[i]->flush_hints();
    }
  }

  std::printf("-- degraded cluster (proxy-%zu dead) --\n", victim);
  print_stats(proxies);

  std::uint64_t origin_total = 0, quarantines = 0;
  for (const auto& p : proxies) {
    const obs::MetricsSnapshot s = p->metrics_snapshot();
    origin_total += s.counter("bh.proxy.origin_fetches");
    quarantines += s.counter("bh.proxy.quarantines");
  }
  std::printf(
      "\nserved %d requests; the origin saw only %llu fetches (%llu "
      "server-side). after the kill, %llu quarantine(s) kept dead-peer "
      "probes off the data path — every request still completed, just "
      "origin-direct\n",
      served, (unsigned long long)origin_total,
      (unsigned long long)origin.requests_served(),
      (unsigned long long)quarantines);
  return 0;
}
