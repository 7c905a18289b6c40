// Live-daemon load generator: real OriginServer and ProxyServer instances
// over loopback TCP, in one of three modes. Each mode merges its results into
// its own suite of the bench JSON file.
//
// --keepalive runs the network mode: a real OriginServer plus a
// reactor-mounted ProxyServer, with N client threads fetching one pre-warmed
// object (a pure local HIT, so connection setup dominates the exchange).
// The per_request baseline opens a fresh TCP connection per call (the old
// thread-per-request contract); the keepalive path holds one persistent
// ClientConnection per thread. Results land in the "loadgen_net" suite,
// under the unprefixed bh.loadgen_net.* keys and again under
// bh.loadgen_net.epoll.*, the engine's name, which earlier per-backend runs
// recorded.
//
// --restart measures the persistence tier: one daemon with a disk tier and
// a hint image serves a working set several times its RAM budget (cold
// pass: every request is an origin fetch, most bodies demote to disk), is
// cleanly stopped, and a second daemon is mounted over the same on-disk
// state. The warm pass replays the working set and records what fraction
// was served without the origin — bh.restart.warm_hit_ratio in the
// "restart" suite, alongside the per-phase request rates and disk counters.
//
// --large measures the large-object serve path: 256KB–4MB bodies streamed
// from the RAM tier (shared buffers, gathered writes) and from the disk
// tier (a checksummed read per hit), recording MB/s per size and in
// aggregate in the "loadgen_large" suite.
//
// The in-process striped-cache vs global-mutex comparison lives in
// bench/micro_sharded_cache (BM_ShardedFindHit vs BM_GlobalMutexFindHit).
//
// Usage: loadgen_concurrent --keepalive|--restart|--large [--json=<path>]
//                           [--ops=<per-client-op-count>] [--clients=<n>]
//                           [--require-speedup=<x>]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "lab/openloop.h"
#include "obs/bench_store.h"
#include "obs/export.h"
#include "obs/machine.h"
#include "obs/metrics.h"
#include "proxy/http.h"
#include "proxy/origin_server.h"
#include "proxy/proxy_server.h"

using namespace bh;

namespace {

// --- network mode ---

constexpr std::size_t kNetObjectBytes = 512;
const ObjectId kNetObject{99};

proxy::HttpRequest net_request() {
  proxy::HttpRequest req;
  req.method = "GET";
  req.target = proxy::object_path(kNetObject, kNetObjectBytes);
  return req;
}

// Requests/sec for `clients` threads each issuing `ops` GETs of the warmed
// object, one fresh TCP connection per request (connect, exchange, close —
// what every request paid before the reactor's keep-alive path existed).
double run_per_request(std::uint16_t proxy_port, int clients,
                       std::uint64_t ops) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> failures{0};
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([proxy_port, ops, &failures] {
      const proxy::HttpRequest req = net_request();
      for (std::uint64_t i = 0; i < ops; ++i) {
        const auto resp = proxy::http_call(proxy_port, req);
        if (!resp || resp->status != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (failures.load() != 0) {
    std::fprintf(stderr, "[loadgen_net] %llu per-request failures\n",
                 static_cast<unsigned long long>(failures.load()));
  }
  return static_cast<double>(ops) * clients / elapsed.count();
}

// Same request stream over one persistent ClientConnection per thread,
// reopened only if the server stops agreeing to keep-alive.
double run_keepalive(std::uint16_t proxy_port, int clients,
                     std::uint64_t ops) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  std::atomic<std::uint64_t> failures{0};
  std::atomic<std::uint64_t> reconnects{0};
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([proxy_port, ops, &failures, &reconnects] {
      const proxy::HttpRequest req = net_request();
      std::optional<proxy::ClientConnection> conn;
      for (std::uint64_t i = 0; i < ops; ++i) {
        if (!conn) {
          conn = proxy::ClientConnection::open(proxy_port, 2.0);
          if (!conn) {
            failures.fetch_add(1);
            continue;
          }
          reconnects.fetch_add(1);
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        const auto resp = conn->exchange(req, deadline, /*keep_alive=*/true);
        if (!resp || resp->status != 200) failures.fetch_add(1);
        if (!conn->reusable()) conn.reset();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (failures.load() != 0) {
    std::fprintf(stderr, "[loadgen_net] %llu keep-alive failures\n",
                 static_cast<unsigned long long>(failures.load()));
  }
  // One connect per thread is the expected shape; more means the server
  // dropped agreed-upon keep-alive connections mid-run.
  if (reconnects.load() > static_cast<std::uint64_t>(clients)) {
    std::fprintf(stderr, "[loadgen_net] %llu reconnects for %d clients\n",
                 static_cast<unsigned long long>(reconnects.load()), clients);
  }
  return static_cast<double>(ops) * clients / elapsed.count();
}

template <typename Fn>
double median_of_three(Fn&& fn) {
  std::vector<double> trials;
  trials.reserve(3);
  for (int trial = 0; trial < 3; ++trial) trials.push_back(fn());
  std::sort(trials.begin(), trials.end());
  return trials[1];
}

// Open-loop latency pass (lab/openloop.h): a fixed intended-arrival schedule
// drives one keep-alive connection per client, and latency is charged from
// the *scheduled* send time over the full intended population — the closed
// loops above measure throughput but coordinate-omit queueing delay.
lab::OpenLoopResult run_open_loop_keepalive(
    std::uint16_t port, const lab::OpenLoopOptions& opts,
    const std::function<proxy::HttpRequest(std::uint64_t seq)>& make_req) {
  std::vector<std::optional<proxy::ClientConnection>> conns(
      static_cast<std::size_t>(opts.clients));
  return lab::run_open_loop(opts, [&](int client, std::uint64_t seq) {
    auto& conn = conns[static_cast<std::size_t>(client)];
    if (!conn) {
      conn = proxy::ClientConnection::open(port, 2.0);
      if (!conn) return false;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    const auto resp = conn->exchange(make_req(seq), deadline,
                                     /*keep_alive=*/true);
    if (!resp || resp->status != 200) {
      conn.reset();
      return false;
    }
    if (!conn->reusable()) conn.reset();
    return true;
  });
}

struct NetResult {
  double per_req = 0.0;
  double keepalive = 0.0;
  lab::OpenLoopOptions open_opts;
  lab::OpenLoopResult open_loop;
};

// One full per-request/keep-alive comparison against a fresh proxy+origin
// pair: both paths measure the identical warm-HIT exchange.
std::optional<NetResult> run_net(int clients, std::uint64_t ops) {
  proxy::OriginServer origin;
  proxy::ProxyConfig cfg;
  cfg.name = "loadgen";
  cfg.origin_port = origin.port();
  cfg.workers = static_cast<std::size_t>(std::max(clients, 2));
  proxy::ProxyServer proxy_server(cfg);

  // Warm the one object: first fetch is the only origin round trip; every
  // measured request below is a local HIT, so the TCP setup cost is the
  // difference under test rather than cache behavior.
  const auto warmed = proxy::http_call(proxy_server.port(), net_request());
  if (!warmed || warmed->status != 200) {
    std::fprintf(stderr, "[loadgen_net] warm fetch failed\n");
    return std::nullopt;
  }

  NetResult r;
  r.per_req = median_of_three([&] {
    return run_per_request(proxy_server.port(), clients, ops);
  });
  r.keepalive = median_of_three([&] {
    return run_keepalive(proxy_server.port(), clients, ops);
  });

  // CO-safe percentile pass at ~25% of the measured keep-alive capacity, so
  // the percentiles report service latency rather than saturation.
  r.open_opts.clients = clients;
  r.open_opts.rate_per_client =
      std::clamp(0.25 * r.keepalive / clients, 50.0, 2000.0);
  r.open_opts.duration_seconds = 1.0;
  r.open_loop = run_open_loop_keepalive(
      proxy_server.port(), r.open_opts,
      [](std::uint64_t) { return net_request(); });
  return r;
}

int run_net_mode(const std::string& json_path, int clients, std::uint64_t ops,
                 double require_speedup) {
  std::printf("loadgen_net: %d client(s), %llu requests/client, %zu-byte body\n",
              clients, static_cast<unsigned long long>(ops), kNetObjectBytes);

  obs::MetricsRegistry reg;
  obs::record_machine_shape(reg);
  reg.gauge("bh.loadgen_net.clients").set(static_cast<double>(clients));
  reg.gauge("bh.loadgen_net.requests_per_client")
      .set(static_cast<double>(ops));

  const auto r = run_net(clients, ops);
  if (!r) return 1;
  const double speedup = r->keepalive / r->per_req;
  std::printf("per_request %.0f r/s, keepalive %.0f r/s, speedup %.2fx\n",
              r->per_req, r->keepalive, speedup);
  std::printf("open-loop @ %.0f req/s: p50 %.3f ms  p99 %.3f ms  "
              "(%llu requests, %llu failures)\n",
              r->open_opts.rate_per_client * r->open_opts.clients,
              r->open_loop.p50_ms(), r->open_loop.p99_ms(),
              static_cast<unsigned long long>(r->open_loop.scheduled),
              static_cast<unsigned long long>(r->open_loop.failures));
  // bh.loadgen_net.p50_ms / p99_ms and the epoll keep-alive rate are
  // required keys in CI smoke runs.
  for (const std::string prefix : {"bh.loadgen_net", "bh.loadgen_net.epoll"}) {
    reg.gauge(prefix + ".per_request.requests_per_sec").set(r->per_req);
    reg.gauge(prefix + ".keepalive.requests_per_sec").set(r->keepalive);
    reg.gauge(prefix + ".speedup").set(speedup);
    lab::record_open_loop(reg, prefix, r->open_opts, r->open_loop);
  }

  std::ostringstream suite;
  suite << "{\"benchmarks\": [], \"metrics\": " << obs::to_json(reg.snapshot())
        << "}";
  auto suites = obs::load_suites(json_path);
  suites["loadgen_net"] = suite.str();
  obs::write_suites(json_path, suites);
  std::printf("\n[loadgen_net] results merged into %s\n", json_path.c_str());

  if (require_speedup > 0.0 && speedup < require_speedup) {
    std::fprintf(stderr,
                 "[loadgen_net] keep-alive speedup %.2fx below required %.2fx\n",
                 speedup, require_speedup);
    return 1;
  }
  return 0;
}

// --- restart mode ---

// Working set: kRestartObjects bodies of kRestartObjBytes each, ~8x the RAM
// budget, so the cold pass demotes most of the set to the disk tier.
constexpr std::uint64_t kRestartObjects = 128;
constexpr std::size_t kRestartObjBytes = 4096;
constexpr std::uint64_t kRestartRamBytes = 16 * kRestartObjBytes;

int run_restart_mode(const std::string& json_path) {
  const std::string state =
      "/tmp/bh_loadgen_restart." + std::to_string(::getpid());
  if (std::system(("rm -rf '" + state + "' && mkdir -p '" + state + "'")
                      .c_str()) != 0) {
    std::fprintf(stderr, "[restart] cannot create state dir %s\n",
                 state.c_str());
    return 1;
  }

  proxy::OriginServer origin;
  proxy::ProxyConfig cfg;
  cfg.name = "restart";
  cfg.origin_port = origin.port();
  cfg.capacity_bytes = kRestartRamBytes;
  cfg.disk_path = state + "/objects";
  cfg.disk_fsync = false;  // measuring the tier, not the platters
  cfg.hint_image_path = state + "/hints.img";

  // One full sequential sweep of the working set; returns requests/sec.
  const auto sweep = [](std::uint16_t port) -> double {
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t k = 1; k <= kRestartObjects; ++k) {
      proxy::HttpRequest req;
      req.method = "GET";
      req.target = proxy::object_path(ObjectId{k}, kRestartObjBytes);
      const auto resp = proxy::http_call(port, req);
      if (!resp || resp->status != 200) {
        std::fprintf(stderr, "[restart] fetch %llu failed\n",
                     static_cast<unsigned long long>(k));
        return -1.0;
      }
    }
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    return static_cast<double>(kRestartObjects) / elapsed.count();
  };

  double cold_rps = 0.0;
  std::uint64_t demoted = 0;
  {
    proxy::ProxyServer cold(cfg);
    cold_rps = sweep(cold.port());
    if (cold_rps < 0.0) return 1;
    demoted = cold.metrics_snapshot().counter("bh.proxy.disk.demotions");
    cold.stop();  // clean stop: saves the hint image
  }
  const std::uint64_t cold_origin = origin.requests_served();

  // Same state, new daemon — the paper's restart-without-refill scenario.
  proxy::ProxyServer warm(cfg);
  const std::uint64_t disk_objects =
      warm.disk() ? warm.disk()->object_count() : 0;
  const double warm_rps = sweep(warm.port());
  if (warm_rps < 0.0) return 1;
  const std::uint64_t warm_origin = origin.requests_served() - cold_origin;
  const double warm_hit_ratio =
      1.0 - static_cast<double>(warm_origin) / kRestartObjects;
  const double cold_hit_ratio =
      1.0 - static_cast<double>(cold_origin) / kRestartObjects;
  const std::uint64_t warm_disk_hits =
      warm.metrics_snapshot().counter("bh.proxy.disk.hits");

  std::printf("restart: %llu objects x %zu bytes, %llu-byte RAM budget\n",
              static_cast<unsigned long long>(kRestartObjects),
              kRestartObjBytes,
              static_cast<unsigned long long>(kRestartRamBytes));
  std::printf("  cold pass: %8.0f req/s, %llu origin fetches, %llu demotions\n",
              cold_rps, static_cast<unsigned long long>(cold_origin),
              static_cast<unsigned long long>(demoted));
  std::printf("  warm pass: %8.0f req/s, %llu origin fetches, "
              "%llu disk objects adopted\n",
              warm_rps, static_cast<unsigned long long>(warm_origin),
              static_cast<unsigned long long>(disk_objects));
  std::printf("  warm hit ratio: %.3f (cold %.3f)\n", warm_hit_ratio,
              cold_hit_ratio);

  obs::MetricsRegistry reg;
  obs::record_machine_shape(reg);
  reg.gauge("bh.restart.working_set").set(static_cast<double>(kRestartObjects));
  reg.gauge("bh.restart.object_bytes")
      .set(static_cast<double>(kRestartObjBytes));
  reg.gauge("bh.restart.ram_bytes").set(static_cast<double>(kRestartRamBytes));
  reg.gauge("bh.restart.cold.requests_per_sec").set(cold_rps);
  reg.gauge("bh.restart.warm.requests_per_sec").set(warm_rps);
  reg.gauge("bh.restart.cold_origin_fetches")
      .set(static_cast<double>(cold_origin));
  reg.gauge("bh.restart.warm_origin_fetches")
      .set(static_cast<double>(warm_origin));
  reg.gauge("bh.restart.cold_hit_ratio").set(cold_hit_ratio);
  reg.gauge("bh.restart.warm_hit_ratio").set(warm_hit_ratio);
  reg.gauge("bh.restart.disk_objects").set(static_cast<double>(disk_objects));
  reg.gauge("bh.restart.warm_disk_hits")
      .set(static_cast<double>(warm_disk_hits));
  reg.gauge("bh.restart.cold_demotions").set(static_cast<double>(demoted));

  std::ostringstream suite;
  suite << "{\"benchmarks\": [], \"metrics\": " << obs::to_json(reg.snapshot())
        << "}";
  auto suites = obs::load_suites(json_path);
  suites["restart"] = suite.str();
  obs::write_suites(json_path, suites);
  std::printf("\n[restart] results merged into %s\n", json_path.c_str());

  warm.stop();  // the final image save needs the state dir still present
  [[maybe_unused]] int rc = std::system(("rm -rf '" + state + "'").c_str());
  // The warm tier must beat a cold start by a wide margin or the
  // persistence layer is not doing its job; fail loudly in smoke runs.
  if (warm_hit_ratio < 0.5) {
    std::fprintf(stderr, "[restart] warm hit ratio %.3f below 0.5\n",
                 warm_hit_ratio);
    return 1;
  }
  return 0;
}

// --- large-object mode ---
//
// MB/s for 256KB–4MB bodies on the two serve tiers: RAM (shared-buffer
// bodies in gathered writes) and disk (each hit read and checksummed by the
// L2 store — a tiny RAM budget routes every object straight to it). Warm
// pass fetches each object once from the origin; the measured pass replays
// the set over one keep-alive connection per size.

constexpr std::size_t kLargeSizes[] = {256 << 10, 1 << 20, 4 << 20};
constexpr std::uint64_t kLargeObjectsPerSize = 6;
constexpr int kLargeRounds = 4;

// Fetches each (id, size) pair `rounds` times over one keep-alive
// connection; returns MB/s of body payload, or -1 on any failure.
double sweep_large(std::uint16_t port, std::uint64_t id_base, std::size_t size,
                   int rounds, double* seconds_out) {
  auto conn = proxy::ClientConnection::open(port, 5.0);
  if (!conn) return -1.0;
  std::uint64_t bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    for (std::uint64_t k = 0; k < kLargeObjectsPerSize; ++k) {
      proxy::HttpRequest req;
      req.method = "GET";
      req.target = proxy::object_path(ObjectId{id_base + k}, size);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      auto resp = conn->exchange(req, deadline, /*keep_alive=*/true);
      if (!resp || resp->status != 200 || resp->body.size() != size) {
        std::fprintf(stderr, "[loadgen_large] fetch %llu (%zu B) failed\n",
                     static_cast<unsigned long long>(id_base + k), size);
        return -1.0;
      }
      bytes += resp->body.size();
      if (!conn->reusable()) {
        conn = proxy::ClientConnection::open(port, 5.0);
        if (!conn) return -1.0;
      }
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (seconds_out) *seconds_out += elapsed.count();
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / elapsed.count();
}

int run_large_mode(const std::string& json_path) {
  obs::MetricsRegistry reg;
  obs::record_machine_shape(reg);

  // RAM tier: budget holds every object with room to spare (64 MB over 8
  // shards puts max_object_bytes at 8 MB, above the largest body).
  proxy::OriginServer ram_origin;
  proxy::ProxyConfig ram_cfg;
  ram_cfg.name = "large_ram";
  ram_cfg.origin_port = ram_origin.port();
  ram_cfg.capacity_bytes = 64ULL << 20;
  proxy::ProxyServer ram_proxy(ram_cfg);

  // Disk tier: a 64 KB RAM budget makes every large body oversized, so it
  // bypasses RAM entirely — stored to and served from the L2 store.
  const std::string state =
      "/tmp/bh_loadgen_large." + std::to_string(::getpid());
  if (std::system(("rm -rf '" + state + "' && mkdir -p '" + state + "'")
                      .c_str()) != 0) {
    std::fprintf(stderr, "[loadgen_large] cannot create %s\n", state.c_str());
    return 1;
  }
  proxy::OriginServer disk_origin;
  proxy::ProxyConfig disk_cfg;
  disk_cfg.name = "large_disk";
  disk_cfg.origin_port = disk_origin.port();
  disk_cfg.capacity_bytes = 64 << 10;
  disk_cfg.disk_path = state + "/objects";
  disk_cfg.disk_fsync = false;
  proxy::ProxyServer disk_proxy(disk_cfg);

  std::printf("loadgen_large: %llu objects/size, %d rounds\n",
              static_cast<unsigned long long>(kLargeObjectsPerSize),
              kLargeRounds);
  std::printf("%10s %16s %16s\n", "body", "ram MB/s", "disk MB/s");

  double ram_bytes_mb = 0.0, ram_seconds = 0.0;
  double disk_bytes_mb = 0.0, disk_seconds = 0.0;
  std::uint64_t disk_fetches = 0;  // measured (post-warm) disk-leg requests
  std::uint64_t id_base = 1;
  for (const std::size_t size : kLargeSizes) {
    // Warm both tiers (origin fetches; the disk tier also pays its puts).
    if (sweep_large(ram_proxy.port(), id_base, size, 1, nullptr) < 0.0 ||
        sweep_large(disk_proxy.port(), id_base, size, 1, nullptr) < 0.0) {
      return 1;
    }
    const double ram = sweep_large(ram_proxy.port(), id_base, size,
                                   kLargeRounds, &ram_seconds);
    const double disk = sweep_large(disk_proxy.port(), id_base, size,
                                    kLargeRounds, &disk_seconds);
    if (ram < 0.0 || disk < 0.0) return 1;
    const double set_mb = static_cast<double>(size) * kLargeObjectsPerSize *
                          kLargeRounds / (1024.0 * 1024.0);
    ram_bytes_mb += set_mb;
    disk_bytes_mb += set_mb;
    disk_fetches += kLargeObjectsPerSize * kLargeRounds;
    const std::string tag = std::to_string(size >> 10) + "k";
    reg.gauge("bh.large." + tag + ".ram_mb_per_s").set(ram);
    reg.gauge("bh.large." + tag + ".disk_mb_per_s").set(disk);
    std::printf("%10s %16.0f %16.0f\n", tag.c_str(), ram, disk);
    id_base += kLargeObjectsPerSize;
  }

  const double ram_agg = ram_bytes_mb / ram_seconds;
  const double disk_agg = disk_bytes_mb / disk_seconds;
  reg.gauge("bh.large.ram_mb_per_s").set(ram_agg);
  reg.gauge("bh.large.disk_mb_per_s").set(disk_agg);

  // CO-safe percentile pass per tier over the warm 256 KB set, paced at
  // ~25% of the tier's measured throughput (bh.large.{ram,disk}.p{50,99}_ms).
  const double body_mb =
      static_cast<double>(kLargeSizes[0]) / (1024.0 * 1024.0);
  struct TierPass {
    const char* tier;
    std::uint16_t port;
    double mb_per_s;
  };
  const TierPass tiers[] = {{"ram", ram_proxy.port(), ram_agg},
                            {"disk", disk_proxy.port(), disk_agg}};
  for (const auto& [tier, port, mb_per_s] : tiers) {
    lab::OpenLoopOptions ol;
    ol.clients = 2;
    ol.rate_per_client =
        std::clamp(0.25 * mb_per_s / body_mb / ol.clients, 5.0, 100.0);
    ol.duration_seconds = 1.0;
    ol.failure_penalty_ms = 2000.0;
    const auto olr =
        run_open_loop_keepalive(port, ol, [](std::uint64_t seq) {
          proxy::HttpRequest req;
          req.method = "GET";
          req.target = proxy::object_path(
              ObjectId{1 + seq % kLargeObjectsPerSize}, kLargeSizes[0]);
          return req;
        });
    lab::record_open_loop(reg, std::string("bh.large.") + tier, ol, olr);
    if (port == disk_proxy.port()) {
      disk_fetches += olr.scheduled - olr.failures;
    }
    std::printf("%6s tier open-loop @ %.0f req/s: p50 %.3f ms  "
                "p99 %.3f ms (%llu requests, %llu failures)\n",
                tier, ol.rate_per_client * ol.clients, olr.p50_ms(),
                olr.p99_ms(),
                static_cast<unsigned long long>(olr.scheduled),
                static_cast<unsigned long long>(olr.failures));
  }

  // The disk leg must really be served from disk: every measured fetch a
  // disk hit, and no origin fetch beyond the warm pass's one per object.
  const obs::MetricsSnapshot ds = disk_proxy.metrics_snapshot();
  const std::uint64_t disk_hits = ds.counter("bh.proxy.disk.hits");
  const std::uint64_t origin_fetches = ds.counter("bh.proxy.origin_fetches");
  const std::uint64_t objects =
      kLargeObjectsPerSize * (sizeof kLargeSizes / sizeof kLargeSizes[0]);
  reg.gauge("bh.large.object_count").set(static_cast<double>(objects));
  std::printf("aggregate: ram %.0f MB/s, disk %.0f MB/s; disk leg: %llu "
              "fetches, %llu disk hits, %llu origin fetches\n",
              ram_agg, disk_agg, static_cast<unsigned long long>(disk_fetches),
              static_cast<unsigned long long>(disk_hits),
              static_cast<unsigned long long>(origin_fetches));

  std::ostringstream suite;
  suite << "{\"benchmarks\": [], \"metrics\": " << obs::to_json(reg.snapshot())
        << "}";
  auto suites = obs::load_suites(json_path);
  suites["loadgen_large"] = suite.str();
  obs::write_suites(json_path, suites);
  std::printf("\n[loadgen_large] results merged into %s\n", json_path.c_str());

  [[maybe_unused]] int rc = std::system(("rm -rf '" + state + "'").c_str());
  if (disk_hits < disk_fetches || origin_fetches != objects) {
    std::fprintf(stderr,
                 "[loadgen_large] disk leg not served from disk: %llu hits "
                 "for %llu fetches, %llu origin fetches for %llu objects\n",
                 static_cast<unsigned long long>(disk_hits),
                 static_cast<unsigned long long>(disk_fetches),
                 static_cast<unsigned long long>(origin_fetches),
                 static_cast<unsigned long long>(objects));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_core.json";
  // Real sockets are slow per op; a modest default also keeps the
  // per-request baseline from exhausting ephemeral ports with TIME_WAIT
  // entries.
  std::uint64_t ops_per_client = 400;
  bool net_mode = false;
  bool restart_mode = false;
  bool large_mode = false;
  int clients = 8;
  double require_speedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = a.substr(7);
    } else if (a.rfind("--ops=", 0) == 0) {
      ops_per_client = std::strtoull(a.c_str() + 6, nullptr, 10);
    } else if (a == "--keepalive") {
      net_mode = true;
    } else if (a == "--restart") {
      restart_mode = true;
    } else if (a == "--large") {
      large_mode = true;
    } else if (a.rfind("--clients=", 0) == 0) {
      clients = std::atoi(a.c_str() + 10);
    } else if (a.rfind("--require-speedup=", 0) == 0) {
      require_speedup = std::strtod(a.c_str() + 18, nullptr);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 1;
    }
  }

  if (restart_mode) {
    return run_restart_mode(json_path);
  }
  if (large_mode) {
    return run_large_mode(json_path);
  }
  if (net_mode) {
    return run_net_mode(json_path, clients, ops_per_client, require_speedup);
  }
  std::fprintf(stderr,
               "usage: loadgen_concurrent --keepalive|--restart|--large "
               "[--json=<path>] [--ops=<n>] [--clients=<n>] "
               "[--require-speedup=<x>]\n");
  return 2;
}
