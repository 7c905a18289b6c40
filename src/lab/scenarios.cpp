#include "lab/scenarios.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "obs/bench_store.h"
#include "obs/export.h"
#include "obs/machine.h"
#include "proxy/http.h"
#include "proxy/origin_server.h"

namespace bh::lab {
namespace {

using proxy::CallOptions;
using proxy::HttpRequest;
using proxy::http_call;
using proxy::object_path;

// The flash crowd's single hot object. Never 0: object id 0 is the hint
// stores' reserved invalid key (hints/hint_record.h), so a hint for it could
// never be stored and the crowd would never find the cached copy.
inline constexpr std::uint64_t kHotObject = 1;

// The cluster-side counters a phase is summarized by: deltas of the daemons'
// own bh.proxy.* counters across a before/after scrape pair.
struct PhaseCounters {
  std::uint64_t local_hits = 0;
  std::uint64_t sibling_hits = 0;
  std::uint64_t origin_fetches = 0;
  std::uint64_t false_positives = 0;
  std::uint64_t peer_failures = 0;
  std::uint64_t origin_failures = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t quarantine_skips = 0;
  std::uint64_t reprobes = 0;

  std::uint64_t served() const {
    return local_hits + sibling_hits + origin_fetches;
  }
  // Cache-local share of everything served: the paper's core ratio.
  double hit_ratio() const {
    const std::uint64_t s = served();
    return s ? double(local_hits + sibling_hits) / double(s) : 0.0;
  }
};

std::uint64_t delta(const obs::MetricsSnapshot& before,
                    const obs::MetricsSnapshot& after, std::string_view name) {
  const std::uint64_t b = before.counter(name);
  const std::uint64_t a = after.counter(name);
  return a >= b ? a - b : 0;  // restarted daemons reset their counters
}

PhaseCounters phase_counters(const obs::MetricsSnapshot& before,
                             const obs::MetricsSnapshot& after) {
  PhaseCounters p;
  p.local_hits = delta(before, after, "bh.proxy.local_hits");
  p.sibling_hits = delta(before, after, "bh.proxy.sibling_hits");
  p.origin_fetches = delta(before, after, "bh.proxy.origin_fetches");
  p.false_positives = delta(before, after, "bh.proxy.false_positives");
  p.peer_failures = delta(before, after, "bh.proxy.peer_failures");
  p.origin_failures = delta(before, after, "bh.proxy.origin_failures");
  p.quarantines = delta(before, after, "bh.proxy.quarantines");
  p.quarantine_skips = delta(before, after, "bh.proxy.quarantine_skips");
  p.reprobes = delta(before, after, "bh.proxy.reprobes");
  return p;
}

// Shared per-scenario machinery: cluster + registry + check accumulation.
struct ScenarioRun {
  const ScenarioOptions& opts;
  std::string name;
  std::string prefix;  // "bh.scenario.<name>"
  Cluster cluster;
  obs::MetricsRegistry reg;
  std::vector<SloCheck> checks;
  // Combined open-loop population across every load phase.
  OpenLoopResult combined;

  ScenarioRun(std::string scenario_name, const ScenarioOptions& o)
      : opts(o),
        name(std::move(scenario_name)),
        prefix("bh.scenario." + name),
        cluster(o.cluster) {
    combined.latency_ms = LatencyHistogram{0.01, 1.05};
  }

  // One client GET against a daemon, under the scenario's call budget.
  bool fetch(std::uint16_t port, std::uint64_t object) const {
    HttpRequest req;
    req.method = "GET";
    req.target = object_path(ObjectId{object},
                             static_cast<std::size_t>(opts.object_bytes));
    CallOptions call;
    call.deadline_seconds = opts.call_deadline_seconds;
    const auto resp = http_call(port, req, call);
    return resp && resp->status == 200;
  }

  // Closed-loop warm sweep: object o fetched once through proxy o % n, then
  // a settle pause so age-triggered hint flushes reach every neighbour.
  void warm_sweep() {
    const std::vector<int> live = cluster.alive_indices();
    // Object ids start at 1: id 0 is the hint stores' reserved invalid key
    // (hints/hint_record.h), so an object named 0 could never be hinted.
    for (std::uint64_t o = 1; o <= opts.objects; ++o) {
      const int p = live[static_cast<std::size_t>(o % live.size())];
      if (!fetch(cluster.proxy_port(p), o)) {
        throw std::runtime_error(name + ": warm sweep fetch failed (object " +
                                 std::to_string(o) + " via proxy-" +
                                 std::to_string(p) + ")");
      }
    }
    settle();
  }

  void settle() const {
    std::this_thread::sleep_for(std::chrono::duration<double>(
        std::max(kDaemonFlushIntervalSeconds * 6.0, 0.2)));
  }

  // Runs one open-loop load phase against the currently-alive daemons and
  // records it under <prefix>.<phase>. `pick_object` maps (client, seq) to
  // an object id.
  OpenLoopResult phase(const std::string& phase_name,
                       std::function<double(double)> profile,
                       std::function<std::uint64_t(int, std::uint64_t)>
                           pick_object) {
    const std::vector<int> live = cluster.alive_indices();
    std::vector<std::uint16_t> ports;
    ports.reserve(live.size());
    for (const int i : live) ports.push_back(cluster.proxy_port(i));

    OpenLoopOptions lo;
    lo.clients = opts.clients;
    lo.rate_per_client = opts.rate_per_client;
    lo.duration_seconds = opts.duration_seconds;
    lo.failure_penalty_ms = opts.call_deadline_seconds * 1000.0;
    lo.rate_profile = std::move(profile);
    const OpenLoopResult r = run_open_loop(
        lo, [&](int client, std::uint64_t seq) {
          // Deterministic spread over the live daemons, de-phased per client.
          const auto target = ports[static_cast<std::size_t>(
              (static_cast<std::uint64_t>(client) * 2654435761ULL + seq) %
              ports.size())];
          return fetch(target, pick_object(client, seq));
        });
    record_open_loop(reg, prefix + "." + phase_name, lo, r);
    combined.scheduled += r.scheduled;
    combined.failures += r.failures;
    combined.elapsed_seconds += r.elapsed_seconds;
    combined.latency_ms.merge(r.latency_ms);
    return r;
  }

  // --- checks ----------------------------------------------------------
  // Structural checks assert counter facts and are always hard; timing
  // checks measure wall-clock behaviour and relax to warnings on a
  // single-core machine (the stamp travels with the suite either way).
  void structural(const std::string& check, bool ok, std::string detail) {
    checks.push_back({check, std::move(detail), ok, /*hard=*/true});
  }
  void timing(const std::string& check, bool ok, std::string detail) {
    checks.push_back({check, std::move(detail), ok, /*hard=*/!obs::single_core()});
  }

  void record_phase_counters(const std::string& phase_name,
                             const PhaseCounters& p) {
    const std::string pp = prefix + "." + phase_name;
    reg.counter(pp + ".local_hits").set(p.local_hits);
    reg.counter(pp + ".sibling_hits").set(p.sibling_hits);
    reg.counter(pp + ".origin_fetches").set(p.origin_fetches);
    reg.counter(pp + ".false_positives").set(p.false_positives);
    reg.counter(pp + ".peer_failures").set(p.peer_failures);
    reg.counter(pp + ".origin_failures").set(p.origin_failures);
    reg.counter(pp + ".quarantines").set(p.quarantines);
    reg.counter(pp + ".quarantine_skips").set(p.quarantine_skips);
    reg.counter(pp + ".reprobes").set(p.reprobes);
    reg.gauge(pp + ".hit_ratio").set(p.hit_ratio());
  }

  ScenarioResult finish() {
    // The headline suite metrics: percentiles over the union of every load
    // phase's intended-request population.
    combined.achieved_rps = combined.elapsed_seconds > 0.0
                                ? double(combined.scheduled) /
                                      combined.elapsed_seconds
                                : 0.0;
    OpenLoopOptions lo;
    lo.clients = opts.clients;
    lo.rate_per_client = opts.rate_per_client;
    record_open_loop(reg, prefix, lo, combined);
    reg.gauge(prefix + ".proxies").set(opts.cluster.proxies);
    reg.gauge(prefix + ".topology." + topology_name(opts.cluster.topology))
        .set(1.0);
    obs::record_machine_shape(reg);

    std::uint64_t hard_failures = 0, warnings = 0;
    for (const SloCheck& c : checks) {
      if (c.ok) continue;
      c.hard ? ++hard_failures : ++warnings;
    }
    reg.counter(prefix + ".slo_checks").set(checks.size());
    reg.counter(prefix + ".slo_hard_failures").set(hard_failures);
    reg.counter(prefix + ".slo_warnings").set(warnings);

    ScenarioResult r;
    r.name = name;
    r.metrics = reg.snapshot();
    r.checks = std::move(checks);
    cluster.stop();
    return r;
  }
};

std::string ratio_detail(const char* what, double observed, const char* rel,
                         double threshold) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.4g %s %.4g", what, observed, rel,
                threshold);
  return buf;
}

// ---------------------------------------------------------------------------
// flash_crowd: the whole client population converges on one object.
// ---------------------------------------------------------------------------
ScenarioResult run_flash_crowd(const ScenarioOptions& opts) {
  ScenarioRun run("flash_crowd", opts);
  run.cluster.start();

  // Seed the hot object into exactly one daemon, let the hint spread.
  if (!run.fetch(run.cluster.proxy_port(0), kHotObject)) {
    throw std::runtime_error("flash_crowd: seeding the hot object failed");
  }
  run.settle();

  const auto before = run.cluster.scrape_cluster();
  const OpenLoopResult r =
      run.phase("storm", nullptr, [](int, std::uint64_t) { return kHotObject; });
  const auto after = run.cluster.scrape_cluster();
  const PhaseCounters p = phase_counters(before, after);
  run.record_phase_counters("storm", p);

  const double expected =
      opts.rate_per_client * opts.duration_seconds * opts.clients;
  run.structural("population_issued", double(r.scheduled) >= 0.9 * expected,
                 ratio_detail("intended requests issued", double(r.scheduled),
                              ">=", 0.9 * expected));
  // The point of the scenario: the crowd is absorbed by the cache mesh, not
  // forwarded to the origin. One origin fetch (the seed's neighbourless
  // races) per ~10 served is already generous.
  run.structural("origin_absorbed",
                 double(p.origin_fetches) <= 0.1 * double(p.served()) + 2.0,
                 ratio_detail("origin fetches", double(p.origin_fetches), "<=",
                              0.1 * double(p.served()) + 2.0));
  run.structural("hit_ratio", p.hit_ratio() >= 0.85,
                 ratio_detail("local+sibling hit ratio", p.hit_ratio(), ">=",
                              0.85));
  run.timing("failure_ratio", r.failure_ratio() <= 0.05,
             ratio_detail("open-loop failure ratio", r.failure_ratio(), "<=",
                          0.05));
  run.timing("p99_ms", r.p99_ms() <= 250.0,
             ratio_detail("open-loop p99 ms", r.p99_ms(), "<=", 250.0));
  return run.finish();
}

// ---------------------------------------------------------------------------
// diurnal: sinusoidal intended rate over a warm uniform working set.
// ---------------------------------------------------------------------------
ScenarioResult run_diurnal(const ScenarioOptions& opts) {
  ScenarioRun run("diurnal", opts);
  run.cluster.start();
  run.warm_sweep();

  const double period = std::max(opts.duration_seconds, 1e-3);
  const auto before = run.cluster.scrape_cluster();
  const OpenLoopResult r = run.phase(
      "swing",
      [period](double t) {
        return 1.0 + 0.75 * std::sin(2.0 * M_PI * t / period);
      },
      [n = opts.objects](int client, std::uint64_t seq) {
        return (static_cast<std::uint64_t>(client) * 7919ULL + seq) % n + 1;
      });
  const auto after = run.cluster.scrape_cluster();
  const PhaseCounters p = phase_counters(before, after);
  run.record_phase_counters("swing", p);

  // Over one full sine period the mean multiplier is 1, so the intended
  // population matches the flat-rate count — and open-loop drive must issue
  // all of it, peak included.
  const double expected =
      opts.rate_per_client * opts.duration_seconds * opts.clients;
  run.structural("population_issued", double(r.scheduled) >= 0.85 * expected,
                 ratio_detail("intended requests issued", double(r.scheduled),
                              ">=", 0.85 * expected));
  run.structural("hit_ratio", p.hit_ratio() >= 0.7,
                 ratio_detail("local+sibling hit ratio", p.hit_ratio(), ">=",
                              0.7));
  run.timing("failure_ratio", r.failure_ratio() <= 0.05,
             ratio_detail("open-loop failure ratio", r.failure_ratio(), "<=",
                          0.05));
  run.timing("p99_ms", r.p99_ms() <= 250.0,
             ratio_detail("open-loop p99 ms", r.p99_ms(), "<=", 250.0));
  return run.finish();
}

// ---------------------------------------------------------------------------
// failure_storm: correlated SIGKILL, quarantine under load, rebirth on the
// old ports, recovery.
// ---------------------------------------------------------------------------
ScenarioResult run_failure_storm(const ScenarioOptions& opts) {
  ScenarioRun run("failure_storm", opts);
  run.cluster.start();
  run.warm_sweep();

  const auto uniform = [n = opts.objects](int client, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(client) * 7919ULL + seq) % n + 1;
  };

  // Phase A: healthy baseline.
  const auto a0 = run.cluster.scrape_cluster();
  run.phase("phase_a", nullptr, uniform);
  const auto a1 = run.cluster.scrape_cluster();
  const PhaseCounters pa = phase_counters(a0, a1);
  run.record_phase_counters("phase_a", pa);

  // Correlated kill: a contiguous block of ~25% of the daemons, SIGKILL —
  // no shutdown path runs, their hints go stale everywhere at once.
  const int n = run.cluster.size();
  const int kills = std::max(1, n / 4);
  const int first = n / 2;  // keep proxy-0's subtree root alive
  std::vector<int> killed;
  for (int i = first; i < first + kills && i < n; ++i) {
    run.cluster.kill_daemon(i);
    killed.push_back(i);
  }
  run.reg.gauge(run.prefix + ".killed").set(double(killed.size()));

  // Phase B: survivors under load. Probes to dead peers fail fast and trip
  // quarantine; service degrades to origin-direct, never to client errors.
  const auto b0 = run.cluster.scrape_cluster();
  const OpenLoopResult rb = run.phase("phase_b", nullptr, uniform);
  const auto b1 = run.cluster.scrape_cluster();
  const PhaseCounters pb = phase_counters(b0, b1);
  run.record_phase_counters("phase_b", pb);

  run.structural("peer_failures_observed", pb.peer_failures >= 1,
                 ratio_detail("peer failures", double(pb.peer_failures), ">=",
                              1.0));
  run.structural("quarantines_fired", pb.quarantines >= 1,
                 ratio_detail("quarantine transitions", double(pb.quarantines),
                              ">=", 1.0));
  run.structural("survivors_served", rb.failure_ratio() <= 0.1,
                 ratio_detail("open-loop failure ratio (storm)",
                              rb.failure_ratio(), "<=", 0.1));

  // Rebirth: fresh processes on the dead daemons' old ports, so survivors'
  // hints and quarantine re-probes find them without any re-registration.
  for (const int i : killed) run.cluster.restart_daemon(i);

  // Recovery drive: closed-loop requests until a survivor's quarantine
  // window admits a re-probe to a reborn daemon (bounded; the window is
  // quarantine_seconds so this converges in a few iterations).
  const auto recovery_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(15);
  std::uint64_t reprobes_seen = 0;
  std::uint64_t o = 0;
  while (std::chrono::steady_clock::now() < recovery_deadline) {
    const auto snap = run.cluster.scrape_cluster();
    reprobes_seen = delta(b0, snap, "bh.proxy.reprobes");
    if (reprobes_seen >= 1) break;
    for (int i = 0; i < 8; ++i, ++o) {
      run.fetch(run.cluster.proxy_port(int(o) % n), o % opts.objects + 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  run.structural("reprobes_admitted", reprobes_seen >= 1,
                 ratio_detail("re-probes to quarantined peers",
                              double(reprobes_seen), ">=", 1.0));

  // Phase C: full cluster again; the hit ratio must climb back toward the
  // healthy baseline (reborn daemons are cold but survivors stayed warm).
  const auto c0 = run.cluster.scrape_cluster();
  const OpenLoopResult rc = run.phase("phase_c", nullptr, uniform);
  const auto c1 = run.cluster.scrape_cluster();
  const PhaseCounters pc = phase_counters(c0, c1);
  run.record_phase_counters("phase_c", pc);

  run.structural("hit_ratio_recovered",
                 pc.hit_ratio() >= 0.5 * pa.hit_ratio(),
                 ratio_detail("recovery hit ratio", pc.hit_ratio(), ">=",
                              0.5 * pa.hit_ratio()));
  run.structural("recovered_service", rc.failure_ratio() <= 0.1,
                 ratio_detail("open-loop failure ratio (recovered)",
                              rc.failure_ratio(), "<=", 0.1));
  run.timing("p99_ms", run.combined.p99_ms() <= 500.0,
             ratio_detail("open-loop p99 ms (all phases)",
                          run.combined.p99_ms(), "<=", 500.0));
  return run.finish();
}

// ---------------------------------------------------------------------------
// origin_outage: the origin dies and is reborn on its port; warm objects
// must keep serving from the mesh while cold fetches fail.
// ---------------------------------------------------------------------------
ScenarioResult run_origin_outage(const ScenarioOptions& opts) {
  ScenarioRun run("origin_outage", opts);
  run.cluster.start();
  run.warm_sweep();

  // Mostly-warm drive with a cold object (never fetched before) every 16th
  // request, so outage phases provably exercise the origin path. The phase
  // salt keeps each phase's cold ids disjoint — phase A's cold fetches get
  // cached and hinted, so reusing the ids would make phase B's "cold"
  // requests warm.
  const auto mixed_for = [n = opts.objects](std::uint64_t phase_salt) {
    return [n, phase_salt](int client, std::uint64_t seq) -> std::uint64_t {
      if (seq % 16 == 15) {
        return n + phase_salt * 1000000 +
               static_cast<std::uint64_t>(client) * 100000 + seq + 1;
      }
      return (static_cast<std::uint64_t>(client) * 7919ULL + seq) % n + 1;
    };
  };

  const auto a0 = run.cluster.scrape_cluster();
  const OpenLoopResult ra = run.phase("phase_a", nullptr, mixed_for(1));
  const auto a1 = run.cluster.scrape_cluster();
  run.record_phase_counters("phase_a", phase_counters(a0, a1));
  run.structural("baseline_service", ra.failure_ratio() <= 0.1,
                 ratio_detail("open-loop failure ratio (baseline)",
                              ra.failure_ratio(), "<=", 0.1));

  run.cluster.stop_origin();

  // Phase B: origin down. Warm objects keep flowing cache-local; only the
  // 1-in-16 cold fetches fail, plus whatever share of warm traffic the
  // hint mesh cannot place.
  const auto b0 = run.cluster.scrape_cluster();
  const OpenLoopResult rb = run.phase("phase_b", nullptr, mixed_for(2));
  const auto b1 = run.cluster.scrape_cluster();
  const PhaseCounters pb = phase_counters(b0, b1);
  run.record_phase_counters("phase_b", pb);

  run.structural("origin_failures_observed", pb.origin_failures >= 1,
                 ratio_detail("origin failures", double(pb.origin_failures),
                              ">=", 1.0));
  run.structural("warm_objects_survive",
                 pb.local_hits + pb.sibling_hits >= 1,
                 ratio_detail("cache-local serves during outage",
                              double(pb.local_hits + pb.sibling_hits), ">=",
                              1.0));
  run.structural("graceful_degradation", rb.failure_ratio() <= 0.3,
                 ratio_detail("open-loop failure ratio (outage)",
                              rb.failure_ratio(), "<=", 0.3));

  run.cluster.restart_origin();

  const auto c0 = run.cluster.scrape_cluster();
  const OpenLoopResult rc = run.phase("phase_c", nullptr, mixed_for(3));
  const auto c1 = run.cluster.scrape_cluster();
  run.record_phase_counters("phase_c", phase_counters(c0, c1));
  run.structural("origin_recovered", rc.failure_ratio() <= 0.1,
                 ratio_detail("open-loop failure ratio (recovered)",
                              rc.failure_ratio(), "<=", 0.1));
  // Latency SLO on the recovered phase only: the outage phase's cold
  // fetches fail by design and carry the penalty latency, so the combined
  // tail measures the scenario script, not the recovered service.
  run.timing("p99_ms", rc.p99_ms() <= 250.0,
             ratio_detail("open-loop p99 ms (recovered)", rc.p99_ms(), "<=",
                          250.0));
  return run.finish();
}

}  // namespace

ScenarioResult run_scenario(const std::string& name,
                            const ScenarioOptions& opts) {
  if (name == "flash_crowd") return run_flash_crowd(opts);
  if (name == "diurnal") return run_diurnal(opts);
  if (name == "failure_storm") return run_failure_storm(opts);
  if (name == "origin_outage") return run_origin_outage(opts);
  throw std::runtime_error("unknown scenario: " + name);
}

void write_scenario_suite(const std::string& path, const ScenarioResult& r) {
  auto suites = obs::load_suites(path);
  suites["scenario_" + r.name] = "{\"metrics\": " + obs::to_json(r.metrics) + "}";
  obs::write_suites(path, suites);
}

void print_checks(const ScenarioResult& r) {
  for (const SloCheck& c : r.checks) {
    const char* verdict = c.ok ? "PASS" : (c.hard ? "FAIL" : "WARN");
    std::printf("  [%s] %-28s %s\n", verdict, c.name.c_str(),
                c.detail.c_str());
  }
}

}  // namespace bh::lab
