// Scenario lab driver: stands up 50–200 real proxy daemons in a paper-style
// topology and runs the scripted scenarios (src/lab/scenarios.h) against
// them with the open-loop, coordinated-omission-safe load generator.
//
//   scenario_runner [--scenario=all|flash_crowd|diurnal|failure_storm|
//                     origin_outage]
//                   [--proxies=N] [--topology=ring|hierarchy|mesh]
//                   [--clients=N] [--rate=R] [--duration=S] [--objects=N]
//                   [--json=PATH] [--no-slo]
//
// Each scenario writes suite "scenario_<name>" (bh.scenario.<name>.* — the
// open-loop p50/p90/p99 over the full intended population, per-phase hit
// ratios, and the quarantine/recovery counters) into the bench-core-v2 file
// when --json is given. Exit status is nonzero when any hard SLO check
// fails, unless --no-slo turns enforcement off (report-only mode).
//
// This binary re-execs itself to host each proxy daemon (lab/cluster.h), so
// maybe_run_daemon() must stay the first thing main() does.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "lab/cluster.h"
#include "lab/scenarios.h"
#include "obs/machine.h"

namespace {

using namespace bh;

int usage(int code) {
  std::printf(
      "usage: scenario_runner [--scenario=all|flash_crowd|diurnal|"
      "failure_storm|origin_outage]\n"
      "                       [--proxies=N] [--topology=ring|hierarchy|mesh]\n"
      "                       [--clients=N] [--rate=R] [--duration=S]\n"
      "                       [--objects=N]\n"
      "                       [--json=PATH] [--no-slo]\n");
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  lab::maybe_run_daemon(argc, argv);  // never returns in daemon processes

  std::vector<std::string> names;
  lab::ScenarioOptions opts;
  opts.cluster.proxies = 50;
  std::string json_path;
  bool enforce = true;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto val = [&a]() { return a.substr(a.find('=') + 1); };
    if (a.rfind("--scenario=", 0) == 0) {
      if (val() == "all") {
        names.clear();
      } else {
        names.push_back(val());
      }
    } else if (a.rfind("--proxies=", 0) == 0) {
      opts.cluster.proxies = std::atoi(val().c_str());
      if (opts.cluster.proxies < 2) {
        std::fprintf(stderr, "--proxies must be >= 2\n");
        return 2;
      }
    } else if (a.rfind("--topology=", 0) == 0) {
      const auto t = lab::parse_topology(val());
      if (!t) {
        std::fprintf(stderr, "unknown topology %s\n", val().c_str());
        return 2;
      }
      opts.cluster.topology = *t;
    } else if (a.rfind("--clients=", 0) == 0) {
      opts.clients = std::max(std::atoi(val().c_str()), 1);
    } else if (a.rfind("--rate=", 0) == 0) {
      opts.rate_per_client = std::atof(val().c_str());
    } else if (a.rfind("--duration=", 0) == 0) {
      opts.duration_seconds = std::atof(val().c_str());
    } else if (a.rfind("--objects=", 0) == 0) {
      opts.objects = std::strtoull(val().c_str(), nullptr, 10);
    } else if (a.rfind("--json=", 0) == 0) {
      json_path = val();
    } else if (a == "--no-slo") {
      enforce = false;
    } else if (a == "--help" || a == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return usage(2);
    }
  }
  if (names.empty()) {
    for (const char* n : lab::kScenarioNames) names.emplace_back(n);
  }

  std::printf("=== scenario lab: %d proxies, %s topology, %d clients x "
              "%.4g req/s x %.4gs per phase ===\n",
              opts.cluster.proxies,
              lab::topology_name(opts.cluster.topology), opts.clients,
              opts.rate_per_client, opts.duration_seconds);
  if (bh::obs::single_core()) {
    std::printf("(single-core machine: latency SLOs report as warnings)\n");
  }

  int hard_failures = 0;
  for (const std::string& name : names) {
    std::printf("\n--- %s ---\n", name.c_str());
    std::fflush(stdout);
    lab::ScenarioResult r;
    try {
      r = lab::run_scenario(name, opts);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scenario %s aborted: %s\n", name.c_str(),
                   e.what());
      return 1;
    }
    lab::print_checks(r);
    const auto* hist = r.metrics.histogram("bh.scenario." + name +
                                           ".latency_ms");
    std::printf("  open-loop population %llu  p50 %.3g ms  p99 %.3g ms\n",
                static_cast<unsigned long long>(
                    r.metrics.counter("bh.scenario." + name + ".requests")),
                hist ? hist->quantile(0.5) : 0.0,
                hist ? hist->quantile(0.99) : 0.0);
    if (!json_path.empty()) {
      lab::write_scenario_suite(json_path, r);
      std::printf("  suite scenario_%s merged into %s\n", name.c_str(),
                  json_path.c_str());
    }
    if (!r.passed()) ++hard_failures;
  }

  if (hard_failures > 0) {
    std::printf("\n%d scenario(s) with hard SLO failures\n", hard_failures);
    return enforce ? 1 : 0;
  }
  std::printf("\nall scenarios passed\n");
  return 0;
}
