// Validates a BENCH_core.json produced by the bench binaries: the schema
// tag must be bench-core-v2, every suite named on the command line must be
// present, and each suite's "metrics" object (when present) must parse back
// into a registry snapshot and re-serialize to the identical bytes. CI runs
// this after the smoke benches so a serializer regression fails the job
// instead of silently corrupting the perf history.
//
// A requirement of the form <suite>:<metric> additionally demands that the
// suite's metrics block contain that counter/gauge/histogram — how CI pins
// down specific entries, e.g. that the loadgen_net run recorded its
// keep-alive rate and open-loop percentiles.
//
//   check_bench_json <file> [<required-suite> | <suite>:<metric> ...]
#include <cstdio>
#include <map>
#include <string>

#include "obs/bench_store.h"
#include "obs/export.h"
#include "obs/metrics.h"

namespace {

// Extracts the value of `"metrics": {...}` from a suite's JSON text, or an
// empty string when the key is absent. Same structural contract as
// obs::load_suites: our writers keep braces out of strings.
std::string metrics_chunk(const std::string& suite_body) {
  const std::size_t key = suite_body.find("\"metrics\"");
  if (key == std::string::npos) return {};
  const std::size_t open = suite_body.find('{', key);
  if (open == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < suite_body.size(); ++i) {
    if (suite_body[i] == '{') ++depth;
    if (suite_body[i] == '}' && --depth == 0) {
      return suite_body.substr(open, i - open + 1);
    }
  }
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: check_bench_json <file> [<suite>...]\n");
    return 2;
  }
  const std::string path = argv[1];

  const auto schema = bh::obs::load_schema(path);
  if (!schema) {
    std::fprintf(stderr, "%s: missing or unreadable schema tag\n",
                 path.c_str());
    return 1;
  }
  if (*schema != bh::obs::kBenchSchemaV2) {
    std::fprintf(stderr, "%s: schema is \"%s\", want \"%s\"\n", path.c_str(),
                 schema->c_str(), bh::obs::kBenchSchemaV2);
    return 1;
  }

  const auto suites = bh::obs::load_suites(path);
  if (suites.empty()) {
    std::fprintf(stderr, "%s: no suites\n", path.c_str());
    return 1;
  }
  // Split requirements into plain suite names and suite:metric pairs.
  std::multimap<std::string, std::string> metric_reqs;
  for (int i = 2; i < argc; ++i) {
    const std::string req = argv[i];
    const std::size_t colon = req.find(':');
    const std::string suite = req.substr(0, colon);
    if (suites.find(suite) == suites.end()) {
      std::fprintf(stderr, "%s: required suite \"%s\" missing\n", path.c_str(),
                   suite.c_str());
      return 1;
    }
    if (colon != std::string::npos) {
      metric_reqs.emplace(suite, req.substr(colon + 1));
    }
  }

  int checked = 0;
  for (const auto& [name, body] : suites) {
    const std::string chunk = metrics_chunk(body);
    if (chunk.empty()) continue;  // v1 suite carried over: benchmarks only
    const auto snap = bh::obs::parse_snapshot(chunk);
    if (!snap) {
      std::fprintf(stderr, "%s: suite \"%s\": metrics do not parse\n",
                   path.c_str(), name.c_str());
      return 1;
    }
    if (bh::obs::to_json(*snap) != chunk) {
      std::fprintf(stderr,
                   "%s: suite \"%s\": metrics do not round-trip byte-exactly\n",
                   path.c_str(), name.c_str());
      return 1;
    }
    // A single-core run makes every concurrency ratio in the file
    // meaningless (the sharded-vs-mutex speedups collapse to lock overhead,
    // keep-alive gains invert), and the scenario lab's latency SLOs demote
    // to warnings. Writers stamp bh.loadgen.single_core explicitly so this
    // is machine-readable; bh.loadgen.cores == 1 is the legacy spelling.
    // The numbers still record, but nobody should read them as
    // representative — shout, don't fail.
    const auto single = snap->gauges.find("bh.loadgen.single_core");
    const auto cores = snap->gauges.find("bh.loadgen.cores");
    const bool single_core =
        (single != snap->gauges.end() && single->second != 0.0) ||
        (single == snap->gauges.end() && cores != snap->gauges.end() &&
         cores->second == 1.0);
    if (single_core) {
      std::fprintf(stderr,
                   "========================================================\n"
                   "WARNING: %s: suite \"%s\" was generated on a SINGLE core\n"
                   "(bh.loadgen.single_core). Concurrency speedups and\n"
                   "throughput ratios are unrepresentative, and latency SLO\n"
                   "checks in scenario suites ran in warn-only mode.\n"
                   "========================================================\n",
                   path.c_str(), name.c_str());
    }
    // Scenario suites carry their SLO verdicts as counters. A hard failure
    // recorded in the file fails the check — the scenario runner already
    // exited nonzero, but a stale or hand-edited file must not pass CI.
    for (const auto& [cname, value] : snap->counters) {
      const std::string hard_suffix = ".slo_hard_failures";
      if (cname.size() > hard_suffix.size() &&
          cname.compare(cname.size() - hard_suffix.size(), hard_suffix.size(),
                        hard_suffix) == 0 &&
          value > 0) {
        std::fprintf(stderr, "%s: suite \"%s\": %s = %llu (hard SLO failure)\n",
                     path.c_str(), name.c_str(), cname.c_str(),
                     static_cast<unsigned long long>(value));
        return 1;
      }
    }
    const auto [begin, end] = metric_reqs.equal_range(name);
    for (auto it = begin; it != end; ++it) {
      const std::string& metric = it->second;
      if (snap->counters.count(metric) == 0 &&
          snap->gauges.count(metric) == 0 &&
          snap->histograms.count(metric) == 0) {
        std::fprintf(stderr, "%s: suite \"%s\": required metric \"%s\" missing\n",
                     path.c_str(), name.c_str(), metric.c_str());
        return 1;
      }
    }
    metric_reqs.erase(begin, end);
    ++checked;
  }
  // A suite with no metrics block cannot satisfy a metric requirement.
  if (!metric_reqs.empty()) {
    const auto& [suite, metric] = *metric_reqs.begin();
    std::fprintf(stderr, "%s: suite \"%s\" has no metrics block (wanted \"%s\")\n",
                 path.c_str(), suite.c_str(), metric.c_str());
    return 1;
  }

  std::printf("%s: ok (%zu suites, %d metrics blocks round-tripped)\n",
              path.c_str(), suites.size(), checked);
  return 0;
}
