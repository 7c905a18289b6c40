// Benchmark binary. perfbench/run.py builds this binary and calls it with
// the workload's constants from perfbench/workloads.json as --key=value
// flags; the binary prints a STAMP line (the run's noise stamp) and, last,
// one JSON line with the measured metrics and the correctness tallies.
//
//   perfbench --workload=<sim_grid|hot_get|coop_mix> --seed=<n>
//             --seconds=<s> --trace=<0|1> --work_dir=<dir> [constants...]
//
// With --daemon it instead serves as one proxy daemon of a cluster (see
// daemons.cpp).
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Params params(argc, argv);
    if (params.has("daemon")) run_daemon(params);

    Tracer tracer;
    Context ctx{params, tracer, {}, 1, 0, false};
    const std::string workload = params.str("workload");
    ctx.seed = params.u64("seed");
    ctx.seconds = params.num("seconds");
    ctx.traced = params.u64("trace") != 0;
    ctx.work_dir = params.str("work_dir") + "/run-" + std::to_string(::getpid());
    std::filesystem::create_directories(ctx.work_dir);
    if (ctx.traced) tracer.enable();

    Result result;
    if (workload == "sim_grid") {
      result = run_sim_grid(ctx);
    } else if (workload == "hot_get" || workload == "coop_mix") {
      result = run_daemon_workload(ctx);
    } else {
      throw std::invalid_argument("unknown workload " + workload);
    }
    std::filesystem::remove_all(ctx.work_dir);
    if (ctx.traced) {
      result.set("error_ratio",
                 result.attempted ? double(result.failed) / double(result.attempted) : 0.0,
                 "ratio");
    }

    result.stamp["nproc"] = std::to_string(std::thread::hardware_concurrency());
    result.stamp["build_type"] = PERFBENCH_BUILD_TYPE;
    if (ctx.traced) {
      const std::string path = params.str("work_dir") + "/" + workload + "-seed" +
                               std::to_string(ctx.seed) + ".spans.jsonl";
      tracer.write(path);
      result.stamp["spans"] = std::to_string(tracer.size());
      result.stamp["spans_file"] = path;
      for (const auto& [name, t] : tracer.totals()) {
        result.stamp["span_self_s." + name] = std::to_string(t.second);
      }
    }

    std::printf("STAMP {");
    const char* sep = "";
    for (const auto& [k, v] : result.stamp) {
      std::printf("%s\"%s\": \"%s\"", sep, json_escape(k).c_str(), json_escape(v).c_str());
      sep = ", ";
    }
    std::printf("}\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    sep = "";
    for (const auto& [name, m] : result.metrics) {
      // A non-finite value is a broken measurement: emitted as null, which
      // run.py rejects.
      if (std::isfinite(m.first)) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                    m.first, m.second.c_str());
      } else {
        std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}", sep, name.c_str(),
                    m.second.c_str());
      }
      sep = ", ";
    }
    std::printf("}}\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
