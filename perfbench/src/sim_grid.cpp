// sim_grid: the paper's simulator on one generated trace, five architecture
// cells replayed in parallel. CPU only, no sockets, no proxy code.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cache/lru_cache.h"
#include "common/types.h"
#include "core/experiment.h"
#include "core/sweep.h"
#include "hints/hint_cache.h"
#include "hints/metadata_hierarchy.h"
#include "net/topology.h"
#include "sim/event_queue.h"
#include "trace/generator.h"

namespace perfbench {
namespace {

using bh::core::ExperimentConfig;
using bh::core::ExperimentResult;
using bh::core::SystemKind;
using bh::trace::Record;

struct Cell {
  const char* name;
  SystemKind system;
  const char* push;
};

// Longest cells first: the pool deals indices round-robin, so the cheap
// baselines finish early and their workers steal nothing that matters.
const Cell kCells[] = {
    {"adaptive_greedy", SystemKind::kHints, "adaptive-greedy"},
    {"push_half", SystemKind::kHints, "push-half"},
    {"hints", SystemKind::kHints, "none"},
    {"directory", SystemKind::kDirectory, "none"},
    {"hierarchy", SystemKind::kHierarchy, "none"},
};
constexpr std::size_t kNumCells = std::size(kCells);

// Cell digests pinned from the simulator as first benchmarked, for the
// default constants in workloads.json (the key carries them). A seed not in
// the table is checked for agreement between the passes of one run only.
struct Pinned {
  const char* key;
  std::uint64_t seed;
  const char* digest;
};
#include "sim_digests.inc"

std::vector<ExperimentConfig> grid_configs(const bh::trace::WorkloadParams& w,
                                           double scale, double gb_per_l1,
                                           const std::string& cost_model) {
  const auto capacity =
      static_cast<std::uint64_t>(gb_per_l1 * scale * double(1ULL << 30));
  std::vector<ExperimentConfig> configs;
  for (const Cell& cell : kCells) {
    ExperimentConfig cfg;
    cfg.workload = w;
    cfg.cost_model = cost_model;
    cfg.system = cell.system;
    cfg.baseline_node_capacity = capacity;
    cfg.hints.l1_capacity = capacity;
    cfg.hints.push_policy = cell.push;
    configs.push_back(cfg);
  }
  return configs;
}

// FNV-1a over each cell's request, hit and false-positive counts and its
// mean response time printed exactly.
std::string grid_digest(const std::vector<ExperimentResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ExperimentResult& r : results) {
    const auto& s = r.snapshot;
    const std::uint64_t requests = s.counter("bh.core.requests");
    const double total_ms = s.gauge("bh.core.total_latency_ms");
    char line[160];
    std::snprintf(line, sizeof line, "%" PRIu64 " %" PRIu64 " %" PRIu64 " %.17g|",
                  requests, requests - s.counter("bh.core.server_fetches"),
                  s.counter("bh.core.false_positives"),
                  requests ? total_ms / double(requests) : 0.0);
    for (const char* p = line; *p; ++p) {
      h = (h ^ std::uint8_t(*p)) * 0x100000001b3ULL;
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

struct Pass {
  double wall_s = 0;
  std::vector<double> cell_s;
  std::vector<ExperimentResult> results;
};

// The same calls core::run_sweep_on makes (the sweep's ThreadPool running
// run_experiment_on per cell), made here so each cell can be timed.
Pass run_grid(const std::vector<Record>& records,
              const std::vector<ExperimentConfig>& configs, int jobs,
              Tracer& tracer) {
  Pass pass;
  pass.cell_s.assign(configs.size(), 0.0);
  pass.results.resize(configs.size());
  ScopedSpan grid(tracer, "core.grid");
  const auto t0 = Clock::now();
  bh::core::ThreadPool pool(jobs);
  pool.parallel_for(configs.size(), [&](std::size_t i) {
    ScopedSpan cell(tracer, std::string("core.replay.") + kCells[i].name,
                    grid.id());
    const auto c0 = Clock::now();
    pass.results[i] = bh::core::run_experiment_on(records, configs[i]);
    pass.cell_s[i] = seconds_since(c0);
  });
  pass.wall_s = seconds_since(t0);
  return pass;
}

// --- layer replays on the workload's own trace (traced run only) ----------

template <typename Fn>
double time_ns_per(std::size_t n, Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return n ? seconds_since(t0) * 1e9 / double(n) : 0.0;
}

void replay_layers(const std::vector<Record>& records,
                   const bh::trace::WorkloadParams& w, std::uint64_t capacity,
                   Tracer& tracer, Result& out) {
  std::vector<const Record*> requests;
  for (const Record& r : records) {
    if (r.type == bh::trace::RecordType::kRequest && !r.uncachable && !r.error) {
      requests.push_back(&r);
    }
  }
  const bh::net::HierarchyTopology topo(w.num_l1(), w.l1_per_l2,
                                        w.clients_per_l1);
  {
    ScopedSpan span(tracer, "layer.sim.eventqueue");
    bh::sim::EventQueue queue;
    std::uint64_t fired = 0;
    const double ns = time_ns_per(records.size(), [&] {
      for (const Record& r : records) {
        queue.run_until(r.time);
        queue.schedule_at(r.time + 0.5, [&fired](bh::SimTime) { ++fired; });
      }
      queue.run_all();
    });
    keep(fired);
    out.set("sim.eventqueue.ns_per_event", ns, "ns");
  }
  {
    ScopedSpan span(tracer, "layer.cache.lru");
    std::vector<bh::cache::LruCache> caches;
    for (std::uint32_t i = 0; i < topo.num_l1(); ++i) caches.emplace_back(capacity);
    const double ns = time_ns_per(requests.size(), [&] {
      for (const Record* r : requests) {
        auto& cache = caches[topo.l1_of_client(r->client)];
        if (!cache.find(r->object)) {
          cache.insert(r->object, r->size, r->version, false);
        }
      }
    });
    out.set("cache.lru.ns_per_access", ns, "ns");
  }
  {
    ScopedSpan span(tracer, "layer.hints.store");
    auto store = bh::hints::make_hint_store(bh::kUnlimitedBytes);
    out.set("hints.store.ns_per_insert",
            time_ns_per(requests.size(),
                        [&] {
                          for (const Record* r : requests) {
                            store->insert(r->object,
                                          bh::MachineId{topo.l1_of_client(r->client)});
                          }
                        }),
            "ns");
    std::uint64_t found = 0;
    out.set("hints.store.ns_per_lookup",
            time_ns_per(requests.size(),
                        [&] {
                          for (const Record* r : requests) {
                            found += store->lookup(r->object).has_value();
                          }
                        }),
            "ns");
    keep(found);
  }
  {
    ScopedSpan span(tracer, "layer.hints.metadata");
    bh::sim::EventQueue queue;
    bh::hints::MetadataHierarchy meta(topo, bh::hints::MetadataConfig{}, queue);
    out.set("hints.metadata.ns_per_update",
            time_ns_per(requests.size(),
                        [&] {
                          for (const Record* r : requests) {
                            meta.inform(topo.l1_of_client(r->client), r->object);
                          }
                        }),
            "ns");
  }
}

}  // namespace

Result run_sim_grid(Context& ctx) {
  const Params& p = ctx.params;
  const std::string trace_name = p.str("trace_preset");
  const double scale = p.num("scale");
  const double gb_per_l1 = p.num("l1_capacity_gb");
  const std::string cost_model = p.str("cost_model");
  const int jobs = int(p.u64("jobs"));
  const int setups = int(p.u64("setup_repeats"));
  Tracer& tracer = ctx.tracer;
  Result out;

  // Set-up: generate the trace and build the grid, `setups` times before the
  // first pass and again after every pass, so the median samples the whole
  // run and not only its first second. Each pass uses the latest set-up.
  std::vector<double> setup_s, generate_s;
  std::vector<Record> records;
  std::vector<ExperimentConfig> configs;
  bh::trace::WorkloadParams workload;
  auto set_up = [&] {
    for (int i = 0; i < setups; ++i) {
      records = {};
      ScopedSpan setup(tracer, "setup");
      const auto t0 = Clock::now();
      workload = bh::trace::workload_by_name(trace_name).scaled(scale);
      workload.seed = ctx.seed;
      {
        ScopedSpan gen(tracer, "trace.generate", setup.id());
        const auto g0 = Clock::now();
        records = bh::trace::TraceGenerator(workload).generate_all();
        generate_s.push_back(seconds_since(g0));
      }
      configs = grid_configs(workload, scale, gb_per_l1, cost_model);
      setup_s.push_back(seconds_since(t0));
    }
  };

  // Measured passes: whole grids until the run's time is used up. In the
  // traced run one pass runs with spans off first, for the overhead figure.
  std::vector<Pass> passes;
  double untraced_wall = 0, cpu_s = 0;
  auto measure = [&](Tracer& t) {
    const double cpu0 = process_cpu_seconds(::getpid());
    Pass pass = run_grid(records, configs, jobs, t);
    cpu_s += process_cpu_seconds(::getpid()) - cpu0;
    return pass;
  };
  set_up();
  // One untimed pass first: it pays for the allocator's first touch of the
  // cells' memory (about 1.2 GB) and ran 15-30% slower than the passes after
  // it. Its digest is still checked.
  Tracer quiet;
  passes.push_back(run_grid(records, configs, jobs, quiet));
  const std::size_t warm_passes = 1;
  set_up();
  if (ctx.traced) {
    untraced_wall = measure(quiet).wall_s;
    passes.push_back(measure(tracer));
  } else {
    // Whole passes while the next one, as long as the last, still fits in
    // the run's time.
    const auto t0 = Clock::now();
    do {
      passes.push_back(measure(tracer));
      set_up();
    } while (seconds_since(t0) + passes.back().wall_s < ctx.seconds);
  }

  // Correctness: every pass must give the same cell digest, and that digest
  // must match the pinned one when this seed and these constants are pinned.
  const std::string digest = grid_digest(passes.front().results);
  std::uint64_t mismatched = 0, checked = 0;
  for (const Pass& pass : passes) {
    for (std::size_t c = 0; c < kNumCells; ++c) {
      ++checked;
      if (grid_digest({pass.results[c]}) !=
          grid_digest({passes.front().results[c]})) {
        ++mismatched;
      }
    }
  }
  char key[160];
  std::snprintf(key, sizeof key, "%s/%.17g/%.17g/%s", trace_name.c_str(),
                scale, gb_per_l1, cost_model.c_str());
  std::string pinned = "unpinned";
  for (const Pinned& pin : kPinned) {
    if (key == std::string(pin.key) && pin.seed == ctx.seed) {
      pinned = pin.digest;
      if (digest != pin.digest) mismatched += kNumCells;
    }
  }
  out.attempted = checked;
  out.failed = mismatched;
  out.correct = mismatched == 0;
  out.stamp["sim_digest"] = digest;
  out.stamp["sim_digest_pinned"] = pinned;
  out.stamp["sim_passes"] = std::to_string(passes.size());
  out.stamp["sim_jobs"] = std::to_string(jobs);

  std::vector<double> rates;
  double passes_s = 0;
  const std::size_t timed = passes.size() - warm_passes;
  for (std::size_t i = warm_passes; i < passes.size(); ++i) {
    rates.push_back(double(kNumCells * records.size()) / passes[i].wall_s);
    passes_s += passes[i].wall_s;
  }
  const double replayed = double(kNumCells * records.size()) * double(timed + ctx.traced);
  const ExperimentResult& hints = passes.front().results[2];
  std::uint64_t served = 0, origin = 0;
  for (const ExperimentResult& r : passes.front().results) {
    served += r.snapshot.counter("bh.core.requests");
    origin += r.snapshot.counter("bh.core.server_fetches");
  }

  out.set("setup_s", median(setup_s), "s");
  out.set("req_per_s", double(kNumCells * records.size() * timed) / passes_s,
          "req/s");
  out.set("cpu_us_per_req", cpu_s * 1e6 / replayed, "us");
  out.set("peak_rss_mb", vm_hwm_mb(::getpid()), "MB");
  out.set("origin_fetch_ratio", served ? double(origin) / double(served) : 0,
          "ratio");
  {
    std::string series;
    for (double r : rates) series += (series.empty() ? "" : ",") + std::to_string(int(r));
    out.stamp["pass_req_per_s"] = series;
    series.clear();
    for (double t : setup_s) series += (series.empty() ? "" : ",") + std::to_string(t);
    out.stamp["setup_s_all"] = series;
  }

  if (ctx.traced) {
    const Pass& pass = passes.back();
    out.set("trace.generate_s", median(generate_s), "s");
    double cell_sum = 0;
    for (std::size_t c = 0; c < kNumCells; ++c) {
      out.set(std::string("core.replay_s.") + kCells[c].name, pass.cell_s[c], "s");
      cell_sum += pass.cell_s[c];
    }
    out.set("core.sweep_efficiency", cell_sum / (double(jobs) * pass.wall_s),
            "ratio");
    out.set("trace.overhead_pct",
            100.0 * (pass.wall_s - untraced_wall) / untraced_wall, "%");
    const auto& hs = hints.snapshot;
    const double reqs = double(hs.counter("bh.core.requests"));
    out.set("hints.metadata.messages_per_req",
            double(hs.counter("bh.hints.meta_messages")) / reqs, "msg/req");
    out.set("core.false_positive_ratio",
            double(hs.counter("bh.core.false_positives")) / reqs, "ratio");
    const auto& ps = pass.results[1].snapshot;
    out.set("placement.pushes_per_req",
            double(ps.counter("bh.push.copies_pushed")) /
                double(ps.counter("bh.core.requests")),
            "push/req");
    replay_layers(records, workload, configs.front().hints.l1_capacity, tracer,
                  out);
  }
  return out;
}

}  // namespace perfbench
