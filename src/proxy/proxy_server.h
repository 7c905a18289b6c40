// The hint-enabled proxy cache daemon — the library's analogue of the
// paper's modified Squid (Section 3.2), over real TCP.
//
// Each daemon owns an in-memory object cache (LRU, byte-capacity) and the
// prototype's 16-byte-record hint cache. Client GETs are served locally when
// possible; otherwise the local hint cache names a peer for a direct
// cache-to-cache fetch (the peer replies 404 rather than forwarding — a
// false positive costs one error round trip, exactly the simulated
// behaviour); otherwise the daemon fetches from the origin. Hint updates
// (inform on insert, invalidate on eviction) accumulate and are POSTed in
// the prototype's 20-byte-per-update batches to the configured neighbours.
//
// Threading model (the paper makes the *local* cache operation the common
// case; this layer makes it scale to many cores):
//   - all inbound I/O runs on a single epoll reactor thread: non-blocking
//     accept, incremental parsing, and gathered response writes, with
//     HTTP/1.0 keep-alive so one client connection can carry many requests
//     (see reactor.h, io_backend.h). The loop never blocks on a socket;
//   - a GET whose body is in the RAM cache is served on the loop thread as
//     soon as it is parsed (one shard lock, atomic counters, one histogram
//     sample): the common case never crosses a thread, and its response
//     joins the loop's coalesced write for the batch;
//   - every other request — misses, disk hits, /metrics, updates, pushes,
//     invalidations, and peer probes whose hit would push copies onward —
//     goes to a fixed pool of `workers` threads through a bounded job queue
//     (when it fills, the loop pauses accepting and backpressure falls back
//     to the kernel listen backlog; RAM hits never enter the queue, so it
//     bounds only this blocking work). Workers run everything that may
//     block and post the response back to the loop. stop() joins the loop
//     and the pool, so in-flight handlers never outlive the daemon;
//   - outbound probes, origin fetches, and metadata POSTs go through a
//     bounded per-peer pool of persistent connections (conn_pool.h), so the
//     steady state exchanges hints and probes without TCP handshakes;
//   - the object cache is a ShardedLruCache — N lock-striped shards chosen
//     by mix64(id) — and the hint cache sits behind an equally striped
//     front, so concurrent handlers touching different objects take
//     different locks;
//   - the remaining shared state is guarded per concern: neighbour
//     list/health under one mutex, the outbound update queue + relay
//     seen-set under another. Lock order: a cache-shard lock may be taken
//     before the queue lock (eviction callbacks queue invalidations);
//     every other pair of locks is never nested;
//   - a fill takes a FillTicket before it reads any tier; invalidate()
//     stamps both tiers' erase logs, and the store is refused under the
//     shard lock (and the disk index lock) if the object was invalidated
//     after the ticket, so a fill or demotion already under way can never
//     bring back bytes older than the invalidation.
//   - outbound hint batching runs on a dedicated flusher thread with size-
//     and age-based triggers; queued inform/invalidate pairs for the same
//     (object, location) retire each other before the batch is built
//     (proto::pair_key), since the pair is a net no-op for every receiver.
//
// Failure model (the paper's "do not slow down misses", extended to failed
// peers): every outbound call has its own deadline — data-path peer probes
// are single-shot and tight, origin fetches get their own budget, and
// metadata POSTs (/updates, /register) retry a bounded number of times with
// jittered exponential backoff inside a total budget. A neighbour that
// fails `quarantine_threshold` consecutive calls is quarantined: its hints
// are kept but not probed, so requests degrade to origin-direct service at
// full speed, and one re-probe per `quarantine_seconds` window lets a
// recovered peer rejoin. Hint re-advertisement is hop-bounded and
// deduplicated through a bounded seen-set, so update storms cannot occur in
// cyclic neighbour graphs.
//
// Peer responses advertise "X-Cache: HIT | SIBLING | MISS" so callers (and
// the tests) can observe exactly which path served them.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/disk_store.h"
#include "cache/sharded_lru.h"
#include "common/rng.h"
#include "common/types.h"
#include "hints/hint_cache.h"
#include "obs/metrics.h"
#include "placement/placement.h"
#include "proto/wire.h"
#include "proxy/conn_pool.h"
#include "proxy/http.h"
#include "proxy/reactor.h"
#include "proxy/socket.h"

namespace bh::proxy {

struct ProxyConfig {
  std::string name = "proxy";
  // Port to serve on; 0 binds a kernel-chosen ephemeral port. The scenario
  // lab pins restarted daemons to their old port so surviving peers' hints
  // (keyed by port) reach the reborn instance.
  std::uint16_t listen_port = 0;
  std::uint16_t origin_port = 0;
  std::uint64_t capacity_bytes = 64ULL << 20;
  std::uint64_t hint_bytes = 1ULL << 20;
  // Ports of the neighbour proxies this daemon exchanges hint batches with.
  std::vector<std::uint16_t> hint_neighbors;
  // Network proximity between this daemon and a machine id (= port), used to
  // keep the nearest advertised copy. Defaults to "all equal".
  std::function<double(std::uint64_t)> distance;

  // Push caching (Section 4, "we are in the process of adding ... push
  // caching to the prototype"): when this daemon supplies an object to a
  // peer (a cache-to-cache fetch), the configured placement policy picks
  // which of its other hint neighbours receive a pushed copy (PUT) — the
  // daemon analogue of hierarchical push on miss. Canonical policy name
  // (placement::policy_names()); construction throws std::invalid_argument
  // on an unknown name, so a typo'd flag fails startup instead of silently
  // not pushing. "none" disables pushing.
  std::string push_policy = "none";
  // Budget / estimator knobs for the budgeted policies (the adaptive-greedy
  // byte budget runs on the daemon's wall clock).
  placement::PolicyParams push_params;

  // Subscribe to the origin's server-driven invalidation (DELETE callbacks
  // on modify) — the paper's strong-consistency assumption, end-to-end.
  bool register_with_origin = false;

  // --- persistence & warm restart ---
  // Root directory of the on-disk L2 object store. Empty disables the disk
  // tier entirely (RAM-only, the pre-persistence behaviour). When set, RAM
  // evictions demote their bodies here and disk hits promote them back; a
  // restarted daemon rescans the directory and serves the surviving objects.
  // Every disk hit is read through its checksum before it is served, so a
  // corrupt file is a miss for clients and peers alike.
  std::string disk_path;
  std::uint64_t disk_capacity_bytes = 256ULL << 20;
  // fsync demoted objects and saved images before rename. Surviving SIGKILL
  // never needs it (the page cache outlives the process); surviving power
  // loss does. Tests and benches turn it off for speed.
  bool disk_fsync = true;
  // Path of the versioned hint-cache image. When set, an existing image is
  // loaded at startup (warm hint table — a failed load logs the reason and
  // starts cold) and a fresh image is saved crash-atomically on stop().
  std::string hint_image_path;
  // > 0 additionally saves the image every this-many seconds from the
  // flusher thread, so a SIGKILLed daemon restarts with hints at most one
  // period stale. 0 saves only on clean stop().
  double hint_image_save_seconds = 0.0;

  // --- data-path concurrency ---
  // Lock stripes for the object cache and the hint front. The effective
  // count is capped so every shard keeps a meaningful byte budget (tiny test
  // caches degenerate to one shard and behave exactly like a single LRU).
  std::size_t cache_shards = 8;
  std::size_t hint_stripes = 8;
  // Fixed pool for the requests that may block (everything but RAM hits,
  // which the reactor thread serves itself).
  std::size_t workers = 8;

  // --- outbound hint batching ---
  // The flusher thread sends once the oldest pending update has waited this
  // long (and always at kFlushMaxPending updates). 0 disables the age
  // trigger (tests and examples drive flush_hints() explicitly). The bound
  // is fixed: the prototype flushed on a period drawn uniformly from 0-60 s,
  // and this daemon does not randomize it.
  double flush_interval_seconds = 0.0;

  // --- failure budget ---
  // Data-path peer probe: single-shot by design (a hint error costs one
  // bounded round trip, never a search), so its deadline is tight.
  double peer_deadline_seconds = 0.5;
  // Data-path origin fetch: single-shot with its own budget.
  double origin_deadline_seconds = 5.0;

  // --- neighbour health ---
  // Consecutive call failures before a neighbour is quarantined.
  int quarantine_threshold = 3;
  // While quarantined, at most one re-probe is admitted per this window;
  // everything else degrades to origin-direct service immediately.
  double quarantine_seconds = 5.0;
};

class ProxyServer {
 public:
  // Parsed requests bound for the workers that the daemon buffers; at this
  // depth the reactor pauses accepting (further backpressure is the kernel
  // listen backlog) until the workers drain it to half. RAM hits never
  // queue.
  static constexpr std::size_t kAcceptQueueCapacity = 128;
  // The flusher thread sends as soon as this many updates are pending.
  static constexpr std::size_t kFlushMaxPending = 1024;
  // A received update is re-advertised at most this many hops from its
  // origin.
  static constexpr int kMaxHintHops = 8;

  explicit ProxyServer(ProxyConfig cfg);
  ~ProxyServer();

  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  std::uint16_t port() const { return port_; }
  MachineId self() const { return MachineId{port_}; }

  // Name of the reactor's I/O engine: always "epoll".
  const char* backend_name() const { return "epoll"; }

  // Drains and sends the pending hint-update batch to every neighbour now,
  // synchronously. Tests and examples drive batching explicitly for
  // determinism; the flusher thread calls the same path on its size/age
  // triggers.
  void flush_hints();

  // Adds a hint-exchange neighbour after construction — ports are ephemeral,
  // so mutual neighbour pairs can only be wired once both daemons exist.
  void add_hint_neighbor(std::uint16_t port);

  // Strong-consistency invalidation: drop the local copy (if any) and
  // advertise the non-presence.
  void invalidate(ObjectId id);

  // Full registry snapshot as served by `GET /metrics`: the `bh.proxy.*`
  // counters plus scrape-time gauges (cache bytes/objects — total and per
  // shard — hint entries, update-queue depth) and the request-latency and
  // flush-batch-size histograms.
  obs::MetricsSnapshot metrics_snapshot() const;

  std::size_t cache_shard_count() const { return cache_.shard_count(); }

  // Canonical name of the placement policy driving push-on-peer-fetch
  // ("none" when pushing is disabled).
  const std::string& push_policy_name() const { return push_policy_->name(); }

  // The disk tier, or nullptr when `disk_path` is empty. Stable for the
  // daemon's lifetime; tests read stats()/object_count() through it.
  const cache::DiskStore* disk() const { return disk_.get(); }

  // Builds an AssociativeHintCache image of the current hint table and
  // saves it crash-atomically to `hint_image_path`. Throws std::runtime_error
  // if the write fails; no-op when no path is configured. stop() and the
  // periodic flusher-thread save call this same path.
  void save_hint_image();

  // Whether startup found and successfully loaded a hint image (and how many
  // hints it carried) — the warm-restart observability hook.
  bool hint_image_restored() const { return hint_image_restored_; }
  std::size_t hint_image_entries() const { return hint_image_entries_; }

  void stop();

 private:
  struct NeighborHealth {
    int consecutive_failures = 0;
    bool quarantined = false;
    std::chrono::steady_clock::time_point retry_at{};
  };

  // The registry-backed counters, bound once at construction so the hot
  // paths touch only the atomics (the registry map is never re-probed).
  struct Counters {
    obs::Counter& requests;
    obs::Counter& local_hits;
    obs::Counter& sibling_hits;
    obs::Counter& origin_fetches;
    obs::Counter& false_positives;     // hinted peer replied 404
    obs::Counter& peer_serves;         // cache-only requests we answered 200
    obs::Counter& peer_rejects;        // cache-only requests we answered 404
    obs::Counter& updates_sent;
    obs::Counter& updates_received;
    obs::Counter& update_bytes_sent;
    obs::Counter& updates_coalesced;   // retired pre-send as net no-op pairs
    obs::Counter& flushes;             // non-empty batch drains
    obs::Counter& pushes_sent;
    obs::Counter& pushes_received;
    obs::Counter& push_bytes_sent;
    obs::Counter& peer_failures;       // probe died (refused/reset/timeout)
    obs::Counter& origin_failures;     // origin fetch died or non-200
    obs::Counter& quarantines;         // transitions into quarantine
    obs::Counter& quarantine_skips;    // probes skipped: origin-direct path
    obs::Counter& reprobes;            // probes admitted to a quarantined peer
    obs::Counter& metadata_retries;    // extra attempts beyond the first
    obs::Counter& updates_deduped;     // relays dropped by the seen-set
    obs::Counter& updates_hop_capped;  // relays dropped by the hop bound
    obs::Counter& disk_hits;           // RAM misses served from the disk tier
    obs::Counter& disk_misses;         // RAM misses the disk couldn't cover
    obs::Counter& disk_demotions;      // RAM evictions written to disk
    obs::Counter& disk_promotions;     // disk hits copied back into RAM
  };
  static Counters make_counters(obs::MetricsRegistry& reg);

  // Erase-log tickets of both tiers, taken before a fill reads any tier;
  // store() refuses the body if invalidate(id) ran after them.
  struct FillTicket {
    std::uint64_t ram = 0;
    std::uint64_t disk = 0;
  };
  FillTicket fill_ticket() const;

  void worker_loop();
  void flusher_loop();
  void dispatch_request(std::uint64_t token, HttpRequest req);
  HttpResponse handle(const HttpRequest& req);
  // The one RAM-hit path, called on the loop thread by dispatch_request and
  // on a worker by handle_get: a hit's response with its counters, headers
  // and (client GETs) its request_ms sample measured from `t0`; nullopt on a
  // miss, with nothing counted.
  std::optional<HttpResponse> serve_ram_hit(
      ObjectId id, bool cache_only, std::chrono::steady_clock::time_point t0);
  HttpResponse handle_get(const HttpRequest& req);
  // Steps 1b-4 of a GET once RAM missed: disk, hinted peer, origin.
  HttpResponse handle_ram_miss(const HttpRequest& req,
                               std::optional<ObjectId> id, bool cache_only);
  HttpResponse handle_updates(const HttpRequest& req);
  HttpResponse handle_push(const HttpRequest& req);
  HttpResponse handle_metrics(const HttpRequest& req);
  // Asks the placement policy which neighbours should receive a pushed copy
  // of `id` (the requester is excluded) and PUTs it to each, carrying the
  // full target list in X-Push-Targets so receivers learn their siblings'
  // new copies immediately.
  void push_to_peers(ObjectId id, const cache::Body& body,
                     std::uint16_t requester_port);

  // Stores a fetched/pushed body in the sharded cache, queueing the inform
  // for a new entry and invalidations for every eviction. Safe to call with
  // no locks held; takes the shard lock, then (from the eviction callback
  // and for the inform) the queue lock — the one sanctioned nesting. With a
  // disk tier, eviction victims are collected under the shard lock and
  // demoted after it is released — disk I/O never runs under a shard lock.
  // The body is a shared buffer: storing a fetched response keeps the same
  // bytes the response will transmit, no copy.
  void store(ObjectId id, cache::BodyPtr body, bool replace_existing,
             bool pushed, FillTicket ticket);
  // `advertise = false` suppresses the inform: promotions bring back an
  // object the node never stopped holding, so peers learned nothing new.
  void store_internal(ObjectId id, cache::BodyPtr body, bool replace_existing,
                      bool pushed, bool advertise, FillTicket ticket);
  // Hands the victim to the disk tier's background writer, carrying the
  // disk ticket read when it was evicted. If the demotion is shed, cancelled
  // by an invalidation, or the write fails, the object has left the node, so
  // the hint invalidation is queued.
  void demote_to_disk(const cache::LruCache::Entry& victim,
                      cache::BodyPtr body, std::uint64_t disk_ticket);
  void load_hint_image();

  // Update queue + seen-set, guarded by queue_mu_.
  void queue_update_locked(proto::Action action, ObjectId id, MachineId loc,
                           MachineId exclude);
  bool note_seen_locked(const proto::HintUpdate& update);

  // Neighbour list + health, guarded by peers_mu_ internally.
  std::vector<std::uint16_t> neighbor_ports() const;
  bool peer_usable(std::uint16_t port);
  void record_peer_success(std::uint16_t port);
  void record_peer_failure(std::uint16_t port);

  CallOptions metadata_call_options();

  struct PendingUpdate {
    proto::HintUpdate update;
    MachineId exclude;
    int hops = 0;  // relays this update has already undergone
  };
  // Retires queued inform/invalidate pairs for the same (object, location)
  // with matching relay provenance; returns how many entries were removed.
  static std::size_t coalesce(std::vector<PendingUpdate>& pending);

  // Appends to pending_ and wakes the flusher when a trigger arms.
  void enqueue_pending_locked(PendingUpdate update);

  ProxyConfig cfg_;
  std::optional<TcpListener> listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> call_seq_{0};  // de-syncs backoff jitter streams

  // --- inbound I/O: epoll reactor + HTTP state machines ---
  // Declared before http_loop_ so the loop is destroyed first.
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<HttpLoop> http_loop_;
  std::thread loop_thread_;

  // --- request intake: bounded job queue + fixed worker pool ---
  struct Job {
    std::uint64_t token = 0;
    HttpRequest req;
  };
  mutable std::mutex pool_mu_;       // const scrapes sample the queue depth
  std::condition_variable pool_cv_;  // workers wait for jobs
  std::deque<Job> jobs_;
  bool intake_done_ = false;  // reactor stopped; workers drain then exit
  std::atomic<bool> intake_paused_{false};  // accept paused for backpressure
  std::vector<std::thread> workers_;

  // --- data path: internally lock-striped, no daemon-wide lock ---
  cache::ShardedLruCache cache_;
  std::unique_ptr<hints::HintStore> hints_;  // striped front: thread-safe
  // L2 spill tier (null when disabled). Lock order: its internal mutex may
  // be taken before queue_mu_ (the disk evict callback queues a hint
  // invalidation), never the reverse; it is never taken under a shard lock.
  std::unique_ptr<cache::DiskStore> disk_;
  std::atomic<bool> hint_image_restored_{false};
  std::atomic<std::size_t> hint_image_entries_{0};

  // --- push placement: policy + its RNG, shared by the worker threads ---
  mutable std::mutex push_mu_;
  std::unique_ptr<placement::Policy> push_policy_;  // never null
  bool push_enabled_ = false;  // cached: push_policy_->name() != "none"
  Rng push_rng_;
  const std::chrono::steady_clock::time_point start_time_{
      std::chrono::steady_clock::now()};

  // --- outbound persistent connections ---
  ConnectionPool pool_;

  // --- neighbours: list + health ---
  mutable std::mutex peers_mu_;
  std::vector<std::uint16_t> neighbors_;
  std::unordered_map<std::uint16_t, NeighborHealth> health_;

  // --- outbound update queue + relay seen-set + flusher ---
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;  // wakes the flusher thread
  std::vector<PendingUpdate> pending_;
  std::chrono::steady_clock::time_point oldest_pending_{};
  std::unordered_set<std::uint64_t> seen_updates_;
  std::deque<std::uint64_t> seen_order_;  // FIFO eviction for the seen-set
  std::mutex flush_send_mu_;  // serializes whole drains (manual + flusher)
  std::thread flusher_thread_;

  // Declared before c_/request_ms_/flush_batch_, which bind into it.
  // Mutable so const scrapes can refresh the occupancy gauges.
  mutable obs::MetricsRegistry registry_;
  Counters c_;
  obs::Histogram& request_ms_;   // client GET service time, milliseconds
  obs::Histogram& flush_batch_;  // updates per non-empty flush, post-coalesce
  obs::Histogram& demote_ms_;    // RAM-eviction -> disk write latency
  obs::Histogram& promote_ms_;   // disk read -> RAM re-insert latency
};

}  // namespace bh::proxy
