#include "proxy/proxy_server.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/hash.h"
#include "obs/export.h"
#include "proxy/origin_server.h"

namespace bh::proxy {
namespace {

// Striping floors: every cache shard keeps at least 1 MB and every hint
// stripe at least 64 KB of budget, so tiny test-sized capacities degenerate
// to a single partition and behave exactly like the unsharded structures
// (per-shard eviction on a 150-byte cache split 8 ways would be nonsense).
constexpr std::uint64_t kMinCacheShardBytes = 1ULL << 20;
constexpr std::uint64_t kMinHintStripeBytes = 64ULL << 10;

// Inbound keep-alive connections idle longer than this are closed by the
// reactor's sweep.
constexpr double kKeepaliveIdleSeconds = 30.0;
// Metadata calls (/updates, /register, PUT push): total budget per call,
// covering every retry attempt and backoff sleep.
constexpr double kMetadataDeadlineSeconds = 1.0;
constexpr int kMetadataMaxAttempts = 3;
// Bounded FIFO of recently seen update keys, used to drop duplicate
// re-advertisements in cyclic topologies.
constexpr std::size_t kSeenUpdatesCapacity = 4096;

std::size_t effective_partitions(std::uint64_t capacity_bytes,
                                 std::size_t requested,
                                 std::uint64_t min_bytes) {
  if (requested <= 1) return 1;
  if (capacity_bytes == kUnlimitedBytes) return requested;
  const std::uint64_t by_budget =
      std::max<std::uint64_t>(1, capacity_bytes / min_bytes);
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(requested, by_budget));
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// A 200 carrying a short text body.
HttpResponse text_reply(const char* body) {
  HttpResponse resp;
  resp.body = body;
  return resp;
}

HttpResponse error_reply(int status, const char* reason) {
  HttpResponse resp;
  resp.status = status;
  resp.reason = reason;
  return resp;
}

}  // namespace

ProxyServer::Counters ProxyServer::make_counters(obs::MetricsRegistry& reg) {
  return Counters{
      reg.counter("bh.proxy.requests"),
      reg.counter("bh.proxy.local_hits"),
      reg.counter("bh.proxy.sibling_hits"),
      reg.counter("bh.proxy.origin_fetches"),
      reg.counter("bh.proxy.false_positives"),
      reg.counter("bh.proxy.peer_serves"),
      reg.counter("bh.proxy.peer_rejects"),
      reg.counter("bh.proxy.updates_sent"),
      reg.counter("bh.proxy.updates_received"),
      reg.counter("bh.proxy.update_bytes_sent"),
      reg.counter("bh.proxy.updates_coalesced"),
      reg.counter("bh.proxy.flushes"),
      reg.counter("bh.proxy.pushes_sent"),
      reg.counter("bh.proxy.pushes_received"),
      reg.counter("bh.proxy.push_bytes_sent"),
      reg.counter("bh.proxy.peer_failures"),
      reg.counter("bh.proxy.origin_failures"),
      reg.counter("bh.proxy.quarantines"),
      reg.counter("bh.proxy.quarantine_skips"),
      reg.counter("bh.proxy.reprobes"),
      reg.counter("bh.proxy.metadata_retries"),
      reg.counter("bh.proxy.updates_deduped"),
      reg.counter("bh.proxy.updates_hop_capped"),
      reg.counter("bh.proxy.disk.hits"),
      reg.counter("bh.proxy.disk.misses"),
      reg.counter("bh.proxy.disk.demotions"),
      reg.counter("bh.proxy.disk.promotions"),
  };
}

ProxyServer::ProxyServer(ProxyConfig cfg)
    : cfg_(std::move(cfg)),
      cache_(cfg_.capacity_bytes,
             effective_partitions(cfg_.capacity_bytes, cfg_.cache_shards,
                                  kMinCacheShardBytes)),
      hints_(hints::make_striped_hint_store(
          cfg_.hint_bytes,
          effective_partitions(cfg_.hint_bytes, cfg_.hint_stripes,
                               kMinHintStripeBytes))),
      neighbors_(cfg_.hint_neighbors),
      c_(make_counters(registry_)),
      request_ms_(registry_.histogram("bh.proxy.request_ms")),
      flush_batch_(registry_.histogram("bh.proxy.flush_batch")),
      demote_ms_(registry_.histogram("bh.proxy.disk.demote_ms")),
      promote_ms_(registry_.histogram("bh.proxy.disk.promote_ms")) {
  // Resolve the placement policy first: an unknown name throws before any
  // thread or socket exists.
  {
    push_policy_ = placement::make_policy(cfg_.push_policy, cfg_.push_params);
    push_enabled_ = push_policy_->name() != "none";
    push_rng_ = Rng(mix64(std::hash<std::string>{}(cfg_.name)) ^ 0x9A9A);
  }

  // Persistence first: a bad disk root fails construction before any thread
  // exists, and the hint table is warm before the first request can arrive.
  if (!cfg_.disk_path.empty()) {
    cache::DiskStore::Options dopts;
    dopts.root = cfg_.disk_path;
    dopts.capacity_bytes = cfg_.disk_capacity_bytes;
    dopts.fsync_writes = cfg_.disk_fsync;
    disk_ = std::make_unique<cache::DiskStore>(
        std::move(dopts), [this](ObjectId victim) {
          // A disk eviction is the object leaving the node entirely (the
          // RAM copy, if any, was already demoted away): advertise the
          // non-presence. Lock order: DiskStore mutex before queue_mu_.
          std::lock_guard lock(queue_mu_);
          queue_update_locked(proto::Action::kInvalidate, victim, self(),
                              MachineId{0});
        });
  }
  load_hint_image();
  listener_ = TcpListener::bind(cfg_.listen_port);
  if (!listener_) {
    throw std::runtime_error(
        cfg_.name + ": cannot bind 127.0.0.1:" +
        std::to_string(cfg_.listen_port) +
        (cfg_.listen_port != 0 ? " (port in use?)" : ""));
  }
  port_ = listener_->port();
  reactor_ = std::make_unique<Reactor>();
  HttpLoop::Options loop_opts;
  loop_opts.idle_timeout_seconds = kKeepaliveIdleSeconds;
  http_loop_ = std::make_unique<HttpLoop>(
      *reactor_, listener_->fd(), loop_opts,
      [this](std::uint64_t token, HttpRequest req) {
        dispatch_request(token, std::move(req));
      });
  loop_thread_ = std::thread([this] { reactor_->run(); });
  const std::size_t workers = std::max<std::size_t>(1, cfg_.workers);
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  flusher_thread_ = std::thread([this] { flusher_loop(); });
  if (cfg_.register_with_origin) {
    // Registration is the consistency anchor — worth the bounded retry.
    HttpRequest reg;
    reg.method = "POST";
    reg.target = "/register";
    reg.body = std::to_string(port_);
    int attempts = 0;
    http_call(pool_, cfg_.origin_port, reg, metadata_call_options(),
              &attempts);
    if (attempts > 1) {
      c_.metadata_retries.inc(static_cast<std::uint64_t>(attempts - 1));
    }
  }
}

ProxyServer::~ProxyServer() { stop(); }

void ProxyServer::load_hint_image() {
  if (cfg_.hint_image_path.empty()) return;
  if (::access(cfg_.hint_image_path.c_str(), F_OK) != 0) return;  // first run
  try {
    const auto image = hints::AssociativeHintCache::load(cfg_.hint_image_path);
    std::size_t restored = 0;
    image.for_each([&](ObjectId id, MachineId loc) {
      hints_->insert(id, loc);
      ++restored;
    });
    hint_image_restored_ = true;
    hint_image_entries_ = restored;
  } catch (const std::exception& e) {
    // A rejected image is a cold start, never a crash: the daemon is a
    // cache, the hints are soft state.
    std::fprintf(stderr, "%s: hint image not restored (cold start): %s\n",
                 cfg_.name.c_str(), e.what());
  }
}

void ProxyServer::save_hint_image() {
  if (cfg_.hint_image_path.empty()) return;
  // The striped store has no flat record array of its own; rebuild one
  // associative image from an enumeration and save that. for_each yields
  // each stripe LRU -> MRU, so replaying through insert() preserves the
  // recency order within every set.
  std::uint64_t image_bytes = cfg_.hint_bytes;
  if (image_bytes == kUnlimitedBytes) {
    // Unbounded store: size the image to the live entry count with 4x
    // headroom so set conflicts drop almost nothing.
    image_bytes = std::max<std::uint64_t>(
        64ULL << 10, hints_->entry_count() * sizeof(hints::HintRecord) * 4);
  }
  hints::AssociativeHintCache image(image_bytes);
  hints_->for_each(
      [&](ObjectId id, MachineId loc) { image.insert(id, loc); });
  image.save(cfg_.hint_image_path);
}

void ProxyServer::stop() {
  if (stopping_.exchange(true)) return;
  // First the reactor: once the loop has stopped and the loop is torn down,
  // the listener is closed, so peers probing a dead daemon see a refused
  // connection rather than an accepted-then-silent one.
  reactor_->stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  http_loop_->shutdown();
  listener_->shut_down();
  // Workers drain the already-parsed jobs (each bounded by the per-call
  // deadlines; their respond() posts are dropped, the loop being gone) and
  // exit. The lock-then-notify pair closes the missed-wakeup window.
  {
    std::lock_guard lock(pool_mu_);
    intake_done_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  {
    std::lock_guard lock(queue_mu_);
  }
  queue_cv_.notify_all();
  if (flusher_thread_.joinable()) flusher_thread_.join();
  // Drain and join the disk store's async demotion writer while the
  // counters and the update queue its callbacks touch are still alive (the
  // registry is destroyed before disk_ by declaration order). Every
  // accepted demotion reaches disk before the final hint image is cut.
  if (disk_) disk_->stop_async();
  // Final image save after every worker and the flusher are gone, so the
  // saved table is the daemon's last word. Failure only costs the next
  // start its warmth.
  try {
    save_hint_image();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: final hint image save failed: %s\n",
                 cfg_.name.c_str(), e.what());
  }
  pool_.clear();
}

obs::MetricsSnapshot ProxyServer::metrics_snapshot() const {
  // Occupancy gauges are sampled at scrape time. The sharded cache and the
  // striped hint front maintain their own totals, so no daemon-wide lock
  // exists to take — only the queue and pool mutexes for their depths.
  registry_.gauge("bh.proxy.cache_bytes")
      .set(static_cast<double>(cache_.used_bytes()));
  registry_.gauge("bh.proxy.cache_objects")
      .set(static_cast<double>(cache_.object_count()));
  for (std::size_t s = 0; s < cache_.shard_count(); ++s) {
    const std::string prefix = "bh.proxy.shard." + std::to_string(s);
    registry_.gauge(prefix + ".bytes")
        .set(static_cast<double>(cache_.shard_used_bytes(s)));
    registry_.gauge(prefix + ".objects")
        .set(static_cast<double>(cache_.shard_object_count(s)));
  }
  registry_.gauge("bh.proxy.hint_entries")
      .set(static_cast<double>(hints_->entry_count()));
  {
    // Push accounting lives in the policy object; publish it with the scrape
    // so `GET /metrics` carries the bh.push.* counters too.
    std::lock_guard lock(push_mu_);
    push_policy_->export_metrics(registry_);
  }
  if (disk_) {
    const cache::DiskStoreStats ds = disk_->stats();
    registry_.gauge("bh.proxy.disk.bytes")
        .set(static_cast<double>(disk_->used_bytes()));
    registry_.gauge("bh.proxy.disk.objects")
        .set(static_cast<double>(disk_->object_count()));
    registry_.counter("bh.proxy.disk.evictions").set(ds.evictions);
    registry_.counter("bh.proxy.disk.corrupt_dropped").set(ds.corrupt_dropped);
    registry_.counter("bh.proxy.disk.io_errors").set(ds.io_errors);
    registry_.counter("bh.proxy.demote_queued").set(ds.async_queued);
    registry_.counter("bh.proxy.demote_dropped").set(ds.async_dropped);
    registry_.gauge("bh.proxy.demote_queue_depth")
        .set(static_cast<double>(disk_->async_queue_depth()));
  }
  registry_.gauge("bh.proxy.hint_image_restored")
      .set(hint_image_restored_ ? 1.0 : 0.0);
  registry_.gauge("bh.proxy.hint_image_entries")
      .set(static_cast<double>(hint_image_entries_.load()));
  {
    std::lock_guard lock(queue_mu_);
    registry_.gauge("bh.proxy.pending_updates")
        .set(static_cast<double>(pending_.size()));
  }
  {
    std::lock_guard lock(pool_mu_);
    registry_.gauge("bh.proxy.queue_depth")
        .set(static_cast<double>(jobs_.size()));
  }
  // Reactor and connection-pool counters keep their own atomics on the hot
  // path; the registry copies are refreshed at scrape time.
  registry_.gauge("bh.proxy.open_conns")
      .set(static_cast<double>(http_loop_->open_connections()));
  registry_.gauge("bh.proxy.pool_idle")
      .set(static_cast<double>(pool_.idle_count()));
  registry_.counter("bh.proxy.loop_iterations").set(reactor_->iterations());
  registry_.counter("bh.proxy.pool_reuse").set(pool_.reuses());
  // Always 0 (epoll makes no submission calls); exported because perfbench's
  // traced proxy.submit_calls_per_req requires the counter to exist.
  registry_.counter("bh.proxy.submit_calls").set(0);
  // Always 0 (every body is sent from a RAM buffer); exported because
  // perfbench's traced proxy.zerocopy_byte_ratio requires the counter.
  registry_.counter("bh.proxy.bytes_zerocopy").set(0);
  return registry_.snapshot();
}

CallOptions ProxyServer::metadata_call_options() {
  CallOptions opts;
  opts.deadline_seconds = kMetadataDeadlineSeconds;
  opts.max_attempts = kMetadataMaxAttempts;
  // Distinct jitter stream per call so neighbours never back off in lockstep.
  opts.backoff_seed = mix64((std::uint64_t{port_} << 32) ^
                            call_seq_.fetch_add(1, std::memory_order_relaxed));
  return opts;
}

// ---------------------------------------------------------------------------
// request intake: reactor dispatch + worker pool
// ---------------------------------------------------------------------------

// Runs on the reactor loop thread with a fully parsed request. A GET whose
// body is in RAM is answered right here: the response joins the pump's
// batch, so pipelined hits still leave in one gathered write, and the hit
// never waits on the job queue or a worker. Everything that may block goes
// to the workers: misses and disk hits, /metrics, updates, pushes,
// invalidations, and peer probes when a hit would push copies onward
// (push_to_peers makes blocking PUTs). Enqueueing applies backpressure when
// the queue is full.
void ProxyServer::dispatch_request(std::uint64_t token, HttpRequest req) {
  if (req.method == "GET") {
    const bool cache_only = req.header("X-No-Forward").has_value();
    const auto id = object_from_path(req.path());
    if (id && !(cache_only && push_enabled_)) {
      const auto t0 = std::chrono::steady_clock::now();
      if (cache::BodyPtr body = cache_.find(*id)) {
        if (!cache_only) c_.requests.inc();
        HttpResponse resp =
            reply(Tier::kRam, cache::Body(std::move(body)), cache_only);
        if (!cache_only) request_ms_.record(ms_since(t0));
        http_loop_->respond(token, std::move(resp));
        return;
      }
    }
  }
  bool pause = false;
  {
    std::lock_guard lock(pool_mu_);
    jobs_.push_back(Job{token, std::move(req)});
    pause = jobs_.size() >= kAcceptQueueCapacity;
  }
  if (pause && !intake_paused_.exchange(true)) {
    // Already-open keep-alive connections keep queueing (each bounded by
    // the loop's pipeline cap); new connections wait in the kernel backlog.
    http_loop_->pause_accept();
  }
  pool_cv_.notify_one();
}

void ProxyServer::worker_loop() {
  for (;;) {
    Job job;
    bool resume = false;
    {
      std::unique_lock lock(pool_mu_);
      pool_cv_.wait(lock, [this] { return !jobs_.empty() || intake_done_; });
      if (jobs_.empty()) return;  // reactor stopped and the queue drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
      resume = intake_paused_.load(std::memory_order_relaxed) &&
               jobs_.size() <= kAcceptQueueCapacity / 2;
    }
    if (resume && intake_paused_.exchange(false)) {
      http_loop_->resume_accept();
    }
    http_loop_->respond(job.token, handle(job.req));
  }
}

HttpResponse ProxyServer::handle(const HttpRequest& req) {
  if (req.method == "POST" && req.path() == "/updates") {
    return handle_updates(req);
  }
  if (req.method == "POST" && req.path() == "/admin/neighbor") {
    // Orchestration hook: daemons bind ephemeral ports, so a launcher can
    // only wire the hint topology once every daemon is up and has reported
    // its port. Body: the neighbour's decimal port.
    const auto port = parse_port(req.body);
    if (!port) return error_reply(400, "Bad Request");
    add_hint_neighbor(*port);
    return text_reply("ok");
  }
  if (req.method == "PUT") {
    return handle_push(req);
  }
  if (req.method == "DELETE") {
    // Server-driven invalidation from the origin.
    const auto id = object_from_path(req.path());
    if (!id) return error_reply(404, "Not Found");
    invalidate(*id);
    return text_reply("invalidated");
  }
  if (req.method == "GET") {
    if (req.path() == "/metrics") {
      return handle_metrics(req);
    }
    return handle_get(req);
  }
  return error_reply(404, "Not Found");
}

// ---------------------------------------------------------------------------
// data path (no daemon-wide lock: the cache shards and hint stripes are the
// only locks a local hit touches, and two hits on different objects almost
// always touch different ones)
// ---------------------------------------------------------------------------

HttpResponse ProxyServer::handle_get(const HttpRequest& req) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto id = object_from_path(req.path());
  if (!id) return error_reply(404, "Not Found");  // untimed, uncounted
  const bool cache_only = req.header("X-No-Forward").has_value();
  // Counted as it starts, so a client stuck on a slow tier is visible.
  if (!cache_only) c_.requests.inc();
  HttpResponse resp = serve_tiers(*id, req.target, cache_only);
  if (!cache_only) {
    request_ms_.record(ms_since(t0));
  } else if (resp.status == 200 && push_enabled_ && !stopping_.load()) {
    // A cousin just fetched from us (RAM or disk): let the placement policy
    // pick which other neighbours to seed (hierarchical push on miss,
    // supplier-driven, Figure 9; the adaptive policy gates on demand
    // estimates).
    std::uint16_t requester = 0;
    if (auto r = req.header("X-Requester-Port")) {
      requester = parse_port(*r).value_or(0);
    }
    push_to_peers(*id, resp.body, requester);
  }
  return resp;
}

HttpResponse ProxyServer::serve_tiers(ObjectId id, const std::string& target,
                                      bool cache_only) {
  // 1. RAM (one shard lock). Repeated on the worker: it catches fills that
  // landed while the request was queued. find() hands back the stored
  // shared buffer, and the response adopts it, so no byte is copied.
  if (cache::BodyPtr body = cache_.find(id)) {
    return reply(Tier::kRam, cache::Body(std::move(body)), cache_only);
  }
  // Taken before any other tier is read: a fill whose bytes may predate an
  // invalidate(id) that runs meanwhile is refused when it tries to store.
  const FillTicket ticket = fill_ticket();
  if (auto body = from_disk(id, ticket)) {
    return reply(Tier::kDisk, std::move(*body), cache_only);
  }
  if (cache_only) {
    // A peer probed us on a hint we no longer honour: the error reply that
    // prices a false positive.
    c_.peer_rejects.inc();
    return error_reply(404, "Not Cached");
  }
  if (auto body = from_sibling(id, target, ticket)) {
    return reply(Tier::kSibling, std::move(*body), cache_only);
  }
  if (stopping_.load()) return error_reply(503, "Shutting Down");
  if (auto body = from_origin(id, target, ticket)) {
    return reply(Tier::kOrigin, std::move(*body), cache_only);
  }
  return error_reply(502, "Bad Gateway");
}

// 2. Disk: a RAM miss can still be a node hit. The body is read through the
// store's checksummed get_body; one that fails its checksum is dropped and
// the request falls through as a miss, so a corrupt file is never served
// to a client or a peer. A RAM-sized body is promoted back into RAM; a
// larger one is served from the verified buffer and not re-put, which
// would only rewrite the same file.
std::optional<cache::Body> ProxyServer::from_disk(ObjectId id,
                                                  FillTicket ticket) {
  if (!disk_) return std::nullopt;
  const auto t0 = std::chrono::steady_clock::now();
  std::optional<cache::Body> body = disk_->get_body(id);
  if (!body) {
    c_.disk_misses.inc();
    return std::nullopt;
  }
  if (body->size() <= cache_.max_object_bytes()) {
    store(id, body->shared(), Fill::kPromoted, ticket);
    c_.disk_promotions.inc();
    promote_ms_.record(ms_since(t0));
  }
  return body;
}

// 3. A direct cache-to-cache transfer from the peer the local hint cache
// names: single-shot with a tight dedicated deadline — a dead peer costs
// one bounded round trip, never a full socket timeout, and a quarantined
// peer costs nothing. A failure falls through to the origin with no
// further searching (do not slow down misses).
std::optional<cache::Body> ProxyServer::from_sibling(
    ObjectId id, const std::string& target, FillTicket ticket) {
  const std::optional<MachineId> hint = hints_->lookup(id);
  if (!hint || stopping_.load()) return std::nullopt;
  const auto peer_port = static_cast<std::uint16_t>(hint->value);
  if (!peer_usable(peer_port)) {
    c_.quarantine_skips.inc();
    return std::nullopt;
  }
  HttpRequest peer_req;
  peer_req.method = "GET";
  peer_req.target = target;
  peer_req.headers.emplace_back("X-No-Forward", "1");
  peer_req.headers.emplace_back("X-Requester-Port", std::to_string(port_));
  CallOptions probe;
  probe.deadline_seconds = cfg_.peer_deadline_seconds;
  auto peer_resp = http_call(pool_, peer_port, peer_req, probe);
  if (!peer_resp) {
    // Transport failure: counts toward quarantine. Keep the hint — the
    // peer likely still holds the object when it rejoins.
    c_.peer_failures.inc();
    record_peer_failure(peer_port);
    return std::nullopt;
  }
  record_peer_success(peer_port);
  if (peer_resp->status != 200) {
    // The peer answered but no longer holds the object: a false positive,
    // priced at one error round trip. The peer is healthy.
    c_.false_positives.inc();
    hints_->erase(id);
    return std::nullopt;
  }
  // The parsed body arrives as a shared buffer: the cache and the response
  // reference the same bytes, no copy on either side.
  store(id, peer_resp->body.shared(), Fill::kFetched, ticket);
  return std::move(peer_resp->body);
}

// 4. The origin server, with its own single-shot budget.
std::optional<cache::Body> ProxyServer::from_origin(
    ObjectId id, const std::string& target, FillTicket ticket) {
  HttpRequest origin_req;
  origin_req.method = "GET";
  origin_req.target = target;
  CallOptions origin_opts;
  origin_opts.deadline_seconds = cfg_.origin_deadline_seconds;
  auto origin_resp =
      http_call(pool_, cfg_.origin_port, origin_req, origin_opts);
  if (!origin_resp || origin_resp->status != 200) {
    c_.origin_failures.inc();
    return std::nullopt;
  }
  store(id, origin_resp->body.shared(), Fill::kFetched, ticket);
  return std::move(origin_resp->body);
}

HttpResponse ProxyServer::reply(Tier tier, cache::Body body, bool cache_only) {
  // A probe is only ever served from a local tier, and sees a plain HIT.
  const char* x_cache = "HIT";
  switch (tier) {
    case Tier::kDisk:
      c_.disk_hits.inc();
      if (!cache_only) x_cache = "DISK";
      [[fallthrough]];
    case Tier::kRam:
      (cache_only ? c_.peer_serves : c_.local_hits).inc();
      break;
    case Tier::kSibling:
      c_.sibling_hits.inc();
      x_cache = "SIBLING";
      break;
    case Tier::kOrigin:
      c_.origin_fetches.inc();
      x_cache = "MISS";
      break;
  }
  HttpResponse resp;
  resp.body = std::move(body);
  resp.headers.emplace_back("X-Cache", x_cache);
  resp.headers.emplace_back("X-Served-By", cfg_.name);
  return resp;
}

ProxyServer::FillTicket ProxyServer::fill_ticket() const {
  return FillTicket{cache_.ticket(), disk_ ? disk_->ticket() : 0};
}

void ProxyServer::store(ObjectId id, cache::BodyPtr body, Fill fill,
                        FillTicket ticket) {
  if (!body) body = std::make_shared<const std::string>();

  // Objects too large for any RAM shard go straight to the disk tier (an
  // insert would come back kRejected and the body would be lost).
  if (disk_ && body->size() > cache_.max_object_bytes()) {
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = disk_->put(id, *body, /*version=*/1, ticket.disk);
    demote_ms_.record(ms_since(t0));
    if (ok && fill != Fill::kPromoted) {
      std::lock_guard lock(queue_mu_);
      queue_update_locked(proto::Action::kInform, id, self(), MachineId{0});
    }
    return;
  }

  // The eviction callback runs under the shard lock and may take the queue
  // lock — the one sanctioned nesting (shard before queue, never reverse).
  // With a disk tier, victims are only collected there: their bodies are
  // handed off after the shard lock is released, so disk I/O never
  // serializes the shard. Each victim's disk ticket is read under the shard
  // lock, before any invalidate(victim) can erase it, so an invalidation
  // that lands before the demotion commits still cancels it.
  struct Demotion {
    cache::LruCache::Entry victim;
    cache::BodyPtr body;
    std::uint64_t disk_ticket;
  };
  std::vector<Demotion> demote;
  const auto outcome = cache_.insert(
      id, std::move(body), /*version=*/1, /*pushed=*/fill == Fill::kPushed,
      /*replace_existing=*/fill != Fill::kPushed,
      [this, &demote](const cache::LruCache::Entry& victim,
                      cache::BodyPtr victim_body) {
        if (disk_) {
          demote.push_back({victim, std::move(victim_body), disk_->ticket()});
          return;
        }
        std::lock_guard lock(queue_mu_);
        queue_update_locked(proto::Action::kInvalidate, victim.id, self(),
                            MachineId{0});
      },
      ticket.ram);
  if (outcome == cache::ShardedLruCache::InsertOutcome::kInserted &&
      fill != Fill::kPromoted) {
    std::lock_guard lock(queue_mu_);
    queue_update_locked(proto::Action::kInform, id, self(), MachineId{0});
  }
  for (Demotion& d : demote) {
    demote_to_disk(d.victim, std::move(d.body), d.disk_ticket);
  }
}

void ProxyServer::demote_to_disk(const cache::LruCache::Entry& victim,
                                 cache::BodyPtr body,
                                 std::uint64_t disk_ticket) {
  // Hand the victim to the background demotion writer: the worker that
  // triggered the eviction returns immediately instead of blocking on a
  // disk write. The shared buffer keeps the bytes alive until the writer is
  // done with them. The invalidate/keep decision rides the completion
  // callback — hints stay valid only once the object really reached disk.
  const auto t0 = std::chrono::steady_clock::now();
  const ObjectId id = victim.id;
  const bool queued = disk_->put_async(
      victim.id, std::move(body), victim.version,
      [this, id, t0](bool ok) {
        demote_ms_.record(ms_since(t0));
        if (ok) {
          c_.disk_demotions.inc();
          return;
        }
        std::lock_guard lock(queue_mu_);
        queue_update_locked(proto::Action::kInvalidate, id, self(),
                            MachineId{0});
      },
      disk_ticket);
  if (!queued) {
    // Queue full (or stopped): the demotion is shed and the object has left
    // the node — say so now rather than after a blocking write.
    std::lock_guard lock(queue_mu_);
    queue_update_locked(proto::Action::kInvalidate, victim.id, self(),
                        MachineId{0});
  }
}

// ---------------------------------------------------------------------------
// metadata path
// ---------------------------------------------------------------------------

HttpResponse ProxyServer::handle_updates(const HttpRequest& req) {
  const auto updates = proto::decode_body(std::span(
      reinterpret_cast<const std::uint8_t*>(req.body.data()), req.body.size()));
  if (!updates) return error_reply(400, "Bad Batch");
  MachineId from{0};
  if (auto f = req.header("X-From")) {
    if (auto port = parse_port(*f)) from = MachineId{*port};
  }
  int hops = 0;
  if (auto h = req.header("X-Hop")) {
    if (auto parsed = parse_u64(*h)) {
      hops = static_cast<int>(std::min<std::uint64_t>(*parsed, 1024));
    }
  }

  // Apply the whole batch through one striped-store pass: ids are grouped
  // by stripe and each stripe lock is taken once per batch, instead of a
  // lookup plus a mutation acquisition per update.
  {
    std::vector<ObjectId> ids;
    ids.reserve(updates->size());
    for (const proto::HintUpdate& u : *updates) ids.push_back(u.object);
    using Decision = hints::StripedHintStore::BatchDecision;
    hints_->apply_batch(
        ids, [&](std::size_t i, std::optional<MachineId> cur) -> Decision {
          const proto::HintUpdate& u = (*updates)[i];
          if (u.location == self()) return Decision::keep();
          switch (u.action) {
            case proto::Action::kInform:
              if (nearer_than_hint(u.location, cur)) {
                return Decision::insert_loc(u.location);
              }
              break;
            case proto::Action::kInvalidate:
              if (cur && *cur == u.location) return Decision::erase_hint();
              break;
          }
          return Decision::keep();
        });
  }

  for (const proto::HintUpdate& u : *updates) {
    c_.updates_received.inc();
    // Re-advertise to the other neighbours next flush — at most once per
    // distinct update (the seen-set kills cycles), never for updates about
    // ourselves, and never past the hop bound.
    std::lock_guard lock(queue_mu_);
    const bool fresh = note_seen_locked(u);
    if (!fresh) {
      c_.updates_deduped.inc();
      continue;
    }
    if (u.location == self()) continue;
    const int next_hops = hops + 1;
    if (next_hops >= kMaxHintHops) {
      c_.updates_hop_capped.inc();
      continue;
    }
    enqueue_pending_locked({u, from, next_hops});
  }
  return text_reply("ok");
}

void ProxyServer::add_hint_neighbor(std::uint16_t port) {
  std::lock_guard lock(peers_mu_);
  neighbors_.push_back(port);
}

std::vector<std::uint16_t> ProxyServer::neighbor_ports() const {
  std::lock_guard lock(peers_mu_);
  return neighbors_;
}

HttpResponse ProxyServer::handle_push(const HttpRequest& req) {
  const auto id = object_from_path(req.path());
  if (!id) return error_reply(404, "Not Found");
  c_.pushes_received.inc();
  // A push never displaces an existing copy's recency semantics: if we
  // already cache the object, keep ours.
  store(*id, std::make_shared<const std::string>(req.body), Fill::kPushed,
        fill_ticket());
  // The supplier names every other daemon it pushed the same copy to:
  // seed a hint for the nearest sibling copy immediately instead of
  // waiting a hint-batch round trip. A malformed header is ignored (the
  // inform batches will still arrive).
  if (auto header = req.header("X-Push-Targets")) {
    if (auto ports = proto::decode_push_targets(*header)) {
      for (const std::uint16_t p : *ports) {
        if (p == port_ || p == 0) continue;
        const MachineId loc{p};
        if (nearer_than_hint(loc, hints_->lookup(*id))) {
          hints_->insert(*id, loc);
        }
      }
    }
  }
  return text_reply("ok");
}

bool ProxyServer::nearer_than_hint(MachineId loc,
                                   std::optional<MachineId> cur) const {
  if (!cur) return true;
  return cfg_.distance && cfg_.distance(loc.value) < cfg_.distance(cur->value);
}

HttpResponse ProxyServer::handle_metrics(const HttpRequest& req) {
  const obs::MetricsSnapshot snap = metrics_snapshot();
  HttpResponse resp;
  if (req.query_param("format").value_or("") == "json") {
    resp.body = obs::to_json(snap);
    resp.headers.emplace_back("Content-Type", "application/json");
  } else {
    resp.body = obs::to_text(snap);
    resp.headers.emplace_back("Content-Type", "text/plain; version=0.0.4");
  }
  return resp;
}

void ProxyServer::push_to_peers(ObjectId id, const cache::Body& body,
                                std::uint16_t requester_port) {
  const std::vector<std::uint16_t> neighbors = neighbor_ports();
  if (neighbors.empty()) return;

  // One policy decision per supplied fetch: the policy sees the candidate
  // neighbour list and appends the ports to seed (the requester already has
  // the copy and is excluded by the policy).
  const double now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_time_)
                         .count();
  const placement::Access access{id, body.size(), /*version=*/0, now};
  std::vector<std::uint16_t> targets;
  {
    std::lock_guard lock(push_mu_);
    push_policy_->select_push_targets(access, neighbors, requester_port,
                                      push_rng_, targets);
  }
  if (targets.empty()) return;

  // Request bodies are plain strings: copy the pushed object once, outside
  // the per-target loop.
  const std::string bytes = body.to_string();
  const std::string policy_name = push_policy_->name();
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const std::uint16_t nb = targets[t];
    if (stopping_.load()) break;
    if (!peer_usable(nb)) continue;  // pushes are best-effort
    HttpRequest put;
    put.method = "PUT";
    put.target = object_path(id, bytes.size());
    put.body = bytes;
    put.headers.emplace_back("X-Push-Policy", policy_name);
    // Every *other* target: the receiver can hint its siblings' new copies
    // without waiting a hint-batch round trip.
    std::vector<std::uint16_t> others;
    others.reserve(targets.size() - 1);
    for (std::size_t o = 0; o < targets.size(); ++o) {
      if (o != t) others.push_back(targets[o]);
    }
    put.headers.emplace_back("X-Push-Targets",
                             proto::encode_push_targets(others));
    CallOptions opts;
    opts.deadline_seconds = kMetadataDeadlineSeconds;
    const auto sent = http_call(pool_, nb, put, opts);
    if (sent && sent->status == 200) {
      record_peer_success(nb);
      c_.pushes_sent.inc();
      c_.push_bytes_sent.inc(body.size());
      std::lock_guard lock(push_mu_);
      push_policy_->note_pushed(body.size());
    } else {
      record_peer_failure(nb);
    }
  }
}

// ---------------------------------------------------------------------------
// outbound batching: coalescing + the flusher thread
// ---------------------------------------------------------------------------

std::size_t ProxyServer::coalesce(std::vector<PendingUpdate>& pending) {
  // A queued inform whose matching invalidate is also still queued (or the
  // reverse) is a net no-op for every receiver: whatever hint state a
  // receiver had for that (object, location) pair, applying both updates
  // returns it there. Only pairs with identical relay provenance (exclude
  // and hop count) may retire each other — otherwise one receiver set could
  // be skipped for half of the pair. Updates for the same pair alternate
  // inform/invalidate in queue order (an insert can only follow an eviction
  // and vice versa), so greedy matching against the most recent open entry
  // is exact.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> open;
  std::vector<char> dead(pending.size(), 0);
  std::size_t retired = 0;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    auto& stack = open[proto::pair_key(pending[i].update)];
    bool matched = false;
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      const PendingUpdate& o = pending[*it];
      if (o.update.action != pending[i].update.action &&
          o.exclude.value == pending[i].exclude.value &&
          o.hops == pending[i].hops) {
        dead[*it] = 1;
        dead[i] = 1;
        retired += 2;
        stack.erase(std::next(it).base());
        matched = true;
        break;
      }
    }
    if (!matched) stack.push_back(i);
  }
  if (retired == 0) return 0;
  std::vector<PendingUpdate> kept;
  kept.reserve(pending.size() - retired);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (!dead[i]) kept.push_back(std::move(pending[i]));
  }
  pending.swap(kept);
  return retired;
}

void ProxyServer::enqueue_pending_locked(PendingUpdate update) {
  if (pending_.empty()) {
    oldest_pending_ = std::chrono::steady_clock::now();
  }
  pending_.push_back(std::move(update));
  // Wake the flusher when a trigger could now be armed. Size: at the
  // threshold exactly (later pushes would be redundant wakeups). Age: on the
  // first pending update, to start the wait_until clock.
  if (pending_.size() == kFlushMaxPending ||
      (cfg_.flush_interval_seconds > 0 && pending_.size() == 1)) {
    queue_cv_.notify_one();
  }
}

void ProxyServer::flusher_loop() {
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cfg_.flush_interval_seconds));
  // Periodic hint-image saves ride on this thread: the save walks the hint
  // stripes (their own locks) and writes crash-atomically, so it needs no
  // coordination with the data path.
  const bool save_armed =
      cfg_.hint_image_save_seconds > 0 && !cfg_.hint_image_path.empty();
  const auto save_period =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(cfg_.hint_image_save_seconds));
  auto next_save = std::chrono::steady_clock::now() + save_period;
  std::unique_lock lock(queue_mu_);
  while (!stopping_.load()) {
    const bool size_due = pending_.size() >= kFlushMaxPending;
    const bool age_armed =
        !pending_.empty() && cfg_.flush_interval_seconds > 0;
    const bool age_due =
        age_armed && std::chrono::steady_clock::now() >=
                         oldest_pending_ + interval;
    if (size_due || age_due) {
      lock.unlock();
      flush_hints();  // takes flush_send_mu_ then queue_mu_ internally
      lock.lock();
      continue;
    }
    if (save_armed && std::chrono::steady_clock::now() >= next_save) {
      lock.unlock();
      try {
        save_hint_image();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: periodic hint image save failed: %s\n",
                     cfg_.name.c_str(), e.what());
      }
      lock.lock();
      next_save = std::chrono::steady_clock::now() + save_period;
      continue;
    }
    if (age_armed && save_armed) {
      queue_cv_.wait_until(lock,
                           std::min(oldest_pending_ + interval, next_save));
    } else if (age_armed) {
      queue_cv_.wait_until(lock, oldest_pending_ + interval);
    } else if (save_armed) {
      queue_cv_.wait_until(lock, next_save);
    } else {
      queue_cv_.wait(lock);
    }
  }
}

void ProxyServer::flush_hints() {
  if (stopping_.load()) return;
  // Serialize whole drains so two flushes (manual + flusher) cannot swap
  // batches A then B but send B before A, reordering an inform/invalidate
  // pair on the wire. Order: flush_send_mu_ before queue_mu_; no path takes
  // them the other way around.
  std::lock_guard send_lock(flush_send_mu_);
  std::vector<PendingUpdate> pending;
  {
    std::lock_guard lock(queue_mu_);
    pending.swap(pending_);
  }
  if (pending.empty()) return;
  const std::size_t retired = coalesce(pending);
  if (retired > 0) c_.updates_coalesced.inc(retired);
  if (pending.empty()) return;
  c_.flushes.inc();
  flush_batch_.record(static_cast<double>(pending.size()));

  const std::vector<std::uint16_t> neighbors = neighbor_ports();
  for (const std::uint16_t nb : neighbors) {
    if (stopping_.load()) break;
    // Quarantined neighbours are skipped outright; hint traffic is soft
    // state, so the dropped batch only costs hit rate, never correctness.
    if (!peer_usable(nb)) continue;
    // One POST per relay depth, so the receiver can hop-bound exactly what
    // it relays. In practice a batch spans one or two depths.
    std::map<int, std::vector<proto::HintUpdate>> batches;
    for (const PendingUpdate& p : pending) {
      if (p.exclude.value == nb) continue;
      auto& batch = batches[p.hops];
      if (std::find(batch.begin(), batch.end(), p.update) != batch.end()) {
        continue;
      }
      batch.push_back(p.update);
    }
    for (const auto& [batch_hops, batch] : batches) {
      const auto body = proto::encode_body(batch);
      HttpRequest req;
      req.method = "POST";
      req.target = "/updates";
      req.headers.emplace_back("X-From", std::to_string(port_));
      req.headers.emplace_back("X-Hop", std::to_string(batch_hops));
      req.body.assign(reinterpret_cast<const char*>(body.data()), body.size());
      int attempts = 0;
      const auto sent =
          http_call(pool_, nb, req, metadata_call_options(), &attempts);
      if (attempts > 1) {
        c_.metadata_retries.inc(static_cast<std::uint64_t>(attempts - 1));
      }
      if (sent && sent->status == 200) {
        record_peer_success(nb);
        c_.updates_sent.inc(batch.size());
        c_.update_bytes_sent.inc(body.size());
      } else {
        // Failed sends are dropped: hint traffic is soft state.
        record_peer_failure(nb);
        break;  // the neighbour is down; later batches would fail the same
      }
    }
  }
}

void ProxyServer::invalidate(ObjectId id) {
  // Both tiers drop the copy; either one having held it means peers may
  // hold a hint worth retracting. Each erase also stamps its tier's erase
  // log, so fills and demotions of `id` already under way cannot store the
  // old bytes afterwards (see FillTicket).
  const bool had_ram = cache_.erase(id);
  const bool had_disk = disk_ && disk_->erase(id);
  if (had_ram || had_disk) {
    std::lock_guard lock(queue_mu_);
    queue_update_locked(proto::Action::kInvalidate, id, self(), MachineId{0});
  }
  hints_->erase(id);
}

// ---------------------------------------------------------------------------
// neighbour health (peers_mu_ taken internally)
// ---------------------------------------------------------------------------

bool ProxyServer::peer_usable(std::uint16_t port) {
  std::lock_guard lock(peers_mu_);
  auto it = health_.find(port);
  if (it == health_.end() || !it->second.quarantined) return true;
  const auto now = std::chrono::steady_clock::now();
  if (now < it->second.retry_at) return false;
  // Admit exactly one re-probe per window: push the window forward so
  // concurrent requests keep degrading to the origin meanwhile.
  it->second.retry_at =
      now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg_.quarantine_seconds));
  c_.reprobes.inc();
  return true;
}

void ProxyServer::record_peer_success(std::uint16_t port) {
  std::lock_guard lock(peers_mu_);
  health_.erase(port);
}

void ProxyServer::record_peer_failure(std::uint16_t port) {
  std::lock_guard lock(peers_mu_);
  auto& h = health_[port];
  ++h.consecutive_failures;
  if (!h.quarantined && h.consecutive_failures < cfg_.quarantine_threshold) {
    return;
  }
  if (!h.quarantined) {
    h.quarantined = true;
    c_.quarantines.inc();
  }
  h.retry_at = std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(cfg_.quarantine_seconds));
}

// ---------------------------------------------------------------------------
// seen-set + update queue (callers hold queue_mu_)
// ---------------------------------------------------------------------------

bool ProxyServer::note_seen_locked(const proto::HintUpdate& update) {
  // An arriving action retires its complement: insert-evict-insert cycles
  // keep propagating instead of being swallowed as duplicates.
  seen_updates_.erase(proto::complement_key(update));
  const std::uint64_t key = proto::update_key(update);
  if (!seen_updates_.insert(key).second) return false;
  seen_order_.push_back(key);
  // FIFO bound. A retired complement may leave a stale deque slot; popping
  // it is a harmless no-op (slightly early forgetting, never a leak).
  while (seen_order_.size() > kSeenUpdatesCapacity) {
    seen_updates_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  return true;
}

void ProxyServer::queue_update_locked(proto::Action action, ObjectId id,
                                      MachineId loc, MachineId exclude) {
  const proto::HintUpdate update{action, id, loc};
  // Mark our own updates seen so an echo from a cyclic neighbour graph is
  // dropped instead of relayed forever.
  note_seen_locked(update);
  enqueue_pending_locked({update, exclude, 0});
}

}  // namespace bh::proxy
