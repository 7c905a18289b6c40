// A simulated origin web server.
//
// Serves GET /obj/<hex-id>?size=<n> with deterministic content derived from
// the object id, its current version, and the requested size, so any cache
// in the cluster can verify byte-for-byte that it received the right data.
// modify() bumps an object's version — the next fetch returns different
// bytes, standing in for a changed page.
//
// Proxies may POST /register to subscribe to server-driven invalidation
// (the strong-consistency mechanism the paper assumes, in the spirit of the
// lease work it cites): on modify() the origin sends DELETE /obj/<hex> to
// every registered proxy, which drops its copy before any client can read
// stale bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "proxy/http.h"
#include "proxy/reactor.h"
#include "proxy/socket.h"

namespace bh::proxy {

// Deterministic body bytes for (id, version, size).
std::string origin_body(ObjectId id, Version version, std::size_t size);

// Formats/parses the /obj/<hex> path.
std::string object_path(ObjectId id, std::size_t size);
std::optional<ObjectId> object_from_path(std::string_view path);

class OriginServer {
 public:
  // `listen_port` pins the serving port (0 = ephemeral) — the scenario
  // lab's origin-outage recovery rebinds a fresh origin on the port every
  // proxy was configured with. Throws std::runtime_error when the port
  // cannot be bound.
  explicit OriginServer(std::uint16_t listen_port = 0);
  ~OriginServer();

  OriginServer(const OriginServer&) = delete;
  OriginServer& operator=(const OriginServer&) = delete;

  std::uint16_t port() const { return port_; }

  // Bumps the object's version; later fetches return the new content, and
  // every registered proxy receives a DELETE for the object.
  void modify(ObjectId id);
  Version version_of(ObjectId id) const;

  // Subscribes a proxy (by port) to invalidation callbacks; also reachable
  // over the wire as POST /register with the port in the body.
  void register_cache(std::uint16_t port);

  std::uint64_t requests_served() const { return requests_.load(); }
  std::uint64_t invalidations_sent() const { return invalidations_.load(); }

  void stop();

 private:
  HttpResponse handle(const HttpRequest& req);

  std::optional<TcpListener> listener_;
  std::uint16_t port_ = 0;
  // Event-driven serving: the reactor loop accepts, parses, and writes;
  // handlers are cheap enough to run inline on the loop thread. Keep-alive
  // clients (the proxies' pooled origin connections) are held open.
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<HttpLoop> http_loop_;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> invalidations_{0};

  mutable std::mutex mu_;
  std::unordered_map<ObjectId, Version> versions_;
  std::vector<std::uint16_t> registered_;
};

}  // namespace bh::proxy
