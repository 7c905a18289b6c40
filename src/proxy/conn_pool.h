// Bounded per-peer pool of persistent client connections.
//
// The hint architecture keeps inter-proxy traffic cheap on paper; on the
// wire, a fresh TCP handshake per probe or 20-byte metadata batch would
// dominate the cost. The pool parks keep-alive connections per destination
// port and hands back the most recently used one (LIFO — the hottest
// connection has the warmest TCP state and the lowest chance of having
// idled out on the server side). Idle connections past the timeout are
// discarded at acquire/release time; the per-peer bound caps daemon fd
// usage no matter how many peers a topology wires up.
//
// Both http_call overloads run one attempt loop (conn_pool.cpp), so the
// pooled one keeps the plain one's failure budget, with one extra rule: a
// failure on a *reused* connection is retried once on a fresh
// connection inside the same attempt, because a stale pooled stream (the
// server idled it out between exchanges) is a property of the pool, not of
// the peer — it must not count against quarantine thresholds or consume
// the caller's single data-path attempt.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "proxy/http.h"

namespace bh::proxy {

class ConnectionPool {
 public:
  struct Options {
    std::size_t max_idle_per_peer = 4;
    double idle_timeout_seconds = 30.0;  // must be > 0
  };

  ConnectionPool() = default;
  explicit ConnectionPool(Options opts) : opts_(opts) {}

  // Pops the most recently parked connection to `port`, discarding any that
  // sat idle past the timeout; nullopt when none are parked.
  std::optional<ClientConnection> acquire(std::uint16_t port);

  // Parks a connection for reuse; dropped if not reusable() or the per-peer
  // bound is reached (the oldest parked connection gives way).
  void release(ClientConnection conn);

  // Drops every parked connection (shutdown path).
  void clear();

  std::size_t idle_count() const;
  // Exchanges served from a parked connection, for `bh.proxy.pool_reuse`.
  std::uint64_t reuses() const;
  void note_reuse();

 private:
  Options opts_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint16_t, std::vector<ClientConnection>> idle_;
  std::uint64_t reuses_ = 0;
};

// Client exchange under an explicit failure budget, served through the pool
// when a parked connection exists. Successful keep-alive exchanges park the
// connection back. Semantics otherwise match http_call(port, ...).
std::optional<HttpResponse> http_call(ConnectionPool& pool, std::uint16_t port,
                                      const HttpRequest& request,
                                      const CallOptions& opts,
                                      int* attempts_used = nullptr);

}  // namespace bh::proxy
