#include "proxy/conn_pool.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace bh::proxy {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

}  // namespace

std::optional<ClientConnection> ConnectionPool::acquire(std::uint16_t port) {
  std::lock_guard lock(mu_);
  const auto it = idle_.find(port);
  if (it == idle_.end()) return std::nullopt;
  auto& stack = it->second;
  const auto cutoff =
      Clock::now() - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             opts_.idle_timeout_seconds));
  std::optional<ClientConnection> out;
  while (!stack.empty()) {
    ClientConnection conn = std::move(stack.back());
    stack.pop_back();
    // Idled-out connections are discarded: the server has likely already
    // closed them, and anything under them in the stack is even older.
    if (conn.last_used() >= cutoff) {
      out = std::move(conn);
      break;
    }
  }
  if (stack.empty()) idle_.erase(it);
  return out;
}

void ConnectionPool::release(ClientConnection conn) {
  if (!conn.reusable()) return;
  std::lock_guard lock(mu_);
  auto& stack = idle_[conn.port()];
  if (stack.size() >= std::max<std::size_t>(1, opts_.max_idle_per_peer)) {
    // Full: the oldest (bottom) connection gives way to the fresher one.
    stack.erase(stack.begin());
  }
  stack.push_back(std::move(conn));
}

void ConnectionPool::clear() {
  std::lock_guard lock(mu_);
  idle_.clear();
}

std::size_t ConnectionPool::idle_count() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& [port, stack] : idle_) n += stack.size();
  return n;
}

std::uint64_t ConnectionPool::reuses() const {
  std::lock_guard lock(mu_);
  return reuses_;
}

void ConnectionPool::note_reuse() {
  std::lock_guard lock(mu_);
  ++reuses_;
}

namespace {

// The one deadline/attempt/backoff loop behind both http_call overloads.
// With a pool, an attempt tries a parked connection first; a stale one (the
// peer idled it out) gets one silent fresh-connection retry inside the same
// attempt, and a successful keep-alive exchange parks its connection.
// Without one, every attempt is a fresh one-exchange connection.
std::optional<HttpResponse> call(ConnectionPool* pool, std::uint16_t port,
                                 const HttpRequest& request,
                                 const CallOptions& opts, int* attempts_used) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.deadline_seconds));
  Rng rng(opts.backoff_seed);
  int attempts = 0;
  std::optional<HttpResponse> result;
  for (int attempt = 0; attempt < opts.max_attempts; ++attempt) {
    if (seconds_until(deadline) <= 0) break;
    ++attempts;
    if (auto pooled = pool ? pool->acquire(port) : std::nullopt) {
      if ((result = pooled->exchange(request, deadline))) {
        pool->note_reuse();
        pool->release(std::move(*pooled));
        break;
      }
    }
    const double remaining = seconds_until(deadline);
    if (remaining > 0) {
      if (auto fresh = ClientConnection::open(port, remaining)) {
        if ((result = fresh->exchange(request, deadline, pool != nullptr))) {
          if (pool) pool->release(std::move(*fresh));
          break;
        }
      }
    }
    if (attempt + 1 < opts.max_attempts) {
      const double delay =
          std::min(backoff_delay(attempt, opts, rng), seconds_until(deadline));
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(delay));
      }
    }
  }
  if (attempts_used) *attempts_used = attempts;
  return result;
}

}  // namespace

std::optional<HttpResponse> http_call(ConnectionPool& pool, std::uint16_t port,
                                      const HttpRequest& request,
                                      const CallOptions& opts,
                                      int* attempts_used) {
  return call(&pool, port, request, opts, attempts_used);
}

std::optional<HttpResponse> http_call(std::uint16_t port,
                                      const HttpRequest& request,
                                      const CallOptions& opts,
                                      int* attempts_used) {
  return call(nullptr, port, request, opts, attempts_used);
}

}  // namespace bh::proxy
