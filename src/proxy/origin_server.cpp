#include "proxy/origin_server.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "common/hash.h"

namespace bh::proxy {

std::string origin_body(ObjectId id, Version version, std::size_t size) {
  std::string body(size, '\0');
  std::uint64_t state = mix64(id.value ^ (std::uint64_t(version) << 32));
  for (std::size_t i = 0; i < size; ++i) {
    if (i % 8 == 0) state = mix64(state);
    body[i] = static_cast<char>((state >> ((i % 8) * 8)) & 0xFF);
  }
  return body;
}

std::string object_path(ObjectId id, std::size_t size) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(id.value));
  return "/obj/" + std::string(hex) + "?size=" + std::to_string(size);
}

std::optional<ObjectId> object_from_path(std::string_view path) {
  constexpr std::string_view kPrefix = "/obj/";
  if (!path.starts_with(kPrefix)) return std::nullopt;
  const std::string_view hex = path.substr(kPrefix.size());
  if (hex.size() != 16) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), value, 16);
  if (ec != std::errc{} || ptr != hex.data() + hex.size()) return std::nullopt;
  return ObjectId{value};
}

OriginServer::OriginServer(std::uint16_t listen_port) {
  listener_ = TcpListener::bind(listen_port);
  if (!listener_) {
    throw std::runtime_error("origin: cannot bind 127.0.0.1:" +
                             std::to_string(listen_port));
  }
  port_ = listener_->port();
  reactor_ = std::make_unique<Reactor>();
  // Origin handlers are pure in-memory work, so they run inline on the loop
  // thread: dispatch -> handle -> respond without a worker pool.
  http_loop_ = std::make_unique<HttpLoop>(
      *reactor_, listener_->fd(), HttpLoop::Options{},
      [this](std::uint64_t token, HttpRequest req) {
        http_loop_->respond(token, handle(req));
      });
  thread_ = std::thread([this] { reactor_->run(); });
}

OriginServer::~OriginServer() { stop(); }

void OriginServer::stop() {
  if (stopping_.exchange(true)) return;
  reactor_->stop();
  if (thread_.joinable()) thread_.join();
  // After the loop has stopped, tear down the connections so lingering
  // keep-alive clients see EOF instead of a hang.
  http_loop_->shutdown();
}

void OriginServer::modify(ObjectId id) {
  std::vector<std::uint16_t> targets;
  {
    std::lock_guard lock(mu_);
    auto [it, inserted] = versions_.emplace(id, 2);
    if (!inserted) ++it->second;
    targets = registered_;
  }
  // Server-driven invalidation: every subscribed cache drops its copy now.
  for (const std::uint16_t port : targets) {
    HttpRequest del;
    del.method = "DELETE";
    del.target = object_path(id, 0);
    if (http_call(port, del)) ++invalidations_;
  }
}

void OriginServer::register_cache(std::uint16_t port) {
  std::lock_guard lock(mu_);
  if (std::find(registered_.begin(), registered_.end(), port) ==
      registered_.end()) {
    registered_.push_back(port);
  }
}

Version OriginServer::version_of(ObjectId id) const {
  std::lock_guard lock(mu_);
  auto it = versions_.find(id);
  return it == versions_.end() ? 1 : it->second;
}

HttpResponse OriginServer::handle(const HttpRequest& req) {
  HttpResponse resp;
  if (req.method == "POST" && req.path() == "/register") {
    const auto port = parse_port(req.body);
    if (!port) {
      resp.status = 400;
      resp.reason = "Bad Port";
      return resp;
    }
    register_cache(*port);
    resp.body = "registered";
    return resp;
  }
  const auto id = object_from_path(req.path());
  if (req.method != "GET" || !id) {
    resp.status = 404;
    resp.reason = "Not Found";
    return resp;
  }
  std::size_t size = 1024;
  if (auto s = req.query_param("size")) {
    // A malformed size falls back to the default instead of parsing as 0.
    size = std::min<std::size_t>(parse_u64(*s).value_or(size), 4u << 20);
  }
  const Version version = version_of(*id);
  resp.body = origin_body(*id, version, size);
  resp.headers.emplace_back("X-Version", std::to_string(version));
  resp.headers.emplace_back("Content-Type", "application/octet-stream");
  ++requests_;
  return resp;
}

}  // namespace bh::proxy
