// Tests for the zero-copy body pipeline: shared-buffer identity through the
// sharded cache (RAM hits never copy), and the gathered-write send path for
// large shared bodies — partial-send resume against a slow reader,
// peer-close robustness mid-transfer, and a pipelined run of small and
// large bodies that must reach the wire whole and in order.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/body.h"
#include "cache/sharded_lru.h"
#include "proxy/http.h"
#include "proxy/reactor.h"
#include "proxy/socket.h"

namespace bh::proxy {
namespace {

using Clock = std::chrono::steady_clock;
using cache::Body;
using cache::BodyPtr;

std::string pattern_body(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + (i * 131) % 26);
  }
  return s;
}

// Serves, on a real loop, the Body that `route` picks for each request
// target — or one fixed Body for every request.
class BodyServer {
 public:
  using Route = std::function<Body(const std::string& target)>;

  explicit BodyServer(Body body)
      : BodyServer(Route([body](const std::string&) { return body; })) {}

  explicit BodyServer(Route route) {
    listener_ = TcpListener::bind_ephemeral();
    EXPECT_TRUE(listener_.has_value());
    reactor_ = std::make_unique<Reactor>();
    HttpLoop::Options opts;
    opts.idle_timeout_seconds = 30.0;
    loop_ = std::make_unique<HttpLoop>(
        *reactor_, listener_->fd(), opts,
        [this, route](std::uint64_t token, HttpRequest req) {
          HttpResponse resp;
          resp.body = route(req.target);
          loop_->respond(token, std::move(resp));
        });
    thread_ = std::thread([this] { reactor_->run(); });
  }

  ~BodyServer() {
    reactor_->stop();
    thread_.join();
    loop_->shutdown();
  }

  std::uint16_t port() const { return listener_->port(); }

 private:
  std::optional<TcpListener> listener_;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<HttpLoop> loop_;
  std::thread thread_;
};

// --- shared-buffer identity: RAM hits are zero-copy by construction ---

TEST(BodyTest, CacheHitReturnsTheStoredBufferNotACopy) {
  cache::ShardedLruCache cache(1 << 20, 4);
  const auto buf =
      std::make_shared<const std::string>(pattern_body(4096));
  ASSERT_EQ(cache.insert(ObjectId{7}, buf),
            cache::ShardedLruCache::InsertOutcome::kInserted);
  const BodyPtr hit = cache.find(ObjectId{7});
  ASSERT_NE(hit, nullptr);
  // Pointer identity: the hit IS the stored buffer. No bytes moved.
  EXPECT_EQ(hit.get(), buf.get());
  // And a second hit shares it again.
  EXPECT_EQ(cache.find(ObjectId{7}).get(), buf.get());
}

TEST(BodyTest, ManyReadersShareOneBufferWhileEvictionsChurn) {
  // Hammer: readers hold hit buffers across concurrent evictions of the
  // same id. The shared_ptr keeps every handed-out body intact; contents
  // never tear. (This test is the TSan target for the shared-body path.)
  cache::ShardedLruCache cache(64 * 1024, 4);
  const std::string expect = pattern_body(1024);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::uint64_t k = 1; k <= 16; ++k) {
          if (BodyPtr b = cache.find(ObjectId{k})) {
            ASSERT_EQ(*b, expect);  // held buffer is immutable and whole
            hits.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread writer([&] {
    for (int round = 0; round < 400; ++round) {
      for (std::uint64_t k = 1; k <= 16; ++k) {
        cache.insert(ObjectId{k}, std::make_shared<const std::string>(expect),
                     1, false, true,
                     [](const cache::LruCache::Entry&, BodyPtr) {});
      }
    }
    stop.store(true);
  });
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(hits.load(), 0u);
}

// --- the serve path: resume, robustness, pipelined order ---

TEST(ZeroCopySendTest, PartialSendResumesAfterEagain) {
  // A multi-megabyte body against a client that drains slowly: the socket
  // buffer fills, sendmsg returns EAGAIN mid-body, and the loop must resume
  // from the exact body offset when the peer catches up.
  const std::string bytes = pattern_body(4 * 1024 * 1024);
  BodyServer server{Body(std::string(bytes))};

  auto stream = TcpStream::connect(server.port(), 5.0);
  ASSERT_TRUE(stream.has_value());
  ASSERT_TRUE(stream->write_all("GET /obj HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string got;
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (Clock::now() < deadline) {
    // Tiny sips with pauses keep the receive window tight for a while.
    const auto chunk = stream->read_some(
        got.size() < 64 * 1024 ? std::size_t{4096} : std::size_t{1 << 16});
    ASSERT_TRUE(chunk.has_value());
    if (chunk->empty()) break;  // EOF
    got += *chunk;
    if (got.size() < 64 * 1024) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Headers + whole body seen: done.
    const auto hdr_end = got.find("\r\n\r\n");
    if (hdr_end != std::string::npos &&
        got.size() - (hdr_end + 4) >= bytes.size()) {
      break;
    }
  }
  const auto hdr_end = got.find("\r\n\r\n");
  ASSERT_NE(hdr_end, std::string::npos);
  EXPECT_EQ(got.substr(hdr_end + 4), bytes);
}

TEST(ZeroCopySendTest, PeerCloseMidTransferIsCleanedUp) {
  const std::string bytes = pattern_body(4 * 1024 * 1024);
  BodyServer server{Body(std::string(bytes))};

  {
    auto stream = TcpStream::connect(server.port(), 5.0);
    ASSERT_TRUE(stream.has_value());
    ASSERT_TRUE(stream->write_all("GET /obj HTTP/1.1\r\nHost: t\r\n\r\n"));
    // Read a sliver, then vanish mid-body.
    (void)stream->read_some(4096);
  }
  // The loop reaps the dead connection; no crash, no leak, next request ok.
  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  HttpRequest req;
  req.method = "GET";
  req.target = "/obj";
  auto resp = conn->exchange(req, Clock::now() + std::chrono::seconds(10));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, bytes);
}

TEST(ZeroCopySendTest, LargeSharedBufferServedIntact) {
  // A RAM body far larger than the socket buffer goes out by gathered
  // writes resumed mid-body; it must arrive byte-exact, repeatedly, on one
  // keep-alive connection.
  const std::string bytes = pattern_body(1 * 1024 * 1024);
  BodyServer server{Body(std::string(bytes))};

  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  for (int i = 0; i < 3; ++i) {
    HttpRequest req;
    req.method = "GET";
    req.target = "/big/" + std::to_string(i);
    auto resp = conn->exchange(req, Clock::now() + std::chrono::seconds(10));
    ASSERT_TRUE(resp.has_value()) << "exchange " << i;
    EXPECT_EQ(resp->body, bytes);
  }
}

TEST(ZeroCopySendTest, SmallBodiesStayOnTheGatherPath) {
  // A body far smaller than the socket buffer leaves in one gathered write.
  const std::string bytes = pattern_body(512);
  BodyServer server{Body(std::string(bytes))};
  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  HttpRequest req;
  req.method = "GET";
  req.target = "/small";
  auto resp = conn->exchange(req, Clock::now() + std::chrono::seconds(5));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, bytes);
}

TEST(ZeroCopySendTest, LargeBodyBetweenPipelinedSmallBodiesKeepsOrder) {
  // Four pipelined requests on one keep-alive connection, answered inline
  // in one parse batch: a 300 B body, a 256 KB body, a 1 MB body and
  // another small body. The gathered writes span response boundaries and
  // stall mid-body; they must not reorder or skip a byte.
  const std::vector<std::pair<std::string, std::string>> expected{
      {"/small-a", pattern_body(300)},
      {"/mid", pattern_body(256 * 1024)},
      {"/big", pattern_body(1024 * 1024)},
      {"/small-b", "last body"},
  };
  BodyServer server(BodyServer::Route([&](const std::string& target) {
    for (const auto& [path, bytes] : expected) {
      if (path == target) return Body(std::string(bytes));
    }
    return Body(std::string("unknown"));
  }));

  auto stream = TcpStream::connect(server.port(), 5.0);
  ASSERT_TRUE(stream.has_value());
  std::string wire;
  for (const auto& [path, bytes] : expected) {
    HttpRequest req;
    req.method = "GET";
    req.target = path;
    req.headers.emplace_back("Connection", "keep-alive");
    wire += serialize(req);
  }
  ASSERT_TRUE(stream->write_all(wire));

  HttpParser parser(HttpParser::Kind::kResponse);
  std::string pending;
  std::size_t got = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (got < expected.size() && Clock::now() < deadline) {
    if (pending.empty()) {
      auto chunk = stream->read_some(1 << 16);
      ASSERT_TRUE(chunk.has_value());
      ASSERT_FALSE(chunk->empty()) << "server closed early";
      pending += *chunk;
    }
    const std::size_t used = parser.feed(pending);
    pending.erase(0, used);
    ASSERT_FALSE(parser.failed());
    if (parser.complete()) {
      EXPECT_EQ(parser.response().body, expected[got].second)
          << "response " << got << " (" << expected[got].first << ")";
      parser.reset();
      ++got;
    }
  }
  EXPECT_EQ(got, expected.size());
  EXPECT_TRUE(pending.empty());
}

}  // namespace
}  // namespace bh::proxy
