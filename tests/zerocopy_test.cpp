// Tests for the zero-copy body pipeline: shared-buffer identity through the
// sharded cache (RAM hits never copy), extent bodies served via sendfile(2)
// with partial-send resume, fd-refcount lifetime (an unlinked file still
// serves while an extent is in flight), and peer-close robustness
// mid-transfer. Everything that touches the loop runs against every
// available I/O backend, same as reactor_test.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cache/body.h"
#include "cache/sharded_lru.h"
#include "proxy/http.h"
#include "proxy/io_backend.h"
#include "proxy/reactor.h"
#include "proxy/socket.h"

namespace bh::proxy {
namespace {

using Clock = std::chrono::steady_clock;
using cache::Body;
using cache::BodyPtr;
using cache::FdRef;

std::vector<IoBackendKind> test_backends() {
  std::vector<IoBackendKind> kinds{IoBackendKind::kEpoll};
  std::string why;
  if (io_uring_supported(&why)) {
    kinds.push_back(IoBackendKind::kIoUring);
  } else {
    static const bool logged = [&why] {
      std::fprintf(stderr,
                   "io_uring unavailable (%s): zerocopy tests run on epoll "
                   "only\n",
                   why.c_str());
      return true;
    }();
    (void)logged;
  }
  return kinds;
}

class ZeroCopyBackendTest : public ::testing::TestWithParam<IoBackendKind> {};

std::string backend_param_name(
    const ::testing::TestParamInfo<IoBackendKind>& info) {
  return io_backend_kind_name(info.param);
}

INSTANTIATE_TEST_SUITE_P(Backends, ZeroCopyBackendTest,
                         ::testing::ValuesIn(test_backends()),
                         backend_param_name);

std::string pattern_body(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = static_cast<char>('a' + (i * 131) % 26);
  }
  return s;
}

// Writes `bytes` to an unlinked-on-demand temp file and wraps the tail
// `len` bytes at `offset` as an extent Body.
struct ExtentFixture {
  std::string path;
  std::shared_ptr<const FdRef> fd;

  static std::optional<ExtentFixture> create(const std::string& name,
                                             const std::string& bytes) {
    ExtentFixture fx;
    // One file per test, parameter included: ctest runs the backend
    // variants as parallel processes, and one must not truncate the file
    // the other is still sending.
    std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(test.begin(), test.end(), '/', '_');
    fx.path = ::testing::TempDir() + "/bh_zc_" + name + "_" + test;
    const int wfd =
        ::open(fx.path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (wfd < 0) return std::nullopt;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(wfd, bytes.data() + off, bytes.size() - off);
      if (n <= 0) {
        ::close(wfd);
        return std::nullopt;
      }
      off += static_cast<std::size_t>(n);
    }
    ::close(wfd);
    const int rfd = ::open(fx.path.c_str(), O_RDONLY | O_CLOEXEC);
    if (rfd < 0) return std::nullopt;
    fx.fd = std::make_shared<const FdRef>(rfd);
    return fx;
  }
};

// Serves one fixed Body for every request, on a real loop.
class BodyServer {
 public:
  BodyServer(IoBackendKind backend, Body body, std::uint64_t zc_min_bytes = 0) {
    listener_ = TcpListener::bind_ephemeral();
    EXPECT_TRUE(listener_.has_value());
    reactor_ = std::make_unique<Reactor>(backend);
    HttpLoop::Options opts;
    opts.idle_timeout_seconds = 30.0;
    if (zc_min_bytes != 0) opts.zero_copy_min_bytes = zc_min_bytes;
    loop_ = std::make_unique<HttpLoop>(
        *reactor_, listener_->fd(), opts,
        [this, body](std::uint64_t token, HttpRequest req) {
          (void)req;
          HttpResponse resp;
          resp.body = body;
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
  HttpLoop& loop() { return *loop_; }

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

TEST(BodyTest, ExtentAppendToReadsExactWindow) {
  const std::string bytes = pattern_body(8192);
  auto fx = ExtentFixture::create("window", bytes);
  ASSERT_TRUE(fx.has_value());
  const Body body = Body::extent(fx->fd, 100, 4000);
  std::string out = "head:";
  ASSERT_TRUE(body.append_to(out));
  EXPECT_EQ(out, "head:" + bytes.substr(100, 4000));
  EXPECT_EQ(body.size(), 4000u);
  EXPECT_TRUE(body.is_extent());
}

TEST(BodyTest, FdRefClosesOnLastRelease) {
  const std::string bytes = pattern_body(64);
  auto fx = ExtentFixture::create("close", bytes);
  ASSERT_TRUE(fx.has_value());
  const int raw = fx->fd->fd();
  Body a = Body::extent(fx->fd, 0, 64);
  Body b = a;  // two bodies, one FdRef
  fx->fd.reset();
  a = Body();
  EXPECT_GE(::fcntl(raw, F_GETFD), 0) << "fd closed while a body held it";
  b = Body();
  EXPECT_LT(::fcntl(raw, F_GETFD), 0) << "fd leaked after last release";
}

// --- the serve path: sendfile, resume, lifetime, robustness ---

TEST_P(ZeroCopyBackendTest, ExtentBodyServedWholeViaSendfile) {
  const std::string bytes = pattern_body(256 * 1024);
  auto fx = ExtentFixture::create("serve", bytes);
  ASSERT_TRUE(fx.has_value());
  BodyServer server(GetParam(), Body::extent(fx->fd, 0, bytes.size()));

  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  HttpRequest req;
  req.method = "GET";
  req.target = "/obj";
  auto resp = conn->exchange(req, Clock::now() + std::chrono::seconds(5));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, bytes);
  // The body left the daemon without crossing userspace.
  EXPECT_GE(server.loop().zerocopy_sends(), 1u);
  EXPECT_GE(server.loop().zerocopy_bytes(), bytes.size());
}

TEST_P(ZeroCopyBackendTest, PartialSendfileResumesAfterEagain) {
  // A multi-megabyte extent against a client that drains slowly: the socket
  // buffer fills, sendfile returns EAGAIN mid-body, and the loop must
  // resume from the exact file offset when the peer catches up.
  const std::string bytes = pattern_body(4 * 1024 * 1024);
  auto fx = ExtentFixture::create("resume", bytes);
  ASSERT_TRUE(fx.has_value());
  BodyServer server(GetParam(), Body::extent(fx->fd, 0, bytes.size()));

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

TEST_P(ZeroCopyBackendTest, UnlinkedFileStillServesInFlightExtent) {
  // POSIX: the open fd pins the inode. Unlinking the file after the
  // response was queued must not corrupt or truncate the transfer.
  const std::string bytes = pattern_body(512 * 1024);
  auto fx = ExtentFixture::create("unlink", bytes);
  ASSERT_TRUE(fx.has_value());
  BodyServer server(GetParam(), Body::extent(fx->fd, 0, bytes.size()));
  ASSERT_EQ(::unlink(fx->path.c_str()), 0);
  fx->fd.reset();  // the Body inside the server holds the only reference

  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  HttpRequest req;
  req.method = "GET";
  req.target = "/obj";
  auto resp = conn->exchange(req, Clock::now() + std::chrono::seconds(10));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, bytes);
}

TEST_P(ZeroCopyBackendTest, PeerCloseMidTransferIsCleanedUp) {
  const std::string bytes = pattern_body(4 * 1024 * 1024);
  auto fx = ExtentFixture::create("abort", bytes);
  ASSERT_TRUE(fx.has_value());
  BodyServer server(GetParam(), Body::extent(fx->fd, 0, bytes.size()));

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

TEST_P(ZeroCopyBackendTest, LargeSharedBufferServedIntact) {
  // Above zero_copy_min_bytes the RAM path goes SEND_ZC on io_uring and a
  // plain gather on epoll; both must deliver byte-exact bodies, repeatedly,
  // on one keep-alive connection (notification ordering exercised).
  const std::string bytes = pattern_body(1 * 1024 * 1024);
  BodyServer server(GetParam(), Body(std::string(bytes)),
                    /*zc_min_bytes=*/64 * 1024);

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
  if (GetParam() == IoBackendKind::kIoUring) {
    EXPECT_GE(server.loop().zerocopy_sends(), 1u);
  }
}

TEST_P(ZeroCopyBackendTest, SmallBodiesStayOnTheGatherPath) {
  // Below the threshold nothing special happens — and the zerocopy
  // counters say so.
  const std::string bytes = pattern_body(512);
  BodyServer server(GetParam(), Body(std::string(bytes)),
                    /*zc_min_bytes=*/64 * 1024);
  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  HttpRequest req;
  req.method = "GET";
  req.target = "/small";
  auto resp = conn->exchange(req, Clock::now() + std::chrono::seconds(5));
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, bytes);
  EXPECT_EQ(server.loop().zerocopy_sends(), 0u);
}

}  // namespace
}  // namespace bh::proxy
