// Tests for the reactor core: the timer queue's ordering and cancellation,
// the loop's cross-thread post/wakeup contract, the HttpLoop connection
// state machine (keep-alive, pipelining, 400-on-junk) driven over real
// loopback sockets, accept backoff when the process runs out of fds, and
// the outbound connection pool.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "proxy/conn_pool.h"
#include "proxy/http.h"
#include "proxy/reactor.h"
#include "proxy/socket.h"

namespace bh::proxy {
namespace {

using Clock = std::chrono::steady_clock;

TEST(TimerWheelTest, FiresInDueOrder) {
  TimerQueue wheel;
  const auto now = Clock::now();
  std::vector<int> fired;
  wheel.add(now, 0.030, [&] { fired.push_back(3); });
  wheel.add(now, 0.010, [&] { fired.push_back(1); });
  wheel.add(now, 0.020, [&] { fired.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);

  wheel.advance(now + std::chrono::milliseconds(15));
  ASSERT_EQ(fired, (std::vector<int>{1}));
  wheel.advance(now + std::chrono::milliseconds(35));
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelPreventsFiring) {
  TimerQueue wheel;
  const auto now = Clock::now();
  bool fired = false;
  const std::uint64_t id = wheel.add(now, 0.005, [&] { fired = true; });
  EXPECT_TRUE(wheel.cancel(id));
  EXPECT_FALSE(wheel.cancel(id));  // already gone
  wheel.advance(now + std::chrono::milliseconds(50));
  EXPECT_FALSE(fired);
}

TEST(TimerWheelTest, NextDelayReflectsEarliestTimer) {
  TimerQueue wheel;
  const auto now = Clock::now();
  EXPECT_EQ(wheel.next_delay_ms(now), -1);
  wheel.add(now, 0.100, [] {});
  wheel.add(now, 0.020, [] {});
  const int delay = wheel.next_delay_ms(now);
  EXPECT_GT(delay, 0);
  EXPECT_LE(delay, 25);
  EXPECT_EQ(wheel.next_delay_ms(now + std::chrono::milliseconds(30)), 0);
}

TEST(TimerWheelTest, LongGapStillFiresEverything) {
  // One advance long after every deadline must fire each entry exactly once.
  TimerQueue wheel;
  const auto now = Clock::now();
  int fired = 0;
  for (int i = 1; i <= 20; ++i) {
    wheel.add(now, 0.001 * i, [&] { ++fired; });
  }
  wheel.advance(now + std::chrono::seconds(1));
  EXPECT_EQ(fired, 20);
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CallbackMayRescheduleItself) {
  TimerQueue wheel;
  const auto t0 = Clock::now();
  int fires = 0;
  std::function<void()> again = [&] {
    if (++fires < 3) {
      wheel.add(Clock::now(), 0.001, again);
    }
  };
  wheel.add(t0, 0.001, again);
  for (int step = 1; step <= 10; ++step) {
    wheel.advance(t0 + std::chrono::milliseconds(step * 5));
  }
  EXPECT_EQ(fires, 3);
}

TEST(ReactorTest, PostRunsOnLoopThreadAndStopExits) {
  Reactor reactor;
  std::thread loop([&] { reactor.run(); });

  std::atomic<bool> ran{false};
  std::atomic<bool> on_loop{false};
  reactor.post([&] {
    on_loop.store(reactor.on_loop_thread());
    ran.store(true);
  });
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!ran.load() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(on_loop.load());
  EXPECT_FALSE(reactor.on_loop_thread());  // we are not the loop
  EXPECT_GE(reactor.iterations(), 1u);

  reactor.stop();
  loop.join();
}

TEST(ReactorTest, TimersFireOnTheLoop) {
  Reactor reactor;
  std::thread loop([&] { reactor.run(); });
  std::atomic<int> fired{0};
  reactor.post([&] {
    reactor.timers().add(Clock::now(), 0.005, [&] { fired.fetch_add(1); });
    reactor.timers().add(Clock::now(), 0.010, [&] { fired.fetch_add(1); });
  });
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (fired.load() < 2 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(fired.load(), 2);
  reactor.stop();
  loop.join();
}

// An HttpLoop echo server on a background reactor thread: responds with the
// request body reversed, so the client can verify which request produced
// which response.
class EchoServer {
 public:
  EchoServer() {
    listener_ = TcpListener::bind_ephemeral();
    EXPECT_TRUE(listener_.has_value());
    reactor_ = std::make_unique<Reactor>();
    HttpLoop::Options opts;
    opts.idle_timeout_seconds = 30.0;
    loop_ = std::make_unique<HttpLoop>(
        *reactor_, listener_->fd(), opts,
        [this](std::uint64_t token, HttpRequest req) {
          HttpResponse resp;
          resp.body = std::string(req.body.rbegin(), req.body.rend());
          resp.headers.emplace_back("X-Target", req.target);
          loop_->respond(token, std::move(resp));
        });
    thread_ = std::thread([this] { reactor_->run(); });
  }

  ~EchoServer() {
    reactor_->stop();
    thread_.join();
    loop_->shutdown();
  }

  std::uint16_t port() const { return listener_->port(); }
  std::size_t open_connections() const { return loop_->open_connections(); }
  std::uint64_t iterations() const { return reactor_->iterations(); }

 private:
  std::optional<TcpListener> listener_;
  std::unique_ptr<Reactor> reactor_;
  std::unique_ptr<HttpLoop> loop_;
  std::thread thread_;
};

TEST(HttpLoopTest, KeepAliveServesManyExchangesOnOneConnection) {
  EchoServer server;
  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  for (int i = 0; i < 10; ++i) {
    HttpRequest req;
    req.method = "POST";
    req.target = "/echo/" + std::to_string(i);
    req.body = "payload-" + std::to_string(i);
    const auto deadline = Clock::now() + std::chrono::seconds(2);
    auto resp = conn->exchange(req, deadline, /*keep_alive=*/true);
    ASSERT_TRUE(resp.has_value()) << "exchange " << i;
    EXPECT_EQ(resp->status, 200);
    EXPECT_TRUE(conn->reusable());
    std::string expect = req.body;
    std::reverse(expect.begin(), expect.end());
    EXPECT_EQ(resp->body, expect);
    EXPECT_EQ(resp->header("X-Target").value_or(""), req.target);
  }
  // Ten exchanges, one connection.
  EXPECT_EQ(server.open_connections(), 1u);
}

TEST(HttpLoopTest, WithoutKeepAliveServerCloses) {
  EchoServer server;
  auto conn = ClientConnection::open(server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  HttpRequest req;
  req.method = "GET";
  req.target = "/once";
  auto resp =
      conn->exchange(req, Clock::now() + std::chrono::seconds(2),
                     /*keep_alive=*/false);
  ASSERT_TRUE(resp.has_value());
  EXPECT_FALSE(conn->reusable());
  EXPECT_EQ(resp->header("Connection").value_or(""), "close");
}

TEST(HttpLoopTest, PipelinedRequestsAnsweredInOrder) {
  EchoServer server;
  auto stream = TcpStream::connect(server.port(), 1.0);
  ASSERT_TRUE(stream.has_value());

  // Three requests in a single write; responses must come back in order.
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    HttpRequest req;
    req.method = "POST";
    req.target = "/p/" + std::to_string(i);
    req.headers.emplace_back("Connection", "keep-alive");
    req.body = "req" + std::to_string(i);
    wire += serialize(req);
  }
  ASSERT_TRUE(stream->write_all(wire));

  HttpParser parser(HttpParser::Kind::kResponse);
  std::string pending;
  int got = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (got < 3 && Clock::now() < deadline) {
    if (pending.empty()) {
      auto chunk = stream->read_some(4096);
      ASSERT_TRUE(chunk.has_value());
      ASSERT_FALSE(chunk->empty()) << "server closed early";
      pending += *chunk;
    }
    const std::size_t used = parser.feed(pending);
    pending.erase(0, used);
    ASSERT_FALSE(parser.failed());
    if (parser.complete()) {
      EXPECT_EQ(parser.response().header("X-Target").value_or(""),
                "/p/" + std::to_string(got));
      std::string expect = "req" + std::to_string(got);
      std::reverse(expect.begin(), expect.end());
      EXPECT_EQ(parser.response().body, expect);
      parser.reset();
      ++got;
    }
  }
  EXPECT_EQ(got, 3);
}

// Responses released out of request order (worst case: all in reverse) must
// still reach the wire in request order — the loop's sequencing, not the
// responder's timing, decides the output order.
TEST(HttpLoopTest, OutOfOrderRespondsAreResequenced) {
  std::optional<TcpListener> listener = TcpListener::bind_ephemeral();
  ASSERT_TRUE(listener.has_value());
  Reactor reactor;
  std::vector<std::pair<std::uint64_t, std::string>> parked;
  std::unique_ptr<HttpLoop> loop;
  loop = std::make_unique<HttpLoop>(
      reactor, listener->fd(), HttpLoop::Options{},
      [&](std::uint64_t token, HttpRequest req) {
        // Park until all three arrive, then answer newest-first.
        parked.emplace_back(token, req.target);
        if (parked.size() < 3) return;
        for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
          HttpResponse resp;
          resp.body = "resp:" + it->second;
          loop->respond(it->first, std::move(resp));
        }
        parked.clear();
      });
  std::thread t([&] { reactor.run(); });

  auto stream = TcpStream::connect(listener->port(), 1.0);
  ASSERT_TRUE(stream.has_value());
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    HttpRequest req;
    req.method = "GET";
    req.target = "/ooo/" + std::to_string(i);
    req.headers.emplace_back("Connection", "keep-alive");
    wire += serialize(req);
  }
  ASSERT_TRUE(stream->write_all(wire));

  HttpParser parser(HttpParser::Kind::kResponse);
  std::string pending;
  int got = 0;
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (got < 3 && Clock::now() < deadline) {
    if (pending.empty()) {
      auto chunk = stream->read_some(4096);
      ASSERT_TRUE(chunk.has_value());
      ASSERT_FALSE(chunk->empty()) << "server closed early";
      pending += *chunk;
    }
    const std::size_t used = parser.feed(pending);
    pending.erase(0, used);
    ASSERT_FALSE(parser.failed());
    if (parser.complete()) {
      EXPECT_EQ(parser.response().body, "resp:/ooo/" + std::to_string(got));
      parser.reset();
      ++got;
    }
  }
  EXPECT_EQ(got, 3);

  reactor.stop();
  t.join();
  loop->shutdown();
}

TEST(HttpLoopTest, MalformedRequestGets400AndClose) {
  EchoServer server;
  auto stream = TcpStream::connect(server.port(), 1.0);
  ASSERT_TRUE(stream.has_value());
  ASSERT_TRUE(stream->write_all("this is not http\r\n\r\n"));
  const auto raw = stream->read_to_end();
  ASSERT_TRUE(raw.has_value());
  const auto resp = parse_response(*raw);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 400);
  EXPECT_EQ(resp->header("Connection").value_or(""), "close");
}

TEST(HttpLoopTest, IdleConnectionsAreSweptOut) {
  std::optional<TcpListener> listener = TcpListener::bind_ephemeral();
  ASSERT_TRUE(listener.has_value());
  Reactor reactor;
  HttpLoop::Options opts;
  opts.idle_timeout_seconds = 0.2;  // sweep interval floors at 50 ms
  HttpLoop loop(reactor, listener->fd(), opts,
                [&](std::uint64_t token, HttpRequest) {
                  loop.respond(token, HttpResponse{});
                });
  std::thread t([&] { reactor.run(); });

  auto stream = TcpStream::connect(listener->port(), 1.0);
  ASSERT_TRUE(stream.has_value());
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (loop.open_connections() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(loop.open_connections(), 1u);
  // Send nothing: the sweep must close the connection, observed as EOF.
  stream->set_timeout(4.0);
  const auto chunk = stream->read_some();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_TRUE(chunk->empty());
  while (loop.open_connections() != 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(loop.open_connections(), 0u);

  reactor.stop();
  t.join();
  loop.shutdown();
}

// Out of fds, accept4 fails with EMFILE and leaves the connection queued,
// so the level-triggered listener stays readable. The loop must back off
// instead of waking for it again at once, and serve the connection once
// fds are free.
TEST(HttpLoopTest, AcceptBacksOffWhenFdsRunOut) {
  EchoServer server;
  // Both fds exist before the table fills: connect() itself needs none.
  Fd client(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  ASSERT_TRUE(client.valid());
  const int spare = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(spare, 0);

  // Each test runs in its own process, so the lowered limit stays here.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> hogs;
  for (int fd = ::dup(spare); fd >= 0; fd = ::dup(spare)) hogs.push_back(fd);
  ASSERT_EQ(errno, EMFILE);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client.get(), reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::uint64_t before = server.iterations();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const std::uint64_t wakeups = server.iterations() - before;
  EXPECT_EQ(server.open_connections(), 0u);

  for (const int fd : hogs) ::close(fd);
  ::close(spare);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  // A spinning loop wakes hundreds of thousands of times in 300 ms; the
  // retry timer wakes it a handful.
  EXPECT_LT(wakeups, 1000u);

  TcpStream stream(std::move(client));
  ASSERT_TRUE(stream.set_timeout(5.0));
  HttpRequest req;
  req.method = "POST";
  req.target = "/after";
  req.body = "fds";
  ASSERT_TRUE(stream.write_all(serialize(req)));
  const auto raw = stream.read_to_end();
  ASSERT_TRUE(raw.has_value());
  const auto resp = parse_response(*raw);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, "sdf");
}

TEST(ConnectionPoolTest, PooledCallReusesParkedConnection) {
  EchoServer server;
  ConnectionPool pool;
  HttpRequest req;
  req.method = "POST";
  req.target = "/pooled";
  req.body = "abc";
  CallOptions opts;
  opts.deadline_seconds = 2.0;

  auto first = http_call(pool, server.port(), req, opts);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->body, "cba");
  EXPECT_EQ(pool.idle_count(), 1u);
  EXPECT_EQ(pool.reuses(), 0u);

  auto second = http_call(pool, server.port(), req, opts);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(pool.reuses(), 1u);
  EXPECT_EQ(pool.idle_count(), 1u);
  // Both calls rode one server-side connection.
  EXPECT_EQ(server.open_connections(), 1u);
}

TEST(ConnectionPoolTest, StaleParkedConnectionRetriesFresh) {
  ConnectionPool pool;
  std::uint16_t port = 0;
  {
    // Park a connection, then kill the server: the parked stream is stale.
    EchoServer server;
    port = server.port();
    HttpRequest req;
    req.method = "GET";
    req.target = "/x";
    CallOptions opts;
    opts.deadline_seconds = 2.0;
    ASSERT_TRUE(http_call(pool, port, req, opts).has_value());
    ASSERT_EQ(pool.idle_count(), 1u);
  }
  // Server gone: the pooled attempt fails, the fresh attempt fails too —
  // the call returns nullopt but must not crash or hang.
  HttpRequest req;
  req.method = "GET";
  req.target = "/x";
  CallOptions opts;
  opts.deadline_seconds = 0.5;
  EXPECT_FALSE(http_call(pool, port, req, opts).has_value());
  EXPECT_EQ(pool.idle_count(), 0u);
}

TEST(ConnectionPoolTest, BoundAndIdleTimeoutEnforced) {
  ConnectionPool::Options popts;
  popts.max_idle_per_peer = 2;
  popts.idle_timeout_seconds = 0.05;
  ConnectionPool pool(popts);

  EchoServer server;
  // Park three connections; the bound keeps two.
  std::vector<ClientConnection> conns;
  for (int i = 0; i < 3; ++i) {
    auto c = ClientConnection::open(server.port(), 1.0);
    ASSERT_TRUE(c.has_value());
    HttpRequest req;
    req.method = "GET";
    req.target = "/warm";
    ASSERT_TRUE(
        c->exchange(req, Clock::now() + std::chrono::seconds(2)).has_value());
    ASSERT_TRUE(c->reusable());
    pool.release(std::move(*c));
  }
  EXPECT_EQ(pool.idle_count(), 2u);

  // Past the idle timeout, acquire discards instead of returning them.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_FALSE(pool.acquire(server.port()).has_value());
  EXPECT_EQ(pool.idle_count(), 0u);
}

}  // namespace
}  // namespace bh::proxy
