// The proxy's event-driven I/O core: a single-threaded reactor over the
// epoll engine (io_backend.h), a deadline-ordered timer queue, and an HTTP
// server harness (HttpLoop) that multiplexes every inbound connection over
// it.
//
// Ownership model:
//   - Reactor owns the IoBackend (the epoll instance plus the wakeup
//     eventfd) and the timer queue. run() executes on exactly one thread
//     (the "loop thread"); every callback, timer, and posted task fires
//     there, so per-connection state needs no locks.
//   - HttpLoop owns the per-connection state machines: an incremental
//     HttpParser, a buffered-ahead byte queue for pipelined requests, and
//     the in-order response write queue. It borrows the listening fd (the
//     TcpListener keeps ownership) and receives accepted fds from the
//     backend's listener registration; bytes arrive via the backend's
//     stream callbacks (accept4 and recv loops over epoll readiness).
//   - The loop's contract is: parse, dispatch, write, never wait on
//     anything but the backend. A dispatch may answer inline when the work
//     is short and never blocks — the proxy serves RAM cache hits this way
//     (one shard lock, atomic counters, a histogram sample). Everything
//     that can block — disk reads, hint batches, outbound peer probes,
//     origin fetches — runs on the caller's worker pool, NOT here.
//
// Request flow: bytes arrive -> parser.feed -> each complete request is
// dispatched immediately with its own request token (parse-ahead: pipelined
// requests are all in flight at once, up to a cap) -> the dispatch itself
// (inline) or a worker (from any thread) calls respond(token, response) ->
// responses are sequenced back into request order on the loop thread,
// coalesced into one gathered sendmsg covering as many queued responses as
// fit (inline responses to one parsed batch share a single flush). A disk
// extent body ends a gather: it goes out by sendfile(2) when it reaches the
// front of the queue.
//
// Keep-alive: HTTP/1.0 semantics — close by default, held open when the
// request carries "Connection: keep-alive" (the response echoes the
// decision). A non-keep-alive request ends parse-ahead; its response is the
// last thing written before the close.
//
// Deadlines: a periodic sweep from the timer queue closes connections that
// have been idle (or stuck mid-message) past the idle timeout, so a wedged
// or slow-trickling client can never pin a connection forever. When accept
// fails for lack of fds, the listener is disabled and retried from the
// timer queue instead of spinning on its level-triggered readiness. Those
// two are the only timers an HttpLoop ever arms.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "proxy/http.h"
#include "proxy/io_backend.h"

namespace bh::proxy {

// Timers ordered by exact deadline. The loop holds at most a few (the idle
// sweep and the accept retry), so one ordered map is all the structure
// needed. Not thread-safe; lives on the loop thread.
class TimerQueue {
 public:
  using Clock = std::chrono::steady_clock;

  // Fires `fn` once, `delay_seconds` after `now`. Returns an id usable with
  // cancel().
  std::uint64_t add(Clock::time_point now, double delay_seconds,
                    std::function<void()> fn);
  bool cancel(std::uint64_t id);

  // Fires, in deadline order, every timer that is due at `now` and was
  // pending when the call began. Callbacks may add or cancel timers; one
  // that re-adds itself fires on a later advance.
  void advance(Clock::time_point now);

  // Milliseconds until the next timer is due at `now` (0 if already due),
  // or -1 when none are pending — the backend's poll timeout.
  int next_delay_ms(Clock::time_point now) const;

  std::size_t pending() const { return deadline_of_.size(); }

 private:
  // Keyed by (deadline, id): ids are unique, and equal deadlines fire in
  // the order they were added.
  std::map<std::pair<Clock::time_point, std::uint64_t>,
           std::function<void()>>
      queue_;
  std::unordered_map<std::uint64_t, Clock::time_point> deadline_of_;
  std::uint64_t next_id_ = 1;
};

class Reactor {
 public:
  // Throws std::runtime_error if the epoll engine cannot be constructed.
  Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // --- loop-thread-only API ---
  // The engine, for listener/stream registrations (HttpLoop).
  IoBackend& io() { return backend_; }
  TimerQueue& timers() { return timers_; }

  // --- any-thread API ---
  // Enqueues `fn` to run on the loop thread; wakes a blocked poll. Safe
  // before run() and after stop() (tasks posted after the loop exits are
  // destroyed unrun).
  void post(std::function<void()> fn);
  void stop();

  void run();
  bool on_loop_thread() const;

  // Poll cycles since run() started — `bh.proxy.loop_iterations`.
  std::uint64_t iterations() const {
    return iterations_.load(std::memory_order_relaxed);
  }

 private:
  IoBackend backend_;
  TimerQueue timers_;

  std::mutex tasks_mu_;
  std::deque<std::function<void()>> tasks_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> iterations_{0};
  std::atomic<std::thread::id> loop_tid_{};
};

// HTTP server harness over a Reactor (see the file comment for the model).
class HttpLoop {
 public:
  struct Options {
    // Quiet keep-alive connections (and connections stuck mid-message) are
    // closed after this long; must be > 0.
    double idle_timeout_seconds = 30.0;
  };

  // `dispatch` runs on the loop thread with each complete request; it must
  // not block (hand off to a worker pool and respond() later, or compute
  // inline and respond() immediately). The token identifies the REQUEST —
  // pipelined requests on one connection each get their own token, and the
  // loop reorders responses back into request order no matter when each
  // respond() arrives.
  using Dispatch = std::function<void(std::uint64_t token, HttpRequest req)>;

  // `listen_fd` stays owned by the caller; it is made non-blocking here.
  HttpLoop(Reactor& reactor, int listen_fd, Options opts, Dispatch dispatch);
  ~HttpLoop();

  // Queues `resp` for the request identified by `token`; a no-op if the
  // connection died meanwhile. Callable from any thread.
  void respond(std::uint64_t token, HttpResponse resp);

  // Flow control: stop/resume accepting new connections (backpressure when
  // the worker queue is full). pause is loop-thread-only; resume may be
  // called from any thread. While an out-of-fds backoff is pending, resume
  // leaves the listener to the backoff's retry.
  void pause_accept();
  void resume_accept();

  // Closes the listener registration and every open connection. Must be
  // called after the reactor loop has stopped (or from the loop thread).
  void shutdown();

  std::size_t open_connections() const {
    return open_conns_.load(std::memory_order_relaxed);
  }

  // Zero-copy transmission counters (`bh.proxy.zerocopy_sends` /
  // `bh.proxy.bytes_zerocopy`): extent bodies that left via sendfile(2),
  // i.e. without a userspace copy into the socket.
  std::uint64_t zerocopy_sends() const {
    return zerocopy_sends_.load(std::memory_order_relaxed);
  }
  std::uint64_t zerocopy_bytes() const {
    return zerocopy_bytes_.load(std::memory_order_relaxed);
  }

 private:
  // One response waiting to be written: serialized head + the body handle.
  // A RAM body rides as the cache's shared buffer (no copy was made to get
  // here); an extent body is {fd, offset, len} that sendfile ships straight
  // from the page cache.
  struct PendingWrite {
    std::string head;
    cache::Body body;
    bool close_after = false;  // close the connection once this is written
  };

  struct Conn {
    int fd = -1;
    std::uint64_t token = 0;
    std::uint64_t reg_id = 0;
    HttpParser parser;
    std::string buffered;  // bytes received ahead of the current message
    bool saw_eof = false;
    // Parse-ahead stops here: set on EOF, parse error, or a non-keep-alive
    // request; queued responses still drain.
    bool no_more_requests = false;
    std::size_t inflight = 0;     // dispatched requests awaiting respond()
    std::uint64_t next_seq = 0;   // sequence of the next parsed request
    std::uint64_t write_seq = 0;  // sequence owed to the write queue next
    // Responses that arrived out of order park here until their turn.
    std::map<std::uint64_t, PendingWrite> parked;
    std::vector<std::uint64_t> open_reqs;  // request tokens, for close cleanup
    // In-order responses being written; front_off = bytes of front already
    // sent. Drained with one gathered sendmsg covering several entries.
    std::deque<PendingWrite> out;
    std::size_t front_off = 0;
    bool writing = false;  // writability notification armed after EAGAIN
    bool in_pump = false;  // defer write kicks so one flush covers the batch
    std::chrono::steady_clock::time_point last_activity;

    Conn() : parser(HttpParser::Kind::kRequest) {}

    std::size_t pipeline_load() const {
      return inflight + parked.size() + out.size();
    }
  };

  // Maps an outstanding request token to its connection and slot.
  struct ReqSlot {
    std::uint64_t conn_token;
    std::uint64_t seq;
    bool keep_alive;
  };

  // All helpers below take the connection token and re-resolve it, because
  // any step that writes or dispatches can close the connection under the
  // caller's feet; a dangling Conn* is never held across such a step.
  void on_accepted(int fd);
  // accept4 ran out of fds: disable the listener and re-enable it from the
  // timer queue, unless backpressure still holds it paused.
  void back_off_accept();
  void on_recv(std::uint64_t token, const char* data, ssize_t n);
  // Runs buffered bytes through the parser, dispatching every complete
  // request (parse-ahead) up to the pipeline bound; flushes coalesced writes
  // once the batch is parsed.
  void pump(std::uint64_t token);
  void pump_inner(std::uint64_t token);
  void start_response(std::uint64_t req_token, HttpResponse resp);
  // Slots a serialized response into its connection at `seq`, releasing any
  // parked successors into the write queue.
  void place_response(std::uint64_t conn_token, std::uint64_t seq,
                      PendingWrite pw);
  bool continue_write(std::uint64_t token);  // false once the conn is gone
  // Transmits the front entry's extent body via sendfile(2). Returns the
  // continue_write outcome contract: advanced/EAGAIN → true, conn gone →
  // false; sets *blocked when the socket is full.
  bool sendfile_front(std::uint64_t token, Conn* c, bool* blocked);
  void close_conn(std::uint64_t token);
  void sweep_idle();
  void schedule_sweep();

  Reactor& reactor_;
  int listen_fd_;
  Options opts_;
  Dispatch dispatch_;
  std::uint64_t listener_reg_ = 0;
  std::uint64_t sweep_timer_ = 0;
  std::uint64_t accept_retry_timer_ = 0;  // pending out-of-fds backoff
  bool accept_paused_ = false;            // backpressure
  std::unordered_map<std::uint64_t, std::unique_ptr<Conn>> conns_;
  std::unordered_map<std::uint64_t, ReqSlot> reqs_;
  std::uint64_t next_token_ = 1;      // connection tokens
  std::uint64_t next_req_token_ = 1;  // request tokens (dispatch/respond)
  std::atomic<std::size_t> open_conns_{0};
  std::atomic<std::uint64_t> zerocopy_sends_{0};
  std::atomic<std::uint64_t> zerocopy_bytes_{0};
  bool shut_down_ = false;
};

}  // namespace bh::proxy
