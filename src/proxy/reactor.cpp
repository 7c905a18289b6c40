#include "proxy/reactor.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/sendfile.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace bh::proxy {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kMaxWriteIov = 16;

// How long the listener rests after accept4 ran out of fds.
constexpr double kAcceptRetrySeconds = 0.05;

// Parse-ahead bound: requests in flight plus responses queued for write on
// one connection. Further pipelined bytes stay in the buffer until
// responses drain.
constexpr std::size_t kMaxPipeline = 16;

// A client shoving pipelined data faster than we respond is bounded by the
// largest legal message; beyond that it is abuse.
constexpr std::size_t kMaxBufferedBytes =
    HttpParser::Limits{}.max_head_bytes + HttpParser::Limits{}.max_body_bytes;

}  // namespace

// ---------------------------------------------------------------------------
// TimerQueue

std::uint64_t TimerQueue::add(Clock::time_point now, double delay_seconds,
                              std::function<void()> fn) {
  const Clock::time_point due =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(std::max(0.0, delay_seconds)));
  const std::uint64_t id = next_id_++;
  queue_.emplace(std::make_pair(due, id), std::move(fn));
  deadline_of_.emplace(id, due);
  return id;
}

bool TimerQueue::cancel(std::uint64_t id) {
  const auto it = deadline_of_.find(id);
  if (it == deadline_of_.end()) return false;
  queue_.erase({it->second, id});
  deadline_of_.erase(it);
  return true;
}

void TimerQueue::advance(Clock::time_point now) {
  // The due set is fixed before any callback runs, so a callback that adds
  // a timer already due waits for the next advance.
  std::vector<std::uint64_t> due;
  for (auto it = queue_.begin(); it != queue_.end() && it->first.first <= now;
       ++it) {
    due.push_back(it->first.second);
  }
  for (const std::uint64_t id : due) {
    const auto it = deadline_of_.find(id);
    if (it == deadline_of_.end()) continue;  // cancelled by an earlier callback
    auto node = queue_.extract({it->second, id});
    deadline_of_.erase(it);
    node.mapped()();
  }
}

int TimerQueue::next_delay_ms(Clock::time_point now) const {
  if (queue_.empty()) return -1;
  const auto diff = queue_.begin()->first.first - now;
  if (diff <= Clock::duration::zero()) return 0;
  // +1 so the wait lands at-or-after the due instant despite ms truncation.
  return static_cast<int>(
             std::chrono::duration_cast<std::chrono::milliseconds>(diff)
                 .count()) +
         1;
}

// ---------------------------------------------------------------------------
// Reactor

Reactor::Reactor() {
  // The socket writes all carry MSG_NOSIGNAL, but sendfile(2) on the
  // zero-copy extent path has no such flag: a peer that dies mid-transfer
  // must surface as EPIPE on the call, not kill the process.
  static const bool sigpipe_ignored = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)sigpipe_ignored;
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard lock(tasks_mu_);
    tasks_.push_back(std::move(fn));
  }
  backend_.wakeup();
}

void Reactor::stop() {
  stop_.store(true, std::memory_order_release);
  backend_.wakeup();
}

bool Reactor::on_loop_thread() const {
  return loop_tid_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

void Reactor::run() {
  loop_tid_.store(std::this_thread::get_id(), std::memory_order_release);
  while (!stop_.load(std::memory_order_acquire)) {
    // Posted tasks first: they may register fds or arm timers that the
    // upcoming wait must take into account.
    std::deque<std::function<void()>> tasks;
    {
      std::lock_guard lock(tasks_mu_);
      tasks.swap(tasks_);
    }
    for (auto& fn : tasks) fn();
    if (stop_.load(std::memory_order_acquire)) break;

    timers_.advance(Clock::now());
    const int timeout = timers_.next_delay_ms(Clock::now());
    const bool ok = backend_.poll(timeout);
    iterations_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) break;
  }
  loop_tid_.store(std::thread::id{}, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// HttpLoop

HttpLoop::HttpLoop(Reactor& reactor, int listen_fd, Options opts,
                   Dispatch dispatch)
    : reactor_(reactor),
      listen_fd_(listen_fd),
      opts_(opts),
      dispatch_(std::move(dispatch)) {
  listener_reg_ =
      reactor_.io().add_listener(listen_fd_, [this](int fd) { on_accepted(fd); });
  schedule_sweep();
}

HttpLoop::~HttpLoop() { shutdown(); }

void HttpLoop::schedule_sweep() {
  if (shut_down_) return;
  const double interval = std::max(0.05, opts_.idle_timeout_seconds / 4.0);
  sweep_timer_ = reactor_.timers().add(Clock::now(), interval, [this] {
    sweep_idle();
    schedule_sweep();
  });
}

void HttpLoop::on_accepted(int fd) {
  if (fd < 0) {
    back_off_accept();
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->token = next_token_++;
  conn->last_activity = Clock::now();
  const std::uint64_t token = conn->token;
  Conn* raw = conn.get();
  conns_.emplace(token, std::move(conn));
  raw->reg_id = reactor_.io().add_stream(
      fd,
      [this, token](const char* data, ssize_t n) { on_recv(token, data, n); },
      [this, token] {
        const auto it = conns_.find(token);
        if (it == conns_.end()) return;
        it->second->writing = false;
        continue_write(token);
      });
  if (raw->reg_id == 0) {
    conns_.erase(token);
    ::close(fd);
    return;
  }
  open_conns_.fetch_add(1, std::memory_order_relaxed);
}

void HttpLoop::back_off_accept() {
  if (accept_retry_timer_ != 0) return;
  reactor_.io().set_listener_enabled(listener_reg_, false);
  accept_retry_timer_ =
      reactor_.timers().add(Clock::now(), kAcceptRetrySeconds, [this] {
        accept_retry_timer_ = 0;
        if (!accept_paused_) {
          reactor_.io().set_listener_enabled(listener_reg_, true);
        }
      });
}

void HttpLoop::on_recv(std::uint64_t token, const char* data, ssize_t n) {
  const auto it = conns_.find(token);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  if (n > 0) {
    c->last_activity = Clock::now();
    c->buffered.append(data, static_cast<std::size_t>(n));
    if (c->buffered.size() > kMaxBufferedBytes) {
      close_conn(token);
      return;
    }
    pump(token);
    return;
  }
  if (n == 0) {
    c->saw_eof = true;
    pump(token);
    return;
  }
  close_conn(token);
}

void HttpLoop::pump(std::uint64_t token) {
  {
    const auto it = conns_.find(token);
    if (it == conns_.end()) return;
    it->second->in_pump = true;
  }
  pump_inner(token);
  // Flush once per pump: responses produced inline by dispatch_ during the
  // parse batch coalesce into a single gathered write instead of one
  // sendmsg per request.
  const auto it = conns_.find(token);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  c->in_pump = false;
  if (!c->out.empty() && !c->writing) continue_write(token);
}

void HttpLoop::pump_inner(std::uint64_t token) {
  for (;;) {
    const auto it = conns_.find(token);
    if (it == conns_.end()) return;
    Conn* c = it->second.get();
    if (c->no_more_requests) {
      if (c->inflight == 0 && c->parked.empty() && c->out.empty()) {
        close_conn(token);
      }
      return;
    }
    // Parse-ahead bound: leave further pipelined bytes buffered until the
    // write queue drains (continue_write re-pumps then).
    if (c->pipeline_load() >= kMaxPipeline) return;

    std::size_t used = 0;
    if (!c->buffered.empty()) {
      used = c->parser.feed(c->buffered);
      c->buffered.erase(0, used);
    }
    if (c->parser.failed()) {
      HttpResponse bad;
      bad.status = 400;
      bad.reason = "Bad Request";
      bad.body = "malformed request\n";
      bad.headers.emplace_back("Connection", "close");
      PendingWrite pw;
      pw.head = serialize_head(bad, bad.body.size());
      pw.body = std::move(bad.body);
      pw.close_after = true;
      c->no_more_requests = true;
      const std::uint64_t seq = c->next_seq++;
      place_response(token, seq, std::move(pw));
      return;
    }
    if (c->parser.complete()) {
      HttpRequest req = std::move(c->parser.request());
      c->parser.reset();
      const bool ka = req.wants_keep_alive();
      const std::uint64_t seq = c->next_seq++;
      const std::uint64_t req_token = next_req_token_++;
      c->inflight++;
      c->open_reqs.push_back(req_token);
      c->last_activity = Clock::now();
      if (!ka) c->no_more_requests = true;
      reqs_.emplace(req_token, ReqSlot{token, seq, ka});
      // May respond() inline (and even close the connection) before
      // returning — no Conn* survives this call.
      dispatch_(req_token, std::move(req));
      if (!ka) return;
      continue;
    }
    if (used > 0) continue;  // partial progress: feed again
    // Mid-message or between messages with nothing parseable: EOF now means
    // the client is done sending (a half-finished message is simply
    // dropped, as the blocking path did); queued responses still drain.
    if (c->saw_eof) {
      if (c->inflight == 0 && c->parked.empty() && c->out.empty()) {
        close_conn(token);
      } else {
        c->no_more_requests = true;
      }
    }
    return;
  }
}

void HttpLoop::respond(std::uint64_t token, HttpResponse resp) {
  if (reactor_.on_loop_thread()) {
    start_response(token, std::move(resp));
    return;
  }
  auto shared = std::make_shared<HttpResponse>(std::move(resp));
  reactor_.post(
      [this, token, shared] { start_response(token, std::move(*shared)); });
}

void HttpLoop::start_response(std::uint64_t req_token, HttpResponse resp) {
  const auto rit = reqs_.find(req_token);
  if (rit == reqs_.end()) return;  // connection died while the worker ran
  const ReqSlot slot = rit->second;
  reqs_.erase(rit);
  const auto it = conns_.find(slot.conn_token);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  c->inflight--;
  for (auto& t : c->open_reqs) {
    if (t == req_token) {
      t = c->open_reqs.back();
      c->open_reqs.pop_back();
      break;
    }
  }
  resp.headers.emplace_back("Connection",
                            slot.keep_alive ? "keep-alive" : "close");
  PendingWrite pw;
  pw.head = serialize_head(resp, resp.body.size());
  pw.body = std::move(resp.body);
  pw.close_after = !slot.keep_alive;
  place_response(slot.conn_token, slot.seq, std::move(pw));
}

void HttpLoop::place_response(std::uint64_t conn_token, std::uint64_t seq,
                              PendingWrite pw) {
  const auto it = conns_.find(conn_token);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  if (seq != c->write_seq) {
    c->parked.emplace(seq, std::move(pw));
    return;
  }
  c->out.push_back(std::move(pw));
  c->write_seq++;
  // Release parked successors now contiguous with the write queue.
  for (auto pit = c->parked.find(c->write_seq); pit != c->parked.end();
       pit = c->parked.find(c->write_seq)) {
    c->out.push_back(std::move(pit->second));
    c->parked.erase(pit);
    c->write_seq++;
  }
  // Inside a pump batch the flush happens once at the end; while an EAGAIN
  // writability notification is armed, the backend will kick us.
  if (!c->in_pump && !c->writing) continue_write(conn_token);
}

bool HttpLoop::continue_write(std::uint64_t token) {
  const auto it = conns_.find(token);
  if (it == conns_.end()) return false;
  Conn* c = it->second.get();
  for (;;) {
    if (c->out.empty()) {
      c->last_activity = Clock::now();
      if (c->no_more_requests && c->inflight == 0 && c->parked.empty()) {
        close_conn(token);
        return false;
      }
      // Capacity freed: parse buffered pipelined requests on a fresh stack.
      if (!c->buffered.empty() && !c->in_pump) {
        reactor_.post([this, token] { pump(token); });
      }
      return true;
    }
    // Disk extent with its head already out: ship the bytes with
    // sendfile(2) — file to socket, never through userspace.
    if (c->out.front().body.is_extent() &&
        c->front_off >= c->out.front().head.size()) {
      bool blocked = false;
      if (!sendfile_front(token, c, &blocked)) return false;
      if (blocked) {
        if (!c->writing) {
          c->writing = true;
          reactor_.io().request_writable(c->reg_id);
        }
        return true;
      }
      continue;  // front advanced or fell back to RAM: reevaluate
    }
    // One gathered write covering as many queued responses as fit: head +
    // body pairs from the front of the queue, the first adjusted by
    // front_off. Bodies are never copied into a contiguous reply buffer.
    // Gathering stops at an extent body: its head may join this batch, but
    // the body itself goes out via sendfile when it reaches the front — and
    // nothing may be sent past skipped bytes.
    iovec iov[kMaxWriteIov];
    std::size_t iovcnt = 0;
    std::size_t off = c->front_off;
    for (const PendingWrite& pw : c->out) {
      if (iovcnt >= kMaxWriteIov) break;
      const std::size_t head_len = pw.head.size();
      if (off < head_len) {
        iov[iovcnt].iov_base = const_cast<char*>(pw.head.data() + off);
        iov[iovcnt].iov_len = head_len - off;
        ++iovcnt;
        if (pw.body.is_extent()) break;
        if (iovcnt < kMaxWriteIov && !pw.body.empty()) {
          const std::string_view body = pw.body.view();
          iov[iovcnt].iov_base = const_cast<char*>(body.data());
          iov[iovcnt].iov_len = body.size();
          ++iovcnt;
        }
      } else {
        // Mid-body resume. An extent front never reaches here (handled
        // above); a partially-sent RAM body finishes by ordinary copy.
        const std::size_t boff = off - head_len;
        const std::string_view body = pw.body.view();
        iov[iovcnt].iov_base = const_cast<char*>(body.data() + boff);
        iov[iovcnt].iov_len = body.size() - boff;
        ++iovcnt;
      }
      off = 0;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(c->fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      c->last_activity = Clock::now();
      std::size_t rem = static_cast<std::size_t>(n);
      while (rem > 0) {
        PendingWrite& front = c->out.front();
        const std::size_t total =
            front.head.size() + static_cast<std::size_t>(front.body.size());
        const std::size_t step = std::min(rem, total - c->front_off);
        c->front_off += step;
        rem -= step;
        if (c->front_off == total) {
          const bool close_now = front.close_after;
          c->out.pop_front();
          c->front_off = 0;
          if (close_now) {
            // A close-after response is always last in line (parse-ahead
            // stops at the request that produced it).
            close_conn(token);
            return false;
          }
        }
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!c->writing) {
        c->writing = true;
        reactor_.io().request_writable(c->reg_id);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(token);
    return false;
  }
}

bool HttpLoop::sendfile_front(std::uint64_t token, Conn* c, bool* blocked) {
  *blocked = false;
  PendingWrite& front = c->out.front();
  const std::size_t head_len = front.head.size();
  const std::uint64_t body_len = front.body.size();
  for (;;) {
    const std::uint64_t boff = c->front_off - head_len;
    const std::uint64_t rem = body_len - boff;
    if (rem == 0) break;
    // sendfile advances its own offset cursor; front_off mirrors it so a
    // partial send resumes exactly where the socket stalled.
    off_t file_off = static_cast<off_t>(front.body.offset() + boff);
    const ssize_t n = ::sendfile(c->fd, front.body.fd(), &file_off,
                                 static_cast<size_t>(rem));
    if (n > 0) {
      c->front_off += static_cast<std::size_t>(n);
      c->last_activity = Clock::now();
      zerocopy_bytes_.fetch_add(static_cast<std::uint64_t>(n),
                                std::memory_order_relaxed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      *blocked = true;
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EINVAL || errno == ENOSYS)) {
      // Kernel/filesystem cannot sendfile this pairing: materialize the
      // body and let the ordinary copy path finish the transfer.
      std::string bytes;
      if (!front.body.append_to(bytes)) {
        close_conn(token);
        return false;
      }
      front.body = cache::Body(std::move(bytes));
      return true;
    }
    // Peer reset, I/O error, or the file shrank under the envelope (n == 0
    // before the extent was exhausted): the response can't complete.
    close_conn(token);
    return false;
  }
  zerocopy_sends_.fetch_add(1, std::memory_order_relaxed);
  const bool close_now = front.close_after;
  c->out.pop_front();
  c->front_off = 0;
  if (close_now) {
    close_conn(token);
    return false;
  }
  return true;
}

void HttpLoop::close_conn(std::uint64_t token) {
  const auto it = conns_.find(token);
  if (it == conns_.end()) return;
  Conn* c = it->second.get();
  if (c->reg_id != 0) reactor_.io().del_fd(c->reg_id);
  for (const std::uint64_t req_token : c->open_reqs) reqs_.erase(req_token);
  // Decremented before ::close so an observer woken by the peer's EOF never
  // reads a stale count.
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  ::close(c->fd);
  conns_.erase(it);
}

void HttpLoop::sweep_idle() {
  const auto now = Clock::now();
  const auto cutoff =
      now - std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(opts_.idle_timeout_seconds));
  std::vector<std::uint64_t> expired;
  for (const auto& [token, conn] : conns_) {
    // Connections with dispatched requests are the worker pool's
    // responsibility, not ours.
    if (conn->inflight == 0 && conn->last_activity < cutoff) {
      expired.push_back(token);
    }
  }
  for (const std::uint64_t token : expired) close_conn(token);
}

void HttpLoop::pause_accept() {
  if (accept_paused_ || listener_reg_ == 0) return;
  accept_paused_ = true;
  reactor_.io().set_listener_enabled(listener_reg_, false);
}

void HttpLoop::resume_accept() {
  reactor_.post([this] {
    if (!accept_paused_ || listener_reg_ == 0) return;
    accept_paused_ = false;
    if (accept_retry_timer_ == 0) {
      reactor_.io().set_listener_enabled(listener_reg_, true);
    }
  });
}

void HttpLoop::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  if (sweep_timer_ != 0) {
    reactor_.timers().cancel(sweep_timer_);
    sweep_timer_ = 0;
  }
  if (accept_retry_timer_ != 0) {
    reactor_.timers().cancel(accept_retry_timer_);
    accept_retry_timer_ = 0;
  }
  if (listener_reg_ != 0) {
    reactor_.io().del_fd(listener_reg_);
    listener_reg_ = 0;
  }
  std::vector<std::uint64_t> tokens;
  tokens.reserve(conns_.size());
  for (const auto& [token, conn] : conns_) tokens.push_back(token);
  for (const std::uint64_t token : tokens) close_conn(token);
}

}  // namespace bh::proxy
