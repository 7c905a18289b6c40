// The proxy reactor's I/O engine: level-triggered readiness via epoll_wait,
// with the accept4 and recv loops run in user space. The reactor's event
// loop (reactor.h) drains posted tasks, advances the timer queue, and then
// asks the IoBackend to wait for and dispatch I/O.
//
// Contract (all methods loop-thread-only unless noted):
//   - Registrations are identified by monotonically increasing ids that are
//     never reused, so a recycled fd can never receive a stale callback.
//   - add_listener delivers accepted connections as ready non-blocking
//     close-on-exec fds; ownership of each delivered fd passes to the
//     callback. When accept4 fails because the process or system is out of
//     fds (or socket memory), the callback receives -errno instead and the
//     pending connection stays queued: the caller must disable the listener
//     and retry later, or level-triggered readiness reports it again at
//     once. set_listener_enabled(false) stops future accepts.
//   - add_stream delivers received bytes: on_recv(data, n) with n > 0 for a
//     chunk (the pointer is valid only for the duration of the call), n == 0
//     for EOF, n < 0 for -errno. request_writable arms a one-shot
//     writability notification (used after a non-blocking send returned
//     EAGAIN).
//   - del_fd works for every registration kind and is safe to call from any
//     callback, including the one currently being dispatched; events already
//     reported for a deleted registration are dropped.
//   - poll(timeout_ms) runs one wait-and-dispatch cycle (-1 = wait forever,
//     0 = poll). wakeup() (any thread) makes a blocked poll return early.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <sys/types.h>

namespace bh::proxy {

class IoBackend {
 public:
  // fd >= 0: an accepted connection; fd < 0: -errno of a resource failure.
  using AcceptFn = std::function<void(int fd)>;
  using RecvFn = std::function<void(const char* data, ssize_t n)>;
  using WritableFn = std::function<void()>;

  // Throws std::runtime_error if the epoll instance or the wakeup eventfd
  // cannot be created.
  IoBackend();
  ~IoBackend();
  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  std::uint64_t add_listener(int fd, AcceptFn fn);
  bool set_listener_enabled(std::uint64_t id, bool enabled);

  std::uint64_t add_stream(int fd, RecvFn on_recv, WritableFn on_writable);
  void request_writable(std::uint64_t id);

  void del_fd(std::uint64_t id);

  bool poll(int timeout_ms);
  void wakeup();  // any-thread

 private:
  struct Reg {
    int fd = -1;
    bool listener = false;
    AcceptFn accept_fn;
    RecvFn recv_fn;
    WritableFn writable_fn;
    bool enabled = true;         // listener accepting
    bool want_writable = false;  // stream armed for one-shot EPOLLOUT
  };

  std::uint64_t add_reg(int fd, std::uint32_t events, Reg reg);
  bool mod_fd(std::uint64_t id, std::uint32_t events);
  void accept_ready(std::uint64_t id);
  void stream_ready(std::uint64_t id, std::uint32_t events);

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::unordered_map<std::uint64_t, Reg> regs_;
  std::uint64_t next_id_ = 1;
};

}  // namespace bh::proxy
