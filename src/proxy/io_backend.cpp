// One eventfd per backend provides the any-thread wakeup; it is registered
// like any other fd under the reserved id 0.
#include "proxy/io_backend.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace bh::proxy {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

IoBackend::IoBackend() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) {
    ::close(epoll_fd_);
    throw std::runtime_error("eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw std::runtime_error("epoll_ctl(wake_fd) failed");
  }
}

IoBackend::~IoBackend() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

std::uint64_t IoBackend::add_reg(int fd, std::uint32_t events, Reg reg) {
  const std::uint64_t id = next_id_++;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = id;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return 0;
  reg.fd = fd;
  regs_.emplace(id, std::move(reg));
  return id;
}

bool IoBackend::mod_fd(std::uint64_t id, std::uint32_t events) {
  const auto it = regs_.find(id);
  if (it == regs_.end()) return false;
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = id;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, it->second.fd, &ev) == 0;
}

void IoBackend::del_fd(std::uint64_t id) {
  const auto it = regs_.find(id);
  if (it == regs_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  regs_.erase(it);
}

std::uint64_t IoBackend::add_listener(int fd, AcceptFn fn) {
  set_nonblocking(fd);
  Reg reg;
  reg.listener = true;
  reg.accept_fn = std::move(fn);
  return add_reg(fd, EPOLLIN, std::move(reg));
}

bool IoBackend::set_listener_enabled(std::uint64_t id, bool enabled) {
  const auto it = regs_.find(id);
  if (it == regs_.end() || !it->second.listener) return false;
  it->second.enabled = enabled;
  return mod_fd(id, enabled ? static_cast<std::uint32_t>(EPOLLIN) : 0u);
}

std::uint64_t IoBackend::add_stream(int fd, RecvFn on_recv,
                                    WritableFn on_writable) {
  Reg reg;
  reg.recv_fn = std::move(on_recv);
  reg.writable_fn = std::move(on_writable);
  return add_reg(fd, EPOLLIN, std::move(reg));
}

void IoBackend::request_writable(std::uint64_t id) {
  const auto it = regs_.find(id);
  if (it == regs_.end() || it->second.listener) return;
  if (it->second.want_writable) return;
  it->second.want_writable = true;
  mod_fd(id, EPOLLIN | EPOLLOUT);
}

bool IoBackend::poll(int timeout_ms) {
  epoll_event events[64];
  const int n = ::epoll_wait(epoll_fd_, events, 64, timeout_ms);
  if (n < 0) return errno == EINTR;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t id = events[i].data.u64;
    if (id == 0) {
      std::uint64_t drain;
      while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
      }
      continue;
    }
    const auto it = regs_.find(id);
    if (it == regs_.end()) continue;  // deleted earlier in this batch
    if (it->second.listener) {
      accept_ready(id);
    } else {
      stream_ready(id, events[i].events);
    }
  }
  return true;
}

void IoBackend::wakeup() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

// Every callback below is copied out of the registration and the map is
// re-probed afterwards, because any callback may delete its own (or any
// other) registration mid-dispatch.
void IoBackend::accept_ready(std::uint64_t id) {
  for (;;) {
    const auto it = regs_.find(id);
    if (it == regs_.end() || !it->second.enabled) return;
    const int fd = ::accept4(it->second.fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      AcceptFn fn = it->second.accept_fn;
      fn(fd);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
        errno == ENOMEM) {
      // The connection is still queued; only the caller can back off.
      AcceptFn fn = it->second.accept_fn;
      fn(-errno);
    }
    return;  // EAGAIN, or a failure that consumed the connection
  }
}

void IoBackend::stream_ready(std::uint64_t id, std::uint32_t events) {
  if (events & EPOLLOUT) {
    const auto it = regs_.find(id);
    if (it == regs_.end()) return;
    if (it->second.want_writable) {
      it->second.want_writable = false;
      mod_fd(id, EPOLLIN);
      WritableFn fn = it->second.writable_fn;
      fn();
    }
  }
  if (!(events & (EPOLLIN | EPOLLERR | EPOLLHUP))) return;
  char buf[16384];
  for (;;) {
    const auto it = regs_.find(id);
    if (it == regs_.end()) return;  // the writable callback closed it
    const ssize_t n = ::recv(it->second.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      RecvFn fn = it->second.recv_fn;
      fn(buf, n);
      continue;
    }
    if (n == 0) {
      RecvFn fn = it->second.recv_fn;
      fn(nullptr, 0);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    RecvFn fn = it->second.recv_fn;
    fn(nullptr, -errno);
    return;
  }
}

}  // namespace bh::proxy
