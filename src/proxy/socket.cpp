#include "proxy/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "proxy/fault_injector.h"

namespace bh::proxy {
namespace {

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

int timeout_millis(double seconds) {
  if (seconds <= 0) return 0;
  const double ms = std::ceil(seconds * 1e3);
  return ms > 3600e3 ? 3600000 : static_cast<int>(ms);
}

// Consults the installed injector for an outbound operation; peer_port == 0
// (accepted streams) bypasses injection entirely.
std::optional<FaultKind> injected_fault(FaultOp op, std::uint16_t peer_port) {
  if (peer_port == 0) return std::nullopt;
  FaultInjector* injector = FaultInjector::installed();
  if (!injector) return std::nullopt;
  return injector->apply(op, peer_port);
}

}  // namespace

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpStream::TcpStream(Fd fd, std::uint16_t peer_port)
    : fd_(std::move(fd)), peer_port_(peer_port) {
  const int one = 1;
  ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool TcpStream::set_timeout(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    return false;
  }
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) != 0) {
    return false;
  }
  return true;
}

std::optional<TcpStream> TcpStream::connect(std::uint16_t port,
                                            double timeout_seconds) {
  if (auto fault = injected_fault(FaultOp::kConnect, port)) {
    return std::nullopt;  // refused / reset before the handshake
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (!fd.valid()) return std::nullopt;
  const sockaddr_in addr = loopback(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    if (errno != EINPROGRESS) return std::nullopt;
    // Bound the handshake by the caller's budget instead of blocking until
    // the kernel gives up.
    pollfd pfd{fd.get(), POLLOUT, 0};
    int rc;
    do {
      rc = ::poll(&pfd, 1, timeout_millis(timeout_seconds));
    } while (rc < 0 && errno == EINTR);
    if (rc <= 0) return std::nullopt;  // timeout or poll error
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      return std::nullopt;
    }
  }
  const int flags = ::fcntl(fd.get(), F_GETFL);
  if (flags < 0 ||
      ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) != 0) {
    return std::nullopt;
  }
  TcpStream stream(std::move(fd), port);
  if (!stream.set_timeout(timeout_seconds)) return std::nullopt;
  return stream;
}

bool TcpStream::write_all(std::string_view data) {
  if (poisoned_) return false;
  if (auto fault = injected_fault(FaultOp::kSend, peer_port_)) {
    poisoned_ = true;
    return false;  // peer reset before the bytes landed
  }
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::send(fd_.get(), data.data() + off, data.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> TcpStream::read_some(std::size_t max) {
  if (poisoned_) return std::nullopt;
  if (auto fault = injected_fault(FaultOp::kRecv, peer_port_)) {
    if (*fault == FaultKind::kShortRead) {
      // Deliver at most one real byte, then behave as reset: the classic
      // truncated-reply failure.
      std::string buf(1, '\0');
      const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), 0);
      poisoned_ = true;
      if (n <= 0) return std::nullopt;
      return buf;
    }
    poisoned_ = true;
    return std::nullopt;  // kReset (and anything else) kills the read
  }
  std::string buf(max, '\0');
  while (true) {
    const ssize_t n = ::recv(fd_.get(), buf.data(), buf.size(), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    buf.resize(static_cast<std::size_t>(n));
    return buf;
  }
}

std::optional<std::string> TcpStream::read_to_end(std::size_t limit) {
  std::string out;
  while (out.size() < limit) {
    auto chunk = read_some(8192);
    if (!chunk) return std::nullopt;
    if (chunk->empty()) break;  // EOF
    out += *chunk;
  }
  return out;
}

void TcpStream::shutdown_write() { ::shutdown(fd_.get(), SHUT_WR); }

std::optional<TcpListener> TcpListener::bind(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return std::nullopt;
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr = loopback(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    return std::nullopt;
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return std::nullopt;
  }
  if (::listen(fd.get(), SOMAXCONN) != 0) return std::nullopt;
  return TcpListener(std::move(fd), ntohs(addr.sin_port));
}

std::optional<TcpListener> TcpListener::bind_ephemeral() {
  return bind(0);
}

std::optional<TcpStream> TcpListener::accept() {
  while (true) {
    const int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return std::nullopt;
    }
    TcpStream stream{Fd(fd)};
    // A handler must never block forever on a wedged client; if the timeout
    // cannot be armed, drop the connection rather than serve it unbounded.
    if (!stream.set_timeout(kDefaultTimeoutSeconds)) continue;
    return stream;
  }
}

void TcpListener::shut_down() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

}  // namespace bh::proxy
