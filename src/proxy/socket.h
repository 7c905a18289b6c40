// RAII loopback TCP primitives for the proxy daemon.
//
// The prototype is a modified Squid: real processes exchanging HTTP over
// TCP. This wrapper keeps the daemon code free of raw file descriptors and
// gives every operation a deadline so a wedged peer can never hang a test:
// connect uses a non-blocking connect + poll bounded by the caller's
// timeout, and reads/writes inherit SO_RCVTIMEO/SO_SNDTIMEO. Outbound
// streams remember their destination port and consult the process-global
// FaultInjector (if installed) before every operation, so tests can drive
// connect-refused, mid-stream reset, short-read, and slow-link behaviour
// deterministically. Only loopback is supported on purpose — the daemon is
// a demonstration and test vehicle, not an internet-facing server.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bh::proxy {

// Default per-operation timeout when the caller does not budget one.
inline constexpr double kDefaultTimeoutSeconds = 5.0;

// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

class TcpStream {
 public:
  // Connects to 127.0.0.1:port within `timeout_seconds`; nullopt on refusal,
  // timeout, or injected fault. The same budget becomes the stream's initial
  // read/write timeout.
  static std::optional<TcpStream> connect(
      std::uint16_t port, double timeout_seconds = kDefaultTimeoutSeconds);

  // Wraps an already-connected fd. `peer_port` is the destination port for
  // outbound streams (0 for accepted streams — those bypass fault injection).
  explicit TcpStream(Fd fd, std::uint16_t peer_port = 0);

  // Re-arms both the read and write timeout; false if setsockopt fails.
  bool set_timeout(double seconds);

  // Writes the whole buffer; false on error.
  bool write_all(std::string_view data);

  // Reads up to `max` bytes; empty string on EOF, nullopt on error/timeout.
  std::optional<std::string> read_some(std::size_t max = 4096);

  // Reads until EOF or `limit` bytes.
  std::optional<std::string> read_to_end(std::size_t limit = 1 << 22);

  void shutdown_write();

  std::uint16_t peer_port() const { return peer_port_; }

 private:
  Fd fd_;
  std::uint16_t peer_port_ = 0;
  // Set after an injected short read: the stream delivered partial data and
  // now behaves as reset.
  bool poisoned_ = false;
};

class TcpListener {
 public:
  // Binds 127.0.0.1:`port` (0 = kernel-chosen ephemeral port) with a
  // SOMAXCONN accept queue; nullopt on failure — for a fixed port that
  // usually means EADDRINUSE.
  static std::optional<TcpListener> bind(std::uint16_t port);

  // Binds 127.0.0.1 on an ephemeral port; nullopt on failure.
  static std::optional<TcpListener> bind_ephemeral();

  std::uint16_t port() const { return port_; }

  // The raw listening descriptor, for mounting on a Reactor. Ownership
  // stays with the listener.
  int fd() const { return fd_.get(); }

  // Blocks for the next connection; nullopt once shut_down() was called or
  // on error.
  std::optional<TcpStream> accept();

  // Unblocks any accept() and makes future ones fail.
  void shut_down();

 private:
  TcpListener(Fd fd, std::uint16_t port) : fd_(std::move(fd)), port_(port) {}

  Fd fd_;
  std::uint16_t port_ = 0;
};

}  // namespace bh::proxy
