// A deliberately small HTTP/1.x subset: request line, response status line,
// headers, Content-Length framing. It is exactly what the prototype era's
// Squid spoke between caches, and all the daemon needs — plus keep-alive,
// because the hint architecture's whole point is that cache-to-cache probes
// are cheap, and a fresh TCP handshake per 20-byte metadata batch is not.
//
// Framing is done by one engine: HttpParser, an incremental state machine
// fed byte ranges. The epoll reactor feeds it whatever recv() produced and
// resumes mid-header or mid-body on the next readable event; the blocking
// client feeds it chunk by chunk under a deadline. Messages split at any
// byte boundary parse identically to a single complete buffer.
//
// Client calls carry an explicit failure budget (CallOptions): a total
// per-call deadline that covers connect, send, and the whole read, plus an
// optional bounded retry with jittered exponential backoff. The paper's
// "do not slow down misses" principle maps onto this layer as: data-path
// probes are single-shot with a tight deadline (a dead peer costs one
// bounded round trip, never a search), while soft-state metadata traffic
// may retry within its own budget.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/body.h"
#include "common/rng.h"
#include "proxy/socket.h"

namespace bh::proxy {

using Headers = std::vector<std::pair<std::string, std::string>>;

struct HttpRequest {
  std::string method;  // GET | POST | ...
  std::string target;  // path + optional query
  Headers headers;
  std::string body;

  // Case-insensitive header lookup.
  std::optional<std::string_view> header(std::string_view name) const;
  // Query parameter from the target ("/x?a=1&b=2"), if present.
  std::optional<std::string> query_param(std::string_view name) const;
  std::string path() const;  // target without the query string
  // True when a "Connection: keep-alive" header is present (HTTP/1.0
  // semantics: the default is close, keep-alive is opt-in).
  bool wants_keep_alive() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  Headers headers;
  // Response bodies travel as cache::Body so a cache hit shares the cached
  // buffer all the way to the socket write, and a disk hit carries the
  // buffer its checksum was verified over. Assigning a string still works
  // (one buffer allocation).
  cache::Body body;

  std::optional<std::string_view> header(std::string_view name) const;
  bool wants_keep_alive() const;
};

// Full message bytes (head + body).
std::string serialize(const HttpRequest& r);
std::string serialize(const HttpResponse& r);
// Start line + headers + blank line only, with Content-Length supplied for
// `body_size` when the caller did not set one. The reactor writes head and
// body as one gathered writev instead of concatenating them.
std::string serialize_head(const HttpRequest& r, std::size_t body_size);
std::string serialize_head(const HttpResponse& r, std::size_t body_size);

// Checked numeric parses for header and body fields: the whole string must
// be a decimal number in range, else nullopt (never a silent zero).
std::optional<std::uint64_t> parse_u64(std::string_view text);
std::optional<std::uint16_t> parse_port(std::string_view text);

// Incremental HTTP/1.x message parser — the single framing engine.
//
// Feed it byte ranges as they arrive; it consumes up to the end of the
// current message and no further, so pipelined messages on one connection
// are handed back to the caller byte-exactly. After kComplete, move the
// message out and reset() for the next one.
class HttpParser {
 public:
  enum class Kind { kRequest, kResponse };
  enum class State {
    kStartLine,  // accumulating the request/status line + headers
    kBody,       // headers parsed; accumulating Content-Length body bytes
    kComplete,   // one full message parsed; feed() consumes nothing more
    kError,      // malformed or over-limit input; terminal until reset()
  };
  struct Limits {
    // Start line + header block, including the blank line.
    std::size_t max_head_bytes = 1 << 20;
    // Content-Length ceiling; larger messages are rejected up front.
    std::size_t max_content_length = 64u << 20;
  };

  explicit HttpParser(Kind kind) : kind_(kind) {}
  HttpParser(Kind kind, Limits limits) : kind_(kind), limits_(limits) {}

  // Consumes bytes until the message completes, an error is detected, or
  // `data` is exhausted; returns the number of bytes consumed.
  std::size_t feed(std::string_view data);

  State state() const { return state_; }
  bool complete() const { return state_ == State::kComplete; }
  bool failed() const { return state_ == State::kError; }
  // True once any byte of the current message has been consumed (EOF midway
  // through a started message is a protocol error; EOF between messages is
  // a clean close).
  bool started() const { return started_; }

  // Valid only when complete(); the caller may move the message out.
  HttpRequest& request() { return request_; }
  HttpResponse& response() { return response_; }

  // Ready for the next message on the same connection.
  void reset();

 private:
  bool on_head_complete(std::string_view head);

  Kind kind_;
  Limits limits_;
  State state_ = State::kStartLine;
  bool started_ = false;
  std::string head_;            // bytes of the start line + header block
  std::size_t scan_from_ = 0;   // where the "\r\n\r\n" search resumes
  std::size_t body_expected_ = 0;
  // Response bodies accumulate here (HttpResponse::body is an immutable
  // cache::Body, so incremental appends need owned scratch) and move into
  // response_.body in one shot at completion.
  std::string body_scratch_;
  HttpRequest request_;
  HttpResponse response_;
};

// Strict parsers over a complete message; nullopt on any malformation,
// including a body shorter or longer than Content-Length. (One-shot
// HttpParser runs under the hood.)
std::optional<HttpRequest> parse_request(std::string_view raw);
std::optional<HttpResponse> parse_response(std::string_view raw);

// Failure budget for one client call.
struct CallOptions {
  // Total wall-clock budget across every attempt, including backoff sleeps.
  double deadline_seconds = kDefaultTimeoutSeconds;
  // 1 = single-shot (the data-path contract); >1 enables bounded retry.
  int max_attempts = 1;
  // Jittered exponential backoff between attempts: attempt k sleeps a
  // uniform draw from (0, min(base * 2^k, max)].
  double backoff_base_seconds = 0.02;
  double backoff_max_seconds = 0.5;
  // Seeds the jitter stream; calls with the same seed back off identically.
  std::uint64_t backoff_seed = 0;
};

// The backoff schedule, exposed for tests: uniform in (0, cap] where
// cap = min(base * 2^attempt, max); attempt counts from 0.
double backoff_delay(int attempt, const CallOptions& opts, Rng& rng);

// A persistent client connection: one request/response exchange at a time
// over a stream that survives between exchanges. The building block of the
// per-peer connection pool — and of any client that wants keep-alive.
class ClientConnection {
 public:
  // Connects within `timeout_seconds`; nullopt on refusal/timeout/fault.
  static std::optional<ClientConnection> open(std::uint16_t port,
                                              double timeout_seconds);
  explicit ClientConnection(TcpStream stream);

  // One exchange under an absolute deadline. When `keep_alive` is set the
  // request carries "Connection: keep-alive" and, if the server agrees and
  // the reply framing was byte-exact, the connection is reusable()
  // afterwards. Any transport or framing failure poisons it.
  std::optional<HttpResponse> exchange(
      const HttpRequest& request,
      std::chrono::steady_clock::time_point deadline, bool keep_alive = true);

  bool reusable() const { return reusable_; }
  std::uint16_t port() const { return stream_.peer_port(); }
  std::chrono::steady_clock::time_point last_used() const {
    return last_used_;
  }

 private:
  TcpStream stream_;
  bool reusable_ = false;
  std::chrono::steady_clock::time_point last_used_;
};

// One-shot client exchange on a fresh connection: connect, send, read full
// reply — all within the default budget.
std::optional<HttpResponse> http_call(std::uint16_t port,
                                      const HttpRequest& request);

// Client exchange under an explicit failure budget, each attempt on a fresh
// connection. If `attempts_used` is non-null it receives the number of
// attempts made (>= 1 whenever the deadline admitted at least one). It
// shares its attempt loop with the pooled overload in conn_pool.cpp.
std::optional<HttpResponse> http_call(std::uint16_t port,
                                      const HttpRequest& request,
                                      const CallOptions& opts,
                                      int* attempts_used = nullptr);

}  // namespace bh::proxy
