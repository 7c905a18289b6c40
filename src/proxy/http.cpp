#include "proxy/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace bh::proxy {
namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::optional<std::string_view> find_header(const Headers& headers,
                                            std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return std::string_view(v);
  }
  return std::nullopt;
}

bool keep_alive_header(const Headers& headers) {
  const auto conn = find_header(headers, "Connection");
  return conn && iequals(*conn, "keep-alive");
}

// Parses "Key: Value\r\n..." lines; nullopt on malformation.
std::optional<Headers> parse_headers(std::string_view block) {
  Headers out;
  while (!block.empty()) {
    const std::size_t eol = block.find("\r\n");
    if (eol == std::string_view::npos) return std::nullopt;
    const std::string_view line = block.substr(0, eol);
    block.remove_prefix(eol + 2);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return std::nullopt;
    std::string_view value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
    out.emplace_back(std::string(line.substr(0, colon)), std::string(value));
  }
  return out;
}

// "METHOD SP TARGET SP HTTP/x.y"
bool parse_request_line(std::string_view line, HttpRequest& req) {
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  if (!line.substr(sp2 + 1).starts_with("HTTP/")) return false;
  req.method = std::string(line.substr(0, sp1));
  req.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  return !req.method.empty() && !req.target.empty();
}

// "HTTP/x.y SP STATUS [SP REASON]"
bool parse_status_line(std::string_view line, HttpResponse& resp) {
  if (!line.starts_with("HTTP/")) return false;
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  const std::string_view code = line.substr(
      sp1 + 1, sp2 == std::string_view::npos ? line.size() - sp1 - 1
                                             : sp2 - sp1 - 1);
  const auto [ptr, ec] =
      std::from_chars(code.data(), code.data() + code.size(), resp.status);
  if (ec != std::errc{} || ptr != code.data() + code.size()) return false;
  resp.reason = sp2 == std::string_view::npos
                    ? ""
                    : std::string(line.substr(sp2 + 1));
  return true;
}

void append_headers(std::string& out, const Headers& headers,
                    std::size_t body_size) {
  bool has_length = false;
  for (const auto& [k, v] : headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
    if (iequals(k, "Content-Length")) has_length = true;
  }
  if (!has_length) {
    out += "Content-Length: " + std::to_string(body_size) + "\r\n";
  }
  out += "\r\n";
}

}  // namespace

std::optional<std::string_view> HttpRequest::header(
    std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::string_view> HttpResponse::header(
    std::string_view name) const {
  return find_header(headers, name);
}

bool HttpRequest::wants_keep_alive() const {
  return keep_alive_header(headers);
}

bool HttpResponse::wants_keep_alive() const {
  return keep_alive_header(headers);
}

std::string HttpRequest::path() const {
  const std::size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::optional<std::string> HttpRequest::query_param(
    std::string_view name) const {
  const std::size_t q = target.find('?');
  if (q == std::string::npos) return std::nullopt;
  std::string_view query = std::string_view(target).substr(q + 1);
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? query : query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == name) {
      return std::string(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return std::nullopt;
}

std::string serialize_head(const HttpRequest& r, std::size_t body_size) {
  std::string out = r.method + " " + r.target + " HTTP/1.0\r\n";
  append_headers(out, r.headers, body_size);
  return out;
}

std::string serialize_head(const HttpResponse& r, std::size_t body_size) {
  std::string out =
      "HTTP/1.0 " + std::to_string(r.status) + " " + r.reason + "\r\n";
  append_headers(out, r.headers, body_size);
  return out;
}

std::string serialize(const HttpRequest& r) {
  std::string out = serialize_head(r, r.body.size());
  out += r.body;
  return out;
}

std::string serialize(const HttpResponse& r) {
  std::string out = serialize_head(r, static_cast<std::size_t>(r.body.size()));
  r.body.append_to(out);
  return out;
}

// ---------------------------------------------------------------------------
// the incremental parser
// ---------------------------------------------------------------------------

std::size_t HttpParser::feed(std::string_view data) {
  std::size_t consumed = 0;
  while (consumed < data.size() && state_ != State::kComplete &&
         state_ != State::kError) {
    started_ = true;
    if (state_ == State::kStartLine) {
      head_.append(data.substr(consumed));
      consumed = data.size();
      const std::size_t pos = head_.find("\r\n\r\n", scan_from_);
      if (pos == std::string::npos) {
        // Resume the terminator search where a split "\r\n\r\n" could start.
        scan_from_ = head_.size() < 3 ? 0 : head_.size() - 3;
        if (head_.size() > limits_.max_head_bytes) state_ = State::kError;
        continue;
      }
      const std::size_t head_len = pos + 4;
      // Bytes past the head belong to the body (or the next message): hand
      // them back and re-consume through the body state.
      consumed -= head_.size() - head_len;
      head_.resize(head_len);
      if (head_len > limits_.max_head_bytes || !on_head_complete(head_)) {
        state_ = State::kError;
        break;
      }
      state_ = body_expected_ == 0 ? State::kComplete : State::kBody;
      continue;
    }
    // kBody: append exactly the missing Content-Length bytes. Response
    // bodies accumulate in owned scratch and become the (immutable)
    // cache::Body in one move at completion.
    std::string& body =
        kind_ == Kind::kRequest ? request_.body : body_scratch_;
    const std::size_t need = body_expected_ - body.size();
    const std::size_t take = std::min(need, data.size() - consumed);
    body.append(data.substr(consumed, take));
    consumed += take;
    if (body.size() == body_expected_) {
      if (kind_ == Kind::kResponse) {
        response_.body = cache::Body(std::move(body_scratch_));
        body_scratch_.clear();
      }
      state_ = State::kComplete;
    }
  }
  return consumed;
}

bool HttpParser::on_head_complete(std::string_view head) {
  const std::size_t line_end = head.find("\r\n");
  if (line_end == std::string_view::npos) return false;
  // The header block spans from after the start line up to (and including)
  // the last header's "\r\n", excluding the blank line.
  const std::string_view block =
      head.substr(line_end + 2, head.size() - 2 - (line_end + 2));
  auto headers = parse_headers(block);
  if (!headers) return false;

  const std::string_view line = head.substr(0, line_end);
  if (kind_ == Kind::kRequest) {
    if (!parse_request_line(line, request_)) return false;
    request_.headers = std::move(*headers);
  } else {
    if (!parse_status_line(line, response_)) return false;
    response_.headers = std::move(*headers);
  }

  body_expected_ = 0;
  const Headers& hs =
      kind_ == Kind::kRequest ? request_.headers : response_.headers;
  if (auto cl = find_header(hs, "Content-Length")) {
    const auto parsed = parse_u64(*cl);
    if (!parsed || *parsed > limits_.max_content_length) return false;
    body_expected_ = static_cast<std::size_t>(*parsed);
  }
  return true;
}

void HttpParser::reset() {
  state_ = State::kStartLine;
  started_ = false;
  head_.clear();
  scan_from_ = 0;
  body_expected_ = 0;
  body_scratch_.clear();
  request_ = HttpRequest{};
  response_ = HttpResponse{};
}

std::optional<HttpRequest> parse_request(std::string_view raw) {
  HttpParser parser(HttpParser::Kind::kRequest);
  const std::size_t used = parser.feed(raw);
  if (!parser.complete() || used != raw.size()) return std::nullopt;
  return std::move(parser.request());
}

std::optional<HttpResponse> parse_response(std::string_view raw) {
  HttpParser parser(HttpParser::Kind::kResponse);
  const std::size_t used = parser.feed(raw);
  if (!parser.complete() || used != raw.size()) return std::nullopt;
  return std::move(parser.response());
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::uint16_t> parse_port(std::string_view text) {
  const auto value = parse_u64(text);
  if (!value || *value == 0 || *value > 0xFFFF) return std::nullopt;
  return static_cast<std::uint16_t>(*value);
}

// ---------------------------------------------------------------------------
// client side
// ---------------------------------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

double seconds_until(Clock::time_point deadline) {
  return std::chrono::duration<double>(deadline - Clock::now()).count();
}

}  // namespace

double backoff_delay(int attempt, const CallOptions& opts, Rng& rng) {
  double cap = opts.backoff_base_seconds;
  for (int i = 0; i < attempt && cap < opts.backoff_max_seconds; ++i) {
    cap *= 2;
  }
  cap = std::min(cap, opts.backoff_max_seconds);
  // Uniform in (0, cap]: full jitter avoids synchronized retry bursts, and
  // a strictly positive floor keeps the schedule an actual delay.
  return cap * (1.0 - rng.next_double());
}

std::optional<ClientConnection> ClientConnection::open(std::uint16_t port,
                                                       double timeout_seconds) {
  auto stream = TcpStream::connect(port, timeout_seconds);
  if (!stream) return std::nullopt;
  return ClientConnection(std::move(*stream));
}

ClientConnection::ClientConnection(TcpStream stream)
    : stream_(std::move(stream)), last_used_(Clock::now()) {}

std::optional<HttpResponse> ClientConnection::exchange(
    const HttpRequest& request, Clock::time_point deadline, bool keep_alive) {
  reusable_ = false;
  std::string wire;
  if (keep_alive && !request.header("Connection")) {
    HttpRequest req = request;
    req.headers.emplace_back("Connection", "keep-alive");
    wire = serialize(req);
  } else {
    wire = serialize(request);
  }

  double remaining = seconds_until(deadline);
  if (remaining <= 0 || !stream_.set_timeout(remaining)) return std::nullopt;
  if (!stream_.write_all(wire)) return std::nullopt;
  // Without keep-alive, half-close signals "one exchange" the HTTP/1.0 way.
  if (!keep_alive) stream_.shutdown_write();

  // Re-arm the stream timeout to the remaining budget before every read so
  // a trickling peer can never stretch the call past its deadline.
  HttpParser parser(HttpParser::Kind::kResponse);
  while (!parser.complete()) {
    remaining = seconds_until(deadline);
    if (remaining <= 0 || !stream_.set_timeout(remaining)) return std::nullopt;
    const auto chunk = stream_.read_some(65536);
    if (!chunk) return std::nullopt;
    if (chunk->empty()) return std::nullopt;  // EOF mid-message
    const std::size_t used = parser.feed(*chunk);
    if (parser.failed()) return std::nullopt;
    if (used != chunk->size()) return std::nullopt;  // bytes past the reply
  }
  last_used_ = Clock::now();
  HttpResponse resp = std::move(parser.response());
  // Reusable only when both sides agreed and the framing was byte-exact.
  if (keep_alive && resp.wants_keep_alive()) reusable_ = true;
  return resp;
}

std::optional<HttpResponse> http_call(std::uint16_t port,
                                      const HttpRequest& request) {
  return http_call(port, request, CallOptions{});
}

}  // namespace bh::proxy
