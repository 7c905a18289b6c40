// Torture tests for the incremental HTTP parser: the reactor feeds it
// whatever recv() produced, so a message split at *any* byte boundary —
// mid-method, mid-header-name, mid-CRLF, mid-body — must parse identically
// to the same bytes in one buffer.
#include <gtest/gtest.h>

#include <string>
#include <string_view>

#include "proxy/http.h"

namespace bh::proxy {
namespace {

std::string request_wire() {
  HttpRequest req;
  req.method = "POST";
  req.target = "/obj/00000000000000aa?size=64";
  req.headers.emplace_back("X-From", "4242");
  req.headers.emplace_back("Connection", "keep-alive");
  req.body = "hello hint batch";
  return serialize(req);
}

std::string response_wire() {
  HttpResponse resp;
  resp.status = 200;
  resp.reason = "OK";
  resp.headers.emplace_back("X-Cache", "HIT");
  resp.body = std::string(137, '\x7f') + std::string("\x00\r\n tail", 8);
  return serialize(resp);
}

void check_request(HttpParser& p) {
  ASSERT_TRUE(p.complete());
  const HttpRequest& r = p.request();
  EXPECT_EQ(r.method, "POST");
  EXPECT_EQ(r.target, "/obj/00000000000000aa?size=64");
  EXPECT_EQ(r.header("x-from").value_or(""), "4242");
  EXPECT_TRUE(r.wants_keep_alive());
  EXPECT_EQ(r.body, "hello hint batch");
}

TEST(HttpParserTest, SplitAtEveryByteBoundary) {
  const std::string wire = request_wire();
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    HttpParser p(HttpParser::Kind::kRequest);
    std::size_t used = p.feed(std::string_view(wire).substr(0, cut));
    EXPECT_EQ(used, cut);
    used = p.feed(std::string_view(wire).substr(cut));
    EXPECT_EQ(used, wire.size() - cut) << "cut at " << cut;
    check_request(p);
  }
}

TEST(HttpParserTest, OneByteAtATime) {
  const std::string wire = request_wire();
  HttpParser p(HttpParser::Kind::kRequest);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    ASSERT_FALSE(p.complete()) << "completed early at byte " << i;
    ASSERT_EQ(p.feed(std::string_view(wire).substr(i, 1)), 1u);
  }
  check_request(p);
  // A complete parser consumes nothing further.
  EXPECT_EQ(p.feed("GET / HTTP/1.0\r\n"), 0u);
}

TEST(HttpParserTest, ResponseSplitAtEveryByteBoundary) {
  const std::string wire = response_wire();
  const std::string expect_body =
      std::string(137, '\x7f') + std::string("\x00\r\n tail", 8);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    HttpParser p(HttpParser::Kind::kResponse);
    p.feed(std::string_view(wire).substr(0, cut));
    p.feed(std::string_view(wire).substr(cut));
    ASSERT_TRUE(p.complete()) << "cut at " << cut;
    EXPECT_EQ(p.response().status, 200);
    EXPECT_EQ(p.response().body, expect_body);
  }
}

TEST(HttpParserTest, PipelinedRequestsConsumeExactlyOneMessage) {
  const std::string one = request_wire();
  std::string wire = one + one + one;
  HttpParser p(HttpParser::Kind::kRequest);
  for (int i = 0; i < 3; ++i) {
    const std::size_t used = p.feed(wire);
    ASSERT_EQ(used, one.size()) << "message " << i;
    check_request(p);
    wire.erase(0, used);
    p.reset();
  }
  EXPECT_TRUE(wire.empty());
}

TEST(HttpParserTest, PipelinedOneByteChunksAcrossMessageBoundary) {
  // Two different requests delivered one byte at a time through the same
  // parser, reset between messages — the reactor's exact usage pattern.
  HttpRequest second;
  second.method = "GET";
  second.target = "/metrics";
  const std::string wire = request_wire() + serialize(second);

  HttpParser p(HttpParser::Kind::kRequest);
  std::string pending;
  int completed = 0;
  for (char ch : wire) {
    pending.push_back(ch);
    const std::size_t used = p.feed(pending);
    pending.erase(0, used);
    if (p.complete()) {
      if (completed == 0) {
        check_request(p);
      } else {
        EXPECT_EQ(p.request().method, "GET");
        EXPECT_EQ(p.request().target, "/metrics");
        EXPECT_FALSE(p.request().wants_keep_alive());
      }
      ++completed;
      p.reset();
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_TRUE(pending.empty());
}

TEST(HttpParserTest, OversizedHeaderBlockRejected) {
  HttpParser::Limits limits;
  limits.max_head_bytes = 128;
  HttpParser p(HttpParser::Kind::kRequest, limits);
  std::string wire = "GET / HTTP/1.0\r\nX-Pad: ";
  wire += std::string(200, 'a');
  wire += "\r\n\r\n";
  p.feed(wire);
  EXPECT_TRUE(p.failed());
  // Terminal until reset: further bytes are not consumed.
  EXPECT_EQ(p.feed("more"), 0u);
  p.reset();
  EXPECT_EQ(p.state(), HttpParser::State::kStartLine);
}

TEST(HttpParserTest, OversizedHeaderRejectedEvenWithoutTerminator) {
  // The limit must trip while the "\r\n\r\n" is still nowhere in sight —
  // an attacker streaming an endless header cannot balloon the buffer.
  HttpParser::Limits limits;
  limits.max_head_bytes = 128;
  HttpParser p(HttpParser::Kind::kRequest, limits);
  const std::string chunk(64, 'a');
  p.feed("GET / HTTP/1.0\r\nX-Pad: ");
  p.feed(chunk);
  p.feed(chunk);
  EXPECT_TRUE(p.failed());
}

TEST(HttpParserTest, BodyLargerThanLimitRejectedUpFront) {
  HttpParser::Limits limits;
  limits.max_content_length = 16;
  HttpParser p(HttpParser::Kind::kRequest, limits);
  p.feed("POST /x HTTP/1.0\r\nContent-Length: 17\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(HttpParserTest, TruncatedContentLengthWaitsForMoreBytes) {
  // A body shorter than Content-Length is not an error — it is an
  // incomplete message: the parser stays in kBody until the bytes arrive
  // (EOF mid-message is the connection layer's call, not the parser's).
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("POST /x HTTP/1.0\r\nContent-Length: 10\r\n\r\n12345");
  EXPECT_EQ(p.state(), HttpParser::State::kBody);
  EXPECT_FALSE(p.complete());
  EXPECT_TRUE(p.started());
  p.feed("67890");
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.request().body, "1234567890");
}

TEST(HttpParserTest, MalformedContentLengthRejected) {
  for (const char* bad : {"abc", "12x", "-5", "99999999999999999999999", ""}) {
    HttpParser p(HttpParser::Kind::kRequest);
    std::string wire = "POST /x HTTP/1.0\r\nContent-Length: ";
    wire += bad;
    wire += "\r\n\r\n";
    p.feed(wire);
    EXPECT_TRUE(p.failed()) << "Content-Length: " << bad;
  }
}

TEST(HttpParserTest, MalformedStartLinesRejected) {
  for (const char* bad :
       {"GET\r\n\r\n", "GET /x\r\n\r\n", "\r\n\r\n", "GET  HTTP/1.0\r\n\r\n"}) {
    HttpParser p(HttpParser::Kind::kRequest);
    p.feed(bad);
    EXPECT_TRUE(p.failed()) << "start line: " << bad;
  }
  HttpParser resp(HttpParser::Kind::kResponse);
  resp.feed("HTTP/1.0 abc Nope\r\n\r\n");
  EXPECT_TRUE(resp.failed());
}

TEST(HttpParserTest, HeaderWithoutColonRejected) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("GET /x HTTP/1.0\r\nNoColonHere\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(HttpParserTest, ZeroLengthBodyCompletesAtHeaderEnd) {
  HttpParser p(HttpParser::Kind::kRequest);
  const std::string wire = "GET /x HTTP/1.0\r\nContent-Length: 0\r\n\r\n";
  EXPECT_EQ(p.feed(wire), wire.size());
  ASSERT_TRUE(p.complete());
  EXPECT_TRUE(p.request().body.empty());
}

TEST(HttpParserTest, StartedFlagTracksMessageBoundaries) {
  HttpParser p(HttpParser::Kind::kRequest);
  EXPECT_FALSE(p.started());
  p.feed("G");
  EXPECT_TRUE(p.started());
  p.feed("ET / HTTP/1.0\r\n\r\n");
  EXPECT_TRUE(p.complete());
  p.reset();
  EXPECT_FALSE(p.started());
}

TEST(HttpParserTest, OneShotParsersRejectTrailingBytes) {
  const std::string wire = request_wire();
  EXPECT_TRUE(parse_request(wire).has_value());
  EXPECT_FALSE(parse_request(wire + "x").has_value());
  EXPECT_FALSE(parse_request(wire.substr(0, wire.size() - 1)).has_value());
}

TEST(HttpParserTest, SerializeHeadSuppliesContentLength) {
  HttpResponse resp;
  resp.body = "12345";
  const std::string head = serialize_head(resp, resp.body.size());
  EXPECT_NE(head.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
  // The head alone plus the body round-trips through the parser.
  HttpParser p(HttpParser::Kind::kResponse);
  p.feed(head);
  p.feed(resp.body.str());
  ASSERT_TRUE(p.complete());
  EXPECT_EQ(p.response().body, "12345");
}

}  // namespace
}  // namespace bh::proxy
