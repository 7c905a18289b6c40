// Tests for the hint-update wire format.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "proto/wire.h"

namespace bh::proto {
namespace {

ObjectId obj(std::uint64_t v) { return ObjectId{v}; }
MachineId mid(std::uint64_t v) { return MachineId{v}; }

// --- wire format ---

TEST(WireTest, UpdateIsTwentyBytesOnTheWire) {
  const std::vector<HintUpdate> one{{Action::kInform, obj(1), mid(2)}};
  EXPECT_EQ(encode_body(one).size(), kUpdateWireBytes);
  const std::vector<HintUpdate> five(5, {Action::kInform, obj(1), mid(2)});
  EXPECT_EQ(encode_body(five).size(), 5 * kUpdateWireBytes);
}

TEST(WireTest, BodyRoundTrip) {
  std::vector<HintUpdate> in;
  for (std::uint64_t i = 1; i <= 20; ++i) {
    in.push_back({i % 2 ? Action::kInform : Action::kInvalidate,
                  obj(i * 0x123456789ULL), mid(i << 32 | 3128)});
  }
  auto body = encode_body(in);
  auto out = decode_body(body);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(WireTest, BodyRejectsBadLengthAndAction) {
  std::vector<std::uint8_t> short_body(19, 0);
  EXPECT_FALSE(decode_body(short_body).has_value());
  std::vector<std::uint8_t> bad_action(20, 0);  // action 0 is invalid
  EXPECT_FALSE(decode_body(bad_action).has_value());
}

TEST(WireTest, PostFramingRoundTrip) {
  std::vector<HintUpdate> in{{Action::kInform, obj(77), mid(88)},
                             {Action::kInvalidate, obj(99), mid(11)}};
  auto message = encode_post(in);
  const std::string text(message.begin(), message.end());
  EXPECT_TRUE(text.starts_with("POST /updates HTTP/1.0\r\n"));
  EXPECT_NE(text.find("Content-Length: 40"), std::string::npos);
  auto out = decode_post(message);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(WireTest, PostRejectsMalformed) {
  std::string bad = "GET /updates HTTP/1.0\r\n\r\n";
  EXPECT_FALSE(decode_post(std::span(
                   reinterpret_cast<const std::uint8_t*>(bad.data()),
                   bad.size()))
                   .has_value());
  auto message = encode_post(std::vector<HintUpdate>{
      {Action::kInform, obj(1), mid(2)}});
  message.pop_back();  // truncate
  EXPECT_FALSE(decode_post(message).has_value());
}

TEST(WireTest, EmptyBatch) {
  auto message = encode_post({});
  auto out = decode_post(message);
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->empty());
}

TEST(WireTest, UpdateKeySeparatesEveryField) {
  const HintUpdate base{Action::kInform, ObjectId{1}, MachineId{2}};
  HintUpdate other_action = base;
  other_action.action = Action::kInvalidate;
  HintUpdate other_object = base;
  other_object.object = ObjectId{3};
  HintUpdate other_location = base;
  other_location.location = MachineId{4};

  EXPECT_EQ(update_key(base), update_key(base));
  EXPECT_NE(update_key(base), update_key(other_action));
  EXPECT_NE(update_key(base), update_key(other_object));
  EXPECT_NE(update_key(base), update_key(other_location));
}

TEST(WireTest, ComplementKeyFlipsOnlyTheAction) {
  const HintUpdate inform{Action::kInform, ObjectId{9}, MachineId{7}};
  HintUpdate invalidate = inform;
  invalidate.action = Action::kInvalidate;
  // The complement of an inform is the matching invalidate, and the mapping
  // is an involution.
  EXPECT_EQ(complement_key(inform), update_key(invalidate));
  EXPECT_EQ(complement_key(invalidate), update_key(inform));
  EXPECT_NE(complement_key(inform), update_key(inform));
}

TEST(WireTest, PairKeyIsActionBlind) {
  const HintUpdate inform{Action::kInform, ObjectId{9}, MachineId{7}};
  HintUpdate invalidate = inform;
  invalidate.action = Action::kInvalidate;
  // An update and its complement share the pair key (the coalescing
  // identity), which is the inform-form update key.
  EXPECT_EQ(pair_key(inform), pair_key(invalidate));
  EXPECT_EQ(pair_key(inform), update_key(inform));
  HintUpdate other_object = inform;
  other_object.object = ObjectId{10};
  EXPECT_NE(pair_key(inform), pair_key(other_object));
  HintUpdate other_location = inform;
  other_location.location = MachineId{8};
  EXPECT_NE(pair_key(inform), pair_key(other_location));
}

TEST(WireTest, PushTargetsRoundTrip) {
  const std::vector<std::uint16_t> ports{8001, 8002, 65535};
  const std::string encoded = encode_push_targets(ports);
  EXPECT_EQ(encoded, "8001,8002,65535");
  const auto decoded = decode_push_targets(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, ports);
}

TEST(WireTest, PushTargetsEmptyListIsEmptyString) {
  EXPECT_EQ(encode_push_targets({}), "");
  const auto decoded = decode_push_targets("");
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->empty());
}

TEST(WireTest, PushTargetsRejectsMalformed) {
  // Every malformed token invalidates the whole header: a receiver must not
  // seed hints from a half-parsed list.
  EXPECT_FALSE(decode_push_targets("8001,").has_value());   // trailing comma
  EXPECT_FALSE(decode_push_targets(",8001").has_value());   // leading comma
  EXPECT_FALSE(decode_push_targets("8001,,8002").has_value());
  EXPECT_FALSE(decode_push_targets("80x1").has_value());    // non-numeric
  EXPECT_FALSE(decode_push_targets("8001,peer").has_value());
  EXPECT_FALSE(decode_push_targets("65536").has_value());   // > port range
  EXPECT_FALSE(decode_push_targets(" 8001").has_value());   // stray space
}

}  // namespace
}  // namespace bh::proto
