// MD5 (RFC 1321), implemented from scratch.
//
// The paper derives node ids from MD5(IP address) and object ids from
// MD5(URL); hint records carry the low 8 bytes of the object's signature.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/types.h"

namespace bh {

class Md5 {
 public:
  using Digest = std::array<std::uint8_t, 16>;

  Md5();

  // Absorb more input. May be called repeatedly.
  void update(const void* data, std::size_t len);
  void update(std::string_view s) { update(s.data(), s.size()); }

  // Finish and return the 16-byte digest. The object must not be reused
  // afterwards without reassignment.
  Digest finish();

  // One-shot convenience.
  static Digest digest(std::string_view s);

  // Lower-case hex rendering of a digest.
  static std::string hex(const Digest& d);

 private:
  void process_block(const std::uint8_t* block);

  std::array<std::uint32_t, 4> state_;
  std::uint64_t total_len_ = 0;
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffer_len_ = 0;
};

// Low 8 bytes of MD5(url), little-endian — the object id the prototype stores
// in its 16-byte hint records.
ObjectId object_id_from_url(std::string_view url);

// Low 8 bytes of MD5(address) — the pseudo-random node id used by the Plaxton
// tree embedding.
std::uint64_t node_id_from_address(std::string_view address);

}  // namespace bh
