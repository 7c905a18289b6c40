// bh::cache::Body — the one body representation every layer moves.
//
// An immutable, cheaply-copyable handle to an object body: a refcounted
// shared_ptr<const std::string>. Copying the Body copies a pointer; the
// bytes are shared between the cache shard, any in-flight responses, and
// any push in progress. The buffer is freed when the last holder drops.
// Disk hits arrive here too, as the buffer DiskStore::get_body read and
// checksummed, so every body a daemon serves is bytes it has verified.
//
// Ownership rules:
//   - A Body is immutable after construction. There is no mutable access to
//     the bytes; "modifying" an object means storing a new Body.
//   - Copies are O(1) and never duplicate the payload. to_string() is the
//     explicit copy for callers that need an owned string (pushes).
//   - Holding a Body is sufficient to keep its bytes readable: the shared
//     buffer cannot be freed under any concurrent cache eviction.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace bh::cache {

// The refcounted in-RAM buffer type shared between the cache and the I/O
// path. Exposed because ShardedLruCache stores and returns it directly.
using BodyPtr = std::shared_ptr<const std::string>;

class Body {
 public:
  Body() noexcept = default;  // empty body
  // Implicit from owned strings: `resp.body = "ok"` and the dozens of
  // string-producing call sites keep working, paying one buffer allocation.
  Body(std::string s)
      : ram_(std::make_shared<const std::string>(std::move(s))) {}
  Body(const char* s) : Body(std::string(s)) {}
  // Zero-copy adoption of an already-shared buffer (cache hits).
  explicit Body(BodyPtr buf) noexcept : ram_(std::move(buf)) {}

  std::uint64_t size() const noexcept { return ram_ ? ram_->size() : 0; }
  bool empty() const noexcept { return size() == 0; }

  const BodyPtr& shared() const noexcept { return ram_; }
  const std::string& str() const noexcept {
    static const std::string kEmpty;
    return ram_ ? *ram_ : kEmpty;
  }
  std::string_view view() const noexcept {
    return ram_ ? std::string_view(*ram_) : std::string_view();
  }

  void append_to(std::string& out) const { out.append(view()); }
  std::string to_string() const { return std::string(view()); }

  // Value comparison. Exact-match overloads for string and C-string keep
  // EXPECT_EQ(resp.body, "...") unambiguous next to the implicit ctors.
  friend bool operator==(const Body& a, const Body& b) {
    return a.ram_ == b.ram_ || a.view() == b.view();
  }
  friend bool operator==(const Body& a, const std::string& s) {
    return a.view() == s;
  }
  friend bool operator==(const Body& a, const char* s) {
    return a.view() == std::string_view(s);
  }
  friend bool operator==(const Body& a, std::string_view s) {
    return a.view() == s;
  }

 private:
  BodyPtr ram_;
};

}  // namespace bh::cache
