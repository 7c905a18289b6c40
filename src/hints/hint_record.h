// The prototype's hint record (Section 3.2.1).
//
// A hint is an <object, node> pair naming the nearest known copy. The
// prototype stores hints as small fixed-sized records — an 8-byte URL hash
// and an 8-byte machine identifier (IPv4 address + port) — so a cache can
// index two orders of magnitude more data than it stores, and propagating a
// hint costs 20 bytes on the wire.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace bh::hints {

struct HintRecord {
  std::uint64_t key = 0;       // object id; 0 = invalid entry
  std::uint64_t location = 0;  // machine identifier (IP address + port)
};
static_assert(sizeof(HintRecord) == 16, "hint records are 16 bytes");

// The key value reserved to mark an empty slot.
inline constexpr std::uint64_t kInvalidHintKey = 0;

// Packs a simulated node index into a prototype-style machine identifier
// (10.x.y.z:3128) and back. Keeps simulated ids and wire ids interchangeable.
constexpr MachineId machine_of_node(NodeIndex node) {
  const std::uint32_t ip = 0x0A000000u | (node & 0x00FFFFFFu);
  const std::uint32_t port = 3128;
  return MachineId{(static_cast<std::uint64_t>(ip) << 32) | port};
}

constexpr NodeIndex node_of_machine(MachineId m) {
  return static_cast<NodeIndex>((m.value >> 32) & 0x00FFFFFFu);
}

}  // namespace bh::hints
