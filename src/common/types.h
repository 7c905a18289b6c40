// Core identifier and unit types shared by every module.
//
// The paper identifies objects by the MD5 signature of their URL truncated to
// 64 bits and machines by an 8-byte (IP, port) identifier; we mirror both as
// strong typedefs so object ids, machine ids, and plain integers cannot be
// mixed up silently.
#pragma once

#include <cstdint>
#include <functional>

namespace bh {

// 64-bit object identifier (in the prototype: low 8 bytes of MD5(URL)).
struct ObjectId {
  std::uint64_t value = 0;

  friend constexpr bool operator==(ObjectId, ObjectId) = default;
  friend constexpr auto operator<=>(ObjectId, ObjectId) = default;
};

// 64-bit machine identifier (in the prototype: IPv4 address + port).
struct MachineId {
  std::uint64_t value = 0;

  friend constexpr bool operator==(MachineId, MachineId) = default;
  friend constexpr auto operator<=>(MachineId, MachineId) = default;
};

// Dense index of a cache node within a simulated topology (0-based).
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kInvalidNode = static_cast<NodeIndex>(-1);

// Dense index of a client within a simulated topology (0-based).
using ClientIndex = std::uint32_t;

// Object version; bumped on every server-side modification.
using Version = std::uint32_t;

// Simulated time in seconds since trace start.
using SimTime = double;

// Milliseconds of response latency (the unit of every figure in the paper).
using Millis = double;

constexpr std::uint64_t operator""_KB(unsigned long long v) { return v << 10; }
constexpr std::uint64_t operator""_MB(unsigned long long v) { return v << 20; }
constexpr std::uint64_t operator""_GB(unsigned long long v) { return v << 30; }

// Sentinel for "no capacity limit" (infinite-disk configurations).
inline constexpr std::uint64_t kUnlimitedBytes = static_cast<std::uint64_t>(-1);

}  // namespace bh

template <>
struct std::hash<bh::ObjectId> {
  std::size_t operator()(bh::ObjectId id) const noexcept {
    // Object ids are already uniform (mix64 in the simulator, the numeric
    // /obj/<hex> path in the daemons); identity is fine.
    return static_cast<std::size_t>(id.value);
  }
};

template <>
struct std::hash<bh::MachineId> {
  std::size_t operator()(bh::MachineId id) const noexcept {
    return static_cast<std::size_t>(id.value);
  }
};
