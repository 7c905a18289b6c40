// Trace records.
//
// A trace is a time-ordered stream of client requests interleaved with
// server-side modification events. Requests mirror what a proxy log line
// carries (client, URL hash, size, cachability); Modify events are the
// generator's stand-in for the last-modified-time information the paper
// extracts from the DEC traces, and drive strong-consistency invalidations
// and the update-push algorithm. An object's version changes only at its
// Modify events, which drop every cached copy, so a cached copy is always
// the latest version.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace bh::trace {

enum class RecordType : std::uint8_t {
  kRequest = 0,
  kModify = 1,
};

struct Record {
  SimTime time = 0;       // seconds since trace start
  ObjectId object;
  ClientIndex client = 0; // requests only; unused for modifies
  std::uint32_t size = 0; // object size in bytes
  Version version = 0;    // object version as of this event
  RecordType type = RecordType::kRequest;
  bool uncachable = false;
  bool error = false;
};

}  // namespace bh::trace
