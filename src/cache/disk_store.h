// On-disk L2 object store — the persistent tier under the RAM
// ShardedLruCache.
//
// The paper's proxies survive restarts without inducing a miss storm; this
// store is what makes that true for the daemon: RAM evictions demote bodies
// here, disk hits promote them back, and a killed-and-restarted process
// rescans the directory tree and serves the same bytes.
//
// On-disk layout:
//   <root>/meta                    format-version stamp (crash-atomic)
//   <root>/<xx>/<16-hex-id>.obj    one file per object
// where <xx> is the low byte of the object id in hex. Object ids come from
// mix64 in the simulator and from the numeric /obj/<hex> request path in
// the daemons; mixed or sequential, their low bytes fill the 256
// directories evenly without any extra hashing, so no directory grows past
// ~capacity/256 entries.
//
// Each .obj file is a small checksummed envelope: a fixed header carrying
// magic, format version, the object id (so a renamed or misplaced file can
// never impersonate another object), the object version, the body length,
// and an FNV-1a checksum of the body, followed by the body bytes. Files are
// written via the atomic_write_file discipline (unique temp + rename), so a
// crash mid-demotion leaves either the old object or the new one, never a
// torn file; leftover `*.tmp.*` files are swept at startup. A file that
// fails validation on read is dropped (unlinked, counted) — the tier is a
// cache, so the only correct response to corruption is a miss.
//
// Eviction is scan-based against a byte budget: an in-memory index maps id
// -> {file bytes, last-access tick}; when a put pushes the total over
// capacity, the index is scanned for the least-recently-accessed entries
// until the store fits. O(n) per eviction batch, which is fine at the access
// rates of a spill tier (every op here already paid a syscall).
//
// Thread-safety: all public methods are safe to call concurrently. File
// payload I/O runs outside the index mutex; only index bookkeeping (and
// victim unlinks) run under it. The eviction callback is invoked under the
// mutex — callers must not re-enter the store from it (the proxy only
// queues a hint invalidation there).
//
// erase() wins over every put of the same id that has not committed yet:
// it stamps an EraseLog (erase_log.h) under the index mutex, and a put —
// queued, mid-write, or about to commit — whose ticket predates the stamp
// is dropped (its file unlinked) instead of entering the index. A
// consistency invalidation therefore cannot be undone by a demotion that
// was already on its way to disk.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "cache/body.h"
#include "cache/erase_log.h"
#include "common/types.h"

namespace bh::cache {

struct DiskStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  std::uint64_t corrupt_dropped = 0;  // failed validation on read
  std::uint64_t io_errors = 0;        // write/replace failures (put kept going)
  std::uint64_t async_queued = 0;     // put_async jobs accepted
  std::uint64_t async_dropped = 0;    // put_async jobs rejected (queue full)
};

class DiskStore {
 public:
  struct Options {
    std::string root;  // directory; created (one level) if absent
    std::uint64_t capacity_bytes = 256ULL << 20;
    // fsync each object file before rename. Surviving SIGKILL never needs
    // it (page cache persists); surviving power loss does.
    bool fsync_writes = true;
    // Bound on put_async's backlog. When a burst of RAM evictions outruns
    // the writer thread, jobs beyond this depth are dropped (counted) — the
    // object simply isn't demoted, which for a cache beats blocking a
    // worker on disk.
    std::size_t demote_queue_depth = 256;
  };

  // Invoked (under the internal mutex) for each entry evicted by the byte
  // budget — never for erase() or corruption drops.
  using EvictFn = std::function<void(ObjectId)>;

  // Scans the tree, rebuilding the index from whatever survived: complete
  // .obj files are adopted (sized from the filesystem, recency reset),
  // stale temp files from interrupted writes are deleted. Throws
  // std::runtime_error if the root cannot be created or the meta stamp
  // names an incompatible layout version.
  explicit DiskStore(Options opts, EvictFn on_evict = {});

  // The store's one read: validates the envelope (magic, layout, key, exact
  // file length) and the body's checksum, and returns the verified bytes as
  // a RAM Body. A hit refreshes recency; a file that fails validation is
  // dropped (unlinked, counted in corrupt_dropped) and reported as a miss.
  std::optional<Body> get_body(ObjectId id);

  // Writes (or replaces) the object crash-atomically, then evicts
  // least-recently-accessed entries as needed to fit the budget. Returns
  // false on I/O failure (the store simply doesn't hold the object), when
  // the envelope alone exceeds the budget, or when erase(id) ran after
  // `fill_ticket` (from ticket(); defaults to one taken on entry).
  bool put(ObjectId id, std::string_view body, Version version = 1,
           std::optional<std::uint64_t> fill_ticket = {});

  // Enqueues the object for a background put() on the writer thread, so a
  // burst of RAM evictions never stalls the caller on disk I/O. Returns
  // false (and counts async_dropped) when the bounded queue is full — the
  // demotion is simply skipped. `done(ok)` runs on the writer thread after
  // the synchronous put completes (ok = its return value); it must not
  // re-enter the store. The writer thread starts lazily on first use. The
  // job carries `fill_ticket` (default: one taken here), so an erase(id)
  // after it cancels the job whether it is still queued or mid-write; it
  // then completes with ok = false.
  bool put_async(ObjectId id, BodyPtr body, Version version = 1,
                 std::function<void(bool ok)> done = {},
                 std::optional<std::uint64_t> fill_ticket = {});

  // Ticket for put()/put_async(): take it before the body is fetched.
  std::uint64_t ticket() const { return erased_.ticket(); }

  // Drains the async queue (every accepted job is written) and joins the
  // writer thread. Idempotent; put_async after this restarts the writer.
  // Callers whose done-callbacks touch external state must stop_async()
  // before that state dies.
  void stop_async();

  // Blocks until the async queue is empty and no job is mid-write — every
  // accepted demotion (and its done-callback) has fully settled. The writer
  // thread stays available. Mainly for tests and quiescence barriers.
  void drain_async() const;

  // Current async backlog (jobs accepted, not yet written).
  std::size_t async_queue_depth() const;

  // Presence in the index (no file I/O, no recency touch).
  bool contains(ObjectId id) const;

  // Removes the object (consistency invalidation) and cancels every put of
  // it still in progress (see the file comment). Returns true if present.
  bool erase(ObjectId id);

  std::uint64_t used_bytes() const;
  std::size_t object_count() const;
  std::uint64_t capacity_bytes() const { return opts_.capacity_bytes; }
  DiskStoreStats stats() const;

  const std::string& root() const { return opts_.root; }

  ~DiskStore();

 private:
  struct IndexEntry {
    std::uint64_t file_bytes = 0;
    std::uint64_t last_access = 0;
  };

  struct DemoteJob {
    ObjectId id;
    BodyPtr body;
    Version version = 1;
    std::function<void(bool ok)> done;
    std::uint64_t ticket = 0;
  };

  std::string path_of(ObjectId id) const;
  void scan_tree();
  // Drops `id` from the index and unlinks its file. Caller holds mu_.
  void drop_locked(ObjectId id, bool unlink_file);
  void evict_to_fit_locked();
  void writer_main();

  Options opts_;
  EvictFn on_evict_;

  mutable std::mutex mu_;
  std::unordered_map<ObjectId, IndexEntry> index_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t tick_ = 0;
  DiskStoreStats stats_;
  EraseLog erased_;  // stamped under mu_

  // Async demotion writer. queue_mu_ never nests with mu_: put_async
  // touches only queue_mu_, and the writer thread releases it before
  // calling put() (which takes mu_).
  mutable std::mutex queue_mu_;
  mutable std::condition_variable queue_cv_;
  std::deque<DemoteJob> queue_;
  std::thread writer_;
  bool writer_stop_ = false;
  bool writer_running_ = false;
  bool job_inflight_ = false;
};

}  // namespace bh::cache
