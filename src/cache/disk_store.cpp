#include "cache/disk_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "common/fs_util.h"
#include "common/hash.h"

namespace bh::cache {

namespace {

// "bh.disk\0" as a little-endian u64.
constexpr std::uint64_t kObjMagic = 0x006b7369642e6862ULL;
constexpr std::uint32_t kLayoutVersion = 1;

// Fixed-size envelope header preceding the body in every .obj file. The key
// is stored so a renamed/misplaced file can never serve another object's
// bytes; the checksum catches torn or bit-rotted bodies.
struct ObjHeader {
  std::uint64_t magic = 0;
  std::uint32_t layout = 0;
  std::uint32_t obj_version = 0;
  std::uint64_t key = 0;
  std::uint64_t body_len = 0;
  std::uint64_t checksum = 0;  // fnv1a64 over the body bytes
};
static_assert(sizeof(ObjHeader) == 40);

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf, 16);
}

bool parse_hex16(std::string_view s, std::uint64_t* out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  *out = v;
  return true;
}

// Reads exactly `len` bytes at `off`; false on a short file or read error.
bool pread_full(int fd, void* buf, std::size_t len, std::uint64_t off) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pread(fd, static_cast<char*>(buf) + done, len - done,
                              static_cast<off_t>(off + done));
    if (n > 0) {
      done += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool ensure_dir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0) return true;
  return errno == EEXIST;
}

}  // namespace

DiskStore::DiskStore(Options opts, EvictFn on_evict)
    : opts_(std::move(opts)), on_evict_(std::move(on_evict)) {
  if (opts_.root.empty()) {
    throw std::runtime_error("disk store: empty root path");
  }
  if (!ensure_dir(opts_.root)) {
    throw std::runtime_error("disk store: cannot create root: " + opts_.root +
                             ": " + std::strerror(errno));
  }
  // The meta stamp pins the on-disk layout version. An existing stamp from
  // a different layout refuses to open rather than misreading entries; the
  // stamp itself is written with the same crash-atomic helper the hint
  // image uses, so it can never be observed torn.
  const std::string meta_path = opts_.root + "/meta";
  std::FILE* meta = std::fopen(meta_path.c_str(), "rb");
  if (meta) {
    char buf[64] = {};
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, meta);
    std::fclose(meta);
    const std::string want = "bh.disk.v" + std::to_string(kLayoutVersion);
    if (std::string(buf, n).rfind(want, 0) != 0) {
      throw std::runtime_error("disk store: incompatible layout in " +
                               meta_path);
    }
  } else {
    std::string err;
    if (!atomic_write_file(meta_path,
                           "bh.disk.v" + std::to_string(kLayoutVersion) + "\n",
                           &err, opts_.fsync_writes)) {
      throw std::runtime_error("disk store: cannot stamp meta: " + err);
    }
  }
  scan_tree();
}

std::string DiskStore::path_of(ObjectId id) const {
  // Low byte of the id picks one of 256 buckets; the hex id is the file
  // name, so the id is recoverable from the path alone.
  char dir[3];
  std::snprintf(dir, sizeof dir, "%02x",
                static_cast<unsigned>(id.value & 0xff));
  return opts_.root + "/" + dir + "/" + hex16(id.value) + ".obj";
}

void DiskStore::scan_tree() {
  DIR* root = ::opendir(opts_.root.c_str());
  if (!root) {
    throw std::runtime_error("disk store: cannot open root: " + opts_.root);
  }
  while (dirent* sub = ::readdir(root)) {
    const std::string name = sub->d_name;
    if (name.size() != 2) continue;  // skips ".", "..", "meta"
    const std::string dir_path = opts_.root + "/" + name;
    DIR* dir = ::opendir(dir_path.c_str());
    if (!dir) continue;
    while (dirent* ent = ::readdir(dir)) {
      const std::string fname = ent->d_name;
      const std::string fpath = dir_path + "/" + fname;
      if (fname.find(".tmp.") != std::string::npos) {
        // Debris from a write interrupted by a crash: the rename never
        // happened, so the final file (if any) is intact — just sweep.
        ::unlink(fpath.c_str());
        continue;
      }
      if (fname.size() != 20 || fname.rfind(".obj") != 16) continue;
      std::uint64_t key = 0;
      if (!parse_hex16(std::string_view(fname).substr(0, 16), &key)) continue;
      struct stat st{};
      if (::stat(fpath.c_str(), &st) != 0 || !S_ISREG(st.st_mode)) continue;
      // Adopt by name and size; content is validated on every get_body,
      // so a restart over a large tier stays cheap. Recency restarts cold.
      index_[ObjectId{key}] =
          IndexEntry{static_cast<std::uint64_t>(st.st_size), 0};
      used_bytes_ += static_cast<std::uint64_t>(st.st_size);
    }
    ::closedir(dir);
  }
  ::closedir(root);
}

std::optional<Body> DiskStore::get_body(ObjectId id) {
  const std::string path = path_of(id);
  {
    std::lock_guard lock(mu_);
    auto it = index_.find(id);
    if (it == index_.end()) {
      ++stats_.misses;
      return std::nullopt;
    }
    it->second.last_access = ++tick_;
  }

  // Payload I/O outside the lock: a concurrent erase/replace is benign —
  // an already-opened file reads its old complete contents, a vanished one
  // reads as a miss.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    std::lock_guard lock(mu_);
    drop_locked(id, /*unlink_file=*/false);
    ++stats_.misses;
    return std::nullopt;
  }
  // The header must name this object, and the file must end exactly at the
  // body: trailing or missing bytes mean a foreign or damaged file. The size
  // check comes before the body is allocated, so a damaged length field can
  // never ask for more memory than the file holds.
  ObjHeader h;
  struct stat st{};
  std::string body;
  bool ok = pread_full(fd, &h, sizeof h, 0) && h.magic == kObjMagic &&
            h.layout == kLayoutVersion && h.key == id.value &&
            ::fstat(fd, &st) == 0 &&
            static_cast<std::uint64_t>(st.st_size) >= sizeof h &&
            static_cast<std::uint64_t>(st.st_size) - sizeof h == h.body_len;
  if (ok) {
    body.resize(static_cast<std::size_t>(h.body_len));
    ok = pread_full(fd, body.data(), body.size(), sizeof h) &&
         fnv1a64(body) == h.checksum;
  }
  ::close(fd);

  std::lock_guard lock(mu_);
  if (!ok) {
    // Corruption (torn write is impossible by construction, so this is
    // bit rot or tampering): drop the file, report a miss.
    drop_locked(id, /*unlink_file=*/true);
    ++stats_.corrupt_dropped;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return Body(std::move(body));
}

bool DiskStore::put(ObjectId id, std::string_view body, Version version,
                    std::optional<std::uint64_t> fill_ticket) {
  const std::uint64_t ticket = fill_ticket.value_or(erased_.ticket());
  const std::uint64_t file_bytes = sizeof(ObjHeader) + body.size();
  if (file_bytes > opts_.capacity_bytes) return false;
  // Already cancelled (a queued demotion whose object was erased meanwhile):
  // skip the write. The check that matters is the one at commit.
  if (erased_.erased_since(id, ticket)) return false;

  ObjHeader h;
  h.magic = kObjMagic;
  h.layout = kLayoutVersion;
  h.obj_version = version;
  h.key = id.value;
  h.body_len = body.size();
  h.checksum = fnv1a64(body);
  std::string image;
  image.reserve(static_cast<std::size_t>(file_bytes));
  image.append(reinterpret_cast<const char*>(&h), sizeof h);
  image.append(body.data(), body.size());

  const std::string path = path_of(id);
  // The bucket directory is created lazily; the extra mkdir on the common
  // path is one cheap EEXIST syscall.
  ensure_dir(path.substr(0, opts_.root.size() + 3));
  std::string err;
  if (!atomic_write_file(path, image, &err, opts_.fsync_writes)) {
    std::lock_guard lock(mu_);
    ++stats_.io_errors;
    return false;
  }

  std::lock_guard lock(mu_);
  if (erased_.erased_since(id, ticket)) {
    // erase(id) ran while the bytes were being written: it wins. The file
    // now at the path may be these stale bytes, so the object goes entirely.
    drop_locked(id, /*unlink_file=*/false);
    ::unlink(path.c_str());
    return false;
  }
  auto [it, inserted] = index_.try_emplace(id);
  if (!inserted) used_bytes_ -= it->second.file_bytes;
  it->second.file_bytes = file_bytes;
  it->second.last_access = ++tick_;
  used_bytes_ += file_bytes;
  ++stats_.puts;
  evict_to_fit_locked();
  return true;
}

bool DiskStore::contains(ObjectId id) const {
  std::lock_guard lock(mu_);
  return index_.contains(id);
}

bool DiskStore::erase(ObjectId id) {
  std::lock_guard lock(mu_);
  erased_.note_erase(id);
  if (!index_.contains(id)) return false;
  drop_locked(id, /*unlink_file=*/true);
  return true;
}

void DiskStore::drop_locked(ObjectId id, bool unlink_file) {
  auto it = index_.find(id);
  if (it == index_.end()) return;
  used_bytes_ -= it->second.file_bytes;
  index_.erase(it);
  if (unlink_file) ::unlink(path_of(id).c_str());
}

void DiskStore::evict_to_fit_locked() {
  // Scan-based eviction: collect the least-recently-accessed entries until
  // the store fits. One O(n log n) pass per over-budget put — the spill
  // tier's ops are syscall-bound anyway, and the batch usually evicts many
  // entries at once.
  if (used_bytes_ <= opts_.capacity_bytes) return;
  std::vector<std::pair<std::uint64_t, ObjectId>> by_age;
  by_age.reserve(index_.size());
  for (const auto& [id, e] : index_) {
    by_age.emplace_back(e.last_access, id);
  }
  std::sort(by_age.begin(), by_age.end());
  for (const auto& [age, id] : by_age) {
    if (used_bytes_ <= opts_.capacity_bytes) break;
    drop_locked(id, /*unlink_file=*/true);
    ++stats_.evictions;
    if (on_evict_) on_evict_(id);
  }
}

std::uint64_t DiskStore::used_bytes() const {
  std::lock_guard lock(mu_);
  return used_bytes_;
}

std::size_t DiskStore::object_count() const {
  std::lock_guard lock(mu_);
  return index_.size();
}

DiskStoreStats DiskStore::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

bool DiskStore::put_async(ObjectId id, BodyPtr body, Version version,
                          std::function<void(bool ok)> done,
                          std::optional<std::uint64_t> fill_ticket) {
  if (!body) return false;
  const std::uint64_t ticket = fill_ticket.value_or(erased_.ticket());
  {
    std::lock_guard lock(queue_mu_);
    if (queue_.size() >= opts_.demote_queue_depth) {
      // Backpressure by shedding: a cache that can't keep up with demotion
      // just forgets the victim. The counter makes the shedding visible.
      std::lock_guard slock(mu_);
      ++stats_.async_dropped;
      return false;
    }
    if (!writer_running_) {
      if (writer_.joinable()) writer_.join();  // reap a stopped writer
      writer_stop_ = false;
      writer_running_ = true;
      writer_ = std::thread([this] { writer_main(); });
    }
    queue_.push_back(
        DemoteJob{id, std::move(body), version, std::move(done), ticket});
  }
  queue_cv_.notify_one();
  {
    std::lock_guard lock(mu_);
    ++stats_.async_queued;
  }
  return true;
}

void DiskStore::writer_main() {
  for (;;) {
    DemoteJob job;
    {
      std::unique_lock lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return writer_stop_ || !queue_.empty(); });
      // Drain before stopping: every accepted job is written, so a clean
      // shutdown loses nothing and warm restarts see the full tier.
      if (queue_.empty()) {
        writer_running_ = false;
        queue_cv_.notify_all();
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      job_inflight_ = true;
    }
    const bool ok = put(job.id, *job.body, job.version, job.ticket);
    if (job.done) job.done(ok);
    {
      std::lock_guard lock(queue_mu_);
      job_inflight_ = false;
    }
    queue_cv_.notify_all();
  }
}

void DiskStore::drain_async() const {
  std::unique_lock lock(queue_mu_);
  // The in-flight flag clears only after the job's completion callback has
  // run, so a returned drain means every accepted demotion — counters
  // included — is fully settled.
  queue_cv_.wait(lock, [this] { return queue_.empty() && !job_inflight_; });
}

void DiskStore::stop_async() {
  std::thread writer;
  {
    std::lock_guard lock(queue_mu_);
    writer_stop_ = true;
    writer = std::move(writer_);
  }
  queue_cv_.notify_all();
  if (writer.joinable()) writer.join();
}

std::size_t DiskStore::async_queue_depth() const {
  std::lock_guard lock(queue_mu_);
  return queue_.size();
}

DiskStore::~DiskStore() { stop_async(); }

}  // namespace bh::cache
