// Kill-and-restart integration test for the persistence tier: a child
// process runs a hint-enabled proxy with a disk tier and a periodically
// saved hint image, the parent SIGKILLs it mid-service, restarts the daemon
// in-process over the same on-disk state, and asserts the warm instance
// serves the pre-kill working set from disk + restored hints without going
// back to the origin. A second test arms the atomic-write fault hook to
// prove an interrupted image save is never loaded as a corrupt table.
//
// The fork happens before the test creates any thread (origin, proxies),
// so the child is a clean single-threaded copy; ports are exchanged over
// pipes because both sides bind ephemerally.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/fs_util.h"
#include "hints/hint_cache.h"
#include "proxy/http.h"
#include "proxy/origin_server.h"
#include "proxy/proxy_server.h"

namespace bh::proxy {
namespace {

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bh_restart_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  ::mkdir(dir.c_str(), 0755);
  return dir;
}

int fetch_status(std::uint16_t proxy_port, ObjectId id, std::size_t size,
                 std::string* cache = nullptr) {
  HttpRequest req;
  req.method = "GET";
  req.target = object_path(id, size);
  auto resp = http_call(proxy_port, req);
  if (!resp) return 0;
  if (cache) *cache = std::string(resp->header("X-Cache").value_or(""));
  return resp->status;
}

bool read_port(int fd, std::uint16_t* port) {
  char* p = reinterpret_cast<char*>(port);
  std::size_t left = sizeof *port;
  while (left > 0) {
    const ssize_t n = ::read(fd, p, left);
    if (n <= 0) return false;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool write_port(int fd, std::uint16_t port) {
  const char* p = reinterpret_cast<const char*>(&port);
  std::size_t left = sizeof port;
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n <= 0) return false;
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

// Child body: run a proxy with persistence enabled until SIGKILL arrives.
// Never returns; never touches gtest state.
[[noreturn]] void run_child_proxy(int port_in, int port_out,
                                  const std::string& disk_root,
                                  const std::string& image) {
  std::uint16_t origin_port = 0;
  if (!read_port(port_in, &origin_port)) ::_exit(3);
  try {
    ProxyConfig cfg;
    cfg.name = "victim";
    cfg.origin_port = origin_port;
    cfg.capacity_bytes = 400;  // one 300-byte object: evictions demote fast
    cfg.disk_path = disk_root;
    cfg.disk_fsync = false;
    cfg.hint_image_path = image;
    cfg.hint_image_save_seconds = 0.02;
    ProxyServer proxy(cfg);
    if (!write_port(port_out, proxy.port())) ::_exit(4);
    for (;;) ::pause();  // parent SIGKILLs us; no clean shutdown ever runs
  } catch (...) {
    ::_exit(5);
  }
}

TEST(RestartTest, WarmRestartServesWorkingSetAfterSigkill) {
  const std::string disk_root = fresh_dir("disk") + "/objects";
  const std::string image = fresh_dir("img") + "/hints.img";

  int to_child[2], from_child[2];
  ASSERT_EQ(::pipe(to_child), 0);
  ASSERT_EQ(::pipe(from_child), 0);
  const pid_t pid = ::fork();  // before any thread exists in this process
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(to_child[1]);
    ::close(from_child[0]);
    run_child_proxy(to_child[0], from_child[1], disk_root, image);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);

  OriginServer origin;
  ASSERT_TRUE(write_port(to_child[1], origin.port()));
  std::uint16_t victim_port = 0;
  ASSERT_TRUE(read_port(from_child[0], &victim_port));
  ASSERT_NE(victim_port, 0);

  // A sibling proxy that survives the kill; it advertises its copies to the
  // victim, whose periodic image save persists the hints.
  ProxyConfig cs;
  cs.name = "sibling";
  cs.origin_port = origin.port();
  ProxyServer sibling(cs);
  sibling.add_hint_neighbor(victim_port);

  // Pre-kill working set: 8 objects fetched through the victim (all but the
  // last demote to its disk as each fetch evicts the previous), plus 4 held
  // by the sibling and advertised by hint.
  constexpr std::uint64_t kVictimObjects = 8;
  constexpr std::uint64_t kSiblingObjects = 4;
  constexpr std::size_t kSize = 300;
  for (std::uint64_t k = 1; k <= kVictimObjects; ++k) {
    ASSERT_EQ(fetch_status(victim_port, ObjectId{k}, kSize), 200) << k;
  }
  for (std::uint64_t k = 101; k <= 100 + kSiblingObjects; ++k) {
    ASSERT_EQ(fetch_status(sibling.port(), ObjectId{k}, kSize), 200) << k;
  }
  sibling.flush_hints();

  // Wait for a periodic image save that includes the sibling's informs.
  // Saves are atomic, so a concurrent load sees either a complete older
  // image or this one — never a torn file.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    if (::access(image.c_str(), F_OK) == 0) {
      try {
        if (hints::AssociativeHintCache::load(image).entry_count() >=
            kSiblingObjects) {
          break;
        }
      } catch (const std::exception&) {
        // Racing the very first save; retry.
      }
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "hint image never captured the sibling's informs";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);

  // Restart the daemon in-process over the killed instance's state.
  const std::uint64_t origin_before = origin.requests_served();
  ProxyConfig cfg;
  cfg.name = "reborn";
  cfg.origin_port = origin.port();
  cfg.capacity_bytes = 400;
  cfg.disk_path = disk_root;
  cfg.disk_fsync = false;
  cfg.hint_image_path = image;
  ProxyServer reborn(cfg);

  EXPECT_TRUE(reborn.hint_image_restored());
  EXPECT_GE(reborn.hint_image_entries(), kSiblingObjects);
  ASSERT_NE(reborn.disk(), nullptr);
  // Everything the victim evicted survived the SIGKILL on disk.
  EXPECT_GE(reborn.disk()->object_count(), kVictimObjects - 1);

  // Replay the full working set against the warm instance.
  const std::uint64_t total = kVictimObjects + kSiblingObjects;
  std::uint64_t disk_served = 0, sibling_served = 0;
  for (std::uint64_t k = 1; k <= kVictimObjects; ++k) {
    std::string cache;
    ASSERT_EQ(fetch_status(reborn.port(), ObjectId{k}, kSize, &cache), 200);
    if (cache == "DISK" || cache == "HIT") ++disk_served;
  }
  for (std::uint64_t k = 101; k <= 100 + kSiblingObjects; ++k) {
    std::string cache;
    ASSERT_EQ(fetch_status(reborn.port(), ObjectId{k}, kSize, &cache), 200);
    if (cache == "SIBLING") ++sibling_served;
  }

  // The acceptance bar: at least half the pre-kill working set served warm,
  // i.e. without origin fetches. In practice only the victim's last
  // RAM-resident object (never evicted, so never demoted) goes back.
  const std::uint64_t refetched = origin.requests_served() - origin_before;
  EXPECT_LE(refetched, total / 2);
  EXPECT_GE(disk_served + sibling_served, total - total / 2);
  EXPECT_GE(disk_served, kVictimObjects - 1);
  const obs::MetricsSnapshot s = reborn.metrics_snapshot();
  EXPECT_GE(s.counter("bh.proxy.disk.hits"), kVictimObjects - 1);
  EXPECT_EQ(s.counter("bh.proxy.false_positives"), 0u);
}

TEST(RestartTest, InterruptedImageSaveNeverLoadsCorrupt) {
  const std::string image = fresh_dir("fault") + "/hints.img";
  OriginServer origin;

  ProxyConfig cs;
  cs.name = "feeder";
  cs.origin_port = origin.port();
  ProxyServer feeder(cs);

  ProxyConfig cfg;
  cfg.name = "saver";
  cfg.origin_port = origin.port();
  cfg.hint_image_path = image;
  ProxyServer saver(cfg);
  feeder.add_hint_neighbor(saver.port());
  for (std::uint64_t k = 1; k <= 6; ++k) {
    ASSERT_EQ(fetch_status(feeder.port(), ObjectId{k}, 64), 200);
  }
  feeder.flush_hints();
  saver.save_hint_image();  // good baseline image: 6 hints

  // More hints arrive, then the next save dies mid-write (the SIGKILL-
  // during-save shape, driven deterministically by the fault hook).
  for (std::uint64_t k = 7; k <= 12; ++k) {
    ASSERT_EQ(fetch_status(feeder.port(), ObjectId{k}, 64), 200);
  }
  feeder.flush_hints();
  set_atomic_write_fault([&image](const std::string& target) {
    return target == image ? std::optional<std::size_t>(24) : std::nullopt;
  });
  EXPECT_THROW(saver.save_hint_image(), std::runtime_error);
  set_atomic_write_fault(nullptr);

  // A restart over the interrupted save loads the intact baseline — never
  // a torn table, never a cold start.
  ProxyConfig cfg2 = cfg;
  cfg2.name = "after";
  ProxyServer after(cfg2);
  EXPECT_TRUE(after.hint_image_restored());
  EXPECT_EQ(after.hint_image_entries(), 6u);
}

}  // namespace
}  // namespace bh::proxy
