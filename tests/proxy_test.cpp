// End-to-end tests of the proxy daemon layer over real loopback TCP: HTTP
// parsing, the origin server, cache-to-cache transfers driven by hints, the
// false-positive error path, eviction advertisements, batch exchange, and —
// driven by the deterministic FaultInjector — every failure path: dead and
// resetting peers, a downed origin, oversized objects, cyclic hint
// topologies, and quarantine/rejoin.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "proto/wire.h"
#include "proxy/fault_injector.h"
#include "proxy/http.h"
#include "proxy/origin_server.h"
#include "proxy/proxy_server.h"

namespace bh::proxy {
namespace {

// --- HTTP layer ---

TEST(HttpTest, RequestRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/obj/00000000000000ff?size=10";
  req.headers.emplace_back("X-No-Forward", "1");
  req.body = "hello";
  const std::string wire = serialize(req);
  auto back = parse_request(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->method, "GET");
  EXPECT_EQ(back->target, req.target);
  EXPECT_EQ(back->body, "hello");
  EXPECT_TRUE(back->header("x-no-forward").has_value());
  EXPECT_EQ(back->path(), "/obj/00000000000000ff");
  EXPECT_EQ(back->query_param("size"), "10");
  EXPECT_EQ(back->query_param("missing"), std::nullopt);
}

TEST(HttpTest, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 404;
  resp.reason = "Not Cached";
  resp.headers.emplace_back("X-Served-By", "p1");
  resp.body = std::string(1000, 'x');
  auto back = parse_response(serialize(resp));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, 404);
  EXPECT_EQ(back->reason, "Not Cached");
  EXPECT_EQ(back->body.size(), 1000u);
  EXPECT_EQ(back->header("x-served-by"), "p1");
}

TEST(HttpTest, ParserRejectsMalformed) {
  EXPECT_FALSE(parse_request("garbage").has_value());
  EXPECT_FALSE(parse_request("GET /x\r\n\r\n").has_value());  // no version
  EXPECT_FALSE(
      parse_request("GET /x HTTP/1.0\r\nContent-Length: 5\r\n\r\nab")
          .has_value());  // short body
  EXPECT_FALSE(
      parse_request("GET /x HTTP/1.0\r\nBadHeader\r\n\r\n").has_value());
  EXPECT_FALSE(parse_response("HTTP/1.0 abc Bad\r\n\r\n").has_value());
}

TEST(HttpTest, BinaryBodySurvives) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/updates";
  req.body = std::string("\x00\x01\xff\r\n\r\n\x02", 8);
  auto back = parse_request(serialize(req));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->body, req.body);
}

// --- origin body determinism ---

TEST(OriginBodyTest, DeterministicAndVersionSensitive) {
  const ObjectId id{0x1234};
  EXPECT_EQ(origin_body(id, 1, 100), origin_body(id, 1, 100));
  EXPECT_NE(origin_body(id, 1, 100), origin_body(id, 2, 100));
  EXPECT_NE(origin_body(id, 1, 100), origin_body(ObjectId{0x1235}, 1, 100));
  EXPECT_EQ(origin_body(id, 1, 100).size(), 100u);
}

TEST(OriginBodyTest, PathRoundTrip) {
  const ObjectId id{0xDEADBEEFCAFE1234ULL};
  const std::string path = object_path(id, 512);
  EXPECT_EQ(path, "/obj/deadbeefcafe1234?size=512");
  auto back = object_from_path("/obj/deadbeefcafe1234");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, id);
  EXPECT_FALSE(object_from_path("/obj/short").has_value());
  EXPECT_FALSE(object_from_path("/other").has_value());
}

// --- live servers ---

// Fetch through a proxy and return (status, X-Cache, body).
struct FetchResult {
  int status = 0;
  std::string cache;
  std::string body;
};

FetchResult fetch(std::uint16_t proxy_port, ObjectId id, std::size_t size) {
  HttpRequest req;
  req.method = "GET";
  req.target = object_path(id, size);
  auto resp = http_call(proxy_port, req);
  FetchResult r;
  if (!resp) return r;
  r.status = resp->status;
  if (auto c = resp->header("X-Cache")) r.cache = std::string(*c);
  r.body = resp->body.to_string();
  return r;
}

// POSTs `proxy` one /updates batch sent as if from daemon `from`, whose
// updates have already travelled `hops` relay hops.
void post_updates(std::uint16_t proxy_port,
                  std::span<const proto::HintUpdate> updates,
                  std::uint16_t from, int hops = 0) {
  const auto body = proto::encode_body(updates);
  HttpRequest post;
  post.method = "POST";
  post.target = "/updates";
  post.headers.emplace_back("X-From", std::to_string(from));
  post.headers.emplace_back("X-Hop", std::to_string(hops));
  post.body.assign(reinterpret_cast<const char*>(body.data()), body.size());
  auto resp = http_call(proxy_port, post);
  ASSERT_TRUE(resp.has_value());
  ASSERT_EQ(resp->status, 200);
}

// POSTs `proxy` a one-update batch about `id` at `location`, sent as if
// from `location` itself — the wire-level way to tell a daemon about an
// arbitrary (possibly dead) peer.
void post_update(std::uint16_t proxy_port, proto::Action action, ObjectId id,
                 std::uint16_t location, int hops = 0) {
  const proto::HintUpdate update{action, id, MachineId{location}};
  post_updates(proxy_port, std::span(&update, 1), location, hops);
}

// The daemon counter `bh.proxy.<name>`, as `GET /metrics` reports it.
std::uint64_t counter(const ProxyServer& proxy, const std::string& name) {
  return proxy.metrics_snapshot().counter("bh.proxy." + name);
}

TEST(OriginServerTest, ServesDeterministicContent) {
  OriginServer origin;
  HttpRequest req;
  req.method = "GET";
  req.target = object_path(ObjectId{42}, 256);
  auto resp = http_call(origin.port(), req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->body, origin_body(ObjectId{42}, 1, 256));
  EXPECT_EQ(resp->header("X-Version"), "1");
  origin.modify(ObjectId{42});
  resp = http_call(origin.port(), req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, origin_body(ObjectId{42}, 2, 256));
  EXPECT_EQ(origin.requests_served(), 2u);
}

TEST(OriginServerTest, RejectsUnknownPaths) {
  OriginServer origin;
  HttpRequest req;
  req.method = "GET";
  req.target = "/nope";
  auto resp = http_call(origin.port(), req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 404);
}

TEST(ProxyServerTest, MissThenLocalHit) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);

  const ObjectId id{7};
  auto first = fetch(proxy.port(), id, 100);
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(first.cache, "MISS");
  EXPECT_EQ(first.body, origin_body(id, 1, 100));

  auto second = fetch(proxy.port(), id, 100);
  EXPECT_EQ(second.cache, "HIT");
  EXPECT_EQ(second.body, first.body);
  EXPECT_EQ(origin.requests_served(), 1u);

  EXPECT_EQ(counter(proxy, "requests"), 2u);
  EXPECT_EQ(counter(proxy, "local_hits"), 1u);
  EXPECT_EQ(counter(proxy, "origin_fetches"), 1u);
}

TEST(ProxyServerTest, HintEnablesCacheToCacheTransfer) {
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  ProxyServer b(cb);

  const ObjectId id{9};
  // b fetches from the origin and advertises its copy to its neighbour a.
  EXPECT_EQ(fetch(b.port(), id, 64).cache, "MISS");
  b.flush_hints();

  // a now holds a hint naming b: its first fetch is a SIBLING transfer.
  auto via_a = fetch(a.port(), id, 64);
  EXPECT_EQ(via_a.status, 200);
  EXPECT_EQ(via_a.cache, "SIBLING");
  EXPECT_EQ(via_a.body, origin_body(id, 1, 64));
  EXPECT_EQ(origin.requests_served(), 1u);  // the origin was hit exactly once

  EXPECT_EQ(counter(a, "sibling_hits"), 1u);
  EXPECT_EQ(counter(b, "peer_serves"), 1u);
}

TEST(ProxyServerTest, FalsePositiveCostsOneProbeThenOrigin) {
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  ProxyServer b(cb);

  const ObjectId id{11};
  fetch(b.port(), id, 64);
  b.flush_hints();          // a now has the hint
  b.invalidate(id);         // ... which is now stale

  auto via_a = fetch(a.port(), id, 64);
  EXPECT_EQ(via_a.status, 200);
  EXPECT_EQ(via_a.cache, "MISS");  // fell through to the origin
  EXPECT_EQ(counter(a, "false_positives"), 1u);
  EXPECT_EQ(counter(b, "peer_rejects"), 1u);
  // The bogus hint is gone: the next a-side fetch is a plain local hit.
  EXPECT_EQ(fetch(a.port(), id, 64).cache, "HIT");
}

TEST(ProxyServerTest, EvictionAdvertisesInvalidation) {
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  cb.capacity_bytes = 150;  // tiny: the second object evicts the first
  ProxyServer b(cb);

  const ObjectId first{21}, second{22};
  fetch(b.port(), first, 100);
  fetch(b.port(), second, 100);  // evicts `first`
  b.flush_hints();

  // a heard both the inform and the invalidate for `first`: no stale hint,
  // so a's fetch goes straight to the origin without probing b.
  auto via_a = fetch(a.port(), first, 100);
  EXPECT_EQ(via_a.cache, "MISS");
  EXPECT_EQ(counter(a, "false_positives"), 0u);
  // And the hint for `second` still works.
  EXPECT_EQ(fetch(a.port(), second, 100).cache, "SIBLING");
}

TEST(ProxyServerTest, InvalidateForOtherLocationKeepsHint) {
  OriginServer origin;
  ProxyConfig cd;
  cd.name = "d";
  cd.origin_port = origin.port();
  ProxyServer d(cd);
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ca.hint_neighbors = {d.port()};
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  ProxyServer b(cb);

  const ObjectId id{23};
  EXPECT_EQ(fetch(a.port(), id, 64).cache, "MISS");
  a.flush_hints();  // d hints the object at a

  // An invalidate names the copy that left. One for a copy at b says
  // nothing about a's copy, so d's hint must survive it.
  post_update(d.port(), proto::Action::kInvalidate, id, b.port());
  EXPECT_EQ(counter(d, "updates_received"), 2u);
  EXPECT_EQ(fetch(d.port(), id, 64).cache, "SIBLING");
  EXPECT_EQ(origin.requests_served(), 1u);
}

TEST(ProxyServerTest, DistanceOracleKeepsNearestHint) {
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  ProxyServer b(cb);
  ProxyConfig cd;
  cd.name = "d";
  cd.origin_port = origin.port();
  const std::uint64_t near = b.port();
  cd.distance = [near](std::uint64_t machine) {
    return machine == near ? 1.0 : 10.0;
  };
  ProxyServer d(cd);
  a.add_hint_neighbor(d.port());
  b.add_hint_neighbor(d.port());

  // Both a and b cache each object and advertise it to d, far copy first
  // for one object and near copy first for the other. Either way d keeps
  // the hint to b, the nearer copy.
  const ObjectId far_first{24}, near_first{25};
  for (ProxyServer* p : {&a, &b}) {
    EXPECT_EQ(fetch(p->port(), far_first, 64).cache, "MISS");
    p->flush_hints();
  }
  for (ProxyServer* p : {&b, &a}) {
    EXPECT_EQ(fetch(p->port(), near_first, 64).cache, "MISS");
    p->flush_hints();
  }

  EXPECT_EQ(fetch(d.port(), far_first, 64).cache, "SIBLING");
  EXPECT_EQ(fetch(d.port(), near_first, 64).cache, "SIBLING");
  EXPECT_EQ(counter(b, "peer_serves"), 2u);
  EXPECT_EQ(counter(a, "peer_serves"), 0u);
}

// --- disk tier: demotion, promotion, restart ---

// Fresh per-test directory for a daemon's persistent state.
std::string fresh_state_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/bh_proxy_" + name;
  std::string cmd = "rm -rf '" + dir + "' && mkdir -p '" + dir + "'";
  [[maybe_unused]] int rc = std::system(cmd.c_str());
  return dir;
}

TEST(ProxyDiskTierTest, DemotesEvictionsAndServesFromDisk) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.capacity_bytes = 400;  // one 300-byte object at a time in RAM
  cfg.disk_path = fresh_state_dir("demote");
  cfg.disk_fsync = false;
  ProxyServer proxy(cfg);
  ASSERT_NE(proxy.disk(), nullptr);

  const ObjectId first{31}, second{32};
  EXPECT_EQ(fetch(proxy.port(), first, 300).cache, "MISS");
  EXPECT_EQ(fetch(proxy.port(), second, 300).cache, "MISS");  // evicts `first`
  proxy.disk()->drain_async();  // demotion is asynchronous; settle it
  EXPECT_EQ(counter(proxy, "disk.demotions"), 1u);
  EXPECT_EQ(proxy.disk()->object_count(), 1u);

  // The evicted object comes back from the L2 tier, not the origin.
  auto back = fetch(proxy.port(), first, 300);
  EXPECT_EQ(back.status, 200);
  EXPECT_EQ(back.cache, "DISK");
  EXPECT_EQ(back.body, origin_body(first, 1, 300));
  EXPECT_EQ(origin.requests_served(), 2u);
  EXPECT_EQ(counter(proxy, "disk.hits"), 1u);
  EXPECT_EQ(counter(proxy, "disk.promotions"), 1u);
  // The promotion re-inserted `first` into RAM (demoting `second`), so the
  // next fetch is a plain RAM hit and the disk now holds both.
  EXPECT_EQ(fetch(proxy.port(), first, 300).cache, "HIT");
  proxy.disk()->drain_async();
  EXPECT_EQ(proxy.disk()->object_count(), 2u);

  // Invalidation clears both tiers.
  proxy.invalidate(first);
  EXPECT_FALSE(proxy.disk()->contains(first));
  EXPECT_EQ(fetch(proxy.port(), first, 300).cache, "MISS");
  EXPECT_EQ(origin.requests_served(), 3u);
}

TEST(ProxyDiskTierTest, CorruptDiskBodyIsDroppedAndRefetched) {
  // An object file with one flipped bit must fail the checksum on the disk
  // read: dropped and counted, then refetched from the origin — never
  // served to a client or a peer, never promoted. Two inputs: a 300-byte
  // body that RAM evicted to disk, and a 1000-byte body too large for RAM
  // that was stored straight to disk.
  for (const std::size_t size : {std::size_t{300}, std::size_t{1000}}) {
    SCOPED_TRACE(size);
    const bool large = size > 400;
    OriginServer origin;
    ProxyConfig cfg;
    cfg.origin_port = origin.port();
    cfg.capacity_bytes = 400;  // one 300-byte object at a time in RAM
    cfg.disk_path = fresh_state_dir("corrupt" + std::to_string(size));
    cfg.disk_fsync = false;
    ProxyServer proxy(cfg);

    const ObjectId first{33}, second{34};
    EXPECT_EQ(fetch(proxy.port(), first, size).cache, "MISS");
    if (!large) {
      // Evicts `first` to disk; the large body is already there.
      EXPECT_EQ(fetch(proxy.port(), second, size).cache, "MISS");
      proxy.disk()->drain_async();
    }
    ASSERT_TRUE(proxy.disk()->contains(first));
    const std::uint64_t origin_before = origin.requests_served();

    // The object file is <root>/<low byte>/<16-hex id>.obj; its last byte
    // is the body's last byte.
    char name[32];
    std::snprintf(name, sizeof name, "/%02x/%016llx.obj",
                  static_cast<unsigned>(first.value & 0xff),
                  static_cast<unsigned long long>(first.value));
    const auto flip_last_byte = [&] {
      std::fstream f(cfg.disk_path + name,
                     std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.is_open());
      f.seekg(-1, std::ios::end);
      char byte = 0;
      ASSERT_TRUE(f.get(byte));
      f.seekp(-1, std::ios::end);
      f.put(static_cast<char>(byte ^ 0x01));
    };
    flip_last_byte();

    const FetchResult back = fetch(proxy.port(), first, size);
    EXPECT_EQ(back.status, 200);
    EXPECT_EQ(back.cache, "MISS");
    EXPECT_EQ(back.body, origin_body(first, 1, size));
    EXPECT_EQ(counter(proxy, "disk.corrupt_dropped"), 1u);
    EXPECT_EQ(origin.requests_served(), origin_before + 1);
    if (!large) continue;

    // The refetched large body went straight back to disk. Corrupt it
    // again: a sibling's probe must get the false-positive reply, not the
    // damaged bytes as a HIT it would store and serve on.
    ASSERT_TRUE(proxy.disk()->contains(first));
    flip_last_byte();
    HttpRequest probe;
    probe.method = "GET";
    probe.target = object_path(first, size);
    probe.headers.emplace_back("X-No-Forward", "1");
    const auto resp = http_call(proxy.port(), probe);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->status, 404);
    EXPECT_EQ(resp->reason, "Not Cached");
    EXPECT_EQ(counter(proxy, "disk.corrupt_dropped"), 2u);
  }
}

TEST(ProxyDiskTierTest, DiskTierSurvivesRestart) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.capacity_bytes = 400;
  cfg.disk_path = fresh_state_dir("restart");
  cfg.disk_fsync = false;

  {
    ProxyServer proxy(cfg);
    for (std::uint64_t k = 41; k <= 43; ++k) {
      EXPECT_EQ(fetch(proxy.port(), ObjectId{k}, 300).cache, "MISS");
    }
    proxy.disk()->drain_async();  // demotion is asynchronous; settle it
    EXPECT_EQ(counter(proxy, "disk.demotions"), 2u);
  }
  ASSERT_EQ(origin.requests_served(), 3u);

  // A restarted daemon rescans the tree and serves the demoted objects
  // without touching the origin.
  ProxyServer back(cfg);
  ASSERT_NE(back.disk(), nullptr);
  EXPECT_EQ(back.disk()->object_count(), 2u);
  auto warm = fetch(back.port(), ObjectId{41}, 300);
  EXPECT_EQ(warm.status, 200);
  EXPECT_EQ(warm.cache, "DISK");
  EXPECT_EQ(warm.body, origin_body(ObjectId{41}, 1, 300));
  EXPECT_EQ(origin.requests_served(), 3u);
}

TEST(ProxyDiskTierTest, HintImageWarmsRestartAndPeerServesFromDisk) {
  OriginServer origin;
  // b owns a disk tier; its RAM eviction demotes (no invalidation — the
  // object never left the node, so the hint stays valid).
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.capacity_bytes = 400;
  cb.disk_path = fresh_state_dir("peer_disk");
  cb.disk_fsync = false;
  const std::string image = fresh_state_dir("hint_img") + "/hints.img";

  const ObjectId demoted{51}, resident{52};
  {
    ProxyConfig ca;
    ca.name = "a";
    ca.origin_port = origin.port();
    ca.hint_image_path = image;
    ProxyServer a(ca);
    EXPECT_FALSE(a.hint_image_restored());  // nothing to load yet

    ProxyServer b(cb);
    b.add_hint_neighbor(a.port());
    fetch(b.port(), demoted, 300);
    fetch(b.port(), resident, 300);  // demotes `demoted` to b's disk
    b.flush_hints();
    // a heard both informs and no invalidation; its clean stop saves the
    // image. b stays alive across a's restart (scoped separately below).
    a.stop();

    ProxyConfig ca2 = ca;
    ca2.name = "a2";
    ProxyServer a2(ca2);
    EXPECT_TRUE(a2.hint_image_restored());
    EXPECT_EQ(a2.hint_image_entries(), 2u);

    // The warm hint names b; b serves the probe from its disk tier.
    auto via_a2 = fetch(a2.port(), demoted, 300);
    EXPECT_EQ(via_a2.status, 200);
    EXPECT_EQ(via_a2.cache, "SIBLING");
    EXPECT_EQ(via_a2.body, origin_body(demoted, 1, 300));
    EXPECT_EQ(origin.requests_served(), 2u);  // never refetched
    EXPECT_EQ(counter(b, "peer_serves"), 1u);
    EXPECT_EQ(counter(b, "disk.hits"), 1u);
  }
}

TEST(ProxyServerTest, UpdatesRelayAlongAChain) {
  OriginServer origin;
  ProxyConfig c1;
  c1.name = "a";
  c1.origin_port = origin.port();
  ProxyServer a(c1);
  ProxyConfig c3 = c1;
  c3.name = "c";
  ProxyServer c(c3);
  // b in the middle relays between a and c.
  ProxyConfig c2 = c1;
  c2.name = "b";
  c2.hint_neighbors = {a.port(), c.port()};
  ProxyServer b(c2);

  // a -> (flush) -> b -> (flush) -> c.
  ProxyConfig c1b = c1;
  c1b.hint_neighbors = {b.port()};
  ProxyServer a2(c1b);

  const ObjectId id{33};
  fetch(a2.port(), id, 64);
  a2.flush_hints();
  b.flush_hints();
  // c must now hold a hint naming a2 — its fetch is a SIBLING transfer.
  auto via_c = fetch(c.port(), id, 64);
  EXPECT_EQ(via_c.cache, "SIBLING");
  EXPECT_EQ(via_c.body, origin_body(id, 1, 64));
  // b relayed but did not echo the update back to a2.
  EXPECT_EQ(counter(a2, "updates_received"), 0u);
  EXPECT_EQ(origin.requests_served(), 1u);
}

TEST(ProxyServerTest, PushOnPeerFetchSeedsOtherNeighbors) {
  OriginServer origin;
  ProxyConfig base;
  base.origin_port = origin.port();
  // Supplier s with push enabled; requester r; bystander t.
  ProxyConfig cs = base;
  cs.name = "supplier";
  cs.push_policy = "push-all";
  ProxyServer s(cs);
  ProxyConfig cr = base;
  cr.name = "requester";
  ProxyServer r(cr);
  ProxyConfig ct = base;
  ct.name = "bystander";
  ProxyServer t(ct);
  s.add_hint_neighbor(r.port());
  s.add_hint_neighbor(t.port());
  r.add_hint_neighbor(s.port());

  const ObjectId id{51};
  fetch(s.port(), id, 64);  // supplier caches the object
  s.flush_hints();          // requester + bystander learn the hint

  // The requester's fetch is a cache-to-cache transfer; serving it triggers
  // a push to the bystander.
  EXPECT_EQ(fetch(r.port(), id, 64).cache, "SIBLING");
  EXPECT_EQ(counter(s, "pushes_sent"), 1u);
  EXPECT_EQ(counter(t, "pushes_received"), 1u);
  // The bystander now serves the object locally without any fetch.
  EXPECT_EQ(fetch(t.port(), id, 64).cache, "HIT");
  EXPECT_EQ(origin.requests_served(), 1u);
}

TEST(ProxyServerTest, PushPolicyOneSeedsExactlyOneBystander) {
  OriginServer origin;
  ProxyConfig base;
  base.origin_port = origin.port();
  ProxyConfig cs = base;
  cs.name = "supplier";
  cs.push_policy = "push-1";
  ProxyServer s(cs);
  EXPECT_EQ(s.push_policy_name(), "push-1");
  ProxyConfig cr = base;
  cr.name = "requester";
  ProxyServer r(cr);
  ProxyConfig ct1 = base;
  ct1.name = "bystander1";
  ProxyServer t1(ct1);
  ProxyConfig ct2 = base;
  ct2.name = "bystander2";
  ProxyServer t2(ct2);
  s.add_hint_neighbor(r.port());
  s.add_hint_neighbor(t1.port());
  s.add_hint_neighbor(t2.port());
  r.add_hint_neighbor(s.port());

  const ObjectId id{54};
  fetch(s.port(), id, 64);
  s.flush_hints();

  // Serving the requester's cache-to-cache transfer pushes to exactly one of
  // the two bystanders — push-1's degree, not push-all's.
  EXPECT_EQ(fetch(r.port(), id, 64).cache, "SIBLING");
  EXPECT_EQ(counter(s, "pushes_sent"), 1u);
  EXPECT_EQ(counter(t1, "pushes_received") + counter(t2, "pushes_received"),
            1u);
  EXPECT_EQ(origin.requests_served(), 1u);
}

TEST(ProxyServerTest, PushTargetsHeaderSeedsSiblingHints) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer p(cfg);
  // No hints yet.
  EXPECT_EQ(p.metrics_snapshot().gauge("bh.proxy.hint_entries"), 0.0);

  // A pushed PUT naming a sibling target: the receiver stores the object AND
  // seeds a hint for the sibling's copy without waiting for a hint batch.
  HttpRequest put;
  put.method = "PUT";
  put.target = object_path(ObjectId{55}, 3);
  put.body = "abc";
  put.headers.emplace_back("X-Push-Policy", "push-half");
  put.headers.emplace_back("X-Push-Targets", "9321");
  auto resp = http_call(p.port(), put);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(counter(p, "pushes_received"), 1u);
  EXPECT_EQ(p.metrics_snapshot().gauge("bh.proxy.hint_entries"), 1.0);

  // A malformed header is ignored wholesale — the object still lands, no
  // partial hint seeding.
  put.target = object_path(ObjectId{56}, 3);
  put.headers.back() = {"X-Push-Targets", "9321,bogus"};
  resp = http_call(p.port(), put);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(p.metrics_snapshot().gauge("bh.proxy.hint_entries"), 1.0);
}

TEST(ProxyServerTest, PushPolicyNameResolvesAliasAndRejectsUnknown) {
  OriginServer origin;
  ProxyConfig bad;
  bad.origin_port = origin.port();
  bad.push_policy = "push-everything";
  EXPECT_THROW(ProxyServer{bad}, std::invalid_argument);
}

TEST(ProxyServerTest, PushNeverOverwritesExistingCopy) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer p(cfg);
  const ObjectId id{52};
  fetch(p.port(), id, 64);  // demand copy (version 1 bytes)
  // Push different bytes at it.
  HttpRequest put;
  put.method = "PUT";
  put.target = object_path(id, 3);
  put.body = "xyz";
  auto resp = http_call(p.port(), put);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(fetch(p.port(), id, 64).body, origin_body(id, 1, 64));
}

TEST(ProxyServerTest, ServerDrivenInvalidationPreventsStaleReads) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.register_with_origin = true;
  ProxyServer p(cfg);

  const ObjectId id{61};
  auto first = fetch(p.port(), id, 128);
  EXPECT_EQ(first.body, origin_body(id, 1, 128));
  // The origin modifies the object: the registered proxy's copy dies before
  // any client can read it.
  origin.modify(id);
  EXPECT_GE(origin.invalidations_sent(), 1u);
  auto second = fetch(p.port(), id, 128);
  EXPECT_EQ(second.cache, "MISS");  // not served stale
  EXPECT_EQ(second.body, origin_body(id, 2, 128));
}

TEST(ProxyServerTest, UnregisteredProxyServesStaleUntilInvalidated) {
  // Without registration the daemon has no way to learn about the change —
  // the weak-consistency failure mode the paper's assumption removes.
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer p(cfg);

  const ObjectId id{62};
  fetch(p.port(), id, 128);
  origin.modify(id);
  auto stale = fetch(p.port(), id, 128);
  EXPECT_EQ(stale.cache, "HIT");
  EXPECT_EQ(stale.body, origin_body(id, 1, 128));  // stale bytes
  p.invalidate(id);
  auto fresh = fetch(p.port(), id, 128);
  EXPECT_EQ(fresh.body, origin_body(id, 2, 128));
}

TEST(ProxyServerTest, MalformedBatchIsRejected) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);
  HttpRequest req;
  req.method = "POST";
  req.target = "/updates";
  req.body = "not a multiple of 20 bytes";
  auto resp = http_call(proxy.port(), req);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 400);
}

// --- failure paths (driven by the FaultInjector) ---

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

TEST(FaultPathTest, DeadPeerProbeIsDeadlineBounded) {
  // A peer that accepted the connection and then died: the listener's
  // backlog completes the handshake but nothing ever answers. The probe
  // must cost its tight dedicated deadline, not the generic socket timeout.
  FaultInjector injector(7);  // outlives the daemon whose workers read it
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.peer_deadline_seconds = 0.5;
  ProxyServer proxy(cfg);

  auto blackhole = TcpListener::bind_ephemeral();
  ASSERT_TRUE(blackhole.has_value());  // never accept()ed: a silent peer

  // A slow link on top of the dead peer: the injector delays the connect,
  // and the absolute deadline must still hold.
  injector.add_rule({FaultOp::kConnect, FaultKind::kDelay, blackhole->port(),
                     1.0, -1, 0.05});
  ScopedFaultInjection active(injector);

  const ObjectId id{71};
  post_update(proxy.port(), proto::Action::kInform, id, blackhole->port());

  const auto start = std::chrono::steady_clock::now();
  auto r = fetch(proxy.port(), id, 64);
  const double elapsed = seconds_since(start);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.cache, "MISS");  // answered from the origin
  EXPECT_EQ(r.body, origin_body(id, 1, 64));
  EXPECT_LT(elapsed, 2 * cfg.peer_deadline_seconds);
  EXPECT_GE(injector.injections(), 1u);
  EXPECT_EQ(counter(proxy, "peer_failures"), 1u);
  EXPECT_EQ(counter(proxy, "origin_fetches"), 1u);
}

TEST(FaultPathTest, MidStreamResetFallsBackToOrigin) {
  FaultInjector injector(7);  // outlives the daemons whose workers read it
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  ProxyServer b(cb);

  const ObjectId x{72}, y{73};
  fetch(b.port(), x, 64);
  fetch(b.port(), y, 64);
  b.flush_hints();  // a hints both objects at b

  injector.add_rule(
      {FaultOp::kRecv, FaultKind::kReset, b.port(), 1.0, /*max=*/1, 0.0});
  ScopedFaultInjection active(injector);

  // The probe reaches b but the reply dies mid-stream: one bounded error,
  // then the origin serves the request.
  auto r = fetch(a.port(), x, 64);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.cache, "MISS");
  EXPECT_EQ(r.body, origin_body(x, 1, 64));
  EXPECT_EQ(counter(a, "peer_failures"), 1u);

  // One reset is far below the quarantine threshold: the next probe (the
  // injection budget is spent) is a normal cache-to-cache transfer.
  EXPECT_EQ(fetch(a.port(), y, 64).cache, "SIBLING");
  EXPECT_EQ(counter(a, "quarantines"), 0u);
}

TEST(FaultPathTest, ShortReadFallsBackToOrigin) {
  FaultInjector injector(7);  // outlives the daemons whose workers read it
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  ProxyServer b(cb);

  const ObjectId id{74};
  fetch(b.port(), id, 256);
  b.flush_hints();

  injector.add_rule(
      {FaultOp::kRecv, FaultKind::kShortRead, b.port(), 1.0, /*max=*/1, 0.0});
  ScopedFaultInjection active(injector);

  // The truncated reply must never surface: the client still gets the full
  // correct bytes, just from the origin.
  auto r = fetch(a.port(), id, 256);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.cache, "MISS");
  EXPECT_EQ(r.body, origin_body(id, 1, 256));
  EXPECT_EQ(counter(a, "peer_failures"), 1u);
}

TEST(FaultPathTest, OriginDownYields502WithoutCrash) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.origin_deadline_seconds = 1.0;
  ProxyServer proxy(cfg);

  const ObjectId cached{75}, uncached{76};
  fetch(proxy.port(), cached, 64);  // in cache before the outage
  origin.stop();

  const auto start = std::chrono::steady_clock::now();
  auto r = fetch(proxy.port(), uncached, 64);
  EXPECT_EQ(r.status, 502);
  EXPECT_LT(seconds_since(start), 2 * cfg.origin_deadline_seconds);
  EXPECT_EQ(counter(proxy, "origin_failures"), 1u);

  // The daemon keeps serving what it has.
  EXPECT_EQ(fetch(proxy.port(), cached, 64).cache, "HIT");
}

TEST(FaultPathTest, OversizedObjectLeavesCacheUntouched) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.capacity_bytes = 150;
  ProxyServer proxy(cfg);

  const ObjectId small{77}, huge{78};
  EXPECT_EQ(fetch(proxy.port(), small, 100).cache, "MISS");
  // The oversized object is served fine but must not wipe the cache on the
  // way through.
  auto big = fetch(proxy.port(), huge, 1000);
  EXPECT_EQ(big.status, 200);
  EXPECT_EQ(big.body.size(), 1000u);
  EXPECT_EQ(fetch(proxy.port(), small, 100).cache, "HIT");
  // And it was genuinely not cached.
  EXPECT_EQ(fetch(proxy.port(), huge, 1000).cache, "MISS");
}

TEST(FaultPathTest, CyclicTopologyReachesQuiescence) {
  // Directed 3-ring a -> b -> c -> a: before hop bounding and the seen-set,
  // an update circulated this cycle forever (each node excluded only the
  // immediate sender). Now the total updates_sent must go quiescent.
  OriginServer origin;
  ProxyConfig base;
  base.origin_port = origin.port();
  ProxyConfig ca = base;
  ca.name = "a";
  ProxyServer a(ca);
  ProxyConfig cb = base;
  cb.name = "b";
  ProxyServer b(cb);
  ProxyConfig cc = base;
  cc.name = "c";
  ProxyServer c(cc);
  a.add_hint_neighbor(b.port());
  b.add_hint_neighbor(c.port());
  c.add_hint_neighbor(a.port());

  const ObjectId id{79};
  fetch(a.port(), id, 64);

  auto total_sent = [&] {
    return counter(a, "updates_sent") + counter(b, "updates_sent") +
           counter(c, "updates_sent");
  };
  std::uint64_t after_round3 = 0;
  for (int round = 0; round < 6; ++round) {
    a.flush_hints();
    b.flush_hints();
    c.flush_hints();
    if (round == 2) after_round3 = total_sent();
  }
  // Quiescent: three further full rounds moved nothing.
  EXPECT_EQ(total_sent(), after_round3);
  // The inform travelled each ring edge at most once.
  EXPECT_LE(after_round3, 3u);
  // ... and actually propagated: both b and c can locate a's copy.
  EXPECT_EQ(fetch(b.port(), id, 64).cache, "SIBLING");
  EXPECT_EQ(fetch(c.port(), id, 64).cache, "SIBLING");
}

TEST(FaultPathTest, HopBoundCapsRelay) {
  OriginServer origin;
  ProxyConfig base;
  base.origin_port = origin.port();
  ProxyConfig ca = base;
  ca.name = "a";
  ProxyServer a(ca);
  ProxyConfig cc = base;
  cc.name = "c";
  ProxyServer c(cc);
  ProxyConfig cb = base;
  cb.name = "b";
  cb.hint_neighbors = {c.port()};
  ProxyServer b(cb);

  const ObjectId id{80};
  fetch(a.port(), id, 64);
  // a's inform reaches b one hop short of the bound: b applies it locally
  // but may not relay it.
  post_update(b.port(), proto::Action::kInform, id, a.port(),
              /*hops=*/ProxyServer::kMaxHintHops - 1);
  b.flush_hints();

  EXPECT_GE(counter(b, "updates_hop_capped"), 1u);
  // b itself learned the hint...
  EXPECT_EQ(fetch(b.port(), id, 64).cache, "SIBLING");
  // ... but c never did: its fetch goes straight to the origin.
  EXPECT_EQ(fetch(c.port(), id, 64).cache, "MISS");
  EXPECT_EQ(counter(c, "updates_received"), 0u);
}

TEST(FaultPathTest, QuarantineDegradesThenReprobeRejoins) {
  FaultInjector injector(7);  // outlives the daemons whose workers read it
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ca.peer_deadline_seconds = 0.3;
  ca.quarantine_threshold = 2;
  ca.quarantine_seconds = 0.3;
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  ProxyServer b(cb);

  const ObjectId o1{81}, o2{82}, o3{83}, o4{84};
  for (const ObjectId o : {o1, o2, o3, o4}) fetch(b.port(), o, 64);
  b.flush_hints();  // a hints all four objects at b

  // b "dies": its next two connections are refused, then it "recovers".
  injector.add_rule({FaultOp::kConnect, FaultKind::kConnectRefused, b.port(),
                     1.0, /*max=*/2, 0.0});
  ScopedFaultInjection active(injector);

  // Two consecutive failures cross the threshold: b is quarantined.
  EXPECT_EQ(fetch(a.port(), o1, 64).cache, "MISS");
  EXPECT_EQ(fetch(a.port(), o2, 64).cache, "MISS");
  {
    EXPECT_EQ(counter(a, "peer_failures"), 2u);
    EXPECT_EQ(counter(a, "quarantines"), 1u);
  }

  // Inside the window the hinted probe is skipped outright: origin-direct
  // degradation at full speed.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(fetch(a.port(), o3, 64).cache, "MISS");
  EXPECT_LT(seconds_since(start), ca.peer_deadline_seconds);
  EXPECT_EQ(counter(a, "quarantine_skips"), 1u);

  // After the window one re-probe is admitted; b is healthy again (the
  // injection budget is spent), so it serves and rejoins.
  std::this_thread::sleep_for(std::chrono::milliseconds(350));
  EXPECT_EQ(fetch(a.port(), o4, 64).cache, "SIBLING");
  {
    EXPECT_EQ(counter(a, "reprobes"), 1u);
    EXPECT_EQ(counter(a, "sibling_hits"), 1u);
  }
  // Fully rejoined: no quarantine bookkeeping left for the next probe.
  fetch(b.port(), ObjectId{85}, 64);
  b.flush_hints();
  EXPECT_EQ(fetch(a.port(), ObjectId{85}, 64).cache, "SIBLING");
}

TEST(FaultPathTest, StopJoinsInFlightHandlers) {
  // Regression: handlers used to run on detached threads, so destroying the
  // daemon while a slow request was in flight let the handler dereference
  // freed members (caught under ASan). The worker pool joins in stop().
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  auto proxy = std::make_unique<ProxyServer>(cfg);
  const std::uint16_t port = proxy->port();

  FaultInjector injector(9);
  // Slow the origin connect so the fetch is reliably mid-flight when the
  // daemon is destroyed.
  injector.add_rule(
      {FaultOp::kConnect, FaultKind::kDelay, origin.port(), 1.0, -1, 0.3});
  ScopedFaultInjection active(injector);

  std::thread client([port] { fetch(port, ObjectId{81}, 64); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  proxy.reset();  // ~ProxyServer → stop(): must join the in-flight handler
  client.join();
}

// --- the inline RAM-hit path and the fill guard ---

// Waits (bounded) until `done()` holds; false on timeout.
template <typename Pred>
bool wait_until(Pred done, double seconds = 5.0) {
  const auto start = std::chrono::steady_clock::now();
  while (!done()) {
    if (seconds_since(start) > seconds) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ProxyInlineHitTest, RamHitDoesNotWaitForBusyWorker) {
  // RAM hits are served on the reactor thread: with the only worker held
  // on a slow origin fetch, a hit on another connection answers at once.
  FaultInjector injector(3);  // outlives the daemon whose workers read it
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.workers = 1;
  ProxyServer proxy(cfg);
  const ObjectId hot{91};
  const ObjectId cold{92};
  ASSERT_EQ(fetch(proxy.port(), hot, 128).cache, "MISS");

  constexpr double kHold = 1.0;
  injector.add_rule(
      {FaultOp::kRecv, FaultKind::kDelay, origin.port(), 1.0, 1, kHold});
  ScopedFaultInjection active(injector);
  const auto miss_start = std::chrono::steady_clock::now();
  FetchResult slow;
  std::thread miss([&] { slow = fetch(proxy.port(), cold, 128); });
  ASSERT_TRUE(wait_until([&] { return injector.injections() >= 1; }));

  const auto start = std::chrono::steady_clock::now();
  const FetchResult hit = fetch(proxy.port(), hot, 128);
  const double elapsed = seconds_since(start);
  const double miss_held = seconds_since(miss_start);
  miss.join();
  EXPECT_EQ(hit.cache, "HIT");
  EXPECT_EQ(hit.body, origin_body(hot, 1, 128));
  EXPECT_LT(elapsed, kHold / 2);
  EXPECT_LT(miss_held, kHold);  // the hit returned before the hold ended
  EXPECT_EQ(slow.cache, "MISS");
  EXPECT_EQ(slow.body, origin_body(cold, 1, 128));
}

TEST(ProxyInlineHitTest, CountersMoveOncePerRequest) {
  // The inline path and the worker path share one RAM-hit helper: a hit
  // counts once, and a miss (looked up on the loop, then again on the
  // worker) counts once too.
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);
  const auto request_ms_count = [&proxy] {
    const obs::MetricsSnapshot snap = proxy.metrics_snapshot();
    const LatencyHistogram* h = snap.histogram("bh.proxy.request_ms");
    return h == nullptr ? std::uint64_t{0} : h->count();
  };
  const ObjectId id{93};

  obs::MetricsSnapshot before = proxy.metrics_snapshot();
  obs::MetricsSnapshot after = before;
  const auto moved = [&](const std::string& name) {
    return after.counter("bh.proxy." + name) -
           before.counter("bh.proxy." + name);
  };
  std::uint64_t samples = request_ms_count();
  ASSERT_EQ(fetch(proxy.port(), id, 64).cache, "MISS");
  after = proxy.metrics_snapshot();
  EXPECT_EQ(moved("requests"), 1u);
  EXPECT_EQ(moved("local_hits"), 0u);
  EXPECT_EQ(moved("origin_fetches"), 1u);
  EXPECT_EQ(request_ms_count() - samples, 1u);

  before = after;
  samples = request_ms_count();
  ASSERT_EQ(fetch(proxy.port(), id, 64).cache, "HIT");
  after = proxy.metrics_snapshot();
  EXPECT_EQ(moved("requests"), 1u);
  EXPECT_EQ(moved("local_hits"), 1u);
  EXPECT_EQ(request_ms_count() - samples, 1u);

  // A peer probe hit is served and counted as a peer serve, untimed.
  before = after;
  samples = request_ms_count();
  HttpRequest probe;
  probe.method = "GET";
  probe.target = object_path(id, 64);
  probe.headers.emplace_back("X-No-Forward", "1");
  const auto resp = http_call(proxy.port(), probe);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->header("X-Cache").value_or(""), "HIT");
  after = proxy.metrics_snapshot();
  EXPECT_EQ(moved("requests"), 0u);
  EXPECT_EQ(moved("peer_serves"), 1u);
  EXPECT_EQ(request_ms_count() - samples, 0u);
}

TEST(ProxyStaleFillTest, InvalidationDuringFillIsNotCached) {
  // A fill that fetched version 1 is held in flight while the origin
  // modifies the object and invalidates the proxy. The held response may
  // still carry version 1 (it raced the modify), but the cache must not
  // keep it: the next GET sees version 2.
  FaultInjector injector(5);  // outlives the daemon whose workers read it
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  cfg.register_with_origin = true;
  ProxyServer proxy(cfg);
  const ObjectId id{94};
  const std::uint64_t served = origin.requests_served();

  injector.add_rule(
      {FaultOp::kRecv, FaultKind::kDelay, origin.port(), 1.0, 1, 0.5});
  ScopedFaultInjection active(injector);
  FetchResult during;
  std::thread fill([&] { during = fetch(proxy.port(), id, 128); });
  // The origin has produced version 1 and the proxy's read of it is held.
  ASSERT_TRUE(wait_until([&] {
    return injector.injections() >= 1 && origin.requests_served() > served;
  }));
  origin.modify(id);  // returns once the proxy has invalidated
  fill.join();
  EXPECT_EQ(during.status, 200);
  EXPECT_EQ(during.body, origin_body(id, 1, 128));

  const FetchResult after = fetch(proxy.port(), id, 128);
  EXPECT_EQ(after.cache, "MISS");
  EXPECT_EQ(after.body, origin_body(id, 2, 128));
}

TEST(ProxyServerTest, FlusherSendsOnSizeTrigger) {
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cc;
  cc.name = "c";
  cc.origin_port = origin.port();
  ProxyServer c(cc);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  ProxyServer b(cb);

  const ObjectId first{91}, second{92};
  fetch(c.port(), first, 64);
  fetch(c.port(), second, 64);
  // c tells b about kFlushMaxPending objects in one batch, the first two
  // being the ones c holds. b queues each as a relay to a, and the last one
  // arms the flusher's size trigger.
  std::vector<proto::HintUpdate> batch;
  for (std::size_t i = 0; i < ProxyServer::kFlushMaxPending; ++i) {
    batch.push_back({proto::Action::kInform, ObjectId{first.value + i},
                     MachineId{c.port()}});
  }
  post_updates(b.port(), batch, c.port());

  // No manual flush_hints(): the flusher thread must drain the batch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter(a, "updates_received") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(counter(a, "updates_received"), 2u);
  EXPECT_GE(counter(b, "flushes"), 1u);
  EXPECT_EQ(fetch(a.port(), first, 64).cache, "SIBLING");
}

TEST(ProxyServerTest, FlusherSendsOnAgeTrigger) {
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  cb.flush_interval_seconds = 0.05;  // one pending update flushes by age
  ProxyServer b(cb);

  const ObjectId id{93};
  fetch(b.port(), id, 64);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (counter(a, "updates_received") < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(counter(a, "updates_received"), 1u);
  EXPECT_EQ(fetch(a.port(), id, 64).cache, "SIBLING");
}

TEST(ProxyServerTest, CoalescingRetiresInformInvalidatePairs) {
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb;
  cb.name = "b";
  cb.origin_port = origin.port();
  cb.hint_neighbors = {a.port()};
  cb.capacity_bytes = 150;  // tiny: the second object evicts the first
  ProxyServer b(cb);

  const ObjectId first{94}, second{95};
  fetch(b.port(), first, 100);
  fetch(b.port(), second, 100);  // evicts `first`
  // Queued: inform(first), inform(second), invalidate(first). The flush must
  // retire the inform/invalidate pair for `first` and send only one update.
  b.flush_hints();

  EXPECT_EQ(counter(b, "updates_coalesced"), 2u);
  EXPECT_EQ(counter(b, "updates_sent"), 1u);
  EXPECT_EQ(counter(a, "updates_received"), 1u);

  // Behaviour matches the uncoalesced exchange: no stale hint for `first`,
  // and the hint for `second` works.
  EXPECT_EQ(fetch(a.port(), first, 100).cache, "MISS");
  EXPECT_EQ(counter(a, "false_positives"), 0u);
  EXPECT_EQ(fetch(a.port(), second, 100).cache, "SIBLING");
}

TEST(ProxyServerTest, ConcurrentFetchesFromBothSides) {
  // a and b each serve a request that fetches from the *other* proxy; with
  // single-threaded daemons this would deadlock.
  OriginServer origin;
  ProxyConfig ca;
  ca.name = "a";
  ca.origin_port = origin.port();
  ProxyServer a(ca);
  ProxyConfig cb = ca;
  cb.name = "b";
  ProxyServer b(cb);
  a.add_hint_neighbor(b.port());
  b.add_hint_neighbor(a.port());

  const ObjectId x{41}, y{42};
  fetch(a.port(), x, 64);
  fetch(b.port(), y, 64);
  a.flush_hints();
  b.flush_hints();

  std::thread t1([&] { EXPECT_EQ(fetch(b.port(), x, 64).cache, "SIBLING"); });
  std::thread t2([&] { EXPECT_EQ(fetch(a.port(), y, 64).cache, "SIBLING"); });
  t1.join();
  t2.join();
}

// --- GET /metrics ---

std::optional<HttpResponse> scrape(std::uint16_t port,
                                   const std::string& target = "/metrics") {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  return http_call(port, req);
}

TEST(ProxyMetricsTest, TextScrapeCarriesEveryProxyCounter) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);

  const ObjectId id{11};
  fetch(proxy.port(), id, 100);  // MISS
  fetch(proxy.port(), id, 100);  // HIT

  auto resp = scrape(proxy.port());
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->header("Content-Type").value_or(""),
            "text/plain; version=0.0.4");
  // Every data-path and failure-path counter appears, '.' -> '_'.
  for (const char* name :
       {"requests", "local_hits", "sibling_hits", "origin_fetches",
        "false_positives", "peer_serves", "peer_rejects", "updates_sent",
        "updates_received", "update_bytes_sent", "updates_coalesced",
        "flushes", "pushes_sent",
        "pushes_received", "push_bytes_sent", "peer_failures",
        "origin_failures", "quarantines", "quarantine_skips", "reprobes",
        "metadata_retries", "updates_deduped", "updates_hop_capped"}) {
    EXPECT_NE(resp->body.str().find(std::string("bh_proxy_") + name),
              std::string::npos)
        << "missing counter: " << name;
  }
  EXPECT_NE(resp->body.str().find("bh_proxy_requests 2"), std::string::npos);
  EXPECT_NE(resp->body.str().find("bh_proxy_local_hits 1"), std::string::npos);
  EXPECT_NE(resp->body.str().find("bh_proxy_origin_fetches 1"), std::string::npos);
  // Scrape-time gauges and the latency summary ride along.
  EXPECT_NE(resp->body.str().find("bh_proxy_cache_objects 1"), std::string::npos);
  EXPECT_NE(resp->body.str().find("bh_proxy_request_ms_count 2"), std::string::npos);
}

TEST(ProxyMetricsTest, JsonScrapeParsesAndMatchesStats) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);

  const ObjectId id{12};
  fetch(proxy.port(), id, 80);
  fetch(proxy.port(), id, 80);
  fetch(proxy.port(), ObjectId{13}, 80);

  auto resp = scrape(proxy.port(), "/metrics?format=json");
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->header("Content-Type").value_or(""), "application/json");
  const auto snap = obs::parse_snapshot(resp->body.str());
  ASSERT_TRUE(snap.has_value());

  // The scrape carries the same counters as the in-process snapshot.
  const obs::MetricsSnapshot direct = proxy.metrics_snapshot();
  for (const char* name : {"bh.proxy.requests", "bh.proxy.local_hits",
                           "bh.proxy.origin_fetches"}) {
    EXPECT_EQ(snap->counter(name), direct.counter(name)) << name;
  }
  EXPECT_EQ(snap->counter("bh.proxy.requests"), 3u);
  EXPECT_DOUBLE_EQ(snap->gauge("bh.proxy.cache_objects"), 2.0);
  ASSERT_NE(snap->histogram("bh.proxy.request_ms"), nullptr);
  EXPECT_EQ(snap->histogram("bh.proxy.request_ms")->count(), 3u);
}

TEST(ProxyMetricsTest, ConcurrentScrapesDuringTraffic) {
  // Scrapers hammer /metrics (both renderings) while fetchers drive the data
  // path; the registry's atomics and the scrape-time gauge refresh must not
  // race (ASan/TSan builds of this binary check that) and every scrape must
  // return a complete document.
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);

  constexpr int kFetches = 40;
  std::thread traffic([&] {
    for (int i = 0; i < kFetches; ++i) {
      fetch(proxy.port(), ObjectId{std::uint64_t(100 + i)}, 64);
    }
  });
  std::thread text_scraper([&] {
    for (int i = 0; i < 20; ++i) {
      auto r = scrape(proxy.port());
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->status, 200);
      EXPECT_NE(r->body.str().find("bh_proxy_requests"), std::string::npos);
    }
  });
  std::thread json_scraper([&] {
    for (int i = 0; i < 20; ++i) {
      auto r = scrape(proxy.port(), "/metrics?format=json");
      ASSERT_TRUE(r.has_value());
      ASSERT_TRUE(obs::parse_snapshot(r->body.str()).has_value());
    }
  });
  traffic.join();
  text_scraper.join();
  json_scraper.join();

  auto final_scrape = scrape(proxy.port(), "/metrics?format=json");
  ASSERT_TRUE(final_scrape.has_value());
  const auto snap = obs::parse_snapshot(final_scrape->body.str());
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(snap->counter("bh.proxy.requests"), std::uint64_t(kFetches));
  EXPECT_EQ(snap->counter("bh.proxy.origin_fetches"),
            std::uint64_t(kFetches));
}

// --- keep-alive and the reactor data path ---

TEST(ProxyKeepAliveTest, OneConnectionServesManyRequests) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);

  auto conn = ClientConnection::open(proxy.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  const ObjectId id{77};
  for (int i = 0; i < 6; ++i) {
    HttpRequest req;
    req.method = "GET";
    req.target = object_path(id, 256);
    auto resp = conn->exchange(
        req, std::chrono::steady_clock::now() + std::chrono::seconds(5),
        /*keep_alive=*/true);
    ASSERT_TRUE(resp.has_value()) << "request " << i;
    EXPECT_EQ(resp->status, 200);
    EXPECT_TRUE(conn->reusable());
    EXPECT_EQ(resp->header("X-Cache").value_or(""), i == 0 ? "MISS" : "HIT");
    EXPECT_EQ(resp->body, origin_body(id, 1, 256));
  }
  EXPECT_EQ(counter(proxy, "requests"), 6u);
  EXPECT_EQ(counter(proxy, "local_hits"), 5u);
  EXPECT_EQ(counter(proxy, "origin_fetches"), 1u);
}

TEST(ProxyKeepAliveTest, ReactorAndPoolMetricsExported) {
  OriginServer origin;
  ProxyConfig cfg;
  cfg.origin_port = origin.port();
  ProxyServer proxy(cfg);

  // Two distinct misses: the second origin fetch rides the pooled
  // connection the first one parked.
  fetch(proxy.port(), ObjectId{21}, 64);
  fetch(proxy.port(), ObjectId{22}, 64);

  auto resp = scrape(proxy.port(), "/metrics?format=json");
  ASSERT_TRUE(resp.has_value());
  const auto snap = obs::parse_snapshot(resp->body.str());
  ASSERT_TRUE(snap.has_value());
  EXPECT_GE(snap->counter("bh.proxy.loop_iterations"), 1u);
  EXPECT_GE(snap->counter("bh.proxy.pool_reuse"), 1u);
  EXPECT_GE(snap->gauge("bh.proxy.pool_idle"), 1.0);
  // The scraping connection itself is open at sample time.
  EXPECT_GE(snap->gauge("bh.proxy.open_conns"), 1.0);

  auto text = scrape(proxy.port());
  ASSERT_TRUE(text.has_value());
  for (const char* name :
       {"bh_proxy_open_conns", "bh_proxy_pool_reuse",
        "bh_proxy_loop_iterations", "bh_proxy_queue_depth",
        "bh_proxy_pool_idle"}) {
    EXPECT_NE(text->body.str().find(name), std::string::npos)
        << "missing metric: " << name;
  }
}

// --- backpressure: the accept pause bounds the worker queue ---

TEST(ProxyBackpressureTest, FullQueuePausesAcceptUntilWorkersDrain) {
  // The origin is a blackhole: a listener nobody accepts from, so the one
  // worker's first origin fetch hangs until the listener closes.
  auto blackhole = TcpListener::bind_ephemeral();
  ASSERT_TRUE(blackhole.has_value());
  ProxyConfig cfg;
  cfg.origin_port = blackhole->port();
  cfg.workers = 1;
  ProxyServer proxy(cfg);
  const auto gauge = [&proxy](const char* name) {
    return proxy.metrics_snapshot().gauge(std::string("bh.proxy.") + name);
  };

  // One miss per connection. Until the queue is full, each client waits
  // for its request to be queued before the next connects: the first
  // request holds the worker and the next kCap fill the queue. The last 32
  // can only land in the kernel listen backlog.
  constexpr std::size_t kCap = ProxyServer::kAcceptQueueCapacity;
  constexpr std::size_t kClients = kCap + 32;
  std::vector<TcpStream> clients;
  clients.reserve(kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    auto stream = TcpStream::connect(proxy.port());
    ASSERT_TRUE(stream.has_value()) << "client " << i;
    HttpRequest req;
    req.method = "GET";
    req.target = object_path(ObjectId{0x5000 + i}, 64);
    ASSERT_TRUE(stream->write_all(serialize(req)));
    clients.push_back(std::move(*stream));
    if (i == 0) {
      ASSERT_TRUE(wait_until([&] { return counter(proxy, "requests") == 1; }));
    } else if (i <= kCap) {
      ASSERT_TRUE(wait_until(
          [&] { return gauge("queue_depth") == static_cast<double>(i); }))
          << "client " << i;
    }
  }

  // While accept is paused the late clients stay unaccepted: the queue
  // stops at its capacity and fewer connections are open than clients.
  double max_depth = 0;
  double max_open = 0;
  const auto start = std::chrono::steady_clock::now();
  while (seconds_since(start) < 0.3) {
    max_depth = std::max(max_depth, gauge("queue_depth"));
    max_open = std::max(max_open, gauge("open_conns"));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(max_depth, static_cast<double>(kCap));
  EXPECT_LT(max_open, static_cast<double>(kClients));

  // End the hold: closing the listener resets the held fetch, and every
  // later fetch is refused at once. The drained queue resumes accepting,
  // and every client gets its answer.
  blackhole.reset();
  for (std::size_t i = 0; i < kClients; ++i) {
    const auto raw = clients[i].read_to_end();
    ASSERT_TRUE(raw.has_value()) << "client " << i;
    const auto resp = parse_response(*raw);
    ASSERT_TRUE(resp.has_value()) << "client " << i;
    EXPECT_EQ(resp->status, 502) << "client " << i;
  }
  EXPECT_EQ(counter(proxy, "origin_failures"), kClients);
}

}  // namespace
}  // namespace bh::proxy
