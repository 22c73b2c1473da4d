// Adversarial-client tests for the net front-end's production hardening
// (src/net/): backpressure watermarks, admission-control load shedding, and
// standing subscription queries.
//
//   * A pipelining client that NEVER reads must not grow server memory
//     without bound: the per-connection outbox gauge stays bounded while
//     megabytes of responses are owed, the connection's reads pause at the
//     high watermark (net_paused_connections), and draining resumes it —
//     every frame still gets its answer.
//   * A stalled connection must not starve the others: a second client's
//     round-trips keep completing while the first is paused.
//   * Overload sheds with an IN-PROTOCOL kOverloaded answer (net_shed),
//     never an OOM, a hang, or a dropped frame — and the stats frame stays
//     answerable throughout, so overload is observable.
//   * Standing queries push results bit-identical to re-issuing the same
//     query fresh; publishes that change nothing push nothing (only
//     subs_skipped moves); slow consumers lose pushes but never ordering —
//     the per-subscription epoch sequence exposes every gap.
//
// Run under -fsanitize=thread (cmake -DTQ_SANITIZE=thread) to check the
// loop-thread / pool-callback / subscription-registry handoffs; CI does,
// and under ASan via the ctest sweep.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "runtime/remote_shard_set.h"
#include "runtime/sharded_engine.h"
#include "test_util.h"

namespace tq {
namespace {

using net::FrameAssembler;
using net::MessageType;
using net::NetClient;
using net::NetRequest;
using net::NetResponse;
using net::NetServer;
using net::NetServerOptions;
using runtime::MetricsView;
using runtime::ShardedEngine;
using runtime::ShardedEngineOptions;

ShardedEngineOptions EngineOptions(size_t shards, size_t cache = 2048,
                                   size_t threads = 4) {
  ShardedEngineOptions so;
  so.num_shards = shards;
  so.num_threads = threads;
  so.cache_capacity = cache;
  so.tree.beta = 16;
  // Integer-valued model: pushed and fresh answers must match bit for bit.
  so.tree.model = ServiceModel::PointCount(200.0, Normalization::kNone);
  return so;
}

bool WaitFor(const std::function<bool()>& pred, int timeout_ms = 10000) {
  for (int waited = 0; waited < timeout_ms; waited += 5) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

int RawConnect(uint16_t port, int rcvbuf_bytes = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (rcvbuf_bytes > 0) {
    // Before connect(), so the shrunken window is what gets advertised —
    // the server's sends then hit EAGAIN (and its watermarks) sooner.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                 sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads decoded response frames from `fd` until `want` frames arrived or a
// recv timeout/EOF; malformed frames fail the count (caller asserts size).
std::vector<NetResponse> ReadFrames(int fd, size_t want, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  std::vector<NetResponse> out;
  FrameAssembler frames;
  char buf[64 << 10];
  while (out.size() < want) {
    std::string payload;
    if (frames.Next(&payload) == FrameAssembler::Result::kFrame) {
      NetResponse r;
      if (DecodeResponse(payload, &r).ok()) out.push_back(std::move(r));
      continue;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // timeout or EOF
    frames.Feed(buf, static_cast<size_t>(n));
  }
  return out;
}

// One big-batch sum request frame (identical repeated facility): ~2 KiB of
// request buys ~4.6 KiB of response, so a pipelined burst owes the server
// far more output than it received input — the adversarial shape.
std::string BigSumFrame(size_t batch) {
  std::string wire;
  EncodeRequest(NetRequest::Sum(std::vector<FacilityId>(batch, 0)), &wire);
  return wire;
}

// Blocking firehose writer on its own thread — a client that pipelines as
// fast as the kernel accepts and never touches its receive path. The
// destructor unsticks a still-blocked send with shutdown() so a failing
// assertion mid-test cannot hang on join.
class BurstSender {
 public:
  BurstSender(int fd, const std::string& bytes) : fd_(fd) {
    thread_ = std::thread([this, &bytes] {
      size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t n =
            ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return;
        }
        off += static_cast<size_t>(n);
      }
      sent_all_.store(true);
    });
  }
  ~BurstSender() {
    if (thread_.joinable()) {
      ::shutdown(fd_, SHUT_RDWR);
      thread_.join();
    }
  }
  void Join() { thread_.join(); }
  bool sent_all() const { return sent_all_.load(); }

 private:
  int fd_;
  std::thread thread_;
  std::atomic<bool> sent_all_{false};
};

// Waits until every frame the server has read is answered into its outbox
// (no engine work in flight), then returns the outbox gauge. While the
// connection is paused nothing new is read, so the gauge is then settled.
uint64_t SettledOutboxGauge(const NetServer& server, ShardedEngine* engine) {
  EXPECT_TRUE(WaitFor([&] { return server.queued_work() == 0; }))
      << "engine work still in flight";
  return engine->metrics().Read().net_outbox_bytes;
}

// ------------------------------------------------- backpressure watermarks

// THE boundedness check: a client pipelines ~9 MB worth of responses and
// reads NOTHING until the very end. The server must pause the connection at
// the high watermark instead of buffering it all (outbox gauge stays far
// below the owed bytes and stops growing), then resume on drain and answer
// every single frame.
TEST(NetBackpressure, NeverReadingPipelinerIsBoundedPausedThenResumed) {
  const TrajectorySet users = presets::NyfCheckins(1000);
  const TrajectorySet routes = presets::NyBusRoutes(8, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.outbox_high_bytes = 32u << 10;
  options.outbox_low_bytes = 8u << 10;
  // Pin the kernel send buffer: with the autotuned default the kernel
  // absorbs multiple MB before the first EAGAIN, so how fast the pause
  // lands depends on response-production speed — too slow under TSan.
  options.sndbuf_bytes = 32 << 10;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  constexpr size_t kFrames = 2000;  // ≈9 MB of owed responses
  constexpr size_t kBatch = 512;    // response ≈4.6 KiB per frame
  const std::string one = BigSumFrame(kBatch);
  std::string burst;
  burst.reserve(one.size() * kFrames);
  for (size_t i = 0; i < kFrames; ++i) burst += one;

  const int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/8 << 10);
  ASSERT_GE(fd, 0);
  BurstSender sender(fd, burst);

  // The connection must hit the high watermark and pause.
  ASSERT_TRUE(WaitFor([&] {
    return engine.metrics().Read().net_paused_connections >= 1;
  })) << "connection never paused";

  // Bounded: wait for the staged-bytes gauge to settle, then check it is
  // nowhere near the ~9 MB owed. (The bound is the watermark plus the
  // responses for whatever the loop had read before the pause landed — a
  // couple hundred KB — asserted here with generous margin.)
  const uint64_t gauge = SettledOutboxGauge(server, &engine);
  EXPECT_EQ(SettledOutboxGauge(server, &engine), gauge)
      << "outbox still growing while paused";
  EXPECT_LE(gauge, 2u << 20) << "outbox not bounded by the watermarks";

  // Drain: the pause must lift (low watermark) and every pipelined frame
  // must still be answered, in order, well-formed.
  const std::vector<NetResponse> responses =
      ReadFrames(fd, kFrames, /*timeout_ms=*/5000);
  sender.Join();
  EXPECT_TRUE(sender.sent_all());
  ASSERT_EQ(responses.size(), kFrames);
  for (const NetResponse& r : responses) {
    ASSERT_EQ(r.type, MessageType::kSum);
    ASSERT_TRUE(r.status.ok());
    ASSERT_EQ(r.sums.size(), kBatch);
  }
  // Everything delivered: the gauge returns to zero.
  EXPECT_TRUE(
      WaitFor([&] { return engine.metrics().Read().net_outbox_bytes == 0; }));
  EXPECT_GE(engine.metrics().Read().net_paused_connections, 1u);
  ::close(fd);
  server.Stop();
}

// Fairness: while one connection sits paused at its watermark, a second
// client's round-trips must keep completing promptly — pausing is per
// connection, never a loop-wide stall.
TEST(NetBackpressure, PausedConnectionDoesNotStarveOthers) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(8, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.outbox_high_bytes = 32u << 10;
  options.outbox_low_bytes = 8u << 10;
  options.sndbuf_bytes = 32 << 10;  // deterministic EAGAIN, as above
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Big enough that the owed responses overflow the pinned kernel send
  // buffer — the pause only triggers once writes actually hit EAGAIN.
  constexpr size_t kFrames = 2000;
  constexpr size_t kBatch = 512;
  const std::string one = BigSumFrame(kBatch);
  std::string burst;
  burst.reserve(one.size() * kFrames);
  for (size_t i = 0; i < kFrames; ++i) burst += one;
  const int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/8 << 10);
  ASSERT_GE(fd, 0);
  BurstSender sender(fd, burst);
  ASSERT_TRUE(WaitFor([&] {
    return engine.metrics().Read().net_paused_connections >= 1;
  }));

  // 50 sequential round-trips on a fresh connection while the firehose
  // connection is stalled; a per-call timeout turns starvation into a
  // visible failure instead of a test hang.
  NetClient other;
  other.set_timeout_ms(2000);
  ASSERT_TRUE(other.Connect("127.0.0.1", server.port()).ok());
  for (int i = 0; i < 50; ++i) {
    NetResponse response;
    ASSERT_TRUE(other.Sum({0, 1, 2}, &response).ok()) << "round-trip " << i;
    ASSERT_TRUE(response.status.ok());
    ASSERT_EQ(response.sums.size(), 3u);
  }

  const std::vector<NetResponse> responses =
      ReadFrames(fd, kFrames, /*timeout_ms=*/5000);
  sender.Join();
  EXPECT_EQ(responses.size(), kFrames);
  ::close(fd);
  server.Stop();
}

// --------------------------------------------------- admission control

// Overload: with max_queued armed and slow uncached queries on one pool
// thread, a pipelined burst must split into served answers plus in-protocol
// kOverloaded answers — every frame answered, nothing dropped, nothing
// hung, net_shed matching exactly — and a stats scrape must still answer
// mid-overload (inline frames are never shed).
TEST(NetBackpressure, OverloadShedsWithInProtocolAnswers) {
  const TrajectorySet users = presets::NyfCheckins(4000);
  const TrajectorySet routes = presets::NyBusRoutes(16, 10);
  // One pool thread + no cache: every top-k does real multi-shard work, so
  // the queue genuinely backs up behind the first few.
  ShardedEngine engine(users, routes,
                       EngineOptions(4, /*cache=*/0, /*threads=*/1));
  NetServerOptions options;
  options.max_queued = 4;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  constexpr size_t kFrames = 120;
  for (size_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.Send(NetRequest::TopK({8})).ok());
  }
  ASSERT_TRUE(client.Flush().ok());

  // Mid-burst observability: a second connection's stats scrape answers
  // while the engine is saturated.
  NetClient scraper;
  scraper.set_timeout_ms(5000);
  ASSERT_TRUE(scraper.Connect("127.0.0.1", server.port()).ok());
  NetResponse stats;
  ASSERT_TRUE(scraper.Stats(0, &stats).ok());
  ASSERT_TRUE(stats.status.ok());

  size_t served = 0, shed = 0;
  for (size_t i = 0; i < kFrames; ++i) {
    NetResponse response;
    ASSERT_TRUE(client.Receive(&response).ok()) << "frame " << i;
    ASSERT_EQ(response.type, MessageType::kTopK);
    if (response.status.ok()) {
      ++served;
      ASSERT_EQ(response.topks.size(), 1u);
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kOverloaded)
          << response.status.ToString();
      EXPECT_NE(response.status.message().find("back off"),
                std::string::npos);
      ++shed;
    }
  }
  EXPECT_EQ(served + shed, kFrames);
  EXPECT_GE(served, 1u) << "admission control shed everything";
  EXPECT_GE(shed, 1u) << "no overload observed — tighten the test";
  const MetricsView m = engine.metrics().Read();
  EXPECT_EQ(m.net_shed, shed);

  // The shed counter is scrape-visible (what the CI overload gate reads).
  ASSERT_TRUE(scraper.Stats(0, &stats).ok());
  uint64_t scraped_shed = 0;
  for (const auto& [name, value] : stats.stats.counters) {
    if (name == "net_shed") scraped_shed = value;
  }
  EXPECT_EQ(scraped_shed, shed);
  server.Stop();
}

// ------------------------------------------------- standing subscriptions

// THE subscription acceptance check: random publish batches against a mix
// of standing sum and top-k queries; once quiesced, each subscription's
// latest push must equal re-issuing the same query fresh, BIT for BIT, and
// no epoch gaps appear at default watermarks.
TEST(NetBackpressure, SubscriptionPushesMatchFreshQueriesBitIdentically) {
  const TrajectorySet users = presets::NyfCheckins(1000);
  const TrajectorySet routes = presets::NyBusRoutes(10, 8);
  ShardedEngine engine(users, routes, EngineOptions(4));
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient sub;
  ASSERT_TRUE(sub.Connect("127.0.0.1", server.port()).ok());
  struct Standing {
    net::SubscriptionKind kind;
    FacilityId facility;
    uint32_t k;
  };
  std::map<uint64_t, Standing> standing;
  NetResponse response;
  for (FacilityId f = 0; f < 5; ++f) {
    ASSERT_TRUE(sub.SubscribeSum(f, &response).ok());
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    standing[response.sub_id] = {net::SubscriptionKind::kSum, f, 0};
  }
  for (const uint32_t k : {3u, 8u}) {
    ASSERT_TRUE(sub.SubscribeTopK(k, &response).ok());
    ASSERT_TRUE(response.status.ok());
    standing[response.sub_id] = {net::SubscriptionKind::kTopK, 0, k};
  }
  ASSERT_EQ(standing.size(), 7u);
  EXPECT_EQ(server.active_subscriptions(), 7u);

  // Random churn through a second connection: inserts from the preset pool
  // plus removes of previously assigned ids.
  NetClient publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  Rng rng(1234);
  std::vector<uint32_t> live_ids;
  for (int round = 0; round < 12; ++round) {
    std::vector<std::vector<Point>> inserts;
    const size_t n_ins = 1 + rng.NextBelow(3);
    for (size_t i = 0; i < n_ins; ++i) {
      const auto pts =
          users.points(static_cast<uint32_t>(rng.NextBelow(users.size())));
      inserts.emplace_back(pts.begin(), pts.end());
    }
    std::vector<uint32_t> removes;
    if (!live_ids.empty() && rng.NextBelow(2) == 0) {
      removes.push_back(live_ids.back());
      live_ids.pop_back();
    }
    ASSERT_TRUE(publisher.Update(inserts, removes, &response).ok());
    ASSERT_TRUE(response.status.ok());
    for (const uint32_t id : response.assigned_ids) live_ids.push_back(id);
  }

  // Quiesce: evaluations and pushes stop moving once the last publish's
  // coalesced re-evaluations settle.
  uint64_t evaluated = 0, pushed = 0;
  ASSERT_TRUE(WaitFor([&] {
    const MetricsView m = engine.metrics().Read();
    const bool stable =
        m.subs_evaluated == evaluated && m.subs_pushed == pushed;
    evaluated = m.subs_evaluated;
    pushed = m.subs_pushed;
    return stable && pushed != 0;
  }));

  // Drain every push; remember the latest per subscription.
  sub.set_timeout_ms(300);
  std::map<uint64_t, NetResponse> latest;
  size_t received = 0;
  NetResponse push;
  while (sub.ReceivePush(&push).ok()) {
    ASSERT_EQ(push.type, MessageType::kPush);
    ASSERT_EQ(standing.count(push.sub_id), 1u) << "push for unknown sub";
    ++received;
    latest[push.sub_id] = push;
  }
  EXPECT_EQ(received, engine.metrics().Read().subs_pushed);
  EXPECT_EQ(sub.push_gaps(), 0u) << "dropped pushes at default watermarks";
  ASSERT_EQ(latest.size(), standing.size()) << "a subscription never pushed";

  // Bit-identity: the latest push equals the same query issued fresh.
  sub.set_timeout_ms(5000);
  for (const auto& [id, spec] : standing) {
    const NetResponse& last = latest[id];
    EXPECT_EQ(last.push_epoch, sub.last_push_epoch(id));
    if (spec.kind == net::SubscriptionKind::kSum) {
      ASSERT_TRUE(sub.Sum({spec.facility}, &response).ok());
      ASSERT_TRUE(response.status.ok());
      ASSERT_EQ(last.push_sum.code, StatusCode::kOk);
      EXPECT_EQ(last.push_sum.value, response.sums[0].value)
          << "sum sub " << id << " facility " << spec.facility;
    } else {
      ASSERT_TRUE(sub.TopK({spec.k}, &response).ok());
      ASSERT_TRUE(response.status.ok());
      ASSERT_EQ(last.push_topk.code, StatusCode::kOk);
      const auto& want = response.topks[0].ranked;
      ASSERT_EQ(last.push_topk.ranked.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(last.push_topk.ranked[i].id, want[i].id);
        EXPECT_EQ(last.push_topk.ranked[i].value, want[i].value);
      }
    }
  }
  EXPECT_EQ(engine.metrics().Read().subs_registered, 7u);
  server.Stop();
}

// A publish whose batch changes no shard (removes of unknown ids, or an
// empty batch) must re-evaluate NOTHING: only subs_skipped moves, no push
// appears. This is the generation-vector affect check doing its job.
TEST(NetBackpressure, NoOpPublishSkipsEverySubscription) {
  const TrajectorySet users = presets::NyfCheckins(600);
  const TrajectorySet routes = presets::NyBusRoutes(6, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  NetClient sub;
  ASSERT_TRUE(sub.Connect("127.0.0.1", server.port()).ok());
  NetResponse response;
  for (FacilityId f = 0; f < 3; ++f) {
    ASSERT_TRUE(sub.SubscribeSum(f, &response).ok());
    ASSERT_TRUE(response.status.ok());
  }
  // Let the three initial evaluations land before snapshotting counters.
  ASSERT_TRUE(
      WaitFor([&] { return engine.metrics().Read().subs_pushed == 3; }));
  const MetricsView before = engine.metrics().Read();
  EXPECT_EQ(before.subs_evaluated, 3u);

  // Remove an id that does not exist: the publish runs, no shard changes.
  NetClient publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(publisher.Update({}, {1000000}, &response).ok());
  ASSERT_TRUE(response.status.ok());
  // The skip accounting happens before the update ack is staged, so it is
  // already visible here.
  MetricsView after = engine.metrics().Read();
  EXPECT_EQ(after.subs_skipped, before.subs_skipped + 3);
  EXPECT_EQ(after.subs_evaluated, before.subs_evaluated);
  EXPECT_EQ(after.subs_pushed, before.subs_pushed);

  // And stays that way: no delayed evaluation sneaks in.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  after = engine.metrics().Read();
  EXPECT_EQ(after.subs_evaluated, before.subs_evaluated);
  EXPECT_EQ(after.subs_pushed, before.subs_pushed);

  // An entirely empty batch is not even a publish: nothing moves at all.
  ASSERT_TRUE(publisher.Update({}, {}, &response).ok());
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(engine.metrics().Read().subs_skipped, after.subs_skipped);

  // A real insert after all this still reaches every subscription.
  const auto pts = users.points(0);
  ASSERT_TRUE(publisher
                  .Update({std::vector<Point>(pts.begin(), pts.end())}, {},
                          &response)
                  .ok());
  ASSERT_TRUE(
      WaitFor([&] { return engine.metrics().Read().subs_pushed >= 6; }));
  server.Stop();
}

// Slow consumer: a subscriber that stops reading loses pushes once its
// outbox backlog hits the high watermark — but every lost push burns its
// epoch number, so the next delivered push exposes the gap. (Read-side
// pause cannot protect a push-based stream; the epoch tag is the client's
// resynchronization signal.)
TEST(NetBackpressure, DroppedPushesLeaveDetectableEpochGaps) {
  const TrajectorySet users = presets::NyfCheckins(800);
  const TrajectorySet routes = presets::NyBusRoutes(128, 6);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServerOptions options;
  options.outbox_high_bytes = 8u << 10;  // pushes ≈1.6 KiB: drops come fast
  options.outbox_low_bytes = 2u << 10;
  // Pin the kernel-side buffer: with an autotuned SO_SNDBUF the kernel
  // happily absorbs this whole test's push volume and the app backlog
  // never reaches the watermark.
  options.sndbuf_bytes = 4 << 10;
  NetServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  // Raw subscriber with a tiny receive window that never reads.
  const int fd = RawConnect(server.port(), /*rcvbuf_bytes=*/4 << 10);
  ASSERT_GE(fd, 0);
  std::string wire;
  EncodeRequest(NetRequest::SubscribeTopK(128), &wire);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));
  ASSERT_TRUE(
      WaitFor([&] { return engine.metrics().Read().subs_evaluated == 1; }));

  // Serialized publishes: wait out each evaluation so nothing coalesces —
  // every publish then consumes exactly one epoch (pushed or dropped).
  NetClient publisher;
  ASSERT_TRUE(publisher.Connect("127.0.0.1", server.port()).ok());
  constexpr uint64_t kPublishes = 120;
  NetResponse response;
  for (uint64_t i = 1; i <= kPublishes; ++i) {
    const auto pts =
        users.points(static_cast<uint32_t>(i % users.size()));
    ASSERT_TRUE(publisher
                    .Update({std::vector<Point>(pts.begin(), pts.end())},
                            {}, &response)
                    .ok());
    ASSERT_TRUE(response.status.ok());
    ASSERT_TRUE(WaitFor([&] {
      return engine.metrics().Read().subs_evaluated == 1 + i;
    })) << "publish " << i;
  }
  // Far more epochs were assigned than pushes staged: drops happened.
  const MetricsView mid = engine.metrics().Read();
  ASSERT_EQ(mid.subs_evaluated, 1 + kPublishes);
  ASSERT_LT(mid.subs_pushed, mid.subs_evaluated)
      << "no push was ever dropped — shrink the watermark";

  // Drain what was delivered. Drops interleave with deliveries (the kernel
  // buffer keeps draining bytes between publishes), so the received epochs
  // are strictly increasing but NOT contiguous — exactly what a client
  // resynchronizing from push_epoch would see.
  std::vector<NetResponse> frames = ReadFrames(
      fd, /*want=*/static_cast<size_t>(kPublishes) + 2, /*timeout_ms=*/500);
  uint64_t last_epoch = 0;
  size_t pushes_seen = 0, gaps = 0;
  for (const NetResponse& r : frames) {
    if (r.type != MessageType::kPush) {
      EXPECT_EQ(r.type, MessageType::kSubscribe);  // the subscribe ack
      continue;
    }
    ++pushes_seen;
    EXPECT_GT(r.push_epoch, last_epoch) << "pushes out of order";
    if (r.push_epoch != last_epoch + 1) ++gaps;  // the client's gap rule
    last_epoch = r.push_epoch;
  }
  ASSERT_GE(pushes_seen, 1u);
  EXPECT_LT(pushes_seen, static_cast<size_t>(1 + kPublishes))
      << "every assigned epoch was delivered — nothing dropped";

  // One more publish now that the backlog is drained: its push delivers
  // with the next fresh epoch. Whether the drops interleaved with the
  // drained stream or truncated its tail, fewer epochs arrived than were
  // assigned, so somewhere — possibly only at this final push — the
  // sequence must jump: the client-visible gap.
  const auto pts = users.points(7);
  ASSERT_TRUE(publisher
                  .Update({std::vector<Point>(pts.begin(), pts.end())}, {},
                          &response)
                  .ok());
  const std::vector<NetResponse> tail =
      ReadFrames(fd, /*want=*/1, /*timeout_ms=*/5000);
  ASSERT_EQ(tail.size(), 1u);
  ASSERT_EQ(tail[0].type, MessageType::kPush);
  EXPECT_EQ(tail[0].push_epoch, 2 + kPublishes);
  if (tail[0].push_epoch != last_epoch + 1) ++gaps;
  EXPECT_GE(gaps, 1u) << "drops left no visible epoch gap";
  ::close(fd);
  server.Stop();
}

// Subscription lifecycle accounting: per-connection ownership of ids,
// NotFound on double/foreign unsubscribe, and close-of-connection reaping
// every registration.
TEST(NetBackpressure, UnsubscribeAndConnectionCloseReapSubscriptions) {
  const TrajectorySet users = presets::NyfCheckins(400);
  const TrajectorySet routes = presets::NyBusRoutes(6, 8);
  ShardedEngine engine(users, routes, EngineOptions(2));
  NetServer server(&engine, NetServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  NetClient a;
  ASSERT_TRUE(a.Connect("127.0.0.1", server.port()).ok());
  NetResponse response;
  std::vector<uint64_t> ids;
  for (FacilityId f = 0; f < 3; ++f) {
    ASSERT_TRUE(a.SubscribeSum(f, &response).ok());
    ASSERT_TRUE(response.status.ok());
    ids.push_back(response.sub_id);
  }
  EXPECT_EQ(server.active_subscriptions(), 3u);
  // Out-of-catalog facility: rejected in-protocol, nothing registered.
  ASSERT_TRUE(a.SubscribeSum(9999, &response).ok());
  EXPECT_EQ(response.status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(server.active_subscriptions(), 3u);

  ASSERT_TRUE(a.Unsubscribe(ids[1], &response).ok());
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.sub_id, ids[1]);
  EXPECT_EQ(server.active_subscriptions(), 2u);
  // Double unsubscribe: NotFound, connection survives.
  ASSERT_TRUE(a.Unsubscribe(ids[1], &response).ok());
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);

  // Another connection cannot unsubscribe A's standing queries.
  NetClient b;
  ASSERT_TRUE(b.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(b.Unsubscribe(ids[0], &response).ok());
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(server.active_subscriptions(), 2u);

  // Closing the owning connection reaps the rest.
  a.Close();
  ASSERT_TRUE(WaitFor([&] { return server.active_subscriptions() == 0; }));

  // Publishes after the reap evaluate nothing and push nothing.
  const MetricsView before = engine.metrics().Read();
  const auto pts = users.points(0);
  ASSERT_TRUE(b.Update({std::vector<Point>(pts.begin(), pts.end())}, {},
                       &response)
                  .ok());
  ASSERT_TRUE(response.status.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const MetricsView after = engine.metrics().Read();
  EXPECT_EQ(after.subs_evaluated, before.subs_evaluated);
  EXPECT_EQ(after.subs_skipped, before.subs_skipped);
  EXPECT_EQ(after.subs_pushed, before.subs_pushed);
  ASSERT_TRUE(b.Sum({0}, &response).ok());
  EXPECT_TRUE(response.status.ok());
  server.Stop();
}

// ------------------------------------- coordinator worker-set persistence

// serve --coordinator --data-dir persists the verified worker set; the
// restart path reloads it without --workers (the PR-9 carry-forward). The
// file logic lives in RemoteShardSet so it is testable here; the CI
// distributed-smoke job restarts a real coordinator on top of it.
TEST(NetBackpressure, WorkerSetPersistsAndRecovers) {
  using runtime::RemoteShardSet;
  const std::string dir =
      ::testing::TempDir() + "tq_worker_set_" +
      std::to_string(static_cast<unsigned>(::getpid()));
  std::remove((dir + "/workers.txt").c_str());

  std::vector<std::pair<std::string, uint16_t>> saved = {
      {"127.0.0.1", 7001}, {"10.1.2.3", 7002}, {"worker-c.local", 65535}};
  ASSERT_TRUE(RemoteShardSet::SaveWorkerSet(dir, saved).ok());
  std::vector<std::pair<std::string, uint16_t>> loaded;
  ASSERT_TRUE(RemoteShardSet::LoadWorkerSet(dir, &loaded).ok());
  EXPECT_EQ(loaded, saved);

  // Overwrite semantics: a re-save replaces, never appends.
  saved.pop_back();
  ASSERT_TRUE(RemoteShardSet::SaveWorkerSet(dir, saved).ok());
  loaded.clear();
  ASSERT_TRUE(RemoteShardSet::LoadWorkerSet(dir, &loaded).ok());
  EXPECT_EQ(loaded, saved);

  // Missing file is NotFound (the CLI falls through to "needs --workers").
  std::vector<std::pair<std::string, uint16_t>> none;
  const Status missing =
      RemoteShardSet::LoadWorkerSet(dir + "_nonexistent", &none);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  EXPECT_TRUE(none.empty());

  // A corrupt line is a loud IOError, not a silently skipped worker.
  std::FILE* f = std::fopen((dir + "/workers.txt").c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("127.0.0.1:7001\nnot-an-endpoint\n", f);
  std::fclose(f);
  const Status corrupt = RemoteShardSet::LoadWorkerSet(dir, &none);
  EXPECT_FALSE(corrupt.ok());
  EXPECT_NE(corrupt.code(), StatusCode::kNotFound);
  std::remove((dir + "/workers.txt").c_str());
}

}  // namespace
}  // namespace tq
