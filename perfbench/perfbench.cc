// The serving benchmark: drives the real kMaxRRST serving stack (sharded
// engine, TCP front-end, coordinator plus workers, WAL and checkpoints) over
// loopback from one process, on named workloads (read_cold, read_hot and
// churn are BENCHMARK.json's; coordinator is for runs by hand), and checks
// every answer against a brute-force oracle (oracle.h). See README.md for
// the workloads, the metrics and the layer-to-metric map.
//
//   perfbench --workload read_cold|read_hot|churn|coordinator
//             [--seed N] [--seconds S] [--trace 0|1]
//             [--spans-dir DIR] [--tmp-dir DIR] [--scale X]
//             [--cpus N] [--publish-rate R]
//
// --scale, --cpus and --publish-rate override the workload's data scale,
// the number of CPUs the process runs on, and churn's publish rate. They
// are for reference runs (the per-layer figures of README.md at the other
// scale, the rate search); the benchmark's own runs never pass them.
//
// With --trace 0 the last stdout line is one JSON object holding the
// end-to-end metrics (kEndToEnd, the same on every workload); with
// --trace 1 the same load runs with a span around every client call, then
// a fixed sample of the request stream is walked serially down the layer
// ladder, and the JSON holds the per-layer metrics (kPerLayer). Figures of
// one workload only go to a `# more:` line before the JSON. Spans are
// written to DIR/<workload>-seed<N>.jsonl.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "datagen/checkins.h"
#include "datagen/presets.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "oracle.h"
#include "query/eval_service.h"
#include "runtime/histogram.h"
#include "runtime/remote_shard_set.h"
#include "runtime/sharded_engine.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using tq::Point;
using tq::QueryStats;
using tq::RankedFacility;
using tq::TrajectorySet;
using tq::net::NetClient;
using tq::net::NetResponse;
using tq::net::NetServer;
using tq::net::NetServerOptions;
using tq::runtime::MetricsView;
using tq::runtime::QueryRequest;
using tq::runtime::QueryResponse;
using tq::runtime::RemoteShardSet;
using tq::runtime::RemoteShardSetOptions;
using tq::runtime::ServingEngine;
using tq::runtime::ShardedEngine;
using tq::runtime::ShardedEngineOptions;
using tq::runtime::ShardStatePtr;
using tq::runtime::UpdateBatch;

// ------------------------------------------------------------ constants

// NYF check-in users at full scale; scale 0.02 → 4,255, scale 0.1 → 21,275.
constexpr size_t kNyfFullUsers = 212750;
constexpr size_t kRoutes = 128;
constexpr size_t kStopsPerRoute = 64;
// The served users and routes are the NYF and NY-bus presets: the same
// data on every seed. Data drawn per seed moved the figures far more than
// anything else: one GenerateCheckins call puts ~12% of all check-ins on
// one of 2,000 Zipf-popular venues, and where that venue falls decides how
// much a top-k can prune. Across five seeds read_cold's top-k throughput
// ranged 53-98/s; one seed repeated three times ranged 34.6-36.9/s.
// The seed drives the request streams, the Zipf draws and the inserted
// trajectories, which churn draws from kFreshParts generator calls so that
// no single venue universe dominates its publishes.
constexpr size_t kFreshParts = 16;
constexpr double kPsi = 200.0;
constexpr size_t kBeta = 64;
constexpr size_t kShards = 4;
constexpr size_t kEngineThreads = 4;
constexpr uint32_t kTopK = 10;
constexpr size_t kCacheEntries = 4096;
// How many times set-up is repeated in one run (setup_s is their median).
constexpr int kSetups = 21;
// The process runs on this many CPUs (the last ones it may use). On a
// shared 4-vCPU host a fan-out request wakes idle vCPUs, and each wake-up
// waits for the hypervisor: at 4 CPUs read_cold showed 10-47% steal and
// its top-k throughput ranged 36-70/s between runs; pinned to one CPU,
// steal stayed near 2% and the range was 15.9-16.3/s. See README.md.
constexpr int kCpus = 1;

// churn: open-loop publish rate, checkpoint cadence and standing queries.
// The rate is a fixed share of the highest rate the program sustained
// without a growing backlog (README.md, "Publish rate").
constexpr double kPublishRate = 20.0;  // publishes per second
// A thread of its own calls Checkpoint() after every kCheckpointEvery
// timed publishes, so every run makes the same number of checkpoint cycles
// while the publisher keeps to its schedule.
constexpr size_t kCheckpointEvery = 48;
// The open-loop publisher must keep to its schedule: no publish may be
// sent later than this after it was due. A growing backlog breaks it
// within seconds; a checkpoint or a slow publish does not.
constexpr uint64_t kMaxPublishLagNs = 500'000'000;
constexpr size_t kSubscriptions = 8;
constexpr double kZipfS = 1.0;
constexpr uint64_t kPopularitySeed = 1;
// Readers pause between calls, so that reads, publishes and subscription
// re-evaluation share the cores without saturating them.
constexpr uint64_t kReaderThinkNs = 10'000'000;
constexpr int kRecoveries = 21;
// Recovery replays a checkpoint plus exactly this many WAL batches: after
// the load, the engine is checkpointed quiesced and then given this many
// in-process publishes, so the tail does not depend on where the last
// checkpoint of the load happened to fall.
constexpr size_t kTailBatches = 16;

// The metrics of the result line, the same on every workload and in the
// same order as in BENCHMARK.json. A workload times two request classes,
// its main and its side class: sums and k = 10 top-k on the read
// workloads, publishes and the pushes they cause on churn.
const std::vector<std::string> kEndToEnd = {
    "setup_s",  "main_rps",    "main_p50_ms", "main_p90_ms",
    "side_rps", "side_p50_ms", "side_p90_ms", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "service.evaluate_ns",          "service.exact_checks_per_sum",
    "query.alg1_us",                "query.entries_scanned_per_sum",
    "tqtree.upper_bound_us",        "tqtree.bound_over_exact",
    "tqtree.nodes_visited_per_sum", "tqtree.zreduce_buckets_per_sum",
    "runtime.sum_us",               "runtime.topk_us",
    "net.sum_self_us",              "net.topk_self_us",
    "net.bytes_per_query"};

// Every load first runs this long untimed, so lazy set-up and the first
// scheduling transients stay out of the figures.
constexpr uint64_t kWarmupNs = 1'000'000'000;

// Read workloads: closed-loop connections per phase, the share of the run
// given to sums, and how often the two phases alternate. A top-k costs
// ~100 sums; the top-k phases get the larger share so that their p90 has
// well over ten samples beyond it.
constexpr uint64_t kReadClients = 2;
constexpr double kSumShare = 0.4;
constexpr size_t kRounds = 4;

// Latency samples one client may record without reallocating.
constexpr size_t kMaxSamples = size_t{1} << 21;

// Traced ladder sample sizes.
constexpr size_t kLadderSums = 32;
constexpr size_t kLadderEvalFacilities = 8;
constexpr size_t kLadderTopKs = 16;
constexpr size_t kLadderPublishes = 16;

uint64_t Now() { return tq::runtime::NowNs(); }
uint32_t Sample(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }
double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".bench_build/spans";
  std::string tmp_dir = ".bench_build/tmp";
  double scale = 0;  // 0 = the workload's own
  int cpus = kCpus;
  double publish_rate = kPublishRate;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::atof(v);
    } else if (a == "--trace") {
      args->trace = std::atoi(v) != 0;
    } else if (a == "--spans-dir") {
      args->spans_dir = v;
    } else if (a == "--tmp-dir") {
      args->tmp_dir = v;
    } else if (a == "--scale") {
      args->scale = std::atof(v);
    } else if (a == "--cpus") {
      args->cpus = std::atoi(v);
    } else if (a == "--publish-rate") {
      args->publish_rate = std::atof(v);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         args->publish_rate > 0;
}

/// Restricts the process to the last `n` CPUs it may run on. Called once
/// the inputs and the oracle are ready and before the stack starts: the
/// calling thread takes the mask and every thread started later inherits
/// it.
bool PinToCpus(int n) {
  if (n <= 0) return false;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  int taken = 0;
  for (int c = CPU_SETSIZE - 1; c >= 0 && taken < n; --c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &mask);
      ++taken;
    }
  }
  return taken == n && sched_setaffinity(0, sizeof(mask), &mask) == 0;
}

int NoCpus(const Args& args) {
  std::fprintf(stderr, "perfbench: cannot run on %d CPUs\n", args.cpus);
  return 2;
}

// ------------------------------------------------------------ randomness

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed of one named stream of a run: every stream (users, routes, fresh
/// trajectories, each client's requests) derives from --seed and a tag.
uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  return SplitMix(SplitMix(seed) ^ (tag * 0x9E3779B97F4A7C15ULL));
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    s_ += 0x9E3779B97F4A7C15ULL;
    return SplitMix(s_);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }

 private:
  uint64_t s_;
};

std::vector<uint32_t> Permutation(size_t n, uint64_t seed) {
  std::vector<uint32_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = static_cast<uint32_t>(i);
  Rng rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.Below(i)]);
  return p;
}

/// Zipf(s) over ranks 0..n-1, mapped to facilities through a seeded
/// popularity order.
class Zipf {
 public:
  Zipf(size_t n, double s, uint64_t seed) : by_rank_(Permutation(n, seed)) {
    double acc = 0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_.push_back(acc);
    }
    for (double& c : cdf_) c /= acc;
  }
  uint32_t Sample(Rng* rng) const {
    const double u = rng->Uniform();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return by_rank_[std::min(r, by_rank_.size() - 1)];
  }
  /// The facility at popularity rank `r` (0 = most popular).
  uint32_t AtRank(size_t r) const { return by_rank_[r]; }

 private:
  std::vector<uint32_t> by_rank_;
  std::vector<double> cdf_;
};

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile over every recorded sample, in ms.
double PercentileMs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0.0;
  std::sort(ns.begin(), ns.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return Ms(ns[rank - 1]);
}

/// Samples strictly beyond the nearest-rank percentile `p`.
size_t Beyond(size_t n, double p) {
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double MedianUs(const std::vector<uint64_t>& ns) {
  std::vector<double> us;
  us.reserve(ns.size());
  for (uint64_t x : ns) us.push_back(Us(x));
  return Median(std::move(us));
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

// ------------------------------------------------------------ spans

/// One timed interval. Spans of one request share `req`; `parent` is the
/// id of the enclosing span (0 = a root).
struct Span {
  const char* name;
  uint64_t id;
  uint64_t parent;
  uint64_t req;
  int32_t shard;
  uint64_t start_ns;
  uint64_t end_ns;
};

/// Per-thread span buffer: kept in memory, written when the run ends.
class SpanLog {
 public:
  SpanLog(bool on, uint64_t id_base) : on_(on), next_id_(id_base) {
    if (on_) spans_.reserve(1 << 16);
  }
  uint64_t Add(const char* name, uint64_t parent, uint64_t req,
               uint64_t start, uint64_t end, int32_t shard = -1) {
    if (!on_) return 0;
    const uint64_t id = ++next_id_;
    spans_.push_back(Span{name, id, parent, req, shard, start, end});
    return id;
  }
  /// Reserves an id for a span whose end is not known yet (a parent).
  uint64_t Reserve() { return on_ ? ++next_id_ : 0; }
  void AddWithId(uint64_t id, const char* name, uint64_t parent, uint64_t req,
                 uint64_t start, uint64_t end) {
    if (on_) spans_.push_back(Span{name, id, parent, req, -1, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  uint64_t next_id_;
  std::vector<Span> spans_;
};

void WriteSpans(const Args& args, uint64_t origin,
                const std::vector<const SpanLog*>& logs) {
  std::error_code ec;
  fs::create_directories(args.spans_dir, ec);
  const std::string path = args.spans_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  size_t n = 0;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                   ",\"req\":%" PRIu64 ",\"shard\":%d,\"start_ns\":%" PRIu64
                   ",\"end_ns\":%" PRIu64 "}\n",
                   s.name, s.id, s.parent, s.req, s.shard,
                   s.start_ns - origin, s.end_ns - origin);
      ++n;
    }
  }
  std::fclose(f);
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", n,
               path.c_str());
}

// ------------------------------------------------------------ reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(Metric{name, value, unit});
  }
  /// Prints the run's result line, the last line of standard output,
  /// holding exactly the metrics named in `names`, in that order. Figures
  /// not named there go to a `# more:` line before it. Returns false, and
  /// prints no result line, if a named metric was never added.
  bool Print(bool correct, uint64_t attempted, uint64_t failed,
             const std::vector<std::string>& names) const {
    std::string more;
    for (const Metric& m : metrics_) {
      if (std::find(names.begin(), names.end(), m.name) == names.end()) {
        more += " " + m.name + "=" + Format(m.value) + " " + m.unit + ";";
      }
    }
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (size_t i = 0; i < names.size(); ++i) {
      const auto m = std::find_if(metrics_.begin(), metrics_.end(),
                                  [&](const Metric& x) {
                                    return x.name == names[i];
                                  });
      if (m == metrics_.end()) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                     names[i].c_str());
        return false;
      }
      if (i) s += ", ";
      s += "\"" + m->name + "\": {\"value\": " + Format(m->value) +
           ", \"unit\": \"" + m->unit + "\"}";
    }
    s += "}}";
    std::fflush(stderr);
    if (!more.empty()) std::printf("# more:%s\n", more.c_str());
    std::printf("%s\n", s.c_str());
    std::fflush(stdout);
    return true;
  }

 private:
  static std::string Format(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
  }

  std::vector<Metric> metrics_;
};

/// Correctness verdict of a run: every failed check is named on stderr.
class Verdict {
 public:
  void Fail(const std::string& what) {
    if (failures_ < 20) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                                     what.c_str());
    ++failures_;
  }
  void Expect(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool ok() const { return failures_ == 0; }

 private:
  size_t failures_ = 0;
};

// ------------------------------------------------------------ inputs

struct Inputs {
  TrajectorySet users;
  TrajectorySet facilities;
  TrajectorySet fresh;       // churn: one inserted trajectory per publish
  std::vector<double> rows;  // oracle S(u, f) of `users`, row-major
  std::vector<double> fresh_rows;
  std::vector<double> totals;  // oracle SO(U, f) of the initial user set
};

Inputs MakeInputs(double scale, uint64_t seed, size_t num_fresh) {
  Inputs in;
  in.users = tq::presets::NyfCheckins(static_cast<size_t>(
      std::llround(static_cast<double>(kNyfFullUsers) * scale)));
  in.facilities = tq::presets::NyBusRoutes(kRoutes, kStopsPerRoute);
  // The inserted trajectories come from kFreshParts seeded generator
  // calls, interleaved so every stretch of publishes draws from all of them.
  const tq::CityModel city = tq::presets::NewYork();
  std::vector<TrajectorySet> fresh_parts;
  for (size_t k = 0; num_fresh > 0 && k < kFreshParts; ++k) {
    tq::CheckinOptions co;
    co.num_trajectories = (num_fresh + kFreshParts - 1) / kFreshParts;
    co.seed = StreamSeed(seed, 3000 + k);
    fresh_parts.push_back(tq::GenerateCheckins(city, co));
  }
  for (uint32_t i = 0; in.fresh.size() < num_fresh; ++i) {
    for (const TrajectorySet& part : fresh_parts) {
      if (in.fresh.size() < num_fresh) in.fresh.Add(part.points(i));
    }
  }
  const Oracle oracle(in.facilities, kPsi);
  // The oracle runs before the process is pinned (see PinToCpus), on
  // every CPU it may use.
  const unsigned threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  in.rows = oracle.Rows(in.users, threads);
  in.fresh_rows = oracle.Rows(in.fresh, threads);
  std::vector<long double> acc(kRoutes, 0.0L);
  for (size_t u = 0; u < in.users.size(); ++u) {
    for (size_t f = 0; f < kRoutes; ++f) acc[f] += in.rows[u * kRoutes + f];
  }
  for (const long double t : acc) in.totals.push_back(static_cast<double>(t));
  return in;
}

ShardedEngineOptions EngineOptions(bool cache) {
  ShardedEngineOptions o;
  o.num_shards = kShards;
  o.num_threads = kEngineThreads;
  o.cache_capacity = cache ? kCacheEntries : 0;
  o.tree.beta = kBeta;
  o.tree.model = tq::ServiceModel::PointCount(kPsi);
  return o;
}

// ------------------------------------------------------------ the stack

struct Spec {
  std::string name;
  double scale;
  bool cache;
  bool durable;
  bool coordinator;
};

/// The serving stack of one workload: a single-process engine behind a
/// NetServer, or two slice-owning worker engines behind their own
/// NetServers plus a RemoteShardSet coordinator behind the front NetServer.
struct Stack {
  std::vector<std::unique_ptr<ShardedEngine>> engines;
  std::vector<std::unique_ptr<NetServer>> worker_servers;
  std::unique_ptr<RemoteShardSet> coord;
  std::unique_ptr<NetServer> front;
  ShardedEngineOptions options;

  ServingEngine* front_engine() {
    return coord ? static_cast<ServingEngine*>(coord.get())
                 : static_cast<ServingEngine*>(engines[0].get());
  }
  ShardedEngine* engine() { return engines[0].get(); }
  uint16_t port() const { return front->port(); }

  /// Every shard state that holds a tree, in shard order, with its catalog.
  std::vector<ShardStatePtr> Shards(
      std::shared_ptr<const tq::FacilityCatalog>* catalog) const {
    std::vector<ShardStatePtr> out(kShards);
    for (const auto& e : engines) {
      const auto snap = e->snapshot();
      *catalog = snap->catalog;
      for (size_t s = 0; s < kShards; ++s) {
        if (e->Owns(s)) out[s] = snap->shards[s];
      }
    }
    return out;
  }

  void Stop() {
    if (front) front->Stop();
    front.reset();
    coord.reset();
    for (auto& s : worker_servers) s->Stop();
    worker_servers.clear();
    engines.clear();
  }
};

bool BuildStack(const Spec& spec, const Inputs& in, const std::string& dir,
                Stack* stack) {
  stack->options = EngineOptions(spec.cache);
  if (spec.durable) {
    stack->options.durability.data_dir = dir;
    stack->options.durability.wal_sync = tq::storage::WalSync::kAlways;
  }
  if (!spec.coordinator) {
    stack->engines.push_back(std::make_unique<ShardedEngine>(
        in.users, in.facilities, stack->options));
    stack->front = std::make_unique<NetServer>(stack->engines[0].get(),
                                               NetServerOptions{});
    return stack->front->Start().ok();
  }
  RemoteShardSetOptions ro;
  for (uint32_t w = 0; w < 2; ++w) {
    ShardedEngineOptions wo = stack->options;
    wo.num_threads = kEngineThreads / 2;
    wo.owned_begin = w * 2;
    wo.owned_end = w * 2 + 2;
    stack->engines.push_back(
        std::make_unique<ShardedEngine>(in.users, in.facilities, wo));
    stack->worker_servers.push_back(std::make_unique<NetServer>(
        stack->engines.back().get(), NetServerOptions{}));
    if (!stack->worker_servers.back()->Start().ok()) return false;
    ro.workers.emplace_back("127.0.0.1", stack->worker_servers.back()->port());
  }
  ro.num_threads = kEngineThreads;
  stack->coord = std::make_unique<RemoteShardSet>(ro);
  if (!stack->coord->Connect().ok()) return false;
  stack->front =
      std::make_unique<NetServer>(stack->coord.get(), NetServerOptions{});
  return stack->front->Start().ok();
}

/// Builds the stack kSetups times (tearing down all but the last) and
/// returns the median set-up time in seconds.
double SetUp(const Spec& spec, const Inputs& in, const std::string& tmp,
             Stack* stack, Verdict* verdict) {
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    const std::string dir = tmp + "/data-" + std::to_string(i);
    if (spec.durable) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
    Stack attempt;
    const uint64_t t0 = Now();
    const bool ok = BuildStack(spec, in, dir, &attempt);
    times.push_back(static_cast<double>(Now() - t0) / 1e9);
    verdict->Expect(ok, "stack set-up");
    if (!ok) {
      attempt.Stop();
      continue;
    }
    if (i + 1 == kSetups) {
      *stack = std::move(attempt);
    } else {
      attempt.Stop();
      if (spec.durable) {
        std::error_code ec;
        fs::remove_all(dir, ec);
      }
    }
  }
  return Median(times);
}

// ------------------------------------------------------------ client load

struct SumRec {
  uint32_t facility;
  uint64_t version;
  double value;
};
struct TopKRec {
  uint64_t version;
  std::vector<RankedFacility> ranked;
};

/// What one load client saw: latencies of every completed call, the
/// distinct answers (checked after the load, never inside it), and
/// operation counts. Answers repeat — one facility at one snapshot version
/// has one sum — so keeping each distinct answer once bounds the log's
/// memory, which would otherwise grow with throughput into peak_rss_mb.
struct ClientLog {
  ClientLog(bool trace, uint64_t id_base) : spans(trace, id_base) {
    // Reserved, not touched: pages count towards peak_rss_mb only once a
    // sample lands in them, and no reallocation doubles the buffer.
    // Samples are 32-bit nanoseconds (up to 4.29 s) to halve that share.
    sum_ns.reserve(kMaxSamples);
    topk_ns.reserve(kMaxSamples);
  }

  void AddSum(uint32_t facility, uint64_t version, double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    const std::string key = std::to_string(facility) + ":" +
                            std::to_string(version) + ":" +
                            std::to_string(bits);
    if (seen.insert(key).second) sums.push_back({facility, version, value});
  }
  void AddTopK(uint64_t version, std::vector<RankedFacility> ranked) {
    std::string key(reinterpret_cast<const char*>(&version), sizeof(version));
    for (const RankedFacility& r : ranked) {
      key.append(reinterpret_cast<const char*>(&r.id), sizeof(r.id));
      key.append(reinterpret_cast<const char*>(&r.value), sizeof(r.value));
    }
    if (seen.insert("k" + key).second) {
      topks.push_back({version, std::move(ranked)});
    }
  }

  std::vector<uint32_t> sum_ns, topk_ns;
  std::vector<SumRec> sums;
  std::vector<TopKRec> topks;
  std::unordered_set<std::string> seen;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t sums_done = 0;  // answered, warm-up included
  uint64_t topks_done = 0;
  SpanLog spans;
};

struct Req {
  bool topk;
  uint32_t facility;
};
using Stream = std::function<Req()>;

bool SumAnswer(const tq::Status& st, const NetResponse& r) {
  return st.ok() && r.status.ok() && r.sums.size() == 1 &&
         r.sums[0].code == tq::StatusCode::kOk;
}
bool TopKAnswer(const tq::Status& st, const NetResponse& r) {
  return st.ok() && r.status.ok() && r.topks.size() == 1 &&
         r.topks[0].code == tq::StatusCode::kOk;
}

/// One closed-loop client: next request only after the previous answer.
/// Calls before `start` are the warm-up: answered and checked, not timed.
/// `think_ns` is the pause between an answer and the next request.
void ClosedLoop(uint16_t port, Stream next, uint64_t start, uint64_t deadline,
                uint64_t think_ns, uint64_t req_base, ClientLog* log) {
  NetClient cli;
  if (!cli.Connect("127.0.0.1", port).ok()) {
    ++log->attempted;
    ++log->failed;
    return;
  }
  uint64_t req = req_base;
  while (Now() < deadline) {
    if (think_ns != 0 && req != req_base) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(think_ns));
    }
    const Req r = next();
    NetResponse resp;
    ++log->attempted;
    ++req;
    const uint64_t t0 = Now();
    const tq::Status st = r.topk ? cli.TopK({kTopK}, &resp)
                                 : cli.Sum({r.facility}, &resp);
    const uint64_t t1 = Now();
    const bool ok = r.topk ? TopKAnswer(st, resp) : SumAnswer(st, resp);
    if (!ok) {
      ++log->failed;
      std::fprintf(stderr, "perfbench: %s call failed: %s / %s\n",
                   r.topk ? "top-k" : "sum", st.ToString().c_str(),
                   resp.status.ToString().c_str());
      if (!st.ok()) return;  // the connection is gone
      continue;
    }
    const bool timed = t0 >= start;
    if (timed) {
      log->spans.Add(r.topk ? "client.topk" : "client.sum", 0, req, t0, t1);
    }
    ++(r.topk ? log->topks_done : log->sums_done);
    if (r.topk) {
      if (timed) log->topk_ns.push_back(Sample(t1 - t0));
      log->AddTopK(resp.snapshot_version, std::move(resp.topks[0].ranked));
    } else {
      if (timed) log->sum_ns.push_back(Sample(t1 - t0));
      log->AddSum(r.facility, resp.snapshot_version, resp.sums[0].value);
    }
  }
}

/// The request stream of read connection `c` in the sum or top-k phase:
/// read_hot picks facilities uniformly at random, read_cold and
/// coordinator sweep every facility in a seeded order per connection.
Stream ReadStream(const Spec& spec, uint64_t seed, bool topk, uint64_t c) {
  if (topk) return [] { return Req{true, 0}; };
  if (spec.name == "read_hot") {
    auto rng = std::make_shared<Rng>(StreamSeed(seed, 100 + c));
    return [rng] { return Req{false, rng->Below(kRoutes)}; };
  }
  auto order = std::make_shared<std::vector<uint32_t>>(
      Permutation(kRoutes, StreamSeed(seed, 100 + c)));
  auto pos = std::make_shared<size_t>(0);
  return [order, pos] {
    const uint32_t f = (*order)[*pos];
    *pos = (*pos + 1) % order->size();
    return Req{false, f};
  };
}

struct LoadResult {
  std::vector<uint64_t> sum_ns, topk_ns;
  uint64_t attempted = 0, failed = 0, sums_done = 0, topks_done = 0;
  double sum_seconds = 0, topk_seconds = 0;  // timed windows
};

void Merge(ClientLog* log, LoadResult* out) {
  out->sum_ns.insert(out->sum_ns.end(), log->sum_ns.begin(),
                     log->sum_ns.end());
  out->topk_ns.insert(out->topk_ns.end(), log->topk_ns.begin(),
                      log->topk_ns.end());
  out->attempted += log->attempted;
  out->failed += log->failed;
  out->sums_done += log->sums_done;
  out->topks_done += log->topks_done;
}

// ------------------------------------------------------------ the ladder

/// Synchronous in-process query through any ServingEngine.
QueryResponse RunQuery(ServingEngine* engine, QueryRequest request) {
  std::promise<QueryResponse> promise;
  auto future = promise.get_future();
  engine->SubmitAsync(
      std::move(request), nullptr,
      [&promise](QueryResponse r) { promise.set_value(std::move(r)); }, 0);
  return future.get();
}

/// Per-layer figures of the traced walk down the ladder.
struct LadderResult {
  std::vector<uint64_t> alg1_ns, all_alg1_ns, ub_ns, submit_sum_ns,
      submit_topk_ns, coord_sum_ns, coord_topk_ns, bound_ns, net_sum_ns,
      net_topk_ns;
  double eval_ns_per_pair = 0;
  double exact_checks = 0, entries_scanned = 0, nodes_visited = 0,
         zreduce_buckets = 0;
  double bound_over_exact = 0;
};

/// Walks a fixed sample of the request stream serially down the ladder:
/// per shard TQTree::UpperBound and Algorithm 1, then the in-process
/// engine (ShardedEngine::Submit, or the coordinator's SubmitAsync), then
/// the NetClient round trip to the front server, then (coordinator) one
/// worker's kBound RPC. Every answer is checked against the oracle.
LadderResult WalkLadder(Stack* stack, const std::vector<uint32_t>& sample,
                        const std::vector<double>& totals, SpanLog* spans,
                        Verdict* verdict) {
  LadderResult L;
  std::shared_ptr<const tq::FacilityCatalog> catalog;
  const std::vector<ShardStatePtr> shards = stack->Shards(&catalog);
  const int levels = stack->options.bound_levels;
  const bool coordinator = stack->coord != nullptr;
  NetClient cli;
  verdict->Expect(cli.Connect("127.0.0.1", stack->port()).ok(),
                  "ladder connect");
  uint64_t req = 1ull << 40;
  QueryStats total_stats;
  double bound_sum = 0, exact_sum = 0;
  uint64_t eval_ns = 0, eval_pairs = 0;
  volatile double sink = 0;

  for (size_t i = 0; i < sample.size(); ++i) {
    const uint32_t f = sample[i];
    const tq::StopGrid& grid = catalog->grid(f);
    ++req;
    const uint64_t root = spans->Reserve();
    const uint64_t r0 = Now();
    uint64_t all_alg1 = 0;  // every shard: on one CPU they run in turn
    for (size_t s = 0; s < shards.size(); ++s) {
      const tq::runtime::ShardState& sh = *shards[s];
      uint64_t t0 = Now();
      const double ub = sh.tree->UpperBound(grid, levels);
      uint64_t t1 = Now();
      spans->Add("tqtree.upper_bound", root, req, t0, t1,
                 static_cast<int32_t>(s));
      L.ub_ns.push_back(t1 - t0);
      QueryStats st;
      t0 = Now();
      const double exact =
          tq::EvaluateServiceTQ(sh.tree.get(), *sh.eval, grid, &st);
      t1 = Now();
      spans->Add("query.alg1", root, req, t0, t1, static_cast<int32_t>(s));
      L.alg1_ns.push_back(t1 - t0);
      all_alg1 += t1 - t0;
      total_stats.Add(st);
      bound_sum += ub;
      exact_sum += exact;
      verdict->Expect(ub >= exact * (1 - 1e-12), "upper bound below exact");
      if (i < kLadderEvalFacilities) {
        const uint32_t n = static_cast<uint32_t>(sh.users->size());
        t0 = Now();
        for (uint32_t u = 0; u < n; ++u) sink = sink + sh.eval->Evaluate(u, grid);
        t1 = Now();
        spans->Add("service.evaluate", root, req, t0, t1,
                   static_cast<int32_t>(s));
        eval_ns += t1 - t0;
        eval_pairs += n;
      }
    }
    uint64_t inproc_ns = 0;
    {
      const uint64_t t0 = Now();
      const QueryResponse r =
          RunQuery(stack->front_engine(), QueryRequest::ServiceValue(f));
      const uint64_t t1 = Now();
      spans->Add(coordinator ? "runtime.coord.sum" : "runtime.sum", root, req,
                 t0, t1);
      inproc_ns = t1 - t0;
      (coordinator ? L.coord_sum_ns : L.submit_sum_ns).push_back(inproc_ns);
      verdict->Expect(r.status.ok() && Checker::SumOk(totals, f, r.value),
                      "ladder in-process sum matches oracle");
      L.all_alg1_ns.push_back(all_alg1);
    }
    {
      NetResponse resp;
      const uint64_t t0 = Now();
      const tq::Status st = cli.Sum({f}, &resp);
      const uint64_t t1 = Now();
      spans->Add("net.sum", root, req, t0, t1);
      verdict->Expect(SumAnswer(st, resp) &&
                          Checker::SumOk(totals, f, resp.sums[0].value),
                      "ladder net sum matches oracle");
      L.net_sum_ns.push_back(t1 - t0);
    }
    spans->AddWithId(root, "ladder.sum", 0, req, r0, Now());
  }
  if (!sample.empty()) {
    const double n = static_cast<double>(sample.size());
    L.exact_checks = static_cast<double>(total_stats.exact_checks) / n;
    L.entries_scanned = static_cast<double>(total_stats.entries_scanned) / n;
    L.nodes_visited = static_cast<double>(total_stats.nodes_visited) / n;
    L.zreduce_buckets =
        static_cast<double>(total_stats.zreduce.buckets_visited) / n;
  }
  L.bound_over_exact = exact_sum > 0 ? bound_sum / exact_sum : 0;
  L.eval_ns_per_pair =
      eval_pairs ? static_cast<double>(eval_ns) / static_cast<double>(eval_pairs)
                 : 0;

  for (size_t i = 0; i < kLadderTopKs; ++i) {
    ++req;
    const uint64_t root = spans->Reserve();
    const uint64_t r0 = Now();
    // The bound sweep of one top-k: every facility on every shard.
    for (size_t s = 0; s < shards.size(); ++s) {
      const uint64_t t0 = Now();
      double acc = 0;
      for (uint32_t f = 0; f < kRoutes; ++f) {
        acc += shards[s]->tree->UpperBound(catalog->grid(f), levels);
      }
      const uint64_t t1 = Now();
      sink = sink + acc;
      spans->Add("tqtree.bound_sweep", root, req, t0, t1,
                 static_cast<int32_t>(s));
      L.ub_ns.push_back((t1 - t0) / kRoutes);
    }
    uint64_t inproc_ns = 0;
    {
      const uint64_t t0 = Now();
      const QueryResponse r =
          RunQuery(stack->front_engine(), QueryRequest::TopK(kTopK));
      const uint64_t t1 = Now();
      spans->Add(coordinator ? "runtime.coord.topk" : "runtime.topk", root,
                 req, t0, t1);
      inproc_ns = t1 - t0;
      (coordinator ? L.coord_topk_ns : L.submit_topk_ns).push_back(inproc_ns);
      verdict->Expect(r.status.ok() && Checker::TopKOk(totals, kTopK, r.ranked),
                      "ladder in-process top-k matches oracle");
    }
    {
      NetResponse resp;
      const uint64_t t0 = Now();
      const tq::Status st = cli.TopK({kTopK}, &resp);
      const uint64_t t1 = Now();
      spans->Add("net.topk", root, req, t0, t1);
      verdict->Expect(TopKAnswer(st, resp) &&
                          Checker::TopKOk(totals, kTopK, resp.topks[0].ranked),
                      "ladder net top-k matches oracle");
      L.net_topk_ns.push_back(t1 - t0);
    }
    if (coordinator) {
      NetClient worker;
      verdict->Expect(
          worker.Connect("127.0.0.1", stack->worker_servers[0]->port()).ok(),
          "worker connect");
      NetResponse resp;
      const uint64_t t0 = Now();
      const tq::Status st = worker.Bound(kTopK, &resp);
      const uint64_t t1 = Now();
      spans->Add("net.bound", root, req, t0, t1);
      verdict->Expect(st.ok() && resp.status.ok() &&
                          resp.bounds.size() == kRoutes,
                      "worker bound RPC");
      L.bound_ns.push_back(t1 - t0);
    }
    spans->AddWithId(root, "ladder.topk", 0, req, r0, Now());
  }
  return L;
}

void AddLadderMetrics(const Spec& spec, const LadderResult& L, Report* rep) {
  rep->Add("service.evaluate_ns", L.eval_ns_per_pair, "ns");
  rep->Add("service.exact_checks_per_sum", L.exact_checks, "count");
  rep->Add("query.alg1_us", MedianUs(L.alg1_ns), "us");
  rep->Add("query.entries_scanned_per_sum", L.entries_scanned, "count");
  rep->Add("tqtree.upper_bound_us", MedianUs(L.ub_ns), "us");
  rep->Add("tqtree.bound_over_exact", L.bound_over_exact, "ratio");
  rep->Add("tqtree.nodes_visited_per_sum", L.nodes_visited, "count");
  rep->Add("tqtree.zreduce_buckets_per_sum", L.zreduce_buckets, "count");
  // Self times are differences of medians: single serial calls of the
  // lower and upper rung are too noisy to difference one by one.
  const double sum_us =
      MedianUs(spec.coordinator ? L.coord_sum_ns : L.submit_sum_ns);
  const double topk_us =
      MedianUs(spec.coordinator ? L.coord_topk_ns : L.submit_topk_ns);
  // The front engine's in-process call: ShardedEngine::Submit, or the
  // coordinator's RemoteShardSet::SubmitAsync.
  rep->Add("runtime.sum_us", sum_us, "us");
  rep->Add("runtime.topk_us", topk_us, "us");
  if (spec.coordinator) {
    rep->Add("net.bound_rtt_us", MedianUs(L.bound_ns), "us");
  }
  // On one CPU the shard tasks of a sum run in turn, so the engine's self
  // time is what remains after every shard's Algorithm 1.
  if (!spec.cache && !spec.coordinator) {
    rep->Add("runtime.sum_self_us", sum_us - MedianUs(L.all_alg1_ns), "us");
  }
  rep->Add("net.sum_self_us", MedianUs(L.net_sum_ns) - sum_us, "us");
  rep->Add("net.topk_self_us", MedianUs(L.net_topk_ns) - topk_us, "us");
}

// ------------------------------------------------------------ checks

/// The checker must reject a perturbed answer, or it proves nothing.
void SelfCheck(const std::vector<double>& totals, const SumRec* sum,
               const TopKRec* topk, Verdict* verdict) {
  verdict->Expect(sum != nullptr && topk != nullptr,
                  "self-check has a sum and a top-k answer to perturb");
  if (sum != nullptr) {
    const double bad = sum->value * (1 + 1e-6) + 1e-6;
    verdict->Expect(!Checker::SumOk(totals, sum->facility, bad),
                    "self-check: checker rejects a perturbed sum");
  }
  if (topk != nullptr && !topk->ranked.empty()) {
    std::vector<RankedFacility> bad = topk->ranked;
    bad[0].value = bad[0].value * (1 + 1e-6) + 1e-6;
    verdict->Expect(!Checker::TopKOk(totals, kTopK, bad),
                    "self-check: checker rejects a perturbed top-k");
  }
}


/// Every reported percentile must have ten samples beyond it.
void WarnThinTail(const char* what, size_t n, double p) {
  if (Beyond(n, p) < 10) {
    std::fprintf(stderr,
                 "perfbench: warning: %s has %zu samples, fewer than 10 "
                 "beyond p%.0f\n",
                 what, n, p * 100);
  }
}

// ------------------------------------------------------------ read workloads

int RunReads(const Spec& spec, const Args& args) {
  Verdict verdict;
  const Inputs in = MakeInputs(spec.scale, args.seed, 0);
  if (!PinToCpus(args.cpus)) return NoCpus(args);
  Stack stack;
  const double setup_s = SetUp(spec, in, args.tmp_dir, &stack, &verdict);
  if (!stack.front) return 1;

  // Warm-up: every facility once plus one top-k. With the cache on this
  // fills it, so every timed request of read_hot is a hit.
  {
    NetClient cli;
    NetResponse resp;
    verdict.Expect(cli.Connect("127.0.0.1", stack.port()).ok(), "connect");
    for (uint32_t f = 0; f < kRoutes; ++f) {
      verdict.Expect(SumAnswer(cli.Sum({f}, &resp), resp), "warm-up sum");
    }
    verdict.Expect(TopKAnswer(cli.TopK({kTopK}, &resp), resp), "warm-up top-k");
  }

  // Each request class — sums, then k = 10 top-k — runs in phases of its
  // own, from kReadClients closed-loop connections. Mixed in one phase,
  // sums queue behind top-k tasks in the engine's FIFO pool and their
  // latency swings with how the two classes happen to interleave; apart,
  // each class's figures belong to it alone. The two phases alternate
  // kRounds times, so that both classes sample the whole run rather than
  // one stretch of it; each class's first phase starts with a warm-up.
  MetricsView before = stack.front_engine()->mutable_metrics()->Read();
  std::vector<std::unique_ptr<ClientLog>> logs;
  LoadResult load;
  const uint64_t origin = Now();
  for (size_t phase = 0; phase < 2 * kRounds; ++phase) {
    const bool topk = phase % 2 == 1;
    const double secs =
        args.seconds * (topk ? 1 - kSumShare : kSumShare) / kRounds;
    const uint64_t start = Now() + (phase < 2 ? kWarmupNs : 0);
    const uint64_t deadline = start + static_cast<uint64_t>(secs * 1e9);
    std::vector<std::thread> threads;
    for (uint64_t c = 0; c < kReadClients; ++c) {
      const uint64_t id = logs.size() + 1;
      logs.push_back(std::make_unique<ClientLog>(args.trace, id << 48));
      threads.emplace_back(ClosedLoop, stack.port(),
                           ReadStream(spec, args.seed, topk, c), start,
                           deadline, 0, id << 32, logs.back().get());
    }
    for (auto& t : threads) t.join();
    (topk ? load.topk_seconds : load.sum_seconds) +=
        static_cast<double>(Now() - start) / 1e9;
  }
  // Read before the samples are merged and sorted: the copies the
  // statistics make are the benchmark's, not the program's.
  const double peak_rss_mb = PeakRssMb();
  for (auto& log : logs) Merge(log.get(), &load);
  MetricsView after = stack.front_engine()->mutable_metrics()->Read();

  // Every answer against the oracle (the data never changes here).
  const SumRec* a_sum = nullptr;
  const TopKRec* a_topk = nullptr;
  for (const auto& log : logs) {
    for (const SumRec& r : log->sums) {
      a_sum = &r;
      if (!Checker::SumOk(in.totals, r.facility, r.value)) {
        verdict.Fail("sum of facility " + std::to_string(r.facility));
      }
    }
    for (const TopKRec& r : log->topks) {
      a_topk = &r;
      if (!Checker::TopKOk(in.totals, kTopK, r.ranked)) {
        verdict.Fail("top-k answer");
      }
    }
  }
  SelfCheck(in.totals, a_sum, a_topk, &verdict);
  if (spec.coordinator) {
    verdict.Expect(after.coord_partial == 0, "no partial coordinator answer");
  }
  WarnThinTail("sum latency", load.sum_ns.size(), 0.90);
  WarnThinTail("top-k latency", load.topk_ns.size(), 0.90);

  Report rep;
  // Counter deltas span the warm-up too, so ratios divide by every call.
  const double queries = static_cast<double>(load.sums_done + load.topks_done);
  if (!args.trace) {
    // Main class: sums; side class: top-k.
    rep.Add("setup_s", setup_s, "s");
    rep.Add("main_rps",
            static_cast<double>(load.sum_ns.size()) / load.sum_seconds, "1/s");
    rep.Add("main_p50_ms", PercentileMs(load.sum_ns, 0.50), "ms");
    rep.Add("main_p90_ms", PercentileMs(load.sum_ns, 0.90), "ms");
    rep.Add("side_rps",
            static_cast<double>(load.topk_ns.size()) / load.topk_seconds,
            "1/s");
    rep.Add("side_p50_ms", PercentileMs(load.topk_ns, 0.50), "ms");
    rep.Add("side_p90_ms", PercentileMs(load.topk_ns, 0.90), "ms");
    rep.Add("peak_rss_mb", peak_rss_mb, "MB");
    rep.Add("sum_p99_ms", PercentileMs(load.sum_ns, 0.99), "ms");
  } else {
    std::printf("# traced load: sum_p50_ms=%.4f topk_p50_ms=%.4f sum_rps=%.1f "
                "topk_rps=%.1f\n",
                PercentileMs(load.sum_ns, 0.5), PercentileMs(load.topk_ns, 0.5),
                static_cast<double>(load.sum_ns.size()) / load.sum_seconds,
                static_cast<double>(load.topk_ns.size()) / load.topk_seconds);
    SpanLog ladder_spans(true, 1ull << 56);
    const std::vector<uint32_t> order =
        Permutation(kRoutes, StreamSeed(args.seed, 100));
    const std::vector<uint32_t> sample(order.begin(),
                                       order.begin() + kLadderSums);
    const LadderResult L =
        WalkLadder(&stack, sample, in.totals, &ladder_spans, &verdict);
    AddLadderMetrics(spec, L, &rep);
    const double bytes = static_cast<double>(
        (after.net_bytes_in - before.net_bytes_in) +
        (after.net_bytes_out - before.net_bytes_out));
    rep.Add("net.bytes_per_query", bytes / queries, "B");
    if (spec.cache) {
      const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
      const double miss =
          static_cast<double>(after.cache_misses - before.cache_misses);
      rep.Add("runtime.cache_hit_rate", hits / std::max(1.0, hits + miss),
              "ratio");
    } else if (!spec.coordinator) {
      rep.Add("runtime.topk_evaluated_fraction",
              static_cast<double>(after.facilities_evaluated -
                                  before.facilities_evaluated) /
                  std::max<double>(1.0, static_cast<double>(
                                            load.topks_done * kRoutes *
                                            kShards)),
              "ratio");
    }
    if (spec.coordinator) {
      rep.Add("runtime.coord.rpcs_per_query",
              static_cast<double>(after.coord_rpcs - before.coord_rpcs) /
                  std::max(1.0, queries),
              "count");
    }
    std::vector<const SpanLog*> all;
    for (const auto& log : logs) all.push_back(&log->spans);
    all.push_back(&ladder_spans);
    WriteSpans(args, origin, all);
  }
  stack.Stop();
  if (!rep.Print(verdict.ok(), load.attempted, load.failed,
                 args.trace ? kPerLayer : kEndToEnd)) {
    return 1;
  }
  return verdict.ok() ? 0 : 1;
}

// ------------------------------------------------------------ churn

/// The benchmark's own model of the live user set: global ids in insertion
/// order, the oracle rows of each, and the oracle totals per snapshot
/// version.
class LiveModel {
 public:
  explicit LiveModel(const Inputs& in) : in_(in) {
    for (uint32_t u = 0; u < in.users.size(); ++u) live_.push_back(u);
    // Long-double running totals keep the per-version sums drift-free.
    acc_.assign(kRoutes, 0.0L);
    for (size_t u = 0; u < in.users.size(); ++u) {
      for (size_t f = 0; f < kRoutes; ++f) acc_[f] += in.rows[u * kRoutes + f];
    }
    Snapshot();  // version 1: the initial set
  }

  uint32_t oldest() const { return live_.front(); }
  uint32_t next_id() const {
    return static_cast<uint32_t>(in_.users.size() + inserted_);
  }

  /// Publish: insert fresh trajectory `i`, remove the oldest live user.
  void Apply(size_t fresh_index) {
    const uint32_t gone = live_.front();
    live_.pop_front();
    live_.push_back(next_id());
    ++inserted_;
    for (size_t f = 0; f < kRoutes; ++f) {
      acc_[f] += in_.fresh_rows[fresh_index * kRoutes + f];
      acc_[f] -= Row(gone)[f];
    }
    Snapshot();
  }

  /// Oracle totals at snapshot `version` (1 = initial); null if unknown.
  const std::vector<double>* At(uint64_t version) const {
    if (version == 0 || version > totals_.size()) return nullptr;
    return &totals_[version - 1];
  }
  uint64_t version() const { return totals_.size(); }
  const std::deque<uint32_t>& live() const { return live_; }

 private:
  const double* Row(uint32_t id) const {
    const size_t n = in_.users.size();
    return id < n ? &in_.rows[id * kRoutes]
                  : &in_.fresh_rows[(id - n) * kRoutes];
  }
  void Snapshot() {
    std::vector<double> t;
    for (const long double a : acc_) t.push_back(static_cast<double>(a));
    totals_.push_back(std::move(t));
  }

  const Inputs& in_;
  std::deque<uint32_t> live_;
  size_t inserted_ = 0;
  std::vector<long double> acc_;
  std::vector<std::vector<double>> totals_;
};

struct PushRec {
  uint64_t version;
  double value;
  uint64_t t_ns;
};

int RunChurn(const Spec& spec, const Args& args) {
  Verdict verdict;
  const size_t num_warm = static_cast<size_t>(
      std::llround(args.publish_rate * static_cast<double>(kWarmupNs) / 1e9));
  const size_t num_publishes = num_warm + static_cast<size_t>(
      std::llround(args.publish_rate * args.seconds));
  const Inputs in = MakeInputs(spec.scale, args.seed,
                               num_publishes + 3 * kLadderPublishes +
                                   kTailBatches);
  if (!PinToCpus(args.cpus)) return NoCpus(args);
  const std::string tmp =
      args.tmp_dir + "/churn-" + std::to_string(::getpid());
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  Stack stack;
  const double setup_s = SetUp(spec, in, tmp, &stack, &verdict);
  if (!stack.front) return 1;
  ShardedEngine* engine = stack.engine();
  LiveModel model(in);
  verdict.Expect(engine->snapshot_version() == 1, "initial version is 1");

  // The popularity order is fixed, like the data it ranks: which facilities
  // are hot decides what the subscriptions and cache misses cost.
  const Zipf zipf(kRoutes, kZipfS, StreamSeed(kPopularitySeed, 200));
  // Warm the cache with one pass over every facility.
  {
    NetClient cli;
    NetResponse resp;
    verdict.Expect(cli.Connect("127.0.0.1", stack.port()).ok(), "connect");
    for (uint32_t f = 0; f < kRoutes; ++f) {
      verdict.Expect(SumAnswer(cli.Sum({f}, &resp), resp), "warm-up sum");
    }
  }

  // The subscriber holds standing sums on the most popular facilities and
  // waits for each one's first push before the load starts.
  NetClient sub_cli;
  std::vector<uint32_t> sub_facility;
  std::vector<uint64_t> sub_ids;
  std::vector<std::vector<PushRec>> pushes(kSubscriptions);
  verdict.Expect(sub_cli.Connect("127.0.0.1", stack.port()).ok(),
                 "subscriber connect");
  for (size_t i = 0; i < kSubscriptions; ++i) {
    NetResponse resp;
    sub_facility.push_back(zipf.AtRank(i));
    const tq::Status st = sub_cli.SubscribeSum(sub_facility.back(), &resp);
    verdict.Expect(st.ok() && resp.status.ok(), "subscribe");
    sub_ids.push_back(resp.sub_id);
  }
  // Short receive timeouts let the subscriber re-check whether it is done:
  // the last pushes may arrive before the publisher has published the
  // final version it must wait for.
  sub_cli.set_timeout_ms(100);
  auto sub_index = [&](uint64_t id) -> int {
    for (size_t i = 0; i < sub_ids.size(); ++i) {
      if (sub_ids[i] == id) return static_cast<int>(i);
    }
    return -1;
  };
  const uint64_t initial_deadline = Now() + 30'000'000'000;
  for (size_t seen = 0; seen < kSubscriptions;) {
    NetResponse push;
    if (!sub_cli.ReceivePush(&push).ok()) {
      if (Now() < initial_deadline) continue;  // a timeout
      verdict.Fail("initial push");
      break;
    }
    const int i = sub_index(push.sub_id);
    if (i >= 0 && pushes[i].empty()) {
      pushes[i].push_back(PushRec{push.snapshot_version, push.push_sum.value,
                                  Now()});
      ++seen;
    }
  }

  MetricsView before = engine->metrics().Read();
  std::vector<std::unique_ptr<ClientLog>> logs;
  for (size_t c = 0; c < 2; ++c) {
    logs.push_back(std::make_unique<ClientLog>(args.trace, (c + 1) << 48));
  }
  SpanLog pub_spans(args.trace, 3ull << 48);
  SpanLog ck_spans(args.trace, 5ull << 48);
  std::vector<uint64_t> pub_ns, pub_due, pub_version, checkpoint_ns;
  pub_ns.reserve(num_publishes);
  uint64_t pub_attempted = 0, pub_failed = 0, sub_failed = 0;
  uint64_t max_lag_ns = 0;  // how late the publisher sent, at worst
  std::atomic<uint64_t> final_version{UINT64_MAX};
  // Hand-off from the publisher to the checkpointer: timed publishes acked
  // so far, and whether the publisher has finished.
  std::mutex ck_mu;
  std::condition_variable ck_cv;
  size_t ck_timed = 0;
  bool ck_done = false;
  size_t ck_failed = 0;

  const uint64_t origin = Now() + 1000000;  // 1 ms to start every thread
  const uint64_t start = origin + kWarmupNs;
  const uint64_t deadline = start + static_cast<uint64_t>(args.seconds * 1e9);
  const uint64_t period = static_cast<uint64_t>(1e9 / args.publish_rate);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < 2; ++c) {
      auto rng = std::make_shared<Rng>(StreamSeed(args.seed, 300 + c));
      Stream stream = [rng, &zipf] { return Req{false, zipf.Sample(rng.get())}; };
      threads.emplace_back(ClosedLoop, stack.port(), stream, start, deadline,
                           kReaderThinkNs, (c + 1) << 32, logs[c].get());
    }
    // Subscriber: records every push until each subscription has seen the
    // last publish's version.
    threads.emplace_back([&] {
      std::vector<uint64_t> last(kSubscriptions, 0);
      uint64_t give_up = 0;
      for (;;) {
        const uint64_t fin = final_version.load();
        bool done = fin != UINT64_MAX;
        for (size_t i = 0; done && i < kSubscriptions; ++i) {
          done = last[i] >= fin;
        }
        if (done) return;
        if (fin != UINT64_MAX && give_up == 0) give_up = Now() + 30'000'000'000;
        NetResponse push;
        const tq::Status st = sub_cli.ReceivePush(&push);
        if (!st.ok()) {
          if (give_up == 0 || Now() < give_up) continue;  // a timeout
          std::fprintf(stderr, "perfbench: no final push: %s\n",
                       st.ToString().c_str());
          ++sub_failed;
          return;
        }
        const uint64_t t = Now();
        const int i = sub_index(push.sub_id);
        if (i < 0 || push.push_sum.code != tq::StatusCode::kOk) {
          std::fprintf(stderr, "perfbench: bad push for subscription %d\n", i);
          ++sub_failed;
          continue;
        }
        pushes[i].push_back(PushRec{push.snapshot_version,
                                    push.push_sum.value, t});
        last[i] = std::max(last[i], push.snapshot_version);
      }
    });
    // Checkpointer: one Checkpoint() per kCheckpointEvery timed publishes,
    // beside the publisher rather than in its way. Behind schedule, it runs
    // the missed ones back to back, so the count per run stays fixed.
    threads.emplace_back([&] {
      for (size_t c = 1;; ++c) {
        {
          std::unique_lock<std::mutex> lock(ck_mu);
          ck_cv.wait(lock, [&] {
            return ck_timed >= c * kCheckpointEvery || ck_done;
          });
          if (ck_timed < c * kCheckpointEvery) return;
        }
        const uint64_t c0 = Now();
        const bool ok = engine->Checkpoint().ok();
        const uint64_t c1 = Now();
        ck_spans.Add("engine.checkpoint", 0, (5ull << 32) + c, c0, c1);
        checkpoint_ns.push_back(c1 - c0);
        if (!ok) ++ck_failed;
      }
    });
    // Publisher (this thread): open loop, one kUpdate frame per due time;
    // a publish is timed from when it was due, so a stall delays the ones
    // behind it on the clock too.
    NetClient pub;
    verdict.Expect(pub.Connect("127.0.0.1", stack.port()).ok(),
                   "publisher connect");
    for (size_t i = 0; i < num_publishes; ++i) {
      const uint64_t due = origin + i * period;
      while (Now() < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - Now()));
      }
      const uint32_t gone = model.oldest();
      const uint32_t expect_id = model.next_id();
      NetResponse resp;
      ++pub_attempted;
      max_lag_ns = std::max(max_lag_ns, Now() - due);
      const tq::Status st = pub.Update(
          {std::vector<Point>(in.fresh.points(static_cast<uint32_t>(i)).begin(),
                              in.fresh.points(static_cast<uint32_t>(i)).end())},
          {gone}, &resp);
      const uint64_t t1 = Now();
      if (!st.ok() || !resp.status.ok() || resp.assigned_ids.size() != 1) {
        std::fprintf(stderr, "perfbench: publish failed: %s / %s\n",
                     st.ToString().c_str(), resp.status.ToString().c_str());
        ++pub_failed;
        break;
      }
      model.Apply(i);
      verdict.Expect(resp.assigned_ids[0] == expect_id, "assigned global id");
      verdict.Expect(resp.snapshot_version == model.version(),
                     "one snapshot version per publish");
      if (i < num_warm) continue;
      pub_spans.Add("client.update", 0, (3ull << 32) + i, due, t1);
      pub_ns.push_back(t1 - due);
      pub_due.push_back(due);
      pub_version.push_back(resp.snapshot_version);
      {
        const std::lock_guard<std::mutex> lock(ck_mu);
        ++ck_timed;
      }
      ck_cv.notify_one();
    }
    {
      const std::lock_guard<std::mutex> lock(ck_mu);
      ck_done = true;
    }
    ck_cv.notify_one();
    final_version.store(engine->snapshot_version());
    for (auto& t : threads) t.join();
  }
  verdict.Expect(ck_failed == 0, "checkpoint");
  verdict.Expect(checkpoint_ns.size() == pub_ns.size() / kCheckpointEvery,
                 "one checkpoint per " + std::to_string(kCheckpointEvery) +
                     " publishes");
  std::fprintf(stderr, "perfbench: publisher ran at most %.1f ms late\n",
               Ms(max_lag_ns));
  verdict.Expect(max_lag_ns <= kMaxPublishLagNs,
                 "publisher kept to its schedule (no backlog)");
  const double peak_rss_mb = PeakRssMb();  // before any statistics
  MetricsView after = engine->metrics().Read();
  const uint64_t V = engine->snapshot_version();

  // Reads against the oracle at the version each was answered from.
  LoadResult load;
  load.sum_seconds = static_cast<double>(deadline - start) / 1e9;
  for (auto& log : logs) Merge(log.get(), &load);
  const SumRec* a_sum = nullptr;
  for (const auto& log : logs) {
    for (const SumRec& r : log->sums) {
      a_sum = &r;
      const std::vector<double>* totals = model.At(r.version);
      if (totals == nullptr || !Checker::SumOk(*totals, r.facility, r.value)) {
        verdict.Fail("churn sum of facility " + std::to_string(r.facility) +
                     " at version " + std::to_string(r.version));
      }
    }
  }
  // Pushes: each against the oracle at its version; then the push latency
  // of every (publish, subscription) pair.
  std::vector<uint64_t> push_ns;
  uint64_t last_push = 0;  // when the last timed publish's last push came
  for (size_t s = 0; s < kSubscriptions; ++s) {
    for (const PushRec& p : pushes[s]) {
      const std::vector<double>* totals = model.At(p.version);
      if (totals == nullptr ||
          !Checker::SumOk(*totals, sub_facility[s], p.value)) {
        verdict.Fail("push of facility " + std::to_string(sub_facility[s]));
      }
    }
    size_t j = 0;
    for (size_t i = 0; i < pub_version.size(); ++i) {
      while (j < pushes[s].size() && pushes[s][j].version < pub_version[i]) ++j;
      if (j == pushes[s].size()) {
        verdict.Fail("a publish never reached a subscription");
        break;
      }
      push_ns.push_back(pushes[s][j].t_ns - pub_due[i]);
      last_push = std::max(last_push, pushes[s][j].t_ns);
    }
  }
  // Quiesced: each subscription's last push is bit-identical to a fresh Sum.
  {
    NetClient cli;
    verdict.Expect(cli.Connect("127.0.0.1", stack.port()).ok(), "connect");
    for (size_t s = 0; s < kSubscriptions; ++s) {
      NetResponse resp;
      const bool ok = SumAnswer(cli.Sum({sub_facility[s]}, &resp), resp);
      verdict.Expect(ok && !pushes[s].empty() &&
                         pushes[s].back().version == V &&
                         resp.snapshot_version == V &&
                         resp.sums[0].value == pushes[s].back().value,
                     "last push equals a fresh sum after quiescing");
    }
  }
  sub_cli.Close();
  const TopKRec* no_topk = nullptr;
  TopKRec final_topk;
  {
    const QueryResponse r = engine->Submit(QueryRequest::TopK(kTopK)).get();
    verdict.Expect(r.status.ok() && Checker::TopKOk(*model.At(V), kTopK, r.ranked),
                   "final top-k matches oracle");
    final_topk.version = V;
    final_topk.ranked = r.ranked;
    no_topk = &final_topk;
  }
  SelfCheck(a_sum ? *model.At(a_sum->version) : in.totals, a_sum, no_topk,
            &verdict);
  WarnThinTail("publish latency", pub_ns.size(), 0.90);

  Report rep;
  SpanLog ladder_spans(args.trace, 1ull << 56);
  size_t next_fresh = num_publishes;  // the next unused fresh trajectory
  // Counter deltas span the warm-up publishes too.
  const double pubs = static_cast<double>(num_publishes);
  if (args.trace) {
    std::printf("# traced load: sum_p50_ms=%.4f publish_p50_ms=%.4f "
                "push_p50_ms=%.4f sum_rps=%.1f\n",
                PercentileMs(load.sum_ns, 0.5), PercentileMs(pub_ns, 0.5),
                PercentileMs(push_ns, 0.5),
                static_cast<double>(load.sum_ns.size()) / load.sum_seconds);
    // Reads down the ladder at the final version.
    std::vector<uint32_t> sample;
    {
      Rng rng(StreamSeed(args.seed, 300));
      for (size_t i = 0; i < kLadderSums; ++i) sample.push_back(zipf.Sample(&rng));
    }
    const LadderResult L =
        WalkLadder(&stack, sample, *model.At(V), &ladder_spans, &verdict);
    AddLadderMetrics(spec, L, &rep);
    // Every client frame of the load: reads, publishes and pushes.
    rep.Add("net.bytes_per_query",
            static_cast<double>((after.net_bytes_in - before.net_bytes_in) +
                                (after.net_bytes_out - before.net_bytes_out)) /
                std::max(1.0, static_cast<double>(load.attempted +
                                                  pub_attempted)),
            "B");
    const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
    const double miss =
        static_cast<double>(after.cache_misses - before.cache_misses);
    rep.Add("runtime.cache_hit_rate", hits / std::max(1.0, hits + miss),
            "ratio");
    rep.Add("runtime.cache_invalidated_per_publish",
            static_cast<double>(after.cache_invalidated -
                                before.cache_invalidated) / pubs,
            "count");
    rep.Add("tqtree.nodes_copied_per_publish",
            static_cast<double>(after.nodes_copied - before.nodes_copied) / pubs,
            "count");
    rep.Add("net.subs_evaluated_per_publish",
            static_cast<double>(after.subs_evaluated - before.subs_evaluated) /
                pubs,
            "count");
    rep.Add("net.subs_skipped_per_publish",
            static_cast<double>(after.subs_skipped - before.subs_skipped) / pubs,
            "count");
    rep.Add("storage.wal_bytes_per_publish",
            static_cast<double>(after.wal_bytes - before.wal_bytes) /
                std::max<double>(1.0, static_cast<double>(after.wal_appends -
                                                          before.wal_appends)),
            "B");
    rep.Add("storage.checkpoint_ms",
            Ms(static_cast<uint64_t>(Median(std::vector<double>(
                checkpoint_ns.begin(), checkpoint_ns.end())))),
            "ms");
    {
      const auto dir = tq::storage::CurrentCheckpointDir(tmp + "/data-" +
                                                         std::to_string(kSetups - 1));
      rep.Add("storage.checkpoint_mb",
              dir.ok() ? static_cast<double>(DirBytes(*dir)) / 1048576.0 : 0.0,
              "MB");
    }

    // Publish ladder: in-process ApplyUpdates and the NetClient round trip,
    // alternated so neither side always runs on the fresher tree, then the
    // publish phases re-enacted on a snapshot shard state.
    std::vector<uint64_t> apply_ns, update_ns;
    NetClient cli;
    verdict.Expect(cli.Connect("127.0.0.1", stack.port()).ok(), "connect");
    for (size_t i = 0; i < 2 * kLadderPublishes; ++i, ++next_fresh) {
      const auto pts = in.fresh.points(static_cast<uint32_t>(next_fresh));
      const uint32_t expect_id = model.next_id();
      if (i % 2 == 0) {
        UpdateBatch batch;
        batch.inserts.emplace_back(pts.begin(), pts.end());
        batch.removes.push_back(model.oldest());
        const uint64_t t0 = Now();
        const std::vector<uint32_t> ids = engine->ApplyUpdates(batch);
        const uint64_t t1 = Now();
        ladder_spans.Add("runtime.publish", 0, (4ull << 32) + i, t0, t1);
        verdict.Expect(ids.size() == 1 && ids[0] == expect_id,
                       "in-process publish id");
        apply_ns.push_back(t1 - t0);
      } else {
        NetResponse resp;
        const uint64_t t0 = Now();
        const tq::Status st = cli.Update(
            {std::vector<Point>(pts.begin(), pts.end())}, {model.oldest()},
            &resp);
        const uint64_t t1 = Now();
        ladder_spans.Add("net.update", 0, (4ull << 32) + i, t0, t1);
        verdict.Expect(st.ok() && resp.status.ok() &&
                           resp.assigned_ids.size() == 1 &&
                           resp.assigned_ids[0] == expect_id,
                       "net publish");
        update_ns.push_back(t1 - t0);
      }
      model.Apply(next_fresh);
    }
    std::vector<uint64_t> copy_ns, fork_ns, insert_ns, remove_ns, refreeze_ns,
        wal_ns, phases_ns;
    {
      auto wal = tq::storage::WalWriter::Open(
          tmp + "/private-wal", 1, tq::storage::WalOptions{});
      verdict.Expect(wal.ok(), "private WAL");
      const auto snap = engine->snapshot();
      for (size_t i = 0; i < kLadderPublishes && wal.ok(); ++i, ++next_fresh) {
        const auto pts = in.fresh.points(static_cast<uint32_t>(next_fresh));
        const size_t s = engine->router().Route(pts);
        // A live user of the same shard to remove: the oldest one.
        uint32_t gone = 0, gone_local = 0;
        for (const uint32_t g : model.live()) {
          const auto loc = engine->LocateUser(g);
          if (loc.shard == s) {
            gone = g;
            gone_local = loc.local_id;
            break;
          }
        }
        const tq::runtime::ShardState& old = *snap->shards[s];
        const uint64_t req = (6ull << 32) + i;
        const uint64_t t0 = Now();
        auto users = std::make_shared<TrajectorySet>(*old.users);
        const uint32_t local = users->Add(pts);
        const uint64_t t1 = Now();
        std::unique_ptr<tq::TQTree> tree = old.tree->Fork(users.get());
        const uint64_t t2 = Now();
        tree->Insert(local);
        const uint64_t t3 = Now();
        verdict.Expect(tree->Remove(gone_local), "re-enacted remove");
        const uint64_t t4 = Now();
        tree->BuildAllZIndexes();
        const uint64_t t5 = Now();
        std::string payload;
        tq::net::EncodeUpdateBody({std::vector<Point>(pts.begin(), pts.end())},
                                  {gone}, &payload);
        const uint64_t t6 = Now();
        verdict.Expect((*wal)->Append(i + 1, payload).ok(), "private append");
        const uint64_t t7 = Now();
        ladder_spans.Add("traj.copy_users", 0, req, t0, t1,
                         static_cast<int32_t>(s));
        ladder_spans.Add("tqtree.fork", 0, req, t1, t2, static_cast<int32_t>(s));
        ladder_spans.Add("tqtree.insert", 0, req, t2, t3,
                         static_cast<int32_t>(s));
        ladder_spans.Add("tqtree.remove", 0, req, t3, t4,
                         static_cast<int32_t>(s));
        ladder_spans.Add("tqtree.refreeze", 0, req, t4, t5,
                         static_cast<int32_t>(s));
        ladder_spans.Add("storage.wal_append", 0, req, t6, t7);
        copy_ns.push_back(t1 - t0);
        fork_ns.push_back(t2 - t1);
        insert_ns.push_back(t3 - t2);
        remove_ns.push_back(t4 - t3);
        refreeze_ns.push_back(t5 - t4);
        wal_ns.push_back(t7 - t6);
        phases_ns.push_back((t5 - t0) + (t7 - t6));
      }
    }
    const double publish_us = MedianUs(apply_ns);
    rep.Add("traj.copy_users_us", MedianUs(copy_ns), "us");
    rep.Add("tqtree.fork_us", MedianUs(fork_ns), "us");
    rep.Add("tqtree.insert_us", MedianUs(insert_ns), "us");
    rep.Add("tqtree.remove_us", MedianUs(remove_ns), "us");
    rep.Add("tqtree.refreeze_us", MedianUs(refreeze_ns), "us");
    rep.Add("storage.wal_append_us", MedianUs(wal_ns), "us");
    rep.Add("runtime.publish_us", publish_us, "us");
    rep.Add("runtime.publish_residual_us", publish_us - MedianUs(phases_ns),
            "us");
    rep.Add("net.update_self_us", MedianUs(update_ns) - publish_us, "us");
  }

  // A fixed WAL tail for recovery: a quiesced checkpoint, then
  // kTailBatches publishes.
  verdict.Expect(engine->Checkpoint().ok(), "checkpoint before the tail");
  for (size_t i = 0; i < kTailBatches; ++i, ++next_fresh) {
    const auto pts = in.fresh.points(static_cast<uint32_t>(next_fresh));
    UpdateBatch batch;
    batch.inserts.emplace_back(pts.begin(), pts.end());
    batch.removes.push_back(model.oldest());
    const uint32_t expect_id = model.next_id();
    const std::vector<uint32_t> ids = engine->ApplyUpdates(batch);
    verdict.Expect(ids.size() == 1 && ids[0] == expect_id, "tail publish id");
    model.Apply(next_fresh);
  }

  // Shut down, then recover from the data dir alone.
  const uint64_t pre_version = engine->snapshot_version();
  const std::vector<uint64_t> pre_gens = engine->shard_generations();
  std::vector<double> pre_sums;
  for (uint32_t f = 0; f < kRoutes; ++f) {
    const QueryResponse r = engine->Submit(QueryRequest::ServiceValue(f)).get();
    pre_sums.push_back(r.value);
    verdict.Expect(r.status.ok() &&
                       Checker::SumOk(*model.At(pre_version), f, r.value),
                   "pre-shutdown sum matches oracle");
  }
  const QueryResponse pre_topk = engine->Submit(QueryRequest::TopK(kTopK)).get();
  ShardedEngineOptions ropts = stack.options;
  ropts.durability.data_dir = tmp + "/data-" + std::to_string(kSetups - 1);
  stack.Stop();
  engine = nullptr;
  std::vector<double> recover_s;
  std::unique_ptr<ShardedEngine> recovered;
  for (int i = 0; i < kRecoveries; ++i) {
    recovered.reset();
    const uint64_t t0 = Now();
    auto r = ShardedEngine::Recover(ropts);
    recover_s.push_back(static_cast<double>(Now() - t0) / 1e9);
    if (!r.ok()) {
      verdict.Fail("recover: " + r.status().ToString());
      break;
    }
    recovered = std::move(*r);
  }
  if (recovered) {
    verdict.Expect(recovered->snapshot_version() == pre_version,
                   "recovered version");
    verdict.Expect(recovered->shard_generations() == pre_gens,
                   "recovered shard generations");
    verdict.Expect(
        recovered->recovery_info().replayed_batches == kTailBatches,
        "recovery replays the fixed WAL tail");
    for (uint32_t f = 0; f < kRoutes; ++f) {
      const QueryResponse r =
          recovered->Submit(QueryRequest::ServiceValue(f)).get();
      verdict.Expect(r.status.ok() && r.value == pre_sums[f],
                     "recovered sum is bit-identical");
    }
    const QueryResponse r = recovered->Submit(QueryRequest::TopK(kTopK)).get();
    bool same = r.status.ok() && r.ranked.size() == pre_topk.ranked.size();
    for (size_t i = 0; same && i < r.ranked.size(); ++i) {
      same = r.ranked[i].id == pre_topk.ranked[i].id &&
             r.ranked[i].value == pre_topk.ranked[i].value;
    }
    verdict.Expect(same, "recovered top-k is bit-identical");
    if (args.trace) {
      // Replay cost per batch: recovery with the WAL tail against recovery
      // of the same state from a checkpoint that covers it.
      const uint64_t replayed = recovered->recovery_info().replayed_batches;
      verdict.Expect(recovered->Checkpoint().ok(), "post-recovery checkpoint");
      recovered.reset();
      const uint64_t t0 = Now();
      auto r2 = ShardedEngine::Recover(ropts);
      const double load_only_s = static_cast<double>(Now() - t0) / 1e9;
      verdict.Expect(r2.ok() && (*r2)->recovery_info().replayed_batches == 0,
                     "checkpointed recovery replays nothing");
      rep.Add("storage.replay_us_per_batch",
              replayed ? (Median(recover_s) - load_only_s) * 1e6 /
                             static_cast<double>(replayed)
                       : 0.0,
              "us");
    }
  }
  recovered.reset();

  if (!args.trace) {
    // Main class: publishes; side class: pushes. Their rates count from
    // the first timed publish's due time to its last ack or push, so a
    // publisher or subscriber that falls behind shows in them.
    const uint64_t first_due = pub_due.empty() ? 0 : pub_due.front();
    const uint64_t last_ack =
        pub_due.empty() ? 0 : pub_due.back() + pub_ns.back();
    rep.Add("setup_s", setup_s, "s");
    rep.Add("main_rps",
            static_cast<double>(pub_ns.size()) /
                std::max(1e-9, static_cast<double>(last_ack - first_due) / 1e9),
            "1/s");
    rep.Add("main_p50_ms", PercentileMs(pub_ns, 0.50), "ms");
    rep.Add("main_p90_ms", PercentileMs(pub_ns, 0.90), "ms");
    rep.Add("side_rps",
            static_cast<double>(push_ns.size()) /
                std::max(1e-9,
                         static_cast<double>(last_push - first_due) / 1e9),
            "1/s");
    rep.Add("side_p50_ms", PercentileMs(push_ns, 0.50), "ms");
    rep.Add("side_p90_ms", PercentileMs(push_ns, 0.90), "ms");
    rep.Add("peak_rss_mb", peak_rss_mb, "MB");
    // Measured and checked on every run, but outside the result line
    // because no read workload has them (README.md).
    rep.Add("recover_s", Median(recover_s), "s");
    rep.Add("reader_sum_rps",
            static_cast<double>(load.sum_ns.size()) / load.sum_seconds, "1/s");
    rep.Add("publish_p95_ms", PercentileMs(pub_ns, 0.95), "ms");
  } else {
    std::vector<const SpanLog*> all;
    for (const auto& log : logs) all.push_back(&log->spans);
    all.push_back(&pub_spans);
    all.push_back(&ck_spans);
    all.push_back(&ladder_spans);
    WriteSpans(args, origin, all);
  }
  fs::remove_all(tmp, ec);
  if (!rep.Print(verdict.ok(), load.attempted + pub_attempted,
                 load.failed + pub_failed + sub_failed,
                 args.trace ? kPerLayer : kEndToEnd)) {
    return 1;
  }
  return verdict.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Spec;
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload read_cold|read_hot|churn|"
                 "coordinator [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans-dir DIR] [--tmp-dir DIR] [--scale X] [--cpus N] "
                 "[--publish-rate R]\n");
    return 2;
  }

  // Every workload reports the same metrics (kEndToEnd, kPerLayer).
  // `coordinator` is not in BENCHMARK.json; it stays for reference runs.
  const std::vector<Spec> specs = {
      {"read_cold", 0.02, false, false, false},
      {"read_hot", 0.02, true, false, false},
      {"churn", 0.1, true, true, false},
      {"coordinator", 0.02, false, false, true},
  };

  for (Spec spec : specs) {
    if (spec.name != args.workload) continue;
    if (args.scale > 0) spec.scale = args.scale;
    return spec.durable ? perfbench::RunChurn(spec, args)
                        : perfbench::RunReads(spec, args);
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
               args.workload.c_str());
  return 2;
}
