// Wall-clock benchmark driver: runs ONE workload in this process and
// writes its raw measurements as JSON (run.py turns them into metrics and
// checks them).
//
//   perfbench_driver --workload pagerank --seed 1 --seconds 10 \
//                    --trace 0 --out result.json [--spans spans.jsonl]
//
// Every workload has the same shape:
//   1. generate the input from --seed (not timed: the benchmark's work);
//   2. set up the program several times, timing each set-up, and keep the
//      last instance (set-up = context creation, staging on sim-HDFS,
//      load and partition, bootstrap state, starting shards); tearing the
//      previous instance down is not part of a set-up's time;
//   3. run one untimed warm-up repetition;
//   4. repeat the workload's unit of work until --seconds have elapsed,
//      timing each repetition in wall clock. The batch workloads (both
//      PageRanks, GraphSage) run every repetition in a program instance
//      of its own, set up as in step 2, as a user submitting one job per
//      context would; serve_fresh keeps one instance, since its epochs
//      build on each other;
//   5. check the outputs and read the program's own counters (Metrics,
//      RpcTelemetry, the critical-path report, stream::DeltaStats) from
//      outside, as deltas over the timed repetitions.
//
// Only public program functions are called. With --trace 1 the timed
// repetitions alternate between untraced and traced: traced ones switch
// on the context's sim Tracer and record the benchmark's own wall-clock
// spans around every public call, so the per-layer self times and the
// tracing overhead come from one process.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rpc_telemetry.h"
#include "common/thread_pool.h"
#include "core/graph_loader.h"
#include "core/graphsage.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "graph/datasets.h"
#include "graph/degree.h"
#include "graphx/algorithms.h"
#include "serving/load_gen.h"
#include "serving/router.h"
#include "serving/shard.h"
#include "serving/snapshot.h"
#include "sim/critical_path.h"
#include "sim/sim_clock.h"
#include "stream/incremental.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using namespace psgraph;  // NOLINT: benchmark-local convenience

// ---- workload sizes, in one place ----

constexpr uint64_t kPageRankDenom = 50000;  // DS1-mini at 1/50000
constexpr int kPageRankIterations = 10;
constexpr double kResetProb = 0.15;
constexpr uint64_t kSageDenom = 2000;  // DS3-mini at 1/2000
constexpr int kSageEpochs = 1;
constexpr uint64_t kFreshDenom = 100000;  // DS1-mini at 1/100000
// serve_fresh's traffic is the repo's own benches' mix. Writes are
// bench_freshness's highest rate: 640 mutations/s in 0.5 s epochs, 30 %
// deletes, 512-row shard caches. Reads are bench_serving's open loop:
// 2500 requests/s, Zipfian theta 0.99, 4 keys per request. They are
// offered for 0.4 s of each 0.5 s epoch (1000 requests), which leaves the
// epoch's own write work room to keep pace with the mutation stream.
constexpr double kFreshMutationsPerSec = 640.0;
constexpr double kFreshEpochSeconds = 0.5;
constexpr double kFreshDeleteFraction = 0.3;
constexpr uint64_t kFreshCacheRows = 512;
constexpr double kFreshLookupRate = 2500.0;  // open loop, sim requests/s
constexpr double kFreshZipfTheta = 0.99;
constexpr uint64_t kFreshKeysPerLookup = 4;
constexpr uint64_t kFreshLookupsPerEpoch = 1000;
// serve_fresh's simulated figures (sim makespan, staleness and lookup
// tails) come from the first timed epochs only, so they depend on the
// seed and not on how many epochs fit into the run.
constexpr int kFreshSimEpochs = 24;
constexpr int kMinTimedReps = 3;
constexpr int kMaxTimedReps = 400;

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

// ---- benchmark-side wall-clock spans ----

/// Spans around the public calls, kept in memory and written at exit. A
/// span's parent is the innermost span open when it began (the benchmark
/// itself is single-threaded).
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }

  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {name, WallNow(), 0.0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return id;
  }
  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = WallNow();
    open_.pop_back();
  }

  Status Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot write " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonValue row = JsonValue::Object();
      row.Set("id", static_cast<int64_t>(i));
      row.Set("parent", static_cast<int64_t>(s.parent));
      row.Set("name", s.name);
      row.Set("start", s.start);
      row.Set("end", s.end);
      out << row.Dump() << "\n";
    }
    return Status::OK();
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

SpanLog g_spans;

class SpanScope {
 public:
  explicit SpanScope(const char* name) : id_(g_spans.Begin(name)) {}
  ~SpanScope() { g_spans.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

// ---- counters read from outside ----

/// What the program's own sinks held at one instant.
struct CounterState {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, RpcTelemetry::Stat> rpc;  ///< by method group
  sim::CriticalPathReport critical_path;
  int64_t makespan_ticks = 0;
};

/// RPC method -> the group the per-layer metrics are named by.
std::string RpcGroup(const std::string& method) {
  if (method.rfind("ps.push", 0) == 0) return "ps.push";
  if (method.rfind("ps.func", 0) == 0) return "ps.func";
  if (method.rfind("serve.", 0) == 0) return "serve";
  if (method == "ps.pull" || method == "ps.pull_nbrs" ||
      method == "ps.mutate") {
    return method;
  }
  return "other";
}

CounterState Capture(core::PsGraphContext& ctx) {
  CounterState s;
  s.counters = ctx.metrics().CounterSnapshot();
  s.histograms = ctx.metrics().HistogramSnapshots();
  for (const RpcTelemetry::MethodStat& m : ctx.rpc_telemetry().Snapshot()) {
    RpcTelemetry::Stat& g = s.rpc[RpcGroup(m.method)];
    g.calls += m.calls;
    g.request_bytes += m.request_bytes;
    g.response_bytes += m.response_bytes;
    g.callee_busy_ticks += m.callee_busy_ticks;
    g.caller_wait_ticks += m.caller_wait_ticks;
    g.errors_unavailable += m.errors_unavailable;
    g.errors_handler += m.errors_handler;
  }
  s.critical_path = sim::AnalyzeCriticalPath(&ctx.cluster());
  s.makespan_ticks = ctx.cluster().clock().MakespanTicks();
  return s;
}

/// Sums of what the program recorded between pairs of captures: one pair
/// per program instance, so the timed repetitions of several instances
/// add up.
struct LayerTotals {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, RpcTelemetry::Stat> rpc;
  std::array<double, sim::kNumCostCategories> cp_ticks{};
};

/// Adds b - a to `t`. Histograms add bucket-wise; max is the later
/// capture's, which only bounds the interpolation.
void AddDelta(const CounterState& a, const CounterState& b, LayerTotals* t) {
  for (const auto& [name, value] : b.counters) {
    auto it = a.counters.find(name);
    t->counters[name] += value - (it == a.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, hb] : b.histograms) {
    HistogramSnapshot ha;
    if (auto it = a.histograms.find(name); it != a.histograms.end()) {
      ha = it->second;
    }
    HistogramSnapshot& d = t->histograms[name];
    d.count += hb.count - ha.count;
    d.sum += hb.sum - ha.sum;
    d.max = std::max(d.max, hb.max);
    d.buckets.resize(std::max(d.buckets.size(), hb.buckets.size()), 0);
    for (size_t i = 0; i < hb.buckets.size(); ++i) {
      const uint64_t prior = i < ha.buckets.size() ? ha.buckets[i] : 0;
      d.buckets[i] += hb.buckets[i] - prior;
    }
  }
  for (const auto& [group, s] : b.rpc) {
    RpcTelemetry::Stat p;
    if (auto it = a.rpc.find(group); it != a.rpc.end()) p = it->second;
    RpcTelemetry::Stat& g = t->rpc[group];
    g.calls += s.calls - p.calls;
    g.request_bytes += s.request_bytes - p.request_bytes;
    g.response_bytes += s.response_bytes - p.response_bytes;
    g.callee_busy_ticks += s.callee_busy_ticks - p.callee_busy_ticks;
    g.caller_wait_ticks += s.caller_wait_ticks - p.caller_wait_ticks;
    g.errors_unavailable += s.errors_unavailable - p.errors_unavailable;
    g.errors_handler += s.errors_handler - p.errors_handler;
  }
  // When the critical node did not change, the category deltas tile the
  // makespan delta exactly; otherwise the later report's shares are
  // scaled to it.
  const int64_t span = b.makespan_ticks - a.makespan_ticks;
  const bool same_node =
      a.critical_path.valid && b.critical_path.valid &&
      a.critical_path.critical_node == b.critical_path.critical_node;
  for (int c = 0; c < sim::kNumCostCategories; ++c) {
    const auto i = static_cast<size_t>(c);
    if (same_node) {
      t->cp_ticks[i] += static_cast<double>(b.critical_path.categories[i] -
                                            a.critical_path.categories[i]);
    } else if (b.critical_path.makespan_ticks > 0) {
      t->cp_ticks[i] += static_cast<double>(b.critical_path.categories[i]) *
                        static_cast<double>(span) /
                        static_cast<double>(b.critical_path.makespan_ticks);
    }
  }
}

uint64_t TotalRpc(const LayerTotals& t, bool errors) {
  uint64_t n = 0;
  for (const auto& [group, g] : t.rpc) {
    n += errors ? g.errors_unavailable + g.errors_handler : g.calls;
  }
  return n;
}

/// Every counter, histogram, RPC group and critical-path category as a
/// per-repetition figure over the timed repetitions.
JsonValue LayerCounters(const LayerTotals& t, int reps) {
  const double r = std::max(1, reps);
  JsonValue out = JsonValue::Object();
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, d] : t.counters) {
    if (d != 0) counters.Set(name, static_cast<double>(d) / r);
  }
  out.Set("counters_per_rep", std::move(counters));

  JsonValue hists = JsonValue::Object();
  for (const auto& [name, d] : t.histograms) {
    if (d.count == 0) continue;
    const HistogramPercentiles p = d.Percentiles();
    JsonValue h = JsonValue::Object();
    h.Set("count", d.count);
    h.Set("p50", p.p50);
    h.Set("p99", p.p99);
    hists.Set(name, std::move(h));
  }
  out.Set("histograms", std::move(hists));

  JsonValue rpc = JsonValue::Object();
  for (const auto& [group, s] : t.rpc) {
    JsonValue g = JsonValue::Object();
    g.Set("calls", static_cast<double>(s.calls) / r);
    g.Set("req_bytes", static_cast<double>(s.request_bytes) / r);
    g.Set("resp_bytes", static_cast<double>(s.response_bytes) / r);
    g.Set("busy_sim_s", sim::SimClock::SecondsOf(s.callee_busy_ticks) / r);
    g.Set("wait_sim_s", sim::SimClock::SecondsOf(s.caller_wait_ticks) / r);
    g.Set("errors", s.errors_unavailable + s.errors_handler);
    rpc.Set(group, std::move(g));
  }
  out.Set("rpc", std::move(rpc));

  JsonValue cp = JsonValue::Object();
  for (int c = 0; c < sim::kNumCostCategories; ++c) {
    cp.Set(sim::kCostCategoryNames[c], t.cp_ticks[static_cast<size_t>(c)] /
                                           sim::SimClock::kTicksPerSec / r);
  }
  out.Set("critical_path_sim_s", std::move(cp));
  return out;
}

// ---- the timed loop shared by every workload ----

struct Rep {
  double wall_s = 0.0;
  double sim_s = 0.0;
  double items = 0.0;
  bool traced = false;
  bool in_sim_window = true;  ///< counts towards the simulated figures
  /// Heap bytes in use after the repetition minus before it, in the same
  /// program instance: what the repetition left held.
  double heap_growth_bytes = 0.0;
  // serve_fresh splits its repetition into a write and a read side.
  double write_wall_s = 0.0;
  double read_wall_s = 0.0;
  uint64_t mutations = 0;
  uint64_t lookups = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
};

/// One workload's hooks into the shared loop.
struct Workload {
  /// Timed set-ups per program instance; the last one is kept.
  int setup_rounds = 3;
  /// Every timed repetition gets a program instance of its own.
  bool instance_per_rep = false;
  /// Timed repetitions the simulated figures are taken from (0: all).
  int sim_window = 0;
  /// Destroys the live program instance, if any.
  std::function<void()> teardown;
  /// Builds a program instance (none is live); returns the seconds its
  /// ingest step took.
  std::function<double()> setup;
  /// The live instance's context, valid after setup.
  std::function<core::PsGraphContext&()> ctx;
  /// One unit of work. Fills items, and wall_s / sim_s when the
  /// repetition times only part of itself.
  std::function<Status(Rep*)> rep;
  /// Called once after the untimed warm-up repetition.
  std::function<void()> after_warmup = [] {};
  /// Called once after the last repetition of a non-empty sim window.
  std::function<void()> after_sim_window = [] {};
  /// Output checks after the timed phase; adds fields to `checks`.
  std::function<bool(JsonValue* checks)> check;
  /// Operations beyond program calls and RPCs (lookups + mutations), and
  /// how many of them failed or tore.
  std::function<std::pair<uint64_t, uint64_t>()> extra_ops = [] {
    return std::pair<uint64_t, uint64_t>(0, 0);
  };
  /// Workload-specific payload for the result.
  std::function<JsonValue()> detail = [] { return JsonValue::Object(); };
};

int64_t PeakRssKb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Bytes the allocator has handed out and not had back.
double HeapInUseBytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

bool RunWorkload(const Args& args, Workload& w, JsonValue* result) {
  // -- set-up, several timed rounds per instance; the last one is kept --
  std::vector<double> setup_s, ingest_s;
  auto set_up = [&] {
    for (int i = 0; i < w.setup_rounds; ++i) {
      w.teardown();
      g_spans.set_enabled(args.trace);
      SpanScope span("setup");
      const double t0 = WallNow();
      ingest_s.push_back(w.setup());
      setup_s.push_back(WallNow() - t0);
    }
    g_spans.set_enabled(false);
  };
  set_up();
  const int64_t rss_after_setup_kb = PeakRssKb();

  // -- warm-up, untimed --
  double warmup_s = 0.0;
  {
    Rep warm;
    const double t0 = WallNow();
    CheckOk(w.rep(&warm), "warm-up repetition");
    warmup_s = WallNow() - t0;
    w.after_warmup();
  }
  const int64_t rss_after_warmup_kb = PeakRssKb();

  // -- timed phase --
  LayerTotals totals;
  CounterState before;
  if (!w.instance_per_rep) before = Capture(w.ctx());
  std::vector<Rep> reps;
  std::vector<int64_t> rss_kb;
  uint64_t failed_calls = 0;
  std::string first_error;
  const int min_reps = std::max(kMinTimedReps, w.sim_window);
  const double phase_start = WallNow();
  while (static_cast<int>(reps.size()) < kMaxTimedReps) {
    if (WallNow() - phase_start >= args.seconds &&
        static_cast<int>(reps.size()) >= min_reps) {
      break;
    }
    if (w.instance_per_rep) {
      set_up();
      before = Capture(w.ctx());
    }
    core::PsGraphContext& ctx = w.ctx();
    Rep rep;
    rep.traced = args.trace && reps.size() % 2 == 1;
    rep.in_sim_window =
        w.sim_window == 0 || static_cast<int>(reps.size()) < w.sim_window;
    g_spans.set_enabled(rep.traced);
    ctx.tracer().set_enabled(rep.traced);
    const int64_t sim0 = ctx.cluster().clock().MakespanTicks();
    const double heap0 = HeapInUseBytes();
    Status st;
    {
      SpanScope span("rep");
      const double t0 = WallNow();
      st = w.rep(&rep);
      if (rep.wall_s == 0.0) rep.wall_s = WallNow() - t0;
    }
    rep.heap_growth_bytes = HeapInUseBytes() - heap0;
    if (rep.sim_s == 0.0) {
      rep.sim_s = sim::SimClock::SecondsOf(
          ctx.cluster().clock().MakespanTicks() - sim0);
    }
    g_spans.set_enabled(false);
    ctx.tracer().set_enabled(false);
    if (w.instance_per_rep) AddDelta(before, Capture(ctx), &totals);
    if (!st.ok()) {
      ++failed_calls;
      first_error = st.ToString();
      break;
    }
    reps.push_back(rep);
    rss_kb.push_back(PeakRssKb());
    if (static_cast<int>(reps.size()) == w.sim_window) w.after_sim_window();
  }
  const double phase_s = WallNow() - phase_start;
  if (!w.instance_per_rep) AddDelta(before, Capture(w.ctx()), &totals);

  JsonValue checks = JsonValue::Object();
  const bool ok = failed_calls == 0 && w.check(&checks);

  JsonValue host = JsonValue::Object();
  host.Set("nproc",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  host.Set("parallelism", static_cast<uint64_t>(GlobalParallelism()));
  host.Set("build_type", PERFBENCH_BUILD_TYPE);
  result->Set("host", std::move(host));
  result->Set("workload", args.workload);
  result->Set("seed", args.seed);
  result->Set("trace", args.trace);

  JsonValue setup = JsonValue::Array();
  for (double s : setup_s) setup.Append(s);
  result->Set("setup_s", std::move(setup));
  JsonValue ingest = JsonValue::Array();
  for (double s : ingest_s) ingest.Append(s);
  result->Set("ingest_s", std::move(ingest));
  result->Set("warmup_wall_s", warmup_s);
  result->Set("phase_s", phase_s);

  JsonValue reps_json = JsonValue::Array();
  for (size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    JsonValue j = JsonValue::Object();
    j.Set("wall_s", r.wall_s);
    j.Set("sim_s", r.sim_s);
    j.Set("items", r.items);
    j.Set("traced", r.traced);
    j.Set("in_sim_window", r.in_sim_window);
    j.Set("heap_growth_bytes", r.heap_growth_bytes);
    j.Set("write_wall_s", r.write_wall_s);
    j.Set("read_wall_s", r.read_wall_s);
    j.Set("mutations", r.mutations);
    j.Set("lookups", r.lookups);
    j.Set("peak_rss_kb", rss_kb[i]);
    reps_json.Append(std::move(j));
  }
  result->Set("reps", std::move(reps_json));

  JsonValue rss = JsonValue::Object();
  rss.Set("after_setup_kb", rss_after_setup_kb);
  rss.Set("after_warmup_kb", rss_after_warmup_kb);
  rss.Set("peak_kb", PeakRssKb());
  result->Set("rss", std::move(rss));

  // Operations: the program calls themselves, every RPC they issued, and
  // the lookups and mutations a serving workload submitted.
  const uint64_t rpc_calls = TotalRpc(totals, false);
  const uint64_t rpc_errors = TotalRpc(totals, true);
  const auto [extra_attempted, extra_failed] = w.extra_ops();
  result->Set("attempted",
              reps.size() + failed_calls + rpc_calls + extra_attempted);
  result->Set("failed", failed_calls + rpc_errors + extra_failed);
  result->Set("rpc_calls", rpc_calls);
  result->Set("rpc_errors", rpc_errors);
  result->Set("failed_lookups", extra_failed);
  if (!first_error.empty()) result->Set("error", first_error);
  result->Set("checks", std::move(checks));
  result->Set("correct", ok);
  result->Set("layers",
              LayerCounters(totals, static_cast<int>(reps.size())));
  result->Set("detail", w.detail());
  return ok;
}

// ---- reference PageRanks (serial, in the benchmark's own code) ----

/// core::PageRank's formula: ranks are the sum of propagated deltas,
/// seeded with the reset mass on every id, over `iters` sweeps.
std::vector<double> ReferencePsPageRank(const graph::EdgeList& edges,
                                        uint64_t n, int iters) {
  const std::vector<uint64_t> outdeg = graph::OutDegrees(edges, n);
  const double damp = 1.0 - kResetProb;
  std::vector<double> rank(n, 0.0), delta(n, kResetProb), next(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(next.begin(), next.end(), 0.0);
    for (const graph::Edge& e : edges) {
      next[e.dst] +=
          damp * delta[e.src] / static_cast<double>(outdeg[e.src]);
    }
    for (uint64_t v = 0; v < n; ++v) rank[v] += delta[v];
    delta.swap(next);
  }
  for (uint64_t v = 0; v < n; ++v) rank[v] += delta[v];
  return rank;
}

/// graphx::PageRank's formula (GraphX staticPageRank): every vertex of an
/// edge starts at 1.0, then r' = reset + damp * sum(r / outdeg).
std::vector<double> ReferenceGraphxPageRank(const graph::EdgeList& edges,
                                            uint64_t n, int iters) {
  const std::vector<uint64_t> outdeg = graph::OutDegrees(edges, n);
  std::vector<double> rank(n, 1.0), sum(n);
  for (int it = 0; it < iters; ++it) {
    std::fill(sum.begin(), sum.end(), 0.0);
    for (const graph::Edge& e : edges) {
      sum[e.dst] += rank[e.src] / static_cast<double>(outdeg[e.src]);
    }
    for (uint64_t v = 0; v < n; ++v) {
      rank[v] = kResetProb + (1.0 - kResetProb) * sum[v];
    }
  }
  return rank;
}

/// sum|a-b| / sum|b| over `ids`.
double RelL1(const std::vector<double>& a, const std::vector<double>& b,
             const std::vector<uint64_t>& ids) {
  double diff = 0.0, norm = 0.0;
  for (uint64_t v : ids) {
    diff += std::fabs(a[v] - b[v]);
    norm += std::fabs(b[v]);
  }
  return norm > 0 ? diff / norm : 0.0;
}

std::unique_ptr<core::PsGraphContext> CreateContext(int32_t executors,
                                                    int32_t servers) {
  SpanScope span("core.PsGraphContext.Create");
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = executors;
  opts.cluster.num_servers = servers;
  opts.cluster.executor_mem_bytes = 2ull << 30;
  opts.cluster.server_mem_bytes = 2ull << 30;
  auto ctx = core::PsGraphContext::Create(opts);
  CheckOk(ctx.status(), "PsGraphContext::Create");
  return std::move(*ctx);
}

// ---- workloads: pagerank and graphx_pagerank ----

struct EdgeJob {
  bool graphx = false;
  graph::EdgeList edges;
  uint64_t n = 0;
  std::vector<uint64_t> present;  ///< ids that appear in an edge
  std::unique_ptr<core::PsGraphContext> ctx;
  std::optional<dataflow::Dataset<graph::Edge>> cached;
  std::vector<double> last_ranks;  ///< dense, from the last repetition
  int last_iterations = 0;
};

Workload MakeEdgeWorkload(const Args& args, EdgeJob* job) {
  job->edges = graph::MakeDs1Mini(graph::Ds1MiniInfo(kPageRankDenom),
                                  args.seed);
  job->n = graph::NumVerticesOf(job->edges);
  std::vector<char> seen(job->n, 0);
  for (const graph::Edge& e : job->edges) seen[e.src] = seen[e.dst] = 1;
  for (uint64_t v = 0; v < job->n; ++v) {
    if (seen[v]) job->present.push_back(v);
  }

  Workload w;
  w.setup_rounds = 3;
  w.instance_per_rep = true;
  w.teardown = [job] {
    job->cached.reset();
    job->ctx.reset();
  };
  w.setup = [job] {
    job->ctx = CreateContext(8, 4);
    SpanScope span("core.StageAndLoadEdges");
    const double t0 = WallNow();
    auto ds = core::StageAndLoadEdges(*job->ctx, job->edges,
                                      "perfbench/edges.bin");
    CheckOk(ds.status(), "StageAndLoadEdges");
    job->cached = ds->Cache();
    CheckOk(job->cached->Evaluate(), "edge load evaluation");
    return WallNow() - t0;
  };
  w.ctx = [job]() -> core::PsGraphContext& { return *job->ctx; };
  w.rep = [job](Rep* rep) -> Status {
    if (job->graphx) {
      graphx::PageRankOptions o;
      o.max_iterations = kPageRankIterations;
      o.reset_prob = kResetProb;
      Result<std::vector<std::pair<graph::VertexId, double>>> r =
          Status::Internal("not run");
      {
        SpanScope span("graphx.PageRank");
        r = graphx::PageRank(*job->cached, o);
      }
      if (!r.ok()) return r.status();
      job->last_ranks.assign(job->n, 0.0);
      for (const auto& [v, rank] : *r) job->last_ranks[v] = rank;
      job->last_iterations = kPageRankIterations;
    } else {
      core::PageRankOptions o;
      o.max_iterations = kPageRankIterations;
      o.reset_prob = kResetProb;
      o.group_to_neighbor_tables = true;
      o.prune_epsilon = 0.0;
      o.tolerance = 0.0;
      Result<core::PageRankResult> r = Status::Internal("not run");
      {
        SpanScope span("core.PageRank");
        r = core::PageRank(*job->ctx, *job->cached, job->n, o);
      }
      if (!r.ok()) return r.status();
      job->last_ranks = std::move(r->ranks);
      job->last_iterations = r->iterations;
    }
    rep->items =
        static_cast<double>(job->edges.size()) * kPageRankIterations;
    return Status::OK();
  };
  w.check = [job](JsonValue* checks) {
    const std::vector<double> ref =
        job->graphx
            ? ReferenceGraphxPageRank(job->edges, job->n, kPageRankIterations)
            : ReferencePsPageRank(job->edges, job->n, kPageRankIterations);
    checks->Set("rank_rel_l1_vs_reference",
                RelL1(job->last_ranks, ref, job->present));
    checks->Set("iterations", static_cast<int64_t>(job->last_iterations));
    checks->Set("vertices", static_cast<uint64_t>(job->present.size()));
    checks->Set("edges", static_cast<uint64_t>(job->edges.size()));
    return job->last_iterations == kPageRankIterations;
  };
  return w;
}

// ---- workload: graphsage ----

struct SageJob {
  graph::LabeledGraph g;
  uint64_t seed = 1;
  std::unique_ptr<core::PsGraphContext> ctx;
  std::vector<double> accuracies;
  double ingest_probe_s = 0.0;
};

Workload MakeSageWorkload(const Args& args, SageJob* job) {
  job->g = graph::MakeDs3Mini(graph::Ds3MiniInfo(kSageDenom), args.seed);
  job->seed = args.seed;

  Workload w;
  // core::GraphSage stages, loads and preprocesses inside the call, so
  // set-up is context creation only; many rounds steady its median.
  w.setup_rounds = 20;
  w.instance_per_rep = true;
  w.teardown = [job] { job->ctx.reset(); };
  w.setup = [job] {
    job->ctx = CreateContext(8, 4);
    return 0.0;
  };
  w.ctx = [job]() -> core::PsGraphContext& { return *job->ctx; };
  w.rep = [job](Rep* rep) -> Status {
    core::GraphSageOptions o;
    o.epochs = kSageEpochs;
    o.seed = job->seed;
    Result<core::GraphSageResult> r = Status::Internal("not run");
    {
      SpanScope span("core.GraphSage");
      r = core::GraphSage(*job->ctx, job->g, o);
    }
    if (!r.ok()) return r.status();
    job->accuracies.push_back(r->test_accuracy);
    rep->items = o.train_fraction *
                 static_cast<double>(job->g.num_vertices) * kSageEpochs;
    return Status::OK();
  };
  // Ingest probe: the stage + load + first evaluation core::GraphSage
  // runs internally, timed once from outside after the warm-up.
  w.after_warmup = [job] {
    job->accuracies.clear();
    const double t0 = WallNow();
    auto ds = core::StageAndLoadEdges(*job->ctx, job->g.edges,
                                      "perfbench/ingest_probe.bin");
    CheckOk(ds.status(), "ingest probe");
    auto cached = ds->Cache();
    CheckOk(cached.Evaluate(), "ingest probe evaluation");
    job->ingest_probe_s = WallNow() - t0;
    cached.Unpersist();
  };
  w.check = [job](JsonValue* checks) {
    JsonValue acc = JsonValue::Array();
    for (double a : job->accuracies) acc.Append(a);
    checks->Set("test_accuracy", std::move(acc));
    checks->Set("vertices", static_cast<uint64_t>(job->g.num_vertices));
    checks->Set("edges", static_cast<uint64_t>(job->g.edges.size()));
    checks->Set("epochs", static_cast<int64_t>(kSageEpochs));
    return !job->accuracies.empty();
  };
  w.detail = [job] {
    JsonValue d = JsonValue::Object();
    d.Set("ingest_probe_s", job->ingest_probe_s);
    return d;
  };
  return w;
}

// ---- workload: serve_fresh ----

/// The RMAT output without self-loops and duplicates, so the mutation log
/// and the mutable adjacency agree on the live edge set.
graph::EdgeList CleanEdges(const graph::EdgeList& raw, uint64_t n) {
  graph::EdgeList edges;
  std::unordered_set<uint64_t> seen;
  for (const graph::Edge& e : raw) {
    if (e.src == e.dst) continue;
    if (!seen.insert(e.src * n + e.dst).second) continue;
    edges.push_back(e);
  }
  return edges;
}

struct FreshJob {
  graph::EdgeList edges;
  uint64_t n = 0;
  uint64_t seed = 1;
  // Members are destroyed in reverse order: the context goes last.
  std::unique_ptr<core::PsGraphContext> ctx;
  std::optional<stream::DeltaPageRankEngine> engine;
  std::optional<stream::IncrementalEmbedder> embedder;
  std::unique_ptr<stream::FreshnessPipeline> pipeline;
  std::unique_ptr<serving::SnapshotPublisher> publisher;
  std::vector<std::unique_ptr<serving::ServingShard>> shards;
  std::unique_ptr<serving::ServingRouter> router;
  std::unique_ptr<stream::MutationLog> log;
  int64_t first_version = 0;
  int64_t last_version = 0;
  uint64_t load_index = 0;
  bool versions_increase = true;
  bool touched_below_n = true;
  double rank_rel_l1 = 1.0;  ///< incremental vs full, at the window's end
  // Samples of the timed epochs in the sim window (cleared after the
  // warm-up).
  std::vector<int64_t> staleness_ticks;
  std::vector<int64_t> latency_ticks;
  std::vector<stream::DeltaStats> stats;
  std::vector<uint64_t> reembed_rows;
  std::vector<double> submit_wall_s;  ///< mean per Submit, per epoch
  std::vector<double> flush_wall_s;   ///< per Flush
  uint64_t ops = 0;                   ///< lookups + mutations
  uint64_t failed_lookups = 0;

  void Teardown() {
    log.reset();
    router.reset();
    shards.clear();
    publisher.reset();
    pipeline.reset();
    embedder.reset();
    engine.reset();
    ctx.reset();
  }
  ~FreshJob() { Teardown(); }
};

/// Bootstrap: mutable adjacency, full recompute, embeddings, watermark,
/// first snapshot, one serving shard per executor and the router.
/// Returns the ingest (LoadMutableAdjacency) seconds.
double FreshSetup(FreshJob* job) {
  job->ctx = CreateContext(4, 2);
  core::PsGraphContext& ctx = *job->ctx;
  double ingest_s = 0.0;
  Result<ps::MatrixMeta> adj = Status::Internal("not run");
  {
    SpanScope span("stream.LoadMutableAdjacency");
    const double t0 = WallNow();
    adj = stream::LoadMutableAdjacency(ctx, job->edges, job->n, "fresh.adj");
    ingest_s = WallNow() - t0;
  }
  CheckOk(adj.status(), "LoadMutableAdjacency");
  {
    SpanScope span("stream.bootstrap");
    stream::DeltaPageRankOptions po;
    po.tolerance = 1e-7;
    po.prune_epsilon = 1e-4;
    po.max_iterations = 30;
    auto engine = stream::DeltaPageRankEngine::Create(&ctx, *adj, job->n,
                                                      po, "fresh.pr");
    CheckOk(engine.status(), "DeltaPageRankEngine::Create");
    job->engine.emplace(std::move(*engine));
    CheckOk(job->engine->RecomputeFull().status(), "RecomputeFull");
    stream::ReembedOptions eo;
    eo.dim = 8;
    auto embedder = stream::IncrementalEmbedder::Create(&ctx, *adj, job->n,
                                                        eo, "fresh");
    CheckOk(embedder.status(), "IncrementalEmbedder::Create");
    job->embedder.emplace(std::move(*embedder));
    CheckOk(job->embedder->InitFull(), "InitFull");
    job->pipeline = std::make_unique<stream::FreshnessPipeline>(
        &ctx, &*job->engine, &*job->embedder, stream::PipelineOptions());
    CheckOk(job->pipeline->Init(), "FreshnessPipeline::Init");
  }
  {
    SpanScope span("serving.start");
    serving::SnapshotOptions snap;
    snap.root = "serving/perfbench";
    snap.num_shards = ctx.num_executors();
    snap.keep_versions = 2;
    snap.quant = "none";
    snap.matrices = {{"fresh.emb", false}};
    job->publisher =
        std::make_unique<serving::SnapshotPublisher>(&ctx.ps(), snap);
    auto v1 = job->publisher->Publish();
    CheckOk(v1.status(), "Publish");
    std::vector<sim::NodeId> shard_nodes;
    for (int32_t i = 0; i < ctx.num_executors(); ++i) {
      serving::ShardOptions so;
      so.root = snap.root;
      so.lookup_matrix = "fresh.emb";
      so.cache_rows = kFreshCacheRows;
      job->shards.push_back(std::make_unique<serving::ServingShard>(
          i, &ctx.cluster(), &ctx.hdfs(), /*node=*/i, so));
      CheckOk(job->shards.back()->Start(&ctx.fabric()),
              "ServingShard::Start");
      shard_nodes.push_back(i);
    }
    serving::RouterOptions ro;
    ro.num_shards = ctx.num_executors();
    ro.key_space = v1->key_space;
    job->router = std::make_unique<serving::ServingRouter>(
        &ctx.cluster(), &ctx.fabric(), ctx.cluster().config().driver(),
        shard_nodes, ro);
    CheckOk(job->router->SwapTo(v1->version), "SwapTo");
    job->pipeline->AttachServing(job->publisher.get(), job->router.get());
    job->first_version = job->last_version = v1->version;
  }
  return ingest_s;
}

/// One epoch: the write side (RunEpoch) then the read side (an open-loop
/// Zipfian lookup schedule submitted to the router and drained).
Status FreshRep(FreshJob* job, Rep* rep) {
  core::PsGraphContext& ctx = *job->ctx;
  const sim::NodeId driver = ctx.cluster().config().driver();
  if (job->log == nullptr) {
    // The mutation stream is input: generated from the seed, with its
    // clock origin at the end of set-up.
    stream::MutationLogOptions mo;
    mo.seed = job->seed;
    mo.num_vertices = job->n;
    mo.mutations_per_second = kFreshMutationsPerSec;
    mo.epoch_seconds = kFreshEpochSeconds;
    mo.delete_fraction = kFreshDeleteFraction;
    mo.start_ticks = ctx.cluster().clock().NowTicks(driver);
    job->log = std::make_unique<stream::MutationLog>(job->edges, mo);
  }
  const stream::MutationEpoch epoch = job->log->Next();
  const int64_t makespan0 = ctx.cluster().clock().MakespanTicks();

  Result<stream::EpochResult> r = Status::Internal("not run");
  {
    SpanScope span("stream.RunEpoch");
    const double t0 = WallNow();
    r = job->pipeline->RunEpoch(epoch);
    rep->write_wall_s = WallNow() - t0;
  }
  if (!r.ok()) return r.status();
  if (r->skipped || r->version <= job->last_version) {
    job->versions_increase = false;
  }
  if (r->recompute.vertices_touched >= job->n) job->touched_below_n = false;
  job->last_version = r->version;

  // Requests are due from "now" on the simulated clock; latency counts
  // from each request's due stamp.
  serving::LoadGenOptions lo;
  lo.num_requests = kFreshLookupsPerEpoch;
  lo.rate_per_sec = kFreshLookupRate;
  lo.zipfian = true;
  lo.zipf_theta = kFreshZipfTheta;
  lo.key_space = job->n;
  lo.keys_per_request = kFreshKeysPerLookup;
  lo.seed = job->seed * 1000003ull + job->load_index++;
  lo.start_sec =
      sim::SimClock::SecondsOf(ctx.cluster().clock().NowTicks(driver));
  const std::vector<serving::ServingRequest> load =
      serving::GenerateLoad(lo);
  const size_t first_record = job->router->records().size();
  double submit_s = 0.0;
  double flush_s = 0.0;
  for (const serving::ServingRequest& req : load) {
    SpanScope span("serving.Submit");
    const double t0 = WallNow();
    Status st = job->router->Submit(req);
    submit_s += WallNow() - t0;
    if (!st.ok()) return st;
  }
  {
    SpanScope span("serving.Flush");
    const double t0 = WallNow();
    Status st = job->router->Flush();
    flush_s = WallNow() - t0;
    if (!st.ok()) return st;
  }
  rep->read_wall_s = submit_s + flush_s;
  rep->wall_s = rep->write_wall_s + rep->read_wall_s;
  // Simulated work of the epoch: the idle wait for the ingest window to
  // close is not part of it.
  rep->sim_s = sim::SimClock::SecondsOf(
      ctx.cluster().clock().MakespanTicks() -
      std::max(makespan0, epoch.end_ticks));
  rep->mutations = r->mutations;
  rep->lookups = load.size();
  rep->items = static_cast<double>(rep->mutations + rep->lookups);

  const std::vector<serving::RequestRecord>& records =
      job->router->records();
  for (size_t i = first_record; i < records.size(); ++i) {
    const serving::RequestRecord& rec = records[i];
    if (rec.failed || rec.torn || !rec.done) {
      ++job->failed_lookups;
    } else if (rep->in_sim_window) {
      job->latency_ticks.push_back(rec.completion_ticks - rec.arrival_ticks);
    }
  }
  job->ops += rep->lookups + rep->mutations;
  if (!rep->in_sim_window) return Status::OK();
  job->staleness_ticks.insert(job->staleness_ticks.end(),
                              r->staleness_ticks.begin(),
                              r->staleness_ticks.end());
  job->stats.push_back(r->recompute);
  job->reembed_rows.push_back(r->reembed_rows);
  job->submit_wall_s.push_back(submit_s / static_cast<double>(load.size()));
  job->flush_wall_s.push_back(flush_s);
  return Status::OK();
}

Workload MakeFreshWorkload(const Args& args, FreshJob* job) {
  const graph::EdgeList raw =
      graph::MakeDs1Mini(graph::Ds1MiniInfo(kFreshDenom), args.seed);
  job->n = graph::NumVerticesOf(raw);
  job->edges = CleanEdges(raw, job->n);
  job->seed = args.seed;

  Workload w;
  w.setup_rounds = 5;
  w.sim_window = kFreshSimEpochs;
  w.teardown = [job] { job->Teardown(); };
  w.setup = [job] { return FreshSetup(job); };
  w.ctx = [job]() -> core::PsGraphContext& { return *job->ctx; };
  w.rep = [job](Rep* rep) { return FreshRep(job, rep); };
  w.after_warmup = [job] {
    job->staleness_ticks.clear();
    job->latency_ticks.clear();
    job->stats.clear();
    job->reembed_rows.clear();
    job->submit_wall_s.clear();
    job->flush_wall_s.clear();
    job->ops = 0;
    job->failed_lookups = 0;
  };
  w.extra_ops = [job] {
    return std::pair<uint64_t, uint64_t>(job->ops, job->failed_lookups);
  };
  // Retrain quality: the incrementally maintained ranks agree with a
  // from-scratch recompute on the mutated adjacency. Pruning error builds
  // up with the number of epochs, so the gate is taken at the end of the
  // sim window, a fixed epoch, and not after however many epochs fit.
  w.after_sim_window = [job] {
    auto inc = job->engine->ReadRanks();
    CheckOk(inc.status(), "ReadRanks");
    CheckOk(job->engine->RecomputeFull().status(), "RecomputeFull");
    auto full = job->engine->ReadRanks();
    CheckOk(full.status(), "ReadRanks");
    double diff = 0.0, norm = 0.0;
    for (size_t v = 0; v < full->size(); ++v) {
      diff += std::fabs((*inc)[v] - (*full)[v]);
      norm += std::fabs((*full)[v]);
    }
    job->rank_rel_l1 = norm > 0 ? diff / norm : 0.0;
  };
  w.check = [job](JsonValue* checks) {
    checks->Set("rank_rel_l1_incremental_vs_full", job->rank_rel_l1);
    checks->Set("failed_requests", job->router->failed_requests());
    checks->Set("torn_requests", job->router->torn_requests());
    checks->Set("versions_increase", job->versions_increase);
    checks->Set("touched_below_n", job->touched_below_n);
    checks->Set("versions_published",
                job->last_version - job->first_version);
    checks->Set("vertices", job->n);
    checks->Set("edges", static_cast<uint64_t>(job->edges.size()));
    return true;
  };
  w.detail = [job] {
    JsonValue out = JsonValue::Object();
    JsonValue staleness = JsonValue::Array();
    for (int64_t t : job->staleness_ticks) staleness.Append(t);
    out.Set("staleness_ticks", std::move(staleness));
    JsonValue latency = JsonValue::Array();
    for (int64_t t : job->latency_ticks) latency.Append(t);
    out.Set("latency_ticks", std::move(latency));
    JsonValue epochs = JsonValue::Array();
    for (size_t i = 0; i < job->stats.size(); ++i) {
      const stream::DeltaStats& s = job->stats[i];
      JsonValue e = JsonValue::Object();
      e.Set("iterations", static_cast<int64_t>(s.iterations));
      e.Set("vertices_touched", s.vertices_touched);
      e.Set("frontier_total", s.frontier_total);
      e.Set("edges_processed", s.edges_processed);
      e.Set("reembed_rows", job->reembed_rows[i]);
      e.Set("submit_wall_s", job->submit_wall_s[i]);
      e.Set("flush_wall_s", job->flush_wall_s[i]);
      epochs.Append(std::move(e));
    }
    out.Set("epochs", std::move(epochs));
    out.Set("num_vertices", job->n);
    return out;
  };
  return w;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value != "0";
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.out.empty()) {
    Die("usage: perfbench_driver --workload W --seed N --seconds S "
        "--trace 0|1 --out FILE [--spans FILE]");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Engine parallelism pinned to the host's core count.
  SetGlobalParallelism(std::max(1u, std::thread::hardware_concurrency()));

  JsonValue result = JsonValue::Object();
  bool ok = false;
  if (args.workload == "pagerank" || args.workload == "graphx_pagerank") {
    EdgeJob job;
    job.graphx = args.workload == "graphx_pagerank";
    Workload w = MakeEdgeWorkload(args, &job);
    ok = RunWorkload(args, w, &result);
  } else if (args.workload == "graphsage") {
    SageJob job;
    Workload w = MakeSageWorkload(args, &job);
    ok = RunWorkload(args, w, &result);
  } else if (args.workload == "serve_fresh") {
    FreshJob job;
    Workload w = MakeFreshWorkload(args, &job);
    ok = RunWorkload(args, w, &result);
  } else {
    Die("unknown workload '" + args.workload + "'");
  }

  std::ofstream out(args.out);
  if (!out) Die("cannot write " + args.out);
  out << result.Dump() << "\n";
  out.close();
  if (!args.spans.empty()) CheckOk(g_spans.Write(args.spans), "spans");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
