// Observability layer tests: tracer span nesting and capping, JSON
// round-trips (including int64 tick exactness), run-report schema
// validation, per-cluster telemetry isolation, and the flight recorder
// (Chrome-trace export, convergence telemetry).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rpc_telemetry.h"
#include "common/thread_pool.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "common/trace_export.h"
#include "core/graph_loader.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "graph/generators.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "sim/convergence.h"
#include "sim/critical_path.h"
#include "sim/event_journal.h"
#include "sim/report.h"
#include "sim/watchdog.h"

namespace psgraph {
namespace {

TEST(TracerTest, DisabledBeginReturnsZero) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_EQ(t.Begin("op", 0, 10), 0u);
  t.End(0, 20);  // must be a no-op, not a crash
  EXPECT_TRUE(t.Snapshot().empty());
  EXPECT_TRUE(t.Summary().empty());
}

TEST(TracerTest, SpansNestWithParentLinks) {
  Tracer t;
  t.set_enabled(true);
  uint64_t outer = t.Begin("outer", 1, 100);
  uint64_t inner = t.Begin("inner", 1, 110);
  ASSERT_NE(outer, 0u);
  ASSERT_NE(inner, 0u);
  t.End(inner, 150);
  uint64_t sibling = t.Begin("sibling", 1, 160);
  t.End(sibling, 170);
  t.End(outer, 200);

  auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Snapshot order is begin order.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].parent, outer);
  // After inner closed, the innermost open span is outer again.
  EXPECT_EQ(spans[2].name, "sibling");
  EXPECT_EQ(spans[2].parent, outer);
  EXPECT_EQ(spans[0].begin_ticks, 100);
  EXPECT_EQ(spans[0].end_ticks, 200);
}

TEST(TracerTest, SummaryAggregatesClosedSpans) {
  Tracer t;
  t.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    uint64_t id = t.Begin("op", 0, 0);
    t.End(id, 10 * (i + 1));
  }
  uint64_t open = t.Begin("op", 0, 0);
  (void)open;  // never ended: must not appear in the summary
  auto summary = t.Summary();
  ASSERT_EQ(summary.count("op"), 1u);
  EXPECT_EQ(summary["op"].count, 3u);
  EXPECT_EQ(summary["op"].total_ticks, 60);
  EXPECT_EQ(summary["op"].max_ticks, 30);
}

TEST(TracerTest, CapsSpansAndCountsDropped) {
  Tracer t;
  t.set_enabled(true);
  for (size_t i = 0; i < Tracer::kMaxSpans + 100; ++i) {
    uint64_t id = t.Begin("s", 0, 0);
    t.End(id, 1);
  }
  EXPECT_EQ(t.Snapshot().size(), Tracer::kMaxSpans);
  EXPECT_EQ(t.dropped(), 100u);
  t.Reset();
  EXPECT_TRUE(t.Snapshot().empty());
  EXPECT_EQ(t.dropped(), 0u);
  uint64_t id = t.Begin("s", 0, 0);
  EXPECT_NE(id, 0u);  // capacity is available again after Reset
  t.End(id, 1);
}

TEST(TracerTest, ScopedSpanRecordsOnlyWhenEnabled) {
  Tracer t;
  {
    ScopedSpan span(&t, "off", 0, 5, [] { return int64_t{9}; });
  }
  EXPECT_TRUE(t.Snapshot().empty());
  t.set_enabled(true);
  {
    ScopedSpan span(&t, "on", 2, 5, [] { return int64_t{9}; });
  }
  auto spans = t.Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "on");
  EXPECT_EQ(spans[0].node, 2);
  EXPECT_EQ(spans[0].begin_ticks, 5);
  EXPECT_EQ(spans[0].end_ticks, 9);
  {
    ScopedSpan span(static_cast<Tracer*>(nullptr), "null", 0, 0,
                    [] { return int64_t{0}; });
  }
}

TEST(JsonTest, RoundTripPreservesInt64Exactly) {
  // Ticks beyond 2^53 lose precision as doubles; the int path must not.
  const int64_t big = (int64_t{1} << 60) + 12345;
  JsonValue doc = JsonValue::Object();
  doc.Set("ticks", big);
  doc.Set("ratio", 0.25);
  doc.Set("label", "x");
  doc.Set("flag", true);
  doc.Set("nothing", JsonValue());
  auto parsed = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* ticks = parsed->Find("ticks");
  ASSERT_NE(ticks, nullptr);
  EXPECT_EQ(ticks->kind(), JsonValue::Kind::kInt);
  EXPECT_EQ(ticks->as_int(), big);
  EXPECT_EQ(parsed->Find("ratio")->as_double(), 0.25);
  EXPECT_EQ(parsed->Find("label")->as_string(), "x");
  EXPECT_TRUE(parsed->Find("flag")->as_bool());
  EXPECT_TRUE(parsed->Find("nothing")->is_null());
}

TEST(JsonTest, ParseRejectsTrailingJunk) {
  EXPECT_FALSE(JsonValue::Parse("{} extra").ok());
  EXPECT_FALSE(JsonValue::Parse("[1, 2").ok());
  EXPECT_FALSE(JsonValue::Parse("").ok());
}

sim::ClusterConfig BareConfig() {
  sim::ClusterConfig cfg;
  cfg.num_executors = 2;
  cfg.num_servers = 2;
  cfg.executor_mem_bytes = 64ull << 20;
  cfg.server_mem_bytes = 64ull << 20;
  return cfg;
}

TEST(RunReportTest, CollectFromBareClusterRoundTrips) {
  sim::SimCluster cluster(BareConfig());
  cluster.tracer().set_enabled(true);
  cluster.metrics().Add("ps.rows_pulled", 7);
  cluster.metrics().SetGauge("parallelism", 4.0);
  cluster.metrics().Observe("ps.pull.service_ticks", 100);
  cluster.metrics().Observe("ps.pull.service_ticks", 200);
  uint64_t id = cluster.tracer().Begin("ps.pull", 3, 0);
  cluster.tracer().End(id, 42);

  sim::RunReport report = sim::CollectRunReport("unit", &cluster);
  report.bench.Set("note", "hello");
  EXPECT_EQ(report.counters["ps.rows_pulled"], 7u);
  EXPECT_EQ(report.histograms["ps.pull.service_ticks"].count, 2u);
  EXPECT_EQ(report.spans["ps.pull"].count, 1u);

  JsonValue doc = sim::RunReportToJson(report);
  auto parsed = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status valid = sim::ValidateRunReportJson(*parsed);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  // Even a cluster that never advanced its clock reports every node and
  // a critical path.
  EXPECT_EQ(parsed->Find("cluster")->Find("nodes")->size(), 5u);
  EXPECT_TRUE(parsed->Find("critical_path")->is_object());
  const JsonValue* hist =
      parsed->Find("histograms")->Find("ps.pull.service_ticks");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->Find("count")->as_int(), 2);
  EXPECT_EQ(parsed->Find("bench")->Find("note")->as_string(), "hello");
  // The v8 top level, exactly: the "skew" and "serving" sections of v7
  // are gone and nothing replaced them.
  EXPECT_EQ(parsed->Find("schema_version")->as_int(), 8);
  std::set<std::string> keys;
  for (const auto& [key, value] : parsed->members()) keys.insert(key);
  EXPECT_EQ(keys, (std::set<std::string>{
                      "schema", "schema_version", "name", "counters",
                      "gauges", "histograms", "spans", "spans_dropped",
                      "cluster", "critical_path", "convergence", "rpc",
                      "events", "timeseries", "alerts", "bench"}));
}

TEST(RunReportTest, ValidatorRejectsBrokenDocuments) {
  sim::SimCluster cluster(BareConfig());
  cluster.metrics().Observe("h", 1);
  sim::RunReport report = sim::CollectRunReport("unit", &cluster);
  JsonValue good = sim::RunReportToJson(report);
  ASSERT_TRUE(sim::ValidateRunReportJson(good).ok());

  {
    JsonValue bad = good;
    bad.Set("schema", "something.else");
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  {
    JsonValue bad = good;
    bad.Set("schema_version", 999);
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  {
    JsonValue bad = good;
    bad.Set("histograms", JsonValue::Array());
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  {
    JsonValue bad = good;
    bad.Set("rpc", JsonValue::Array());  // must be an object
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  {
    JsonValue bad = good;
    JsonValue events = JsonValue::Object();
    events.Set("counts", JsonValue::Object());
    events.Set("failures", JsonValue::Array());
    // missing recovery + dropped
    bad.Set("events", std::move(events));
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  {
    JsonValue bad = good;
    bad.Set("cluster", JsonValue());  // every run has a cluster
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  {
    JsonValue bad = good;
    JsonValue convergence = JsonValue::Object();
    convergence.Set("series", JsonValue::Object());  // no rejected_points
    bad.Set("convergence", std::move(convergence));
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  // Bench-payload kernel entries must be {value: number, unit:
  // "ticks"|"bytes"}: an unlabeled measurement cannot be gated.
  auto with_kernel = [&good](JsonValue entry) {
    JsonValue kernels = JsonValue::Object();
    kernels.Set("pull_roundtrip_ticks", std::move(entry));
    JsonValue bench = JsonValue::Object();
    bench.Set("kernels", std::move(kernels));
    JsonValue doc = good;
    doc.Set("bench", std::move(bench));
    return doc;
  };
  JsonValue kernel = JsonValue::Object();
  kernel.Set("value", 5);
  EXPECT_FALSE(sim::ValidateRunReportJson(with_kernel(kernel)).ok());
  kernel.Set("unit", "ms");
  EXPECT_FALSE(sim::ValidateRunReportJson(with_kernel(kernel)).ok());
  kernel.Set("unit", "ticks");
  EXPECT_TRUE(sim::ValidateRunReportJson(with_kernel(kernel)).ok());
  // A freshness payload's rate cells carry gateable staleness and never
  // tore a read.
  auto with_cell = [&good](bool with_p99, int64_t torn) {
    JsonValue cell = JsonValue::Object();
    cell.Set("staleness_p50_sim_ticks", 10);
    if (with_p99) cell.Set("staleness_p99_sim_ticks", 20);
    cell.Set("touched_fraction_max", 0.5);
    cell.Set("rank_rel_l1_err", 0.001);
    cell.Set("torn_requests", torn);
    JsonValue bench = JsonValue::Object();
    bench.Set("rate_40", std::move(cell));
    bench.Set("freshness", JsonValue::Object());
    JsonValue doc = good;
    doc.Set("bench", std::move(bench));
    return doc;
  };
  EXPECT_TRUE(sim::ValidateRunReportJson(with_cell(true, 0)).ok());
  EXPECT_FALSE(sim::ValidateRunReportJson(with_cell(true, 1)).ok());
  EXPECT_FALSE(sim::ValidateRunReportJson(with_cell(false, 0)).ok());
  EXPECT_FALSE(sim::ValidateRunReportJson(JsonValue(3)).ok());
  EXPECT_FALSE(sim::ValidateRunReportJson(JsonValue::Object()).ok());
}

// Schema v3: a clean run's report carries real RPC aggregates, per-node
// memory gauges, and an events section whose failure timeline is empty.
TEST(RunReportTest, V3RpcAndEventsSectionsFromCleanRun) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  auto ctx = core::PsGraphContext::Create(opts);
  ASSERT_TRUE(ctx.ok());
  graph::EdgeList edges = graph::GenerateErdosRenyi(200, 1000, 29);
  auto ds = core::StageAndLoadEdges(**ctx, edges, "obs/v3.bin");
  ASSERT_TRUE(ds.ok());
  core::PageRankOptions po;
  po.max_iterations = 3;
  ASSERT_TRUE(core::PageRank(**ctx, *ds, 0, po).status().ok());

  sim::RunReport report = sim::CollectRunReport("v3", &(*ctx)->cluster());
  ASSERT_FALSE(report.rpc.empty());
  uint64_t calls = 0;
  uint64_t pull_req_bytes = 0;
  for (const auto& m : report.rpc) {
    calls += m.calls;
    if (m.method == "ps.pull") pull_req_bytes += m.request_bytes;
    EXPECT_FALSE(m.method.empty());
    EXPECT_EQ(m.errors_unavailable + m.errors_handler, 0u);
  }
  EXPECT_GT(calls, 0u);
  // The agent meters the ps.pull payloads it encodes; the fabric meters
  // the same bytes on the wire.
  EXPECT_EQ(pull_req_bytes, report.counters["wire.pull.req_bytes"]);
  // Sorted by (method, callee node).
  for (size_t i = 1; i < report.rpc.size(); ++i) {
    EXPECT_LE(std::make_pair(report.rpc[i - 1].method,
                             report.rpc[i - 1].node),
              std::make_pair(report.rpc[i].method, report.rpc[i].node));
  }
  EXPECT_TRUE(report.failure_events.empty());
  EXPECT_EQ(report.recovery.episodes, 0u);
  EXPECT_GT(report.event_counts["barrier_entry"], 0u);
  bool server_mem_seen = false;
  for (const auto& n : report.nodes) {
    EXPECT_GT(n.mem_budget_bytes, 0u);
    if (n.role == "server" && n.mem_peak_bytes > 0) server_mem_seen = true;
  }
  EXPECT_TRUE(server_mem_seen) << "PS rows must show up in a server ledger";

  auto parsed = JsonValue::Parse(sim::RunReportToJson(report).Dump(2));
  ASSERT_TRUE(parsed.ok());
  Status valid = sim::ValidateRunReportJson(*parsed);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  const JsonValue* rpc = parsed->Find("rpc");
  EXPECT_FALSE(rpc->Find("methods")->elements().empty());
  const JsonValue* events = parsed->Find("events");
  EXPECT_TRUE(events->Find("failures")->elements().empty());
  EXPECT_EQ(events->Find("dropped")->as_int(), 0);
  EXPECT_EQ(events->Find("recovery")->Find("episodes")->as_int(), 0);
}

TEST(RunReportTest, CollectFromClusterAddsNodeStats) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 1;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  auto ctx = core::PsGraphContext::Create(opts);
  ASSERT_TRUE(ctx.ok());
  graph::EdgeList edges = graph::GenerateErdosRenyi(200, 1000, 17);
  auto ds = core::StageAndLoadEdges(**ctx, edges, "obs/edges.bin");
  ASSERT_TRUE(ds.ok());

  sim::RunReport report =
      sim::CollectRunReport("cluster_unit", &(*ctx)->cluster());
  EXPECT_EQ(report.num_executors, 2);
  EXPECT_EQ(report.num_servers, 1);
  ASSERT_EQ(report.nodes.size(), 4u);  // 2 exec + 1 server + driver
  EXPECT_EQ(report.nodes[0].role, "executor");
  EXPECT_EQ(report.nodes[2].role, "server");
  EXPECT_EQ(report.nodes[3].role, "driver");
  EXPECT_GT(report.makespan_ticks, 0);
  int64_t max_busy = 0;
  for (const auto& n : report.nodes) {
    if (n.busy_ticks > max_busy) max_busy = n.busy_ticks;
  }
  EXPECT_EQ(report.makespan_ticks, max_busy);

  auto parsed = JsonValue::Parse(sim::RunReportToJson(report).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(sim::ValidateRunReportJson(*parsed).ok());
}

TEST(ContextMetricsTest, TwoContextsDoNotCrossContaminate) {
  auto make = [] {
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 2;
    opts.cluster.num_servers = 1;
    opts.cluster.executor_mem_bytes = 64ull << 20;
    opts.cluster.server_mem_bytes = 64ull << 20;
    return core::PsGraphContext::Create(opts);
  };
  auto a = make();
  auto b = make();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  graph::EdgeList edges = graph::GenerateErdosRenyi(200, 1000, 19);
  auto ds = core::StageAndLoadEdges(**a, edges, "obs/iso.bin");
  ASSERT_TRUE(ds.ok());
  core::PageRankOptions po;
  po.max_iterations = 2;
  ASSERT_TRUE(core::PageRank(**a, *ds, 0, po).status().ok());

  EXPECT_GT((*a)->metrics().Get("ps.rows_pulled"), 0u);
  EXPECT_GT((*a)->metrics().GetHistogram("ps.pull.service_ticks").count(),
            0u);
  EXPECT_FALSE((*a)->rpc_telemetry().Snapshot().empty());
  EXPECT_EQ((*b)->metrics().Get("ps.rows_pulled"), 0u);
  EXPECT_TRUE((*b)->rpc_telemetry().Snapshot().empty());
}

// Every SimCluster owns its seven sinks. Traffic on one bare cluster
// (no PsGraphContext) must leave every sink of a second one empty.
TEST(ClusterSinksTest, BareClustersShareNoSink) {
  sim::SimCluster busy(BareConfig());
  sim::SimCluster idle(BareConfig());
  for (sim::SimCluster* c : {&busy, &idle}) c->tracer().set_enabled(true);
  sim::WatchdogRule any_rpc;
  any_rpc.name = "any_rpc";
  any_rpc.series = "rpc.total.calls";
  busy.watchdog().AddRule(any_rpc);

  net::RpcFabric fabric(&busy);
  ps::PsContext psctx(&busy, &fabric, nullptr);
  ASSERT_TRUE(psctx.Start().ok());
  auto meta = psctx.CreateMatrix("m", 64, 4);
  ASSERT_TRUE(meta.ok());
  ps::PsAgent agent(&psctx, busy.config().executor(0));
  const std::vector<uint64_t> keys{1, 2, 3, 40};
  ASSERT_TRUE(agent.PushAdd(*meta, keys, std::vector<float>(16, 1.0f)).ok());
  ASSERT_TRUE(agent.PullRows(*meta, keys).ok());
  auto echo = std::make_shared<net::RpcEndpoint>();
  echo->Register("echo", [](const std::vector<uint8_t>&) -> Result<ByteBuffer> {
    return ByteBuffer();
  });
  fabric.Bind(busy.config().driver(), echo);
  ASSERT_TRUE(
      fabric.Call(busy.config().executor(1), busy.config().driver(), "echo",
                  ByteBuffer())
          .ok());
  busy.events().Record(sim::JournalEventType::kHealthCheck, -1, 0);
  ASSERT_TRUE(busy.convergence().Record("loss", 0, 1.0));
  busy.sampler().ForceSample(busy.clock().MakespanTicks());

  // The traffic reached every sink of the cluster it ran on...
  EXPECT_GT(busy.metrics().Get("ps.rows_pulled"), 0u);
  EXPECT_FALSE(busy.tracer().Snapshot().empty());
  EXPECT_FALSE(busy.convergence().Snapshot().empty());
  EXPECT_FALSE(busy.rpc_telemetry().Snapshot().empty());
  EXPECT_FALSE(busy.events().Snapshot().empty());
  EXPECT_GT(busy.sampler().store().points(), 0u);
  EXPECT_EQ(busy.watchdog().FireCount("any_rpc"), 1u);

  // ...and none of the other's.
  EXPECT_TRUE(idle.metrics().CounterSnapshot().empty());
  EXPECT_TRUE(idle.metrics().GaugeSnapshot().empty());
  EXPECT_TRUE(idle.metrics().HistogramSnapshots().empty());
  EXPECT_TRUE(idle.tracer().Snapshot().empty());
  EXPECT_TRUE(idle.tracer().Summary().empty());
  EXPECT_TRUE(idle.convergence().Snapshot().empty());
  EXPECT_TRUE(idle.rpc_telemetry().Snapshot().empty());
  EXPECT_TRUE(idle.events().Snapshot().empty());
  EXPECT_EQ(idle.sampler().store().points(), 0u);
  EXPECT_TRUE(idle.watchdog().rules().empty());
  EXPECT_TRUE(idle.watchdog().firings().empty());
}

// A bare cluster's report is complete with no install step: its own
// sampler is armed at construction, so the timeseries section fills.
TEST(RunReportTest, BareClusterReportHasTimeseries) {
  sim::SimCluster cluster(BareConfig());
  net::RpcFabric fabric(&cluster);
  ps::PsContext psctx(&cluster, &fabric, nullptr);
  ASSERT_TRUE(psctx.Start().ok());
  auto meta = psctx.CreateMatrix("m", 64, 4);
  ASSERT_TRUE(meta.ok());
  ps::PsAgent agent(&psctx, cluster.config().executor(0));
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(agent.PullRows(*meta, {1, 2, 3, 40}).ok());
  }
  cluster.sampler().ForceSample(cluster.clock().MakespanTicks());

  sim::RunReport report = sim::CollectRunReport("bare", &cluster);
  EXPECT_GT(report.timeseries.points, 0u);
  ASSERT_EQ(report.timeseries.series.count("rpc.total.calls"), 1u);
  uint64_t calls = 0;
  for (const RpcTelemetry::MethodStat& m : report.rpc) calls += m.calls;
  EXPECT_GT(calls, 0u);
  EXPECT_EQ(report.timeseries.series.at("rpc.total.calls").back(),
            static_cast<double>(calls));
  auto parsed = JsonValue::Parse(sim::RunReportToJson(report).Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(sim::ValidateRunReportJson(*parsed).ok());
}

TEST(TracerTest, MaxSpansIsConfigurable) {
  Tracer t;
  EXPECT_EQ(t.max_spans(), Tracer::kMaxSpans);  // env unset in tests
  t.set_enabled(true);
  t.set_max_spans(3);
  for (int i = 0; i < 5; ++i) {
    uint64_t id = t.Begin("s", 0, i);
    t.End(id, i + 1);
  }
  EXPECT_EQ(t.Snapshot().size(), 3u);
  EXPECT_EQ(t.dropped(), 2u);

  ::setenv("PSGRAPH_TRACE_MAX_SPANS", "12345", 1);
  EXPECT_EQ(Tracer::MaxSpansFromEnv(), 12345u);
  Tracer from_env;
  EXPECT_EQ(from_env.max_spans(), 12345u);
  ::setenv("PSGRAPH_TRACE_MAX_SPANS", "0", 1);
  EXPECT_EQ(Tracer::MaxSpansFromEnv(), Tracer::kMaxSpans);
  ::unsetenv("PSGRAPH_TRACE_MAX_SPANS");
}

TEST(TraceExportTest, ChromeJsonRoundTripsTickExact) {
  // Ticks beyond 2^53 must survive dump + parse bit-exactly — the whole
  // point of the int64-aware JSON layer.
  const int64_t base = (int64_t{1} << 55) + 7;
  Tracer t;
  t.set_enabled(true);
  uint64_t outer = t.Begin("stage", 0, base);
  uint64_t inner = t.Begin("rpc", 0, base + 10);
  t.End(inner, base + 40);
  t.End(outer, base + 100);
  uint64_t server = t.Begin("ps.pull", 2, base + 15);
  t.End(server, base + 35);

  TraceExportOptions options;
  options.spans_dropped = 4;
  options.process_name = [](int32_t node) {
    return "proc " + std::to_string(node);
  };
  JsonValue doc = TraceToChromeJson(t.Snapshot(), options);
  auto parsed = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const JsonValue* other = parsed->Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("schema")->as_string(), "psgraph.trace");
  EXPECT_EQ(other->Find("tick_unit")->as_string(), "ps");
  EXPECT_EQ(other->Find("spans_dropped")->as_int(), 4);

  const JsonValue* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::map<uint64_t, const JsonValue*> by_span;
  int metadata = 0;
  for (const JsonValue& ev : events->elements()) {
    if (ev.Find("ph")->as_string() == "M") {
      EXPECT_EQ(ev.Find("name")->as_string(), "process_name");
      ++metadata;
      continue;
    }
    EXPECT_EQ(ev.Find("ph")->as_string(), "X");
    by_span[static_cast<uint64_t>(
        ev.Find("args")->Find("span_id")->as_int())] = &ev;
  }
  EXPECT_EQ(metadata, 2);  // nodes 0 and 2
  ASSERT_EQ(by_span.size(), 3u);

  const JsonValue* ev_outer = by_span[outer];
  EXPECT_EQ(ev_outer->Find("name")->as_string(), "stage");
  EXPECT_EQ(ev_outer->Find("ts")->as_int(), base);
  EXPECT_EQ(ev_outer->Find("dur")->as_int(), 100);
  EXPECT_EQ(ev_outer->Find("pid")->as_int(), 1);  // node 0 -> pid 1
  const JsonValue* ev_inner = by_span[inner];
  EXPECT_EQ(ev_inner->Find("args")->Find("parent")->as_int(),
            static_cast<int64_t>(outer));
  // Same node + nested: the child rides its anchor's track.
  EXPECT_EQ(ev_inner->Find("tid")->as_int(),
            ev_outer->Find("tid")->as_int());
  const JsonValue* ev_server = by_span[server];
  EXPECT_EQ(ev_server->Find("pid")->as_int(), 3);  // node 2 -> pid 3
  EXPECT_EQ(ev_server->Find("ts")->as_int(), base + 15);

  // The export is a pure function of the span set: re-exporting must be
  // byte-identical (the determinism contract behind trace baselines).
  EXPECT_EQ(doc.Dump(2), TraceToChromeJson(t.Snapshot(), options).Dump(2));
}

TEST(TraceExportTest, OverlappingRootsGetDistinctTracks) {
  // Two spans on one node that overlap in sim time cannot share a track
  // (Chrome/Perfetto would render them corrupted).
  std::vector<TraceSpan> spans;
  spans.push_back({1, 0, "a", 0, 100, 200});
  spans.push_back({2, 0, "b", 0, 150, 250});  // overlaps a
  spans.push_back({3, 0, "c", 0, 200, 300});  // reuses a's track
  JsonValue doc = TraceToChromeJson(spans, {});
  std::map<std::string, int64_t> tid_of;
  for (const JsonValue& ev : doc.Find("traceEvents")->elements()) {
    if (ev.Find("ph")->as_string() != "X") continue;
    tid_of[ev.Find("name")->as_string()] = ev.Find("tid")->as_int();
  }
  ASSERT_EQ(tid_of.size(), 3u);
  EXPECT_NE(tid_of["a"], tid_of["b"]);
  EXPECT_EQ(tid_of["a"], tid_of["c"]);
}

TEST(RpcTelemetryTest, AccumulatesPerMethodAndCallee) {
  RpcTelemetry t;
  t.RecordCall("pull", 3, 100);
  t.RecordCall("pull", 3, 50);
  t.RecordResponse("pull", 3, 200, /*busy_ticks=*/40, /*wait_ticks=*/60);
  t.RecordResponse("pull", 3, 100, /*busy_ticks=*/10, /*wait_ticks=*/20);
  t.RecordCall("push", 2, 10);
  t.RecordError("push", 2, /*unavailable=*/false, /*busy_ticks=*/5);
  t.RecordError("pull", 4, /*unavailable=*/true);

  auto snap = t.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Deterministic (method, node) order.
  EXPECT_EQ(snap[0].method, "pull");
  EXPECT_EQ(snap[0].node, 3);
  EXPECT_EQ(snap[0].calls, 2u);
  EXPECT_EQ(snap[0].request_bytes, 150u);
  EXPECT_EQ(snap[0].response_bytes, 300u);
  EXPECT_EQ(snap[0].callee_busy_ticks, 50);
  EXPECT_EQ(snap[0].caller_wait_ticks, 80);
  EXPECT_EQ(snap[0].errors_unavailable, 0u);
  EXPECT_EQ(snap[1].method, "pull");
  EXPECT_EQ(snap[1].node, 4);
  EXPECT_EQ(snap[1].calls, 0u);  // never planned successfully
  EXPECT_EQ(snap[1].errors_unavailable, 1u);
  EXPECT_EQ(snap[2].method, "push");
  EXPECT_EQ(snap[2].node, 2);
  EXPECT_EQ(snap[2].errors_handler, 1u);
  EXPECT_EQ(snap[2].callee_busy_ticks, 5);  // burned before failing

  t.Reset();
  EXPECT_TRUE(t.Snapshot().empty());
}

TEST(EventJournalTest, RecordsStampsAndSummarizesRecovery) {
  sim::EventJournal j;
  j.set_iteration(2);
  j.Record(sim::JournalEventType::kNodeKilled, 4, 100);
  j.Record(sim::JournalEventType::kRecoveryBegin, -1, 100, 1);
  j.Record(sim::JournalEventType::kCheckpointRestore, 4, 150, 4096);
  j.Record(sim::JournalEventType::kRecoveryEnd, -1, 180, 1);
  j.set_iteration(3);
  j.Record(sim::JournalEventType::kBarrierEntry, -1, 200, 7);

  auto events = j.Snapshot();
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].type, sim::JournalEventType::kNodeKilled);
  EXPECT_EQ(events[0].node, 4);
  EXPECT_EQ(events[0].iteration, 2);  // stamped from the set context
  EXPECT_EQ(events[0].ticks, 100);
  EXPECT_EQ(events[4].iteration, 3);

  auto counts = j.Counts();
  EXPECT_EQ(counts["node_killed"], 1u);
  EXPECT_EQ(counts["barrier_entry"], 1u);

  auto recovery = sim::EventJournal::SummarizeRecovery(events);
  EXPECT_EQ(recovery.episodes, 1u);
  EXPECT_EQ(recovery.total_ticks, 80);
  EXPECT_EQ(recovery.max_ticks, 80);

  EXPECT_TRUE(sim::EventJournal::IsFailureEvent(events[0]));
  EXPECT_FALSE(sim::EventJournal::IsFailureEvent(events[4]));
  // Health checks are failures only when they saw dead servers.
  sim::JournalEvent healthy{sim::JournalEventType::kHealthCheck, -1, 0, 0,
                            0};
  sim::JournalEvent dead{sim::JournalEventType::kHealthCheck, -1, 0, 0, 2};
  EXPECT_FALSE(sim::EventJournal::IsFailureEvent(healthy));
  EXPECT_TRUE(sim::EventJournal::IsFailureEvent(dead));
}

TEST(EventJournalTest, CapsEventsAndCountsDropped) {
  sim::EventJournal j;
  for (size_t i = 0; i < sim::EventJournal::kMaxEvents + 7; ++i) {
    j.Record(sim::JournalEventType::kBarrierEntry, -1,
             static_cast<int64_t>(i));
  }
  EXPECT_EQ(j.Snapshot().size(), sim::EventJournal::kMaxEvents);
  EXPECT_EQ(j.dropped(), 7u);
  j.Reset();
  EXPECT_TRUE(j.Snapshot().empty());
  EXPECT_EQ(j.dropped(), 0u);
}

TEST(TraceExportTest, EmitsFlowAndInstantEvents) {
  std::vector<TraceSpan> spans;
  spans.push_back({1, 0, "agent.pull", 0, 100, 300});
  spans.push_back({2, 1, "rpc.pull", 2, 150, 250});  // cross-node child
  spans.push_back({3, 1, "compute", 0, 120, 140});   // same-node child
  TraceExportOptions options;
  // An instant on a node with no spans at all (a killed node).
  options.instants.push_back({"node_killed", 5, 400});
  options.instants.push_back({"checkpoint_restore", 2, 420});
  JsonValue doc = TraceToChromeJson(spans, options);

  const JsonValue* starts = nullptr;
  const JsonValue* finishes = nullptr;
  std::vector<const JsonValue*> instants;
  int metadata = 0;
  for (const JsonValue& ev : doc.Find("traceEvents")->elements()) {
    const std::string& ph = ev.Find("ph")->as_string();
    if (ph == "M") ++metadata;
    if (ph == "s") starts = &ev;
    if (ph == "f") finishes = &ev;
    if (ph == "i") instants.push_back(&ev);
  }
  // pids: node 0, node 2, and the instant-only node 5 all get metadata.
  EXPECT_EQ(metadata, 3);

  // Exactly one flow pair: the same-node child gets no arrow.
  ASSERT_NE(starts, nullptr);
  ASSERT_NE(finishes, nullptr);
  EXPECT_EQ(starts->Find("id")->as_int(), 2);
  EXPECT_EQ(finishes->Find("id")->as_int(), 2);
  EXPECT_EQ(starts->Find("pid")->as_int(), 1);    // parent on node 0
  EXPECT_EQ(finishes->Find("pid")->as_int(), 3);  // child on node 2
  EXPECT_EQ(starts->Find("ts")->as_int(), 150);   // inside the parent
  EXPECT_EQ(finishes->Find("ts")->as_int(), 150);
  EXPECT_EQ(finishes->Find("bp")->as_string(), "e");
  EXPECT_EQ(starts->Find("args")->Find("parent")->as_int(), 1);

  ASSERT_EQ(instants.size(), 2u);
  EXPECT_EQ(instants[0]->Find("name")->as_string(), "checkpoint_restore");
  EXPECT_EQ(instants[0]->Find("pid")->as_int(), 3);
  EXPECT_EQ(instants[0]->Find("s")->as_string(), "p");
  EXPECT_EQ(instants[1]->Find("name")->as_string(), "node_killed");
  EXPECT_EQ(instants[1]->Find("pid")->as_int(), 6);
  EXPECT_EQ(instants[1]->Find("ts")->as_int(), 400);

  // Still a pure function of its inputs.
  EXPECT_EQ(doc.Dump(2), TraceToChromeJson(spans, options).Dump(2));
}

TEST(TraceExportTest, FlowStartClampsIntoParentInterval) {
  // The child's begin can lie past the parent's end (clock skew across
  // planned calls); the start arrow must stay inside the parent slice.
  std::vector<TraceSpan> spans;
  spans.push_back({1, 0, "agent.push", 0, 100, 200});
  spans.push_back({2, 1, "rpc.push", 3, 260, 280});
  JsonValue doc = TraceToChromeJson(spans, {});
  for (const JsonValue& ev : doc.Find("traceEvents")->elements()) {
    if (ev.Find("ph")->as_string() == "s") {
      EXPECT_EQ(ev.Find("ts")->as_int(), 200);
    }
    if (ev.Find("ph")->as_string() == "f") {
      EXPECT_EQ(ev.Find("ts")->as_int(), 260);
    }
  }
}

TEST(ConvergenceLogTest, EnforcesMonotonicIterations) {
  sim::ConvergenceLog log;
  EXPECT_TRUE(log.Record("pr.delta", 0, 1.0));
  EXPECT_TRUE(log.Record("pr.delta", 1, 0.5));
  EXPECT_FALSE(log.Record("pr.delta", 1, 0.4));  // duplicate iteration
  EXPECT_FALSE(log.Record("pr.delta", 0, 0.4));  // goes backwards
  EXPECT_TRUE(log.Record("other", 0, 9.0));      // independent series
  EXPECT_EQ(log.rejected(), 2u);

  auto snap = log.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  ASSERT_EQ(snap["pr.delta"].size(), 2u);
  EXPECT_EQ(snap["pr.delta"][1].iteration, 1);
  EXPECT_EQ(snap["pr.delta"][1].value, 0.5);
}

TEST(ConvergenceLogTest, RewindSupportsRecoveryRollback) {
  sim::ConvergenceLog log;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(log.Record("s", i, 1.0 / (i + 1)));
  }
  // Consistent recovery rolls back to iteration 2: truncate, re-record.
  log.Rewind("s", 2);
  EXPECT_EQ(log.Snapshot()["s"].size(), 2u);
  EXPECT_TRUE(log.Record("s", 2, 0.25));
  EXPECT_TRUE(log.Record("s", 3, 0.2));
  auto snap = log.Snapshot();
  ASSERT_EQ(snap["s"].size(), 4u);
  EXPECT_EQ(snap["s"][2].value, 0.25);
  EXPECT_EQ(log.rejected(), 0u);
}

TEST(ConvergenceLogTest, MergePrefixesAndExtends) {
  sim::ConvergenceLog cell;
  ASSERT_TRUE(cell.Record("loss", 0, 3.0));
  ASSERT_TRUE(cell.Record("loss", 1, 2.0));
  sim::ConvergenceLog total;
  total.Merge(cell, "run_a/");
  auto snap = total.Snapshot();
  ASSERT_EQ(snap.count("run_a/loss"), 1u);
  EXPECT_EQ(snap["run_a/loss"].size(), 2u);
  // Merging the same series again appends nothing (no monotonic
  // extension), rather than corrupting the curve.
  total.Merge(cell, "run_a/");
  EXPECT_EQ(total.Snapshot()["run_a/loss"].size(), 2u);
}

TEST(TimeSeriesStoreTest, CompactionMatchesCoarserSampler) {
  // The compaction contract: a store that filled at interval 100 and
  // compacted once must hold *exactly* the series a store sampling at
  // interval 200 would have recorded from the same signal.
  auto signal = [](int64_t ticks) {
    return static_cast<double>(ticks * ticks % 997);
  };
  TimeSeriesStore fine(100, 8);
  TimeSeriesStore coarse(200, 8);
  for (int k = 1; k <= 8; ++k) {
    fine.Append({{"s", signal(100 * k)}});
    if (k % 2 == 0) coarse.Append({{"s", signal(100 * k)}});
  }
  EXPECT_EQ(fine.compactions(), 1u);
  EXPECT_EQ(fine.points(), 4u);
  EXPECT_EQ(fine.interval_ticks(), 200);
  EXPECT_EQ(fine.base_interval_ticks(), 100);
  EXPECT_EQ(coarse.compactions(), 0u);
  ASSERT_NE(fine.Series("s"), nullptr);
  EXPECT_EQ(*fine.Series("s"), *coarse.Series("s"));
  // The next boundary also lands on the coarser grid.
  EXPECT_EQ(fine.NextBoundaryTicks(), coarse.NextBoundaryTicks());

  // A second fill compacts again: interval 400, still byte-equal to a
  // 4x sampler. The store's own boundary grid (now 200-tick) drives
  // which signal values a sampler would feed it.
  TimeSeriesStore coarser(400, 8);
  for (int k = 0; k < 4; ++k) {
    fine.Append({{"s", signal(fine.NextBoundaryTicks())}});
  }
  for (int k = 1; k <= 4; ++k) {
    coarser.Append({{"s", signal(400 * k)}});
  }
  EXPECT_EQ(fine.compactions(), 2u);
  EXPECT_EQ(fine.interval_ticks(), 400);
  EXPECT_EQ(*fine.Series("s"), *coarser.Series("s"));
}

TEST(TimeSeriesStoreTest, ZeroBackfillsNewAndMissingSeries) {
  TimeSeriesStore store(10, 8);
  store.Append({{"a", 1.0}});
  store.Append({{"a", 2.0}, {"b", 5.0}});  // b first seen at point 2
  store.Append({});                        // registry reset: both absent
  ASSERT_NE(store.Series("a"), nullptr);
  ASSERT_NE(store.Series("b"), nullptr);
  EXPECT_EQ(*store.Series("a"), (std::vector<double>{1.0, 2.0, 0.0}));
  EXPECT_EQ(*store.Series("b"), (std::vector<double>{0.0, 5.0, 0.0}));
  EXPECT_EQ(store.Latest("a"), 0.0);
  EXPECT_EQ(store.Series("never"), nullptr);
  EXPECT_EQ(store.Latest("never"), 0.0);

  TimeSeriesSnapshot snap = store.Snapshot();
  EXPECT_EQ(snap.points, 3u);
  EXPECT_EQ(snap.series.at("b").size(), 3u);
  store.Reset();
  EXPECT_EQ(store.points(), 0u);
  EXPECT_EQ(store.Series("a"), nullptr);
}

TEST(MetricsSamplerTest, PollAppendsOnePointPerCrossedBoundary) {
  Metrics metrics;
  RpcTelemetry rpc;
  MetricsSampler sampler;
  MetricsSampler::Options options;
  options.metrics = &metrics;
  options.rpc = &rpc;
  options.interval_ticks = 100;
  options.capacity = 16;
  sampler.Configure(options);
  ASSERT_TRUE(sampler.enabled());
  int64_t watermark = 0;
  sampler.AddSource("mem.test", [&] {
    return static_cast<double>(watermark);
  });

  std::vector<int64_t> boundaries;
  sampler.set_scrape_callback(
      [&](int64_t ticks) { boundaries.push_back(ticks); });

  metrics.Add("c", 3);
  metrics.SetGauge("g", 1.5);
  metrics.Observe("h", 42);
  rpc.RecordCall("pull", 1, 64);
  watermark = 7;
  sampler.Poll(50);  // before the first boundary: nothing yet
  EXPECT_EQ(sampler.store().points(), 0u);
  sampler.Poll(250);  // crosses 100 and 200: two points, one scrape
  EXPECT_EQ(sampler.store().points(), 2u);
  sampler.Poll(250);  // same tick again: no-op
  EXPECT_EQ(sampler.store().points(), 2u);
  metrics.Add("c", 5);
  sampler.ForceSample(250);  // one extra point at the next boundary
  EXPECT_EQ(sampler.store().points(), 3u);
  EXPECT_EQ(boundaries, (std::vector<int64_t>{100, 200, 300}));

  const TimeSeriesStore& store = sampler.store();
  EXPECT_EQ(*store.Series("counter.c"),
            (std::vector<double>{3.0, 3.0, 8.0}));
  EXPECT_EQ(*store.Series("gauge.g"), (std::vector<double>{1.5, 1.5, 1.5}));
  EXPECT_EQ(*store.Series("mem.test"), (std::vector<double>{7.0, 7.0, 7.0}));
  EXPECT_EQ(store.Latest("rpc.total.calls"), 1.0);
  EXPECT_EQ(store.Latest("rpc.total.request_bytes"), 64.0);
  EXPECT_EQ(store.Latest("rpc.pull.bytes"), 64.0);
  for (const char* q : {"hist.h.p50", "hist.h.p99", "hist.h.p999"}) {
    ASSERT_NE(store.Series(q), nullptr) << q;
    EXPECT_EQ(store.Series(q)->size(), 3u) << q;
  }

  // Disabled samplers (interval 0) no-op.
  MetricsSampler disabled;
  EXPECT_FALSE(disabled.enabled());
  disabled.Poll(1000000);
  EXPECT_EQ(disabled.store().points(), 0u);
}

TEST(HistogramPercentilesTest, SharedHelperMatchesQuantiles) {
  Metrics metrics;
  for (int i = 1; i <= 1000; ++i) metrics.Observe("h", i);
  const HistogramSnapshot snap = metrics.GetHistogram("h").Snapshot();
  const HistogramPercentiles q = snap.Percentiles();
  // The bucketed histogram overestimates by at most one bucket width.
  EXPECT_GE(q.p50, 500.0);
  EXPECT_GE(q.p99, 990.0);
  EXPECT_GE(q.p999, q.p99);
  EXPECT_GE(q.p99, q.p95);
  EXPECT_GE(q.p95, q.p50);
  EXPECT_LE(q.p999, snap.max);
}

TEST(MetricsTest, BulkSnapshotsAreSortedAndConst) {
  Metrics metrics;
  metrics.Add("z.last", 2);
  metrics.Add("a.first", 1);
  metrics.SetGauge("g.b", 2.0);
  metrics.SetGauge("g.a", 1.0);
  const Metrics& view = metrics;  // bulk reads are const-correct
  const std::map<std::string, uint64_t> counters = view.CounterSnapshot();
  const std::map<std::string, double> gauges = view.GaugeSnapshot();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters.begin()->first, "a.first");  // sorted (std::map)
  EXPECT_EQ(counters.at("z.last"), 2u);
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges.begin()->first, "g.a");
  EXPECT_EQ(gauges.at("g.b"), 2.0);
}

// All three rule forms against a hand-driven sampler: each must fire
// when its condition trips, clear when it recovers, and leave
// kAlertFire/kAlertClear breadcrumbs (value = rule index) in the
// journal.
TEST(WatchdogTest, AllThreeRuleFormsFireAndClear) {
  Metrics metrics;
  MetricsSampler sampler;
  MetricsSampler::Options options;
  options.metrics = &metrics;
  options.interval_ticks = 100;
  options.capacity = 64;
  sampler.Configure(options);
  sim::EventJournal journal;
  sim::Watchdog wd(&sampler.store(), &journal);
  sampler.set_scrape_callback(
      [&](int64_t ticks) { wd.Evaluate(ticks); });

  sim::WatchdogRule threshold;
  threshold.name = "gauge_high";
  threshold.form = sim::WatchdogRuleForm::kThreshold;
  threshold.series = "gauge.pressure";
  threshold.threshold = 10.0;
  EXPECT_EQ(wd.AddRule(threshold), 0u);

  sim::WatchdogRule delta;
  delta.name = "restarts_moved";
  delta.form = sim::WatchdogRuleForm::kDelta;
  delta.series = "counter.restarts";
  delta.threshold = 0.0;
  delta.window = 2;
  EXPECT_EQ(wd.AddRule(delta), 1u);

  sim::WatchdogRule burn;
  burn.name = "miss_burn";
  burn.form = sim::WatchdogRuleForm::kBurnRate;
  burn.bad_series = "counter.miss";
  burn.total_series = "counter.req";
  burn.window = 2;
  burn.error_budget = 0.05;
  burn.burn_threshold = 10.0;  // fires at a >= 50% windowed miss rate
  EXPECT_EQ(wd.AddRule(burn), 2u);

  auto quiet_point = [&](int64_t now) {
    metrics.Add("req", 10);  // healthy traffic, no misses
    sampler.ForceSample(now - 1);
  };

  // Points 1-2: everything healthy.
  quiet_point(100);
  quiet_point(200);
  EXPECT_FALSE(wd.IsActive(0));
  EXPECT_FALSE(wd.IsActive(1));
  EXPECT_FALSE(wd.IsActive(2));

  // Point 3: all three conditions trip at once.
  metrics.SetGauge("pressure", 12.0);
  metrics.Add("restarts", 1);
  metrics.Add("miss", 10);
  metrics.Add("req", 10);
  sampler.ForceSample(299);
  EXPECT_TRUE(wd.IsActive(0));
  EXPECT_TRUE(wd.IsActive(1));
  EXPECT_TRUE(wd.IsActive(2));
  EXPECT_EQ(wd.FireCount("gauge_high"), 1u);
  EXPECT_EQ(wd.ClearCount("gauge_high"), 0u);

  // Points 4-6: recovery. The delta/burn windows (2 points) age the
  // restart and the miss burst out; the gauge drops below threshold.
  metrics.SetGauge("pressure", 5.0);
  quiet_point(400);
  quiet_point(500);
  quiet_point(600);
  EXPECT_FALSE(wd.IsActive(0));
  EXPECT_FALSE(wd.IsActive(1));
  EXPECT_FALSE(wd.IsActive(2));
  for (const char* name : {"gauge_high", "restarts_moved", "miss_burn"}) {
    EXPECT_EQ(wd.FireCount(name), 1u) << name;
    EXPECT_EQ(wd.ClearCount(name), 1u) << name;
  }
  EXPECT_EQ(wd.FireCount("no_such_rule"), 0u);

  ASSERT_EQ(wd.firings().size(), 3u);
  for (const sim::AlertFiring& f : wd.firings()) {
    EXPECT_EQ(f.fire_ticks, 300);
    EXPECT_GT(f.clear_ticks, f.fire_ticks);
  }
  // The threshold firing reports the gauge value that tripped it.
  EXPECT_EQ(wd.firings()[0].value, 12.0);

  // Journal breadcrumbs: one fire + one clear per rule, payload = rule
  // index, and alerts are control-plane events, not failures.
  std::map<uint64_t, int> fires, clears;
  for (const sim::JournalEvent& e : journal.Snapshot()) {
    if (e.type == sim::JournalEventType::kAlertFire) {
      ++fires[static_cast<uint64_t>(e.value)];
      EXPECT_EQ(e.ticks, 300);
    } else if (e.type == sim::JournalEventType::kAlertClear) {
      ++clears[static_cast<uint64_t>(e.value)];
    }
    EXPECT_FALSE(sim::EventJournal::IsFailureEvent(e));
  }
  for (uint64_t rule = 0; rule < 3; ++rule) {
    EXPECT_EQ(fires[rule], 1) << "rule " << rule;
    EXPECT_EQ(clears[rule], 1) << "rule " << rule;
  }

  wd.Reset();
  EXPECT_TRUE(wd.firings().empty());
  EXPECT_FALSE(wd.IsActive(0));
  EXPECT_EQ(wd.rules().size(), 3u);  // rules survive a reset
}

TEST(WatchdogTest, FireBelowAndBurnGuardAgainstZeroTraffic) {
  Metrics metrics;
  MetricsSampler sampler;
  MetricsSampler::Options options;
  options.metrics = &metrics;
  options.interval_ticks = 100;
  options.capacity = 16;
  sampler.Configure(options);
  sim::EventJournal journal;
  sim::Watchdog wd(&sampler.store(), &journal);
  sampler.set_scrape_callback(
      [&](int64_t ticks) { wd.Evaluate(ticks); });

  sim::WatchdogRule low;
  low.name = "throughput_low";
  low.form = sim::WatchdogRuleForm::kThreshold;
  low.series = "gauge.qps";
  low.threshold = 3.0;
  low.fire_above = false;  // fire while BELOW
  wd.AddRule(low);
  sim::WatchdogRule burn;
  burn.name = "burn";
  burn.form = sim::WatchdogRuleForm::kBurnRate;
  burn.bad_series = "counter.bad";
  burn.total_series = "counter.total";
  burn.window = 2;
  burn.error_budget = 0.1;
  burn.burn_threshold = 1.0;
  wd.AddRule(burn);

  // No traffic at all: the burn rule must stay quiet (0/0 is not an
  // SLO violation), the below-threshold rule fires on qps = 0.
  metrics.SetGauge("qps", 0.0);
  sampler.ForceSample(0);
  sampler.ForceSample(100);
  EXPECT_TRUE(wd.IsActive(0));
  EXPECT_FALSE(wd.IsActive(1));
  metrics.SetGauge("qps", 9.0);
  sampler.ForceSample(200);
  EXPECT_FALSE(wd.IsActive(0));
  EXPECT_EQ(wd.ClearCount("throughput_low"), 1u);
  EXPECT_EQ(wd.FireCount("burn"), 0u);
}

// Schema v5: a real cluster run must emit non-empty timeseries and
// alerts sections that validate, with the default rules installed by
// PsGraphContext::Create.
TEST(RunReportTest, V5TimeseriesAndAlertsSectionsFromCleanRun) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  auto ctx = core::PsGraphContext::Create(opts);
  ASSERT_TRUE(ctx.ok());
  graph::EdgeList edges = graph::GenerateErdosRenyi(200, 1000, 31);
  auto ds = core::StageAndLoadEdges(**ctx, edges, "obs/v5.bin");
  ASSERT_TRUE(ds.ok());
  core::PageRankOptions po;
  po.max_iterations = 3;
  ASSERT_TRUE(core::PageRank(**ctx, *ds, 0, po).status().ok());
  sim::SimCluster& cluster = (*ctx)->cluster();
  cluster.sampler().ForceSample(cluster.clock().MakespanTicks());

  sim::RunReport report = sim::CollectRunReport("v5", &cluster);
  EXPECT_EQ(sim::kRunReportSchemaVersion, 8);
  EXPECT_GT(report.timeseries.points, 0u);
  EXPECT_GT(report.timeseries.base_interval_ticks, 0);
  ASSERT_GE(report.alert_rules.size(), 3u);  // context default rules
  bool recovery_rule = false;
  for (const sim::WatchdogRule& r : report.alert_rules) {
    if (r.name == "recovery_restarts") recovery_rule = true;
  }
  EXPECT_TRUE(recovery_rule);
  EXPECT_TRUE(report.alert_firings.empty()) << "clean run must not alert";
  // The sampler scraped real curves: RPC totals and the context's own
  // counters show up as series of the right length.
  const auto& series = report.timeseries.series;
  ASSERT_EQ(series.count("counter.ps.rows_pulled"), 1u);
  EXPECT_EQ(series.at("counter.ps.rows_pulled").size(),
            report.timeseries.points);
  EXPECT_GT(series.at("counter.ps.rows_pulled").back(), 0.0);
  ASSERT_EQ(series.count("rpc.total.calls"), 1u);

  JsonValue doc = sim::RunReportToJson(report);
  auto parsed = JsonValue::Parse(doc.Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status valid = sim::ValidateRunReportJson(*parsed);
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  const JsonValue* ts = parsed->Find("timeseries");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->Find("points")->as_int(),
            static_cast<int64_t>(report.timeseries.points));
  const JsonValue* alerts = parsed->Find("alerts");
  ASSERT_NE(alerts, nullptr);
  EXPECT_GE(alerts->Find("rules")->size(), 3u);
  EXPECT_TRUE(alerts->Find("firings")->elements().empty());

  // Validator teeth for the new sections.
  {
    JsonValue bad = *parsed;
    bad.Set("timeseries", JsonValue::Array());
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
  {
    JsonValue bad = *parsed;
    JsonValue broken = JsonValue::Object();
    JsonValue firing = JsonValue::Object();
    firing.Set("rule", 999);  // out of range of rules[]
    firing.Set("rule_name", "x");
    firing.Set("fire_ticks", 1);
    firing.Set("clear_ticks", -1);
    firing.Set("value", 0.0);
    JsonValue firings = JsonValue::Array();
    firings.Append(std::move(firing));
    broken.Set("rules", JsonValue::Array());
    broken.Set("firings", std::move(firings));
    bad.Set("alerts", std::move(broken));
    EXPECT_FALSE(sim::ValidateRunReportJson(bad).ok());
  }
}

// End-to-end flight recorder: a real PageRank run must produce a
// convergence section that validates, and twice the same run (fresh
// contexts, parallelism-independent tick math) must serialize its
// simulated sections byte-identically.
TEST(FlightRecorderTest, RunReportSectionsAreDeterministic) {
  auto run_report_json = [] {
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 2;
    opts.cluster.num_servers = 2;
    opts.cluster.executor_mem_bytes = 64ull << 20;
    opts.cluster.server_mem_bytes = 64ull << 20;
    auto ctx = core::PsGraphContext::Create(opts);
    EXPECT_TRUE(ctx.ok());
    graph::EdgeList edges = graph::GenerateErdosRenyi(300, 1500, 23);
    auto ds = core::StageAndLoadEdges(**ctx, edges, "obs/fr.bin");
    EXPECT_TRUE(ds.ok());
    core::PageRankOptions po;
    po.max_iterations = 4;
    EXPECT_TRUE(core::PageRank(**ctx, *ds, 0, po).status().ok());
    // Close the telemetry series at the makespan, as bench_util does.
    (*ctx)->cluster().sampler().ForceSample(
        (*ctx)->cluster().clock().MakespanTicks());
    sim::RunReport report =
        sim::CollectRunReport("flight", &(*ctx)->cluster());
    return sim::RunReportToJson(report);
  };

  SetGlobalParallelism(1);
  JsonValue doc = run_report_json();
  Status valid = sim::ValidateRunReportJson(doc);
  ASSERT_TRUE(valid.ok()) << valid.ToString();

  // Convergence: one point per PageRank iteration, iterations 0..3.
  const JsonValue* series = doc.Find("convergence")->Find("series");
  const JsonValue* delta = series->Find("pagerank.delta_l1");
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->size(), 4u);
  EXPECT_EQ(delta->at(0).at(0).as_int(), 0);
  ASSERT_NE(series->Find("pagerank.active_updates"), nullptr);
  EXPECT_EQ(doc.Find("convergence")->Find("rejected_points")->as_int(), 0);

  // The telemetry time-series are non-trivial even on this short run
  // (ForceSample guarantees at least one point).
  const JsonValue* ts = doc.Find("timeseries");
  ASSERT_NE(ts, nullptr);
  EXPECT_GT(ts->Find("points")->as_int(), 0);

  // Determinism: the simulated sections of the same run at thread
  // parallelism 1 and 8 must not differ by a single byte (wall-clock
  // gauges excluded by construction — these sections carry only
  // sim-derived quantities).
  SetGlobalParallelism(8);
  JsonValue doc2 = run_report_json();
  SetGlobalParallelism(0);  // restore the env/hardware default
  EXPECT_EQ(doc.Find("convergence")->Dump(2),
            doc2.Find("convergence")->Dump(2));
  EXPECT_EQ(doc.Find("rpc")->Dump(2), doc2.Find("rpc")->Dump(2));
  EXPECT_EQ(doc.Find("events")->Dump(2), doc2.Find("events")->Dump(2));
  EXPECT_EQ(doc.Find("timeseries")->Dump(2),
            doc2.Find("timeseries")->Dump(2));
  EXPECT_EQ(doc.Find("alerts")->Dump(2), doc2.Find("alerts")->Dump(2));
}

TEST(TracerTest, OverCapSpansStillCountInSummary) {
  Tracer t;
  t.set_enabled(true);
  t.set_max_spans(4);
  for (int i = 0; i < 10; ++i) {
    const uint64_t id = t.Begin("op", 2, i * 10);
    ASSERT_NE(id, 0u) << "over-cap spans must still get ids to fold";
    t.End(id, i * 10 + 5);
  }
  EXPECT_EQ(t.Snapshot().size(), 4u);  // detail stays capped
  EXPECT_EQ(t.dropped(), 6u);
  // ...but the summaries see every span, dropped or not.
  auto summary = t.Summary();
  ASSERT_EQ(summary.count("op"), 1u);
  EXPECT_EQ(summary["op"].count, 10u);
  EXPECT_EQ(summary["op"].total_ticks, 50);
  auto node_summary = t.NodeSummary();
  ASSERT_EQ(node_summary.count({"op", 2}), 1u);
  EXPECT_EQ((node_summary[{"op", 2}].count), 10u);
  EXPECT_EQ((node_summary[{"op", 2}].total_ticks), 50);
}

TEST(TracerTest, NodeSummarySplitsByNode) {
  Tracer t;
  t.set_enabled(true);
  t.End(t.Begin("op", 0, 0), 10);
  t.End(t.Begin("op", 1, 0), 30);
  t.End(t.Begin("other", 0, 0), 5);
  auto node_summary = t.NodeSummary();
  EXPECT_EQ((node_summary[{"op", 0}].total_ticks), 10);
  EXPECT_EQ((node_summary[{"op", 1}].total_ticks), 30);
  EXPECT_EQ((node_summary[{"other", 0}].total_ticks), 5);
  EXPECT_EQ(t.Summary()["op"].total_ticks, 40);
}

TEST(CriticalPathTest, HandBuiltDagLongestPath) {
  // Three nodes, diamond DAG:       b [100,250] on node 1
  //   a [0,100] on node 0  --->                        ---> d [250,300]
  //                                 c [100,180] on node 2
  // Longest chain is a -> b -> d (100 + 150 + 50 = 300 ticks).
  std::vector<TraceSpan> spans;
  spans.push_back({1, 0, "a", 0, 0, 100});
  spans.push_back({2, 0, "b", 1, 100, 250});
  spans.push_back({3, 0, "c", 2, 100, 180});
  spans.push_back({4, 0, "d", 1, 250, 300});
  const std::vector<std::pair<uint64_t, uint64_t>> flows = {
      {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 1} /* backwards: ignored */};
  const std::vector<uint64_t> path = sim::LongestSpanPath(spans, flows);
  EXPECT_EQ(path, (std::vector<uint64_t>{1, 2, 4}));

  // Parent links participate too: hang a child off c that outlasts d.
  spans.push_back({5, 3, "c.child", 2, 150, 400});
  EXPECT_EQ(sim::LongestSpanPath(spans, flows),
            (std::vector<uint64_t>{1, 3, 5}));
}

TEST(CriticalPathTest, ConservationHoldsAndTamperingIsRejected) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  auto ctx = core::PsGraphContext::Create(opts);
  ASSERT_TRUE(ctx.ok());
  (*ctx)->tracer().set_enabled(true);
  graph::EdgeList edges = graph::GenerateErdosRenyi(300, 1500, 23);
  auto ds = core::StageAndLoadEdges(**ctx, edges, "obs/cp.bin");
  ASSERT_TRUE(ds.ok());
  core::PageRankOptions po;
  po.max_iterations = 4;
  ASSERT_TRUE(core::PageRank(**ctx, *ds, 0, po).status().ok());

  sim::RunReport report =
      sim::CollectRunReport("cp", &(*ctx)->cluster());
  const sim::CriticalPathReport& cp = report.critical_path;
  ASSERT_TRUE(cp.valid);
  EXPECT_EQ(cp.makespan_ticks, report.makespan_ticks);
  int64_t sum = 0;
  for (const int64_t c : cp.categories) {
    EXPECT_GE(c, 0);
    sum += c;
  }
  EXPECT_EQ(sum, cp.makespan_ticks) << "conservation invariant";
  // A real BSP run crosses barriers and talks to the PS: the path and
  // the non-compute categories are non-trivial.
  ASSERT_FALSE(cp.path.empty());
  EXPECT_EQ(cp.path.front().begin_ticks, 0);
  EXPECT_EQ(cp.path.back().end_ticks, cp.makespan_ticks);
  for (size_t i = 1; i < cp.path.size(); ++i) {
    EXPECT_EQ(cp.path[i].begin_ticks, cp.path[i - 1].end_ticks);
  }
  EXPECT_FALSE(cp.top_spans.empty());
  EXPECT_FALSE(cp.what_if.empty());

  Status valid = sim::ValidateRunReportJson(sim::RunReportToJson(report));
  ASSERT_TRUE(valid.ok()) << valid.ToString();
  // Break conservation by one tick: the validator must reject, which is
  // exactly what makes WriteRunReport refuse to emit a lying report.
  report.critical_path.categories[0] += 1;
  Status broken = sim::ValidateRunReportJson(sim::RunReportToJson(report));
  EXPECT_FALSE(broken.ok());
  EXPECT_NE(broken.ToString().find("conservation"), std::string::npos)
      << broken.ToString();
}

TEST(CriticalPathTest, WhatIfProjectionIsMonotoneAndBounded) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  auto ctx = core::PsGraphContext::Create(opts);
  ASSERT_TRUE(ctx.ok());
  (*ctx)->tracer().set_enabled(true);
  graph::EdgeList edges = graph::GenerateErdosRenyi(200, 1000, 7);
  auto ds = core::StageAndLoadEdges(**ctx, edges, "obs/whatif.bin");
  ASSERT_TRUE(ds.ok());
  core::PageRankOptions po;
  po.max_iterations = 3;
  ASSERT_TRUE(core::PageRank(**ctx, *ds, 0, po).status().ok());

  sim::SimCluster& cluster = (*ctx)->cluster();
  const int64_t makespan = cluster.clock().MakespanTicks();
  sim::CriticalPathReport cp = sim::AnalyzeCriticalPath(&cluster);
  ASSERT_FALSE(cp.top_spans.empty());

  std::vector<std::string> names;
  for (const auto& span : cp.top_spans) names.push_back(span.name);
  // A name that traced nothing: shrinking it must change nothing —
  // the degenerate case of "shrinking a non-critical span never
  // increases the prediction".
  names.push_back("no.such.span");
  for (const std::string& name : names) {
    int64_t prev = -1;
    for (const double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const int64_t projected =
          sim::ProjectedMakespanTicks(&cluster, name, f);
      EXPECT_GE(projected, prev) << name << " factor " << f;
      EXPECT_LE(projected, makespan) << name << " factor " << f;
      prev = projected;
    }
    EXPECT_EQ(prev, makespan) << "factor 1 must be the identity";
  }
  EXPECT_EQ(sim::ProjectedMakespanTicks(&cluster, "no.such.span", 0.0),
            makespan);
}

TEST(CriticalPathTest, SectionIsByteIdenticalAcrossParallelism) {
  auto critical_path_json = [] {
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 2;
    opts.cluster.num_servers = 2;
    opts.cluster.executor_mem_bytes = 64ull << 20;
    opts.cluster.server_mem_bytes = 64ull << 20;
    auto ctx = core::PsGraphContext::Create(opts);
    EXPECT_TRUE(ctx.ok());
    // Tracing on, so top_spans/what_if exercise the per-(name, node)
    // aggregates under real concurrency.
    (*ctx)->tracer().set_enabled(true);
    graph::EdgeList edges = graph::GenerateErdosRenyi(300, 1500, 23);
    auto ds = core::StageAndLoadEdges(**ctx, edges, "obs/cpdet.bin");
    EXPECT_TRUE(ds.ok());
    core::PageRankOptions po;
    po.max_iterations = 4;
    EXPECT_TRUE(core::PageRank(**ctx, *ds, 0, po).status().ok());
    sim::RunReport report =
        sim::CollectRunReport("cpdet", &(*ctx)->cluster());
    return sim::RunReportToJson(report).Find("critical_path")->Dump(2);
  };
  SetGlobalParallelism(1);
  const std::string t1 = critical_path_json();
  SetGlobalParallelism(8);
  const std::string t8 = critical_path_json();
  SetGlobalParallelism(0);  // restore the env/hardware default
  EXPECT_EQ(t1, t8);
}

}  // namespace
}  // namespace psgraph
