// End-to-end integration: the full PSGraph stack running every paper
// algorithm back-to-back on one shared context, with resource hygiene
// (matrices dropped, server memory returned) checked between jobs — the
// "Spark pipeline" usage pattern the paper motivates, where one dataflow
// application chains many phases without tearing the cluster down.

#include <gtest/gtest.h>

#include "common/rpc_telemetry.h"
#include "core/deepwalk.h"
#include "core/fast_unfolding.h"
#include "core/graph_loader.h"
#include "core/graphsage.h"
#include "core/kcore.h"
#include "core/label_propagation.h"
#include "core/line.h"
#include "core/neighbor_algos.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "graph/generators.h"
#include "sim/report.h"

namespace psgraph::core {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

uint64_t ServerMemoryInUse(PsGraphContext& ctx) {
  uint64_t total = 0;
  for (int32_t s = 0; s < ctx.ps().num_servers(); ++s) {
    total += ctx.cluster().memory().Usage(ctx.ps().ServerNode(s));
  }
  return total;
}

TEST(IntegrationTest, FullPipelineOnSharedContext) {
  PsGraphContext::Options opts;
  opts.cluster.num_executors = 4;
  opts.cluster.num_servers = 3;
  opts.cluster.executor_mem_bytes = 512ull << 20;
  opts.cluster.server_mem_bytes = 512ull << 20;
  auto ctx_or = PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;

  graph::SbmParams sbm;
  sbm.num_vertices = 800;
  sbm.num_edges = 8000;
  sbm.num_communities = 4;
  sbm.feature_dim = 16;
  sbm.seed = 31;
  graph::LabeledGraph g = graph::GenerateSbm(sbm);
  EdgeList sym = graph::Symmetrize(g.edges);
  VertexId n = g.num_vertices;

  auto ds = StageAndLoadEdges(ctx, g.edges, "pipeline/edges.bin");
  ASSERT_TRUE(ds.ok());
  auto sym_ds = StageAndLoadEdges(ctx, sym, "pipeline/sym.bin");
  ASSERT_TRUE(sym_ds.ok());

  // 1. PageRank.
  {
    PageRankOptions po;
    po.max_iterations = 15;
    auto r = PageRank(ctx, *ds, n, po);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->ranks.size(), n);
  }
  uint64_t baseline_mem = ServerMemoryInUse(ctx);

  // 2. Common neighbor.
  {
    auto r = CommonNeighbor(ctx, *ds);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->pairs, g.edges.size());
  }
  EXPECT_EQ(ServerMemoryInUse(ctx), baseline_mem)
      << "common neighbor leaked server memory";

  // 3. Triangle count.
  {
    auto r = TriangleCount(ctx, *ds);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(ServerMemoryInUse(ctx), baseline_mem);

  // 4. K-core (coreness + subgraph).
  {
    auto r = KCore(ctx, *ds, n);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->max_coreness, 0u);
    auto s = KCoreSubgraph(ctx, *ds, n, 4);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
  }
  EXPECT_EQ(ServerMemoryInUse(ctx), baseline_mem);

  // 5. Label propagation + fast unfolding.
  {
    auto lpa = LabelPropagation(ctx, *sym_ds, n);
    ASSERT_TRUE(lpa.ok()) << lpa.status().ToString();
    auto fu = FastUnfolding(ctx, *sym_ds);
    ASSERT_TRUE(fu.ok()) << fu.status().ToString();
    EXPECT_GT(fu->modularity, 0.1);
  }
  EXPECT_EQ(ServerMemoryInUse(ctx), baseline_mem);

  // 6. LINE + DeepWalk.
  {
    LineOptions lo;
    lo.embedding_dim = 8;
    lo.epochs = 2;
    auto line = Line(ctx, *sym_ds, n, lo);
    ASSERT_TRUE(line.ok()) << line.status().ToString();
    DeepWalkOptions dw;
    dw.embedding_dim = 8;
    dw.walk_length = 8;
    dw.epochs = 1;
    auto deepwalk = DeepWalk(ctx, *sym_ds, n, dw);
    ASSERT_TRUE(deepwalk.ok()) << deepwalk.status().ToString();
  }
  EXPECT_EQ(ServerMemoryInUse(ctx), baseline_mem);

  // 7. GraphSage.
  {
    GraphSageOptions so;
    so.hidden_dim = 16;
    so.epochs = 2;
    auto sage = GraphSage(ctx, g, so);
    ASSERT_TRUE(sage.ok()) << sage.status().ToString();
    EXPECT_GT(sage->test_accuracy, 0.5);
  }
  EXPECT_EQ(ServerMemoryInUse(ctx), baseline_mem);

  // The whole pipeline advanced the simulated clock and produced RPC
  // traffic, metered by the context's own fabric telemetry.
  EXPECT_GT(ctx.cluster().clock().Makespan(), 0.0);
  uint64_t rpc_calls = 0;
  int64_t rpc_busy_ticks = 0;
  for (const RpcTelemetry::MethodStat& m : ctx.rpc_telemetry().Snapshot()) {
    rpc_calls += m.calls;
    rpc_busy_ticks += m.callee_busy_ticks;
  }
  EXPECT_GT(rpc_calls, 0u);
  EXPECT_GT(rpc_busy_ticks, 0);

  // The machine-readable run report validates against its own schema.
  sim::RunReport run = sim::CollectRunReport("integration", &ctx.cluster());
  EXPECT_GT(run.makespan_ticks, 0);
  auto parsed = JsonValue::Parse(sim::RunReportToJson(run).Dump(2));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  Status valid = sim::ValidateRunReportJson(*parsed);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(IntegrationTest, HdfsHoldsDatasetsAndCheckpoints) {
  PsGraphContext::Options opts;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  opts.checkpoint_interval = 2;
  auto ctx_or = PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;

  EdgeList edges = graph::GenerateErdosRenyi(100, 800, 41);
  auto ds = StageAndLoadEdges(ctx, edges, "inputs/e.bin");
  ASSERT_TRUE(ds.ok());
  PageRankOptions po;
  po.max_iterations = 6;
  ASSERT_TRUE(PageRank(ctx, *ds, 0, po).ok());

  EXPECT_TRUE(ctx.hdfs().Exists("inputs/e.bin"));
  // Periodic checkpoints were written for both servers.
  auto files = ctx.hdfs().List(ctx.options().checkpoint_prefix);
  EXPECT_EQ(files.size(), 2u) << "one checkpoint file per server";
}

}  // namespace
}  // namespace psgraph::core
