// Tests for the Listing-1 surface: GraphRunner argument parsing and
// dispatch, GraphIO persistence round trips, and checkpoint corruption
// handling.

#include <gtest/gtest.h>

#include "core/graph_io.h"
#include "core/graph_runner.h"
#include "core/psgraph_context.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "ps/agent.h"
#include "ps/master.h"

namespace psgraph::core {
namespace {

using graph::EdgeList;
using graph::VertexId;

std::unique_ptr<PsGraphContext> MakeCtx() {
  PsGraphContext::Options opts;
  opts.cluster.num_executors = 3;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  auto ctx = PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  return std::move(*ctx);
}

TEST(GraphRunnerArgsTest, ParsesPositionalsAndParams) {
  const char* argv[] = {"prog",       "pagerank",      "in/e.bin",
                        "output=o.t", "iterations=25", "prune=1e-4"};
  auto args = ParseGraphRunnerArgs(6, argv);
  ASSERT_TRUE(args.ok()) << args.status().ToString();
  EXPECT_EQ(args->algorithm, "pagerank");
  EXPECT_EQ(args->input_path, "in/e.bin");
  EXPECT_EQ(args->output_path, "o.t");
  EXPECT_EQ(args->params.at("iterations"), "25");
  EXPECT_EQ(args->params.at("prune"), "1e-4");
}

TEST(GraphRunnerArgsTest, RejectsBadUsage) {
  const char* missing[] = {"prog", "pagerank"};
  EXPECT_FALSE(ParseGraphRunnerArgs(2, missing).ok());
  const char* extra[] = {"prog", "a", "b", "c"};
  EXPECT_FALSE(ParseGraphRunnerArgs(4, extra).ok());
}

TEST(GraphRunnerTest, RunsEveryAlgorithmByName) {
  auto ctx = MakeCtx();
  EdgeList edges = graph::Symmetrize(
      graph::Simplify(graph::GenerateErdosRenyi(120, 900, 61)));
  PSG_CHECK_OK(
      graph::WriteEdgesBinary(ctx->hdfs(), "in/runner.bin", edges));

  for (const char* algo :
       {"pagerank", "kcore", "kcore_subgraph", "common_neighbor",
        "triangle_count", "fast_unfolding", "label_propagation", "line",
        "deepwalk"}) {
    GraphRunnerArgs args;
    args.algorithm = algo;
    args.input_path = "in/runner.bin";
    args.params["epochs"] = "1";
    args.params["iterations"] = "5";
    args.params["dim"] = "4";
    args.params["walk_length"] = "5";
    auto report = RunGraphAlgorithm(*ctx, args);
    ASSERT_TRUE(report.ok()) << algo << ": "
                             << report.status().ToString();
    EXPECT_FALSE(report->summary.empty()) << algo;
    EXPECT_GT(report->sim_seconds, 0.0) << algo;
  }
}

TEST(GraphRunnerTest, UnknownAlgorithmRejected) {
  auto ctx = MakeCtx();
  PSG_CHECK_OK(graph::WriteEdgesBinary(ctx->hdfs(), "in/x.bin",
                                       {{0, 1}, {1, 0}}));
  GraphRunnerArgs args;
  args.algorithm = "quantum_pagerank";
  args.input_path = "in/x.bin";
  auto report = RunGraphAlgorithm(*ctx, args);
  EXPECT_FALSE(report.ok());
}

TEST(GraphRunnerTest, SavesOutputToHdfs) {
  auto ctx = MakeCtx();
  EdgeList edges{{0, 1}, {1, 2}, {2, 0}};
  PSG_CHECK_OK(graph::WriteEdgesBinary(ctx->hdfs(), "in/tri.bin", edges));
  GraphRunnerArgs args;
  args.algorithm = "pagerank";
  args.input_path = "in/tri.bin";
  args.output_path = "out/ranks.txt";
  args.params["iterations"] = "30";
  ASSERT_TRUE(RunGraphAlgorithm(*ctx, args).ok());
  ASSERT_TRUE(ctx->hdfs().Exists("out/ranks.txt"));
  auto back = LoadVertexDoubles(ctx->hdfs(), "out/ranks.txt");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 3u);
  // Symmetric triangle: all ranks equal ~1.
  EXPECT_NEAR((*back)[0], (*back)[1], 1e-6);
  EXPECT_NEAR((*back)[0], 1.0, 0.05);
}

TEST(GraphIoTest, VertexDoubleRoundTrip) {
  sim::SimCluster cluster(sim::ClusterConfig{});
  storage::Hdfs hdfs(&cluster);
  std::vector<double> values{0.5, 1.25, -3.75, 1e-9};
  ASSERT_TRUE(SaveVertexDoubles(hdfs, "v.txt", values).ok());
  auto back = LoadVertexDoubles(hdfs, "v.txt");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ((*back)[i], values[i]);
  }
}

TEST(GraphIoTest, EmbeddingRoundTripAndValidation) {
  sim::SimCluster cluster(sim::ClusterConfig{});
  storage::Hdfs hdfs(&cluster);
  std::vector<float> emb(6 * 4);
  for (size_t i = 0; i < emb.size(); ++i) emb[i] = 0.25f * i;
  ASSERT_TRUE(SaveEmbeddings(hdfs, "e.bin", emb, 6, 4).ok());
  auto back = LoadEmbeddings(hdfs, "e.bin");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_vertices, 6u);
  EXPECT_EQ(back->dim, 4);
  EXPECT_EQ(back->values, emb);

  // Size mismatch rejected on save.
  EXPECT_FALSE(SaveEmbeddings(hdfs, "bad.bin", emb, 7, 4).ok());
  // Garbage rejected on load.
  ASSERT_TRUE(hdfs.WriteString("junk.bin", "not an embedding", -1).ok());
  EXPECT_FALSE(LoadEmbeddings(hdfs, "junk.bin").ok());
}

TEST(CheckpointCorruptionTest, TruncatedCheckpointFailsCleanly) {
  auto ctx = MakeCtx();
  auto meta = ctx->ps().CreateMatrix("c", 50, 2);
  ASSERT_TRUE(meta.ok());
  ps::PsAgent agent(&ctx->ps(), ctx->cluster().config().executor(0));
  std::vector<uint64_t> keys{1, 2, 3};
  std::vector<float> vals{1, 2, 3, 4, 5, 6};
  ASSERT_TRUE(agent.PushAssign(*meta, keys, vals).ok());
  ASSERT_TRUE(ctx->master().CheckpointAll().ok());

  // Truncate server 0's checkpoint and corrupt server 1's magic.
  std::string prefix = ctx->options().checkpoint_prefix;
  auto bytes = ctx->hdfs().Read(prefix + "/server_0", -1);
  ASSERT_TRUE(bytes.ok());
  bytes->resize(bytes->size() / 2);
  ASSERT_TRUE(ctx->hdfs().Write(prefix + "/server_0", *bytes, -1).ok());
  ASSERT_TRUE(
      ctx->hdfs().WriteString(prefix + "/server_1", "XXXX", -1).ok());

  // Restores must fail with clean statuses, not crash.
  Status s0 = ctx->ps().server(0)->Restore(prefix);
  EXPECT_FALSE(s0.ok());
  Status s1 = ctx->ps().server(1)->Restore(prefix);
  EXPECT_FALSE(s1.ok());
}

}  // namespace
}  // namespace psgraph::core
