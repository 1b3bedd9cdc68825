// Tests for the GraphX baseline's graph abstraction itself (the pieces
// algorithms compose): LeftJoinWith, Degrees, JoinVertices,
// SubgraphByVertices — plus core::ConnectedComponents equivalence with
// the baseline and the PS CSR-freeze data structure.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/graph_loader.h"
#include "core/label_propagation.h"
#include "core/psgraph_context.h"
#include "dataflow/dataset.h"
#include "graph/generators.h"
#include "graphx/algorithms.h"
#include "graphx/graph.h"
#include "ps/agent.h"
#include "sim/cluster.h"

namespace psgraph {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

sim::ClusterConfig TestCluster() {
  sim::ClusterConfig cfg;
  cfg.num_executors = 3;
  cfg.num_servers = 2;
  cfg.executor_mem_bytes = 256ull << 20;
  cfg.server_mem_bytes = 256ull << 20;
  return cfg;
}

TEST(GraphxApiTest, LeftJoinWithKeepsUnmatchedLeft) {
  sim::SimCluster cluster(TestCluster());
  dataflow::DataflowContext ctx(&cluster);
  auto left =
      dataflow::Dataset<std::pair<uint64_t, uint64_t>>::FromVector(
          &ctx, {{1, 10}, {2, 20}, {3, 30}}, 2);
  auto right =
      dataflow::Dataset<std::pair<uint64_t, uint64_t>>::FromVector(
          &ctx, {{2, 200}, {2, 201}}, 2);
  auto joined =
      graphx::LeftJoinWith(left, right,
                           [](const uint64_t&, uint64_t& v,
                              const std::vector<uint64_t>& ws) {
                             return v + ws.size() * 1000;
                           })
          .Collect();
  ASSERT_TRUE(joined.ok());
  std::map<uint64_t, uint64_t> m(joined->begin(), joined->end());
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m[1], 10u);    // no match: ws empty
  EXPECT_EQ(m[2], 2020u);  // two matches
  EXPECT_EQ(m[3], 30u);
}

TEST(GraphxApiTest, DegreesCountBothDirections) {
  sim::SimCluster cluster(TestCluster());
  dataflow::DataflowContext ctx(&cluster);
  EdgeList edges{{0, 1}, {0, 2}, {1, 2}};
  auto ds = dataflow::Dataset<Edge>::FromVector(&ctx, edges, 2);
  auto g = graphx::Graph<uint8_t>::FromEdges(ds, 0);
  auto degs = g.Degrees().Collect();
  ASSERT_TRUE(degs.ok());
  std::map<VertexId, uint64_t> m(degs->begin(), degs->end());
  EXPECT_EQ(m[0], 2u);
  EXPECT_EQ(m[1], 2u);
  EXPECT_EQ(m[2], 2u);
}

TEST(GraphxApiTest, JoinVerticesUpdatesAttributes) {
  sim::SimCluster cluster(TestCluster());
  dataflow::DataflowContext ctx(&cluster);
  EdgeList edges{{0, 1}, {1, 2}};
  auto ds = dataflow::Dataset<Edge>::FromVector(&ctx, edges, 2);
  auto g = graphx::Graph<uint64_t>::FromEdges(ds, 5);
  auto updates =
      dataflow::Dataset<std::pair<VertexId, uint64_t>>::FromVector(
          &ctx, {{1, 100}}, 1);
  auto g2 = g.JoinVertices(
      updates, [](const VertexId&, uint64_t& attr,
                  const std::vector<uint64_t>& us) {
        return us.empty() ? attr : us[0];
      });
  auto verts = g2.vertices().Collect();
  ASSERT_TRUE(verts.ok());
  std::map<VertexId, uint64_t> m(verts->begin(), verts->end());
  EXPECT_EQ(m[0], 5u);
  EXPECT_EQ(m[1], 100u);
  EXPECT_EQ(m[2], 5u);
}

TEST(GraphxApiTest, SubgraphByVerticesFiltersEdges) {
  sim::SimCluster cluster(TestCluster());
  dataflow::DataflowContext ctx(&cluster);
  // Attributes = vertex ids; keep only even vertices.
  EdgeList edges{{0, 2}, {0, 1}, {2, 4}, {3, 4}};
  auto ds = dataflow::Dataset<Edge>::FromVector(&ctx, edges, 2);
  auto base = graphx::Graph<uint8_t>::FromEdges(ds, 0);
  auto with_ids = base.vertices().Map(
      [](std::pair<VertexId, uint8_t>& kv) {
        return std::pair<VertexId, uint64_t>(kv.first, kv.first);
      });
  graphx::Graph<uint64_t> g(with_ids, ds);
  auto sub = g.SubgraphByVertices(
      [](const std::pair<VertexId, uint64_t>& kv) {
        return kv.second % 2 == 0;
      });
  auto remaining = sub.edges().Collect();
  ASSERT_TRUE(remaining.ok());
  // Only (0,2) and (2,4) have two even endpoints.
  EXPECT_EQ(remaining->size(), 2u);
  for (const Edge& e : *remaining) {
    EXPECT_EQ(e.src % 2, 0u);
    EXPECT_EQ(e.dst % 2, 0u);
  }
}

TEST(ConnectedComponentsTest, CoreMatchesGraphxBaseline) {
  EdgeList edges{{0, 1}, {1, 2}, {5, 6}, {6, 7}, {7, 5}, {9, 10}};
  core::PsGraphContext::Options opts;
  opts.cluster = TestCluster();
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  auto ds = core::StageAndLoadEdges(**ctx, edges, "cc/in.bin");
  ASSERT_TRUE(ds.ok());
  auto result = core::ConnectedComponents(**ctx, *ds, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_components, 3u);
  EXPECT_EQ(result->component[0], 0u);
  EXPECT_EQ(result->component[1], 0u);
  EXPECT_EQ(result->component[2], 0u);
  EXPECT_EQ(result->component[5], 5u);
  EXPECT_EQ(result->component[7], 5u);
  EXPECT_EQ(result->component[10], 9u);

  auto gx_edges =
      dataflow::Dataset<Edge>::FromVector(&(*ctx)->dataflow(), edges, 3);
  auto gx = graphx::ConnectedComponents(gx_edges);
  ASSERT_TRUE(gx.ok());
  EXPECT_EQ(*gx, result->num_components);
}

TEST(ConnectedComponentsTest, RandomGraphAgainstUnionFind) {
  EdgeList edges = graph::GenerateErdosRenyi(300, 350, 71);
  // Union-find reference.
  std::vector<VertexId> parent(300);
  for (VertexId v = 0; v < 300; ++v) parent[v] = v;
  std::function<VertexId(VertexId)> find = [&](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };
  std::vector<bool> present(300, false);
  for (const Edge& e : edges) {
    present[e.src] = present[e.dst] = true;
    parent[find(e.src)] = find(e.dst);
  }
  std::set<VertexId> roots;
  for (VertexId v = 0; v < 300; ++v) {
    if (present[v]) roots.insert(find(v));
  }

  core::PsGraphContext::Options opts;
  opts.cluster = TestCluster();
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  auto ds = core::StageAndLoadEdges(**ctx, edges, "cc/rand.bin");
  ASSERT_TRUE(ds.ok());
  auto result = core::ConnectedComponents(**ctx, *ds, 300);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_components, roots.size());
}

TEST(CsrFreezeTest, FreezePreservesPullsAndShrinksMemory) {
  core::PsGraphContext::Options opts;
  opts.cluster = TestCluster();
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  auto meta = (*ctx)->ps().CreateMatrix(
      "nbrs", 0, 0, ps::StorageKind::kNeighbors,
      ps::Layout::kRowPartitioned, ps::PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  ps::PsAgent agent(&(*ctx)->ps(), (*ctx)->cluster().config().executor(0));

  std::vector<graph::NeighborList> tables;
  Rng rng(81);
  for (VertexId v = 0; v < 500; ++v) {
    graph::NeighborList nl;
    nl.vertex = v;
    size_t deg = 1 + rng.NextBounded(10);
    for (size_t i = 0; i < deg; ++i) {
      nl.neighbors.push_back(rng.NextBounded(500));
    }
    tables.push_back(std::move(nl));
  }
  ASSERT_TRUE(agent.PushNeighbors(*meta, tables).ok());

  std::vector<uint64_t> keys{0, 7, 123, 499, 9999};
  auto before = agent.PullNeighbors(*meta, keys);
  ASSERT_TRUE(before.ok());

  uint64_t mem_before = 0;
  for (int32_t s = 0; s < (*ctx)->ps().num_servers(); ++s) {
    mem_before +=
        (*ctx)->cluster().memory().Usage((*ctx)->ps().ServerNode(s));
  }

  ASSERT_TRUE(agent.FreezeNeighbors(*meta).ok());
  // Idempotent.
  ASSERT_TRUE(agent.FreezeNeighbors(*meta).ok());

  uint64_t mem_after = 0;
  for (int32_t s = 0; s < (*ctx)->ps().num_servers(); ++s) {
    mem_after +=
        (*ctx)->cluster().memory().Usage((*ctx)->ps().ServerNode(s));
  }
  EXPECT_LT(mem_after, mem_before)
      << "CSR image must be smaller than the hash map";

  auto after = agent.PullNeighbors(*meta, keys);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->size(), before->size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(after->neighbors(i), before->neighbors(i)))
        << "key " << keys[i];
  }

  // Frozen shards reject further pushes.
  Status push = agent.PushNeighbors(*meta, {tables[0]});
  EXPECT_FALSE(push.ok());
}

TEST(CsrFreezeTest, FrozenAndMutableShardsGiveEqualBlocks) {
  core::PsGraphContext::Options opts;
  opts.cluster = TestCluster();
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  ps::PsAgent agent(&(*ctx)->ps(), (*ctx)->cluster().config().executor(0));
  // Weighted lists throughout (a frozen image pads unweighted lists of a
  // weighted shard with unit weights), including an empty one.
  std::vector<graph::NeighborList> tables;
  Rng rng(5);
  for (VertexId v = 0; v < 300; ++v) {
    graph::NeighborList nl;
    nl.vertex = v;
    const size_t deg = v == 17 ? 0 : 1 + rng.NextBounded(12);
    for (size_t i = 0; i < deg; ++i) {
      nl.neighbors.push_back(rng.NextBounded(1 << 20));
      nl.weights.push_back(static_cast<float>(rng.NextDouble()));
    }
    tables.push_back(std::move(nl));
  }
  std::vector<ps::MatrixMeta> metas;
  for (const char* name : {"mutable", "frozen"}) {
    auto meta = (*ctx)->ps().CreateMatrix(
        name, 0, 0, ps::StorageKind::kNeighbors,
        ps::Layout::kRowPartitioned, ps::PartitionScheme::kHash);
    ASSERT_TRUE(meta.ok());
    ASSERT_TRUE(agent.PushNeighbors(*meta, tables).ok());
    metas.push_back(*meta);
  }
  ASSERT_TRUE(agent.FreezeNeighbors(metas[1]).ok());

  // Unsorted, with a duplicate, the empty list and an unknown vertex.
  std::vector<uint64_t> keys{250, 3, 17, 99, 3, 4242, 0, 299};
  auto mutable_block = agent.PullNeighbors(metas[0], keys);
  auto frozen_block = agent.PullNeighbors(metas[1], keys);
  ASSERT_TRUE(mutable_block.ok());
  ASSERT_TRUE(frozen_block.ok());
  ASSERT_EQ(mutable_block->size(), keys.size());
  ASSERT_EQ(frozen_block->size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(std::ranges::equal(mutable_block->neighbors(i),
                                   frozen_block->neighbors(i)))
        << "key " << keys[i];
    EXPECT_TRUE(std::ranges::equal(mutable_block->weights(i),
                                   frozen_block->weights(i)))
        << "key " << keys[i];
    if (keys[i] < tables.size()) {
      EXPECT_TRUE(std::ranges::equal(frozen_block->neighbors(i),
                                     tables[keys[i]].neighbors))
          << "key " << keys[i];
      EXPECT_TRUE(std::ranges::equal(frozen_block->weights(i),
                                     tables[keys[i]].weights))
          << "key " << keys[i];
    } else {
      EXPECT_TRUE(frozen_block->neighbors(i).empty());
      EXPECT_TRUE(frozen_block->weights(i).empty());
    }
  }
}

TEST(CsrFreezeTest, FrozenShardSurvivesCheckpointRestore) {
  core::PsGraphContext::Options opts;
  opts.cluster = TestCluster();
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  auto meta = (*ctx)->ps().CreateMatrix(
      "cn", 0, 0, ps::StorageKind::kNeighbors,
      ps::Layout::kRowPartitioned, ps::PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  ps::PsAgent agent(&(*ctx)->ps(), (*ctx)->cluster().config().executor(0));
  std::vector<graph::NeighborList> tables{{1, {2, 3}, {}},
                                          {2, {1}, {}},
                                          {42, {1, 2, 3}, {}}};
  ASSERT_TRUE(agent.PushNeighbors(*meta, tables).ok());
  ASSERT_TRUE(agent.FreezeNeighbors(*meta).ok());
  ASSERT_TRUE((*ctx)->master().CheckpointAll().ok());

  // Kill a server, recover, and pull through the restored CSR.
  (*ctx)->cluster().KillNode((*ctx)->ps().ServerNode(0));
  auto recovered =
      (*ctx)->master().CheckAndRecover(ps::RecoveryMode::kPartial);
  ASSERT_TRUE(recovered.ok());
  auto block = agent.PullNeighbors(*meta, {1, 2, 42});
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(std::ranges::equal(block->neighbors(0),
                                 std::vector<uint64_t>{2, 3}));
  EXPECT_TRUE(std::ranges::equal(block->neighbors(2),
                                 std::vector<uint64_t>{1, 2, 3}));
}

}  // namespace
}  // namespace psgraph
