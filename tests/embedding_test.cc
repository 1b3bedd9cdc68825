// Tests for the embedding stack: the shared skip-gram module, DeepWalk
// (walk generation through the PS + training), and the GraphSage pooling
// aggregator (SegmentMax path).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/deepwalk.h"
#include "core/graph_loader.h"
#include "core/graphsage.h"
#include "core/psgraph_context.h"
#include "core/skipgram.h"
#include "graph/generators.h"
#include "minitorch/ops.h"

namespace psgraph::core {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

std::unique_ptr<PsGraphContext> MakeCtx(int executors = 2,
                                        int servers = 2) {
  PsGraphContext::Options opts;
  opts.cluster.num_executors = executors;
  opts.cluster.num_servers = servers;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  auto ctx = PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  return std::move(*ctx);
}

EdgeList TwoCliques(int size) {
  EdgeList edges;
  for (VertexId u = 0; u < (VertexId)size; ++u) {
    for (VertexId v = u + 1; v < (VertexId)size; ++v) {
      edges.push_back({u, v});
    }
  }
  for (VertexId u = size; u < (VertexId)(2 * size); ++u) {
    for (VertexId v = u + 1; v < (VertexId)(2 * size); ++v) {
      edges.push_back({u, v});
    }
  }
  edges.push_back({0, (VertexId)size});
  return graph::Symmetrize(edges);
}

double Cosine(const float* a, const float* b, int dim) {
  double dot = 0, na = 0, nb = 0;
  for (int i = 0; i < dim; ++i) {
    dot += (double)a[i] * b[i];
    na += (double)a[i] * a[i];
    nb += (double)b[i] * b[i];
  }
  if (na == 0 || nb == 0) return 0;
  return dot / std::sqrt(na * nb);
}

TEST(SkipGramTest, ModelCreateTrainDrop) {
  auto ctx = MakeCtx();
  auto model = CreateSkipGramModel(*ctx, "sg", 100, 8, false, 1);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->dim, 8);
  EXPECT_NE(model->emb.id, model->ctx.id);

  std::vector<std::pair<uint64_t, uint64_t>> pairs{{1, 2}, {1, 50}};
  std::vector<float> labels{1.0f, 0.0f};
  auto loss = TrainSkipGramBatch(*ctx, 0, *model, pairs, labels, 0.05f);
  ASSERT_TRUE(loss.ok());
  EXPECT_GT(*loss, 0.0);

  auto emb = PullEmbeddings(*ctx, *model, 100);
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(emb->size(), 800u);
  ASSERT_TRUE(DropSkipGramModel(*ctx, "sg", false).ok());
}

TEST(SkipGramTest, Order1SharesMatrices) {
  auto ctx = MakeCtx();
  auto model = CreateSkipGramModel(*ctx, "sg1", 50, 4, true, 2);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->emb.id, model->ctx.id);
  ASSERT_TRUE(DropSkipGramModel(*ctx, "sg1", true).ok());
}

TEST(SkipGramTest, EmptyBatchIsNoop) {
  auto ctx = MakeCtx();
  auto model = CreateSkipGramModel(*ctx, "sg2", 10, 4, false, 3);
  ASSERT_TRUE(model.ok());
  auto loss = TrainSkipGramBatch(*ctx, 0, *model, {}, {}, 0.05f);
  ASSERT_TRUE(loss.ok());
  EXPECT_EQ(*loss, 0.0);
}

TEST(DeepWalkTest, WalksVisitOnlyRealNeighbors) {
  // A ring: every walk step must move +/-1 (mod n).
  EdgeList ring;
  const VertexId n = 30;
  for (VertexId v = 0; v < n; ++v) {
    ring.push_back({v, (v + 1) % n});
    ring.push_back({(v + 1) % n, v});
  }
  auto ctx = MakeCtx();
  auto ds = StageAndLoadEdges(*ctx, ring, "dw/ring.bin");
  ASSERT_TRUE(ds.ok());
  DeepWalkOptions opts;
  opts.embedding_dim = 8;
  opts.walk_length = 10;
  opts.walks_per_vertex = 1;
  opts.epochs = 1;
  auto result = DeepWalk(*ctx, *ds, n, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->total_walks, n);
  EXPECT_GT(result->total_pairs, 0u);
  EXPECT_GT(result->final_avg_loss, 0.0);
}

TEST(DeepWalkTest, EmbeddingsSeparateCommunities) {
  auto ctx = MakeCtx();
  EdgeList edges = TwoCliques(10);
  auto ds = StageAndLoadEdges(*ctx, edges, "dw/cliques.bin");
  ASSERT_TRUE(ds.ok());
  DeepWalkOptions opts;
  opts.embedding_dim = 16;
  opts.walk_length = 12;
  opts.walks_per_vertex = 4;
  opts.window = 3;
  opts.epochs = 4;
  auto result = DeepWalk(*ctx, *ds, 20, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int d = result->dim;
  double intra = 0, inter = 0;
  int ni = 0, nx = 0;
  for (VertexId u = 0; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) {
      intra += Cosine(&result->embeddings[u * d],
                      &result->embeddings[v * d], d);
      ++ni;
    }
    for (VertexId v = 10; v < 20; ++v) {
      inter += Cosine(&result->embeddings[u * d],
                      &result->embeddings[v * d], d);
      ++nx;
    }
  }
  EXPECT_GT(intra / ni, inter / nx + 0.1)
      << "intra=" << intra / ni << " inter=" << inter / nx;
}

TEST(DeepWalkTest, DeterministicPerSeed) {
  EdgeList edges = TwoCliques(6);
  auto run = [&](uint64_t seed) {
    auto ctx = MakeCtx();
    auto ds = StageAndLoadEdges(*ctx, edges, "dw/det.bin");
    PSG_CHECK_OK(ds.status());
    DeepWalkOptions opts;
    opts.embedding_dim = 4;
    opts.walk_length = 6;
    opts.epochs = 1;
    opts.seed = seed;
    auto result = DeepWalk(*ctx, *ds, 12, opts);
    PSG_CHECK_OK(result.status());
    return result->embeddings;
  };
  auto a = run(5);
  auto b = run(5);
  auto c = run(6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(SegmentMaxTest, ForwardPicksMaxima) {
  using minitorch::Tensor;
  Tensor a = Tensor::FromData(3, 2, {1, 9, 5, 2, 3, 3});
  auto segs = std::make_shared<minitorch::Segments>();
  segs->indices = {0, 1, 2, 2};
  segs->offsets = {0, 3, 3, 4};
  Tensor m = minitorch::SegmentMax(a, segs);
  EXPECT_FLOAT_EQ(m.At(0, 0), 5);
  EXPECT_FLOAT_EQ(m.At(0, 1), 9);
  EXPECT_FLOAT_EQ(m.At(1, 0), 0);  // empty segment
  EXPECT_FLOAT_EQ(m.At(2, 0), 3);
}

TEST(SegmentMaxTest, GradientFlowsToArgmaxOnly) {
  using minitorch::Tensor;
  Rng rng(9);
  Tensor x = Tensor::Randn(4, 3, rng, /*requires_grad=*/true);
  Tensor w = Tensor::Randn(3, 2, rng, false);
  auto segs = std::make_shared<minitorch::Segments>();
  segs->indices = {0, 1, 2, 3};
  segs->offsets = {0, 2, 4};
  auto loss_fn = [&] {
    Tensor agg = minitorch::SegmentMax(x, segs);
    return minitorch::SoftmaxCrossEntropy(minitorch::Matmul(agg, w),
                                          {0, 1});
  };
  // Numerical check.
  x.mutable_grad();
  x.ZeroGrad();
  Tensor loss = loss_fn();
  loss.Backward();
  std::vector<float> analytic = x.grad();
  const float eps = 1e-3f;
  for (int64_t i = 0; i < x.size(); ++i) {
    float saved = x.mutable_data()[i];
    x.mutable_data()[i] = saved + eps;
    double up = loss_fn().data()[0];
    x.mutable_data()[i] = saved - eps;
    double down = loss_fn().data()[0];
    x.mutable_data()[i] = saved;
    EXPECT_NEAR(analytic[i], (up - down) / (2 * eps), 2e-2)
        << "element " << i;
  }
}

TEST(PoolingAggregatorTest, GraphSageMaxPoolLearns) {
  PsGraphContext::Options copts;
  copts.cluster.num_executors = 2;
  copts.cluster.num_servers = 2;
  copts.cluster.executor_mem_bytes = 256ull << 20;
  copts.cluster.server_mem_bytes = 256ull << 20;
  auto ctx = PsGraphContext::Create(copts);
  PSG_CHECK_OK(ctx.status());

  graph::SbmParams params;
  params.num_vertices = 600;
  params.num_edges = 6000;
  params.num_communities = 4;
  params.feature_dim = 16;
  params.seed = 21;
  graph::LabeledGraph g = graph::GenerateSbm(params);

  GraphSageOptions opts;
  opts.hidden_dim = 32;
  opts.epochs = 3;
  opts.aggregator = SageAggregator::kMaxPool;
  auto result = GraphSage(**ctx, g, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->test_accuracy, 0.75)
      << "accuracy " << result->test_accuracy;
}

}  // namespace
}  // namespace psgraph::core
