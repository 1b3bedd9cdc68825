// Tests for the GE/GNN algorithms: LINE embeddings (psFunc dot path vs
// pulled-vector path, embedding quality) and GraphSage (learning,
// accuracy, PS-side Adam, the two-hop sampler it shares with Euler) plus
// the Euler baseline's full pipeline.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"
#include "common/varint.h"
#include "common/wire.h"
#include "core/graph_loader.h"
#include "core/graphsage.h"
#include "core/line.h"
#include "core/psgraph_context.h"
#include "core/sage_model.h"
#include "euler/euler.h"
#include "graph/generators.h"

namespace psgraph::core {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

PsGraphContext::Options SmallOptions() {
  PsGraphContext::Options opts;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  return opts;
}

std::unique_ptr<PsGraphContext> MakeCtx() {
  auto ctx = PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx.status());
  return std::move(*ctx);
}

/// Two dense communities bridged by one edge; good embeddings place
/// intra-community vertices closer than inter-community ones.
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

TEST(LineTest, LossDecreasesOverEpochs) {
  auto ctx = MakeCtx();
  EdgeList edges = TwoCliques(10);
  auto ds = StageAndLoadEdges(*ctx, edges, "line/in.bin");
  ASSERT_TRUE(ds.ok());
  LineOptions opts;
  opts.embedding_dim = 8;
  opts.epochs = 1;
  auto one = Line(*ctx, *ds, 20, opts);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  opts.epochs = 8;
  auto ctx2 = MakeCtx();
  auto ds2 = StageAndLoadEdges(*ctx2, edges, "line/in.bin");
  ASSERT_TRUE(ds2.ok());
  auto many = Line(*ctx2, *ds2, 20, opts);
  ASSERT_TRUE(many.ok());
  EXPECT_LT(many->final_avg_loss, one->final_avg_loss);
}

TEST(LineTest, EmbeddingsSeparateCommunities) {
  auto ctx = MakeCtx();
  EdgeList edges = TwoCliques(12);
  auto ds = StageAndLoadEdges(*ctx, edges, "line/sep.bin");
  ASSERT_TRUE(ds.ok());
  LineOptions opts;
  opts.embedding_dim = 16;
  opts.epochs = 20;
  opts.order = 2;
  auto result = Line(*ctx, *ds, 24, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int d = result->dim;
  // Average intra- vs inter-community cosine similarity.
  double intra = 0, inter = 0;
  int ni = 0, nx = 0;
  for (VertexId u = 0; u < 12; ++u) {
    for (VertexId v = u + 1; v < 12; ++v) {
      intra += Cosine(&result->embeddings[u * d],
                      &result->embeddings[v * d], d);
      ++ni;
    }
    for (VertexId v = 12; v < 24; ++v) {
      inter += Cosine(&result->embeddings[u * d],
                      &result->embeddings[v * d], d);
      ++nx;
    }
  }
  EXPECT_GT(intra / ni, inter / nx + 0.1)
      << "intra=" << intra / ni << " inter=" << inter / nx;
}

TEST(LineTest, FirstOrderAlsoLearns) {
  auto ctx = MakeCtx();
  EdgeList edges = TwoCliques(8);
  auto ds = StageAndLoadEdges(*ctx, edges, "line/o1.bin");
  ASSERT_TRUE(ds.ok());
  LineOptions opts;
  opts.order = 1;
  opts.embedding_dim = 8;
  opts.epochs = 10;
  auto result = Line(*ctx, *ds, 16, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(result->final_avg_loss, std::log(2.0) * 1.2);
}

TEST(LineTest, PsFuncAndPullPathsProduceSameTrajectory) {
  // With identical seeds and one pair per batch, computing dots on the PS
  // (psFunc) and pulling the vectors locally must produce numerically
  // identical training states. (Larger batches legitimately diverge: the
  // server-side path applies updates sequentially within a batch while
  // the pull path works from a batch-start snapshot.)
  EdgeList edges = TwoCliques(6);
  LineOptions opts;
  opts.embedding_dim = 4;
  opts.epochs = 1;
  opts.batch_size = 1;
  opts.negative_samples = 0;
  opts.learning_rate = 0.01f;

  auto run = [&](bool psfunc) -> std::vector<float> {
    auto ctx = MakeCtx();
    auto ds = StageAndLoadEdges(*ctx, edges, "line/ab.bin");
    PSG_CHECK_OK(ds.status());
    LineOptions o = opts;
    o.use_psfunc_dot = psfunc;
    auto result = Line(*ctx, *ds, 12, o);
    PSG_CHECK_OK(result.status());
    return result->embeddings;
  };
  std::vector<float> a = run(true);
  std::vector<float> b = run(false);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-3) << "element " << i;
  }
}

graph::LabeledGraph SmallSbm() {
  graph::SbmParams params;
  params.num_vertices = 600;
  params.num_edges = 6000;
  params.num_communities = 4;
  params.feature_dim = 16;
  params.seed = 21;
  return graph::GenerateSbm(params);
}

TEST(GraphSageTest, LearnsNodeClassification) {
  auto ctx = MakeCtx();
  graph::LabeledGraph g = SmallSbm();
  GraphSageOptions opts;
  opts.hidden_dim = 32;
  opts.epochs = 3;
  opts.batch_size = 64;
  auto result = GraphSage(*ctx, g, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->test_accuracy, 0.8)
      << "accuracy " << result->test_accuracy;
  EXPECT_GT(result->preprocess_sim_seconds, 0.0);
  EXPECT_EQ(result->epoch_sim_seconds.size(), 3u);
}

TEST(GraphSageTest, PsAdamAndLocalSgdBothLearn) {
  graph::LabeledGraph g = SmallSbm();
  GraphSageOptions opts;
  opts.hidden_dim = 32;
  opts.epochs = 3;

  auto ctx1 = MakeCtx();
  opts.optimizer_on_ps = true;
  auto adam = GraphSage(*ctx1, g, opts);
  ASSERT_TRUE(adam.ok());
  EXPECT_GT(adam->test_accuracy, 0.75);

  auto ctx2 = MakeCtx();
  opts.optimizer_on_ps = false;
  opts.learning_rate = 0.05f;
  auto sgd = GraphSage(*ctx2, g, opts);
  ASSERT_TRUE(sgd.ok());
  EXPECT_GT(sgd->test_accuracy, 0.5);
}

// ---- The shared two-hop sampler against the map-based one it replaced

/// In-memory adjacency served as a ps::NeighborBlock, through the same
/// decoder a "ps.pull_nbrs" response goes through.
ps::NeighborBlock BlockOf(const std::vector<std::vector<uint64_t>>& adj,
                          const std::vector<uint64_t>& keys) {
  ByteBuffer response;
  std::vector<uint32_t> index(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    PutDeltaList(&response, adj[keys[i]]);
    WriteFloatBlock(&response, std::vector<float>{});
    index[i] = static_cast<uint32_t>(i);
  }
  ps::NeighborBlock block(keys.size());
  PSG_CHECK_OK(block.DecodeResponse(response.data(), index));
  return block;
}

struct RefSample {
  std::vector<uint64_t> involved;
  size_t num_nodes1 = 0;
  std::vector<std::vector<int64_t>> seg1, seg2;
};

/// The sampler GraphSage and Euler each carried before they shared one:
/// two std::unordered_map indexes and one vector per segment.
RefSample RefSampleBatch(const std::vector<uint64_t>& bkeys, int fanout1,
                         int fanout2, Rng& rng, const NeighborFetch& fetch) {
  RefSample out;
  auto badj = fetch(bkeys);
  PSG_CHECK_OK(badj.status());
  std::unordered_map<uint64_t, int64_t> nodes1_index;
  std::vector<uint64_t> nodes1_ids;
  for (uint64_t v : bkeys) {
    if (nodes1_index.emplace(v, (int64_t)nodes1_ids.size()).second) {
      nodes1_ids.push_back(v);
    }
  }
  std::vector<std::vector<uint64_t>> samples1(bkeys.size());
  for (size_t i = 0; i < bkeys.size(); ++i) {
    const std::span<const uint64_t> nbrs = badj->neighbors(i);
    if (nbrs.empty()) continue;
    for (int k = 0; k < fanout1; ++k) {
      uint64_t u = nbrs[rng.NextBounded(nbrs.size())];
      samples1[i].push_back(u);
      if (nodes1_index.emplace(u, (int64_t)nodes1_ids.size()).second) {
        nodes1_ids.push_back(u);
      }
    }
  }
  std::vector<uint64_t> extra(nodes1_ids.begin() + bkeys.size(),
                              nodes1_ids.end());
  auto eadj = fetch(extra);
  PSG_CHECK_OK(eadj.status());
  std::unordered_map<uint64_t, int64_t> involved_index;
  for (uint64_t v : nodes1_ids) {
    involved_index.emplace(v, (int64_t)out.involved.size());
    out.involved.push_back(v);
  }
  out.seg1.resize(nodes1_ids.size());
  auto sample2 = [&](size_t pos, std::span<const uint64_t> nbrs) {
    if (nbrs.empty()) return;
    for (int k = 0; k < fanout2; ++k) {
      uint64_t u = nbrs[rng.NextBounded(nbrs.size())];
      auto [it, inserted] =
          involved_index.emplace(u, (int64_t)out.involved.size());
      if (inserted) out.involved.push_back(u);
      out.seg1[pos].push_back(it->second);
    }
  };
  for (size_t i = 0; i < bkeys.size(); ++i) sample2(i, badj->neighbors(i));
  for (size_t i = 0; i < extra.size(); ++i) {
    sample2(bkeys.size() + i, eadj->neighbors(i));
  }
  out.seg2.resize(bkeys.size());
  for (size_t i = 0; i < bkeys.size(); ++i) {
    for (uint64_t u : samples1[i]) out.seg2[i].push_back(nodes1_index[u]);
  }
  out.num_nodes1 = nodes1_ids.size();
  return out;
}

std::vector<std::vector<int64_t>> Lists(const minitorch::Segments& segs) {
  std::vector<std::vector<int64_t>> out(segs.num_segments());
  for (int64_t i = 0; i < segs.num_segments(); ++i) {
    out[i].assign(segs.indices.begin() + segs.offsets[i],
                  segs.indices.begin() + segs.offsets[i + 1]);
  }
  return out;
}

TEST(SageSamplerTest, MatchesMapSamplerIdsSegmentsAndRequests) {
  // 40 ids: 0..29 form a ring with chords, 30..34 have one neighbor each
  // (every draw repeats it), 35..39 have no neighbors at all.
  const uint64_t kIds = 40;
  std::vector<std::vector<uint64_t>> adj(kIds);
  for (uint64_t v = 0; v < 30; ++v) {
    adj[v] = {(v + 1) % 30, (v + 29) % 30, (v * 7 + 3) % 30, 30 + v % 5};
    if (v % 4 == 0) adj[v].push_back(35 + v % 5);
  }
  for (uint64_t v = 30; v < 35; ++v) adj[v] = {v - 30};
  const std::vector<std::vector<uint64_t>> batches = {
      {0, 1, 2, 3},      {30, 35, 12},   {36},
      {5, 17, 29, 31, 8}, {},            {0, 1, 2, 3},
      {39, 38, 37},       {4, 33, 20, 36, 11, 26}};

  std::vector<std::vector<uint64_t>> ref_requests, requests;
  auto fetch_into = [&](std::vector<std::vector<uint64_t>>* log) {
    return [&adj, log](const std::vector<uint64_t>& keys)
               -> Result<ps::NeighborBlock> {
      log->push_back(keys);
      return BlockOf(adj, keys);
    };
  };
  const NeighborFetch ref_fetch = fetch_into(&ref_requests);
  const NeighborFetch fetch = fetch_into(&requests);

  for (int fanout1 : {1, 3}) {
    SageSampler sampler(kIds, fanout1, /*fanout2=*/2);
    Rng ref_rng(97 + fanout1), rng(97 + fanout1);
    for (size_t b = 0; b < batches.size(); ++b) {
      SCOPED_TRACE("fanout1 " + std::to_string(fanout1) + " batch " +
                   std::to_string(b));
      ref_requests.clear();
      requests.clear();
      const RefSample ref =
          RefSampleBatch(batches[b], fanout1, 2, ref_rng, ref_fetch);
      SageBatch batch;
      std::vector<uint64_t> involved;
      ASSERT_TRUE(
          sampler.Sample(batches[b], rng, fetch, &batch, &involved).ok());
      EXPECT_EQ(involved, ref.involved);
      EXPECT_EQ(batch.batch_size, static_cast<int64_t>(batches[b].size()));
      ASSERT_EQ(batch.nodes1.size(), ref.num_nodes1);
      for (size_t i = 0; i < batch.nodes1.size(); ++i) {
        EXPECT_EQ(batch.nodes1[i], static_cast<int64_t>(i));
      }
      EXPECT_EQ(Lists(*batch.seg1), ref.seg1);
      EXPECT_EQ(Lists(*batch.seg2), ref.seg2);
      EXPECT_EQ(requests, ref_requests);
      EXPECT_EQ(rng.NextU64(), ref_rng.NextU64());  // same draws consumed
    }
  }
}

TEST(SageSamplerTest, LeavesPositionsCleanOnEveryReturn) {
  const uint64_t kIds = 12;
  std::vector<std::vector<uint64_t>> adj(kIds);
  for (uint64_t v = 0; v < kIds; ++v) adj[v] = {(v + 1) % kIds, (v + 5) % kIds};
  adj[3].push_back(99);  // outside the id space
  int calls = 0;
  int fail_at = -1;
  const NeighborFetch fetch =
      [&](const std::vector<uint64_t>& keys) -> Result<ps::NeighborBlock> {
    if (calls++ == fail_at) return Status::Unavailable("server down");
    return BlockOf(adj, keys);
  };
  SageSampler sampler(kIds, /*fanout1=*/4, /*fanout2=*/3);
  auto sample = [&](const std::vector<uint64_t>& ids, uint64_t seed,
                    std::vector<uint64_t>* involved) {
    Rng rng(seed);
    SageBatch batch;
    return sampler.Sample(ids, rng, fetch, &batch, involved);
  };
  const std::vector<uint64_t> ids = {0, 6, 9};
  std::vector<uint64_t> first, again;
  ASSERT_TRUE(sample(ids, 5, &first).ok());
  ASSERT_TRUE(sample(ids, 5, &again).ok());
  EXPECT_EQ(again, first);

  // A failed adjacency fetch, a repeated batch id and an id outside the
  // id space each fail the batch and leave nothing behind.
  std::vector<uint64_t> unused;
  fail_at = calls + 1;  // the second fetch of the next batch
  EXPECT_EQ(sample(ids, 5, &unused).code(), StatusCode::kUnavailable);
  EXPECT_EQ(sample({0, 6, 0}, 5, &unused).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(sample({12}, 5, &unused).code(), StatusCode::kOutOfRange);
  Status bad = Status::OK();
  for (uint64_t seed = 0; seed < 64 && bad.ok(); ++seed) {
    bad = sample({3}, seed, &unused);
  }
  EXPECT_EQ(bad.code(), StatusCode::kOutOfRange);
  ASSERT_TRUE(sample(ids, 5, &again).ok());
  EXPECT_EQ(again, first);
}

TEST(EulerTest, PipelineProducesComparableAccuracy) {
  graph::LabeledGraph g = SmallSbm();
  euler::EulerOptions opts;
  opts.hidden_dim = 32;
  opts.epochs = 3;
  opts.cluster.num_executors = 2;
  opts.cluster.num_servers = 2;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  opts.learning_rate = 0.05f;
  auto result = euler::RunEulerGraphSage(g, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->test_accuracy, 0.5);
  EXPECT_GT(result->index_mapping_sim_seconds, 0.0);
  EXPECT_GT(result->json_convert_sim_seconds, 0.0);
  EXPECT_GT(result->partition_sim_seconds, 0.0);
  EXPECT_NEAR(result->preprocess_sim_seconds,
              result->index_mapping_sim_seconds +
                  result->json_convert_sim_seconds +
                  result->partition_sim_seconds,
              1e-6);
}

TEST(EulerTest, PreprocessingSlowerThanPsgraph) {
  // Same dataset, comparable geometry: Euler's three sequential
  // read-transform-write passes must cost far more simulated time than
  // PSGraph's parallel pipeline (Table I's 8 h vs 12 min).
  graph::LabeledGraph g = SmallSbm();

  auto ctx = MakeCtx();
  GraphSageOptions ps_opts;
  ps_opts.epochs = 1;
  ps_opts.hidden_dim = 16;
  auto ps = GraphSage(*ctx, g, ps_opts);
  ASSERT_TRUE(ps.ok());

  euler::EulerOptions eu_opts;
  eu_opts.epochs = 1;
  eu_opts.hidden_dim = 16;
  eu_opts.cluster = SmallOptions().cluster;
  auto eu = euler::RunEulerGraphSage(g, eu_opts);
  ASSERT_TRUE(eu.ok());

  // At this tiny unit-test scale fixed costs dominate; the full-scale
  // ratio is measured by bench_table1_graphsage.
  EXPECT_GT(eu->preprocess_sim_seconds, ps->preprocess_sim_seconds)
      << "euler=" << eu->preprocess_sim_seconds
      << " psgraph=" << ps->preprocess_sim_seconds;
  EXPECT_GT(eu->AvgEpochSimSeconds(), ps->AvgEpochSimSeconds())
      << "euler=" << eu->AvgEpochSimSeconds()
      << " psgraph=" << ps->AvgEpochSimSeconds();
}

}  // namespace
}  // namespace psgraph::core
