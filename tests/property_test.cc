// Property-based / parameterized suites: cross-engine equivalence of the
// algorithms over a family of graph shapes, partitioner laws, and
// serialization round trips over randomized payloads.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"
#include "core/graph_loader.h"
#include "core/kcore.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "dataflow/element_traits.h"
#include "graph/generators.h"
#include "graphx/algorithms.h"
#include "ps/partitioner.h"

namespace psgraph {
namespace {

using graph::Edge;
using graph::EdgeList;
using graph::VertexId;

// ---------------------------------------------------------------------
// Graph-family fixtures.
// ---------------------------------------------------------------------

struct GraphCase {
  const char* name;
  EdgeList (*make)();
};

EdgeList MakeRing() {
  EdgeList edges;
  for (VertexId v = 0; v < 64; ++v) edges.push_back({v, (v + 1) % 64});
  return edges;
}

EdgeList MakeStar() {
  EdgeList edges;
  for (VertexId v = 1; v < 50; ++v) {
    edges.push_back({0, v});
    edges.push_back({v, 0});
  }
  return edges;
}

EdgeList MakeSparseEr() {
  EdgeList e = graph::Simplify(graph::GenerateErdosRenyi(80, 200, 21));
  for (VertexId v = 0; v < 80; ++v) e.push_back({v, (v + 1) % 80});
  return e;
}

EdgeList MakeDenseEr() {
  EdgeList e = graph::Simplify(graph::GenerateErdosRenyi(40, 600, 22));
  for (VertexId v = 0; v < 40; ++v) e.push_back({v, (v + 1) % 40});
  return e;
}

EdgeList MakeRmat() {
  EdgeList e = graph::Simplify(graph::GenerateRmat([] {
    graph::RmatParams p;
    p.scale = 7;
    p.num_edges = 700;
    p.seed = 23;
    return p;
  }()));
  for (VertexId v = 0; v < 128; ++v) e.push_back({v, (v + 1) % 128});
  return e;
}

const GraphCase kGraphCases[] = {
    {"ring", MakeRing},       {"star", MakeStar},
    {"sparse_er", MakeSparseEr}, {"dense_er", MakeDenseEr},
    {"rmat", MakeRmat},
};

class GraphFamilyTest : public ::testing::TestWithParam<GraphCase> {
 protected:
  static std::unique_ptr<core::PsGraphContext> MakeCtx() {
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 3;
    opts.cluster.num_servers = 2;
    opts.cluster.executor_mem_bytes = 256ull << 20;
    opts.cluster.server_mem_bytes = 256ull << 20;
    auto ctx = core::PsGraphContext::Create(opts);
    PSG_CHECK_OK(ctx.status());
    return std::move(*ctx);
  }
};

TEST_P(GraphFamilyTest, PageRankEnginesAgree) {
  EdgeList edges = GetParam().make();
  VertexId n = graph::NumVerticesOf(edges);

  auto ctx = MakeCtx();
  auto ds = core::StageAndLoadEdges(*ctx, edges, "prop/pr.bin");
  ASSERT_TRUE(ds.ok());
  core::PageRankOptions po;
  po.max_iterations = 80;
  auto core_result = core::PageRank(*ctx, *ds, n, po);
  ASSERT_TRUE(core_result.ok()) << core_result.status().ToString();

  auto gx_edges =
      dataflow::Dataset<Edge>::FromVector(&ctx->dataflow(), edges, 3);
  graphx::PageRankOptions go;
  go.max_iterations = 80;
  auto gx_result = graphx::PageRank(gx_edges, go);
  ASSERT_TRUE(gx_result.ok());

  for (auto& [v, r] : *gx_result) {
    EXPECT_NEAR(core_result->ranks[v], r, 5e-3)
        << GetParam().name << " vertex " << v;
  }
}

TEST_P(GraphFamilyTest, PageRankMassIsConserved) {
  // At the fixpoint sum(rank) ~= reset*|V| + damp*sum(rank) for graphs
  // with no dangling mass loss, i.e. sum ~= |V| when every vertex has an
  // out-edge (all our family members do via the added ring).
  EdgeList edges = GetParam().make();
  VertexId n = graph::NumVerticesOf(edges);
  // Count vertices that actually appear (the star has all 50).
  std::vector<bool> present(n, false);
  uint64_t num_present = 0;
  for (const Edge& e : edges) {
    for (VertexId v : {e.src, e.dst}) {
      if (!present[v]) {
        present[v] = true;
        ++num_present;
      }
    }
  }
  auto ctx = MakeCtx();
  auto ds = core::StageAndLoadEdges(*ctx, edges, "prop/mass.bin");
  ASSERT_TRUE(ds.ok());
  core::PageRankOptions po;
  po.max_iterations = 200;
  auto result = core::PageRank(*ctx, *ds, n, po);
  ASSERT_TRUE(result.ok());
  double sum = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    if (present[v]) sum += result->ranks[v];
  }
  EXPECT_NEAR(sum, static_cast<double>(num_present), num_present * 0.02)
      << GetParam().name;
}

TEST_P(GraphFamilyTest, KCoreSubgraphEnginesAgree) {
  EdgeList edges = GetParam().make();
  for (uint32_t k : {2u, 3u, 5u}) {
    auto ctx = MakeCtx();
    auto ds = core::StageAndLoadEdges(*ctx, edges, "prop/kcs.bin");
    ASSERT_TRUE(ds.ok());
    auto core_result = core::KCoreSubgraph(*ctx, *ds, 0, k);
    ASSERT_TRUE(core_result.ok()) << core_result.status().ToString();

    auto gx_edges =
        dataflow::Dataset<Edge>::FromVector(&ctx->dataflow(), edges, 3);
    auto gx_result = graphx::KCoreSubgraph(gx_edges, k);
    ASSERT_TRUE(gx_result.ok());

    EXPECT_EQ(core_result->core_vertices, gx_result->core_vertices)
        << GetParam().name << " k=" << k;
    EXPECT_EQ(core_result->core_edges, gx_result->core_edges)
        << GetParam().name << " k=" << k;
  }
}

TEST_P(GraphFamilyTest, CoreKCoreSubgraphMatchesBrutePeeling) {
  EdgeList edges = GetParam().make();
  VertexId n = graph::NumVerticesOf(edges);
  for (uint32_t k : {2u, 4u}) {
    // Reference: naive peeling on an adjacency multiset.
    std::vector<std::vector<VertexId>> adj(n);
    for (const Edge& e : edges) {
      adj[e.src].push_back(e.dst);
      adj[e.dst].push_back(e.src);
    }
    std::vector<uint32_t> deg(n);
    std::vector<bool> alive(n, false);
    for (const Edge& e : edges) {
      alive[e.src] = alive[e.dst] = true;
    }
    for (VertexId v = 0; v < n; ++v) {
      deg[v] = static_cast<uint32_t>(adj[v].size());
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId v = 0; v < n; ++v) {
        if (alive[v] && deg[v] < k) {
          alive[v] = false;
          changed = true;
          for (VertexId u : adj[v]) {
            if (alive[u]) deg[u]--;
          }
        }
      }
    }
    uint64_t expect_vertices = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v]) ++expect_vertices;
    }

    auto ctx = MakeCtx();
    auto ds = core::StageAndLoadEdges(*ctx, edges, "prop/peel.bin");
    ASSERT_TRUE(ds.ok());
    auto result = core::KCoreSubgraph(*ctx, *ds, n, k);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->core_vertices, expect_vertices)
        << GetParam().name << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, GraphFamilyTest,
                         ::testing::ValuesIn(kGraphCases),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// ---------------------------------------------------------------------
// Partitioner laws.
// ---------------------------------------------------------------------

struct PartitionerCase {
  ps::PartitionScheme scheme;
  uint64_t key_space;
  int32_t num_partitions;
};

class PartitionerPropertyTest
    : public ::testing::TestWithParam<PartitionerCase> {};

TEST_P(PartitionerPropertyTest, DeterministicAndInRange) {
  const auto& c = GetParam();
  ps::Partitioner a(c.scheme, c.key_space, c.num_partitions, 64);
  ps::Partitioner b(c.scheme, c.key_space, c.num_partitions, 64);
  Rng rng(c.key_space ^ c.num_partitions);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.NextBounded(c.key_space);
    int32_t p = a.PartitionOf(key);
    EXPECT_EQ(p, b.PartitionOf(key));
    EXPECT_GE(p, 0);
    EXPECT_LT(p, c.num_partitions);
  }
}

TEST_P(PartitionerPropertyTest, ReasonablyBalanced) {
  const auto& c = GetParam();
  if (c.key_space < static_cast<uint64_t>(c.num_partitions) * 64) {
    GTEST_SKIP() << "too few keys for balance assertions";
  }
  ps::Partitioner part(c.scheme, c.key_space, c.num_partitions, 64);
  std::vector<uint64_t> counts(c.num_partitions, 0);
  for (uint64_t key = 0; key < c.key_space; ++key) {
    counts[part.PartitionOf(key)]++;
  }
  uint64_t expect = c.key_space / c.num_partitions;
  for (int32_t p = 0; p < c.num_partitions; ++p) {
    EXPECT_GT(counts[p], expect / 4) << "partition " << p;
    EXPECT_LT(counts[p], expect * 4) << "partition " << p;
  }
}

std::string PartitionerCaseName(
    const ::testing::TestParamInfo<PartitionerCase>& info) {
  const char* name = info.param.scheme == ps::PartitionScheme::kHash
                         ? "hash"
                         : (info.param.scheme == ps::PartitionScheme::kRange
                                ? "range"
                                : "hashrange");
  return std::string(name) + "_" + std::to_string(info.param.key_space) +
         "x" + std::to_string(info.param.num_partitions);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, PartitionerPropertyTest,
    ::testing::Values(
        PartitionerCase{ps::PartitionScheme::kHash, 10000, 4},
        PartitionerCase{ps::PartitionScheme::kHash, 100000, 17},
        PartitionerCase{ps::PartitionScheme::kRange, 10000, 4},
        PartitionerCase{ps::PartitionScheme::kRange, 99991, 7},
        PartitionerCase{ps::PartitionScheme::kHashRange, 10000, 4},
        PartitionerCase{ps::PartitionScheme::kHashRange, 100000, 13}),
    PartitionerCaseName);

// ---------------------------------------------------------------------
// Serialization round trips over randomized payloads.
// ---------------------------------------------------------------------

/// The record encoding of `v`, in a buffer of exactly its size.
template <typename T>
std::vector<uint8_t> EncodeExactly(const T& v) {
  std::vector<uint8_t> bytes(dataflow::EncodedSize(v));
  uint8_t* end = dataflow::EncodeElem(bytes.data(), v);
  EXPECT_EQ(end, bytes.data() + bytes.size());
  return bytes;
}

TEST(SerializationPropertyTest, NestedElementsRoundTrip) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    using Elem = std::pair<uint64_t,
                           std::pair<std::vector<uint64_t>,
                                     std::vector<float>>>;
    Elem in;
    in.first = rng.NextU64();
    size_t n = rng.NextBounded(20);
    for (size_t i = 0; i < n; ++i) {
      in.second.first.push_back(rng.NextU64());
      in.second.second.push_back(rng.NextFloat());
    }
    const std::vector<uint8_t> bytes = EncodeExactly(in);
    ByteReader reader(bytes);
    Elem out;
    ASSERT_TRUE(dataflow::DeserializeElem(reader, &out).ok());
    EXPECT_EQ(in, out);
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

TEST(SerializationPropertyTest, VectorOfPairsRoundTrip) {
  Rng rng(78);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::pair<uint64_t, float>> in(rng.NextBounded(50));
    for (auto& kv : in) kv = {rng.NextU64(), rng.NextFloat()};
    const std::vector<uint8_t> bytes = EncodeExactly(in);
    ByteReader reader(bytes);
    std::vector<std::pair<uint64_t, float>> out;
    ASSERT_TRUE(dataflow::DeserializeElem(reader, &out).ok());
    EXPECT_EQ(in, out);
  }
}

/// Decodes `in`'s encoding, then each strict prefix and each single-bit
/// flip of it, every one from a buffer of exactly its size. The element
/// must round-trip; every prefix must fail with an OutOfRange naming its
/// offset and leave the reader where it was; every flip must decode or
/// fail that way; nothing may throw. A count read from the bytes that
/// sized an allocation unchecked would throw std::bad_alloc here.
template <typename T>
void ExpectBoundedDecoding(const T& in) {
  const std::vector<uint8_t> bytes = EncodeExactly(in);
  {
    ByteReader reader(bytes);
    T out{};
    ASSERT_TRUE(dataflow::DeserializeElem(reader, &out).ok());
    EXPECT_EQ(out, in);
    EXPECT_EQ(reader.remaining(), 0u);
  }
  auto expect_status = [](const std::vector<uint8_t>& input, bool must_fail,
                          const std::string& what) {
    ByteReader reader(input);
    T out{};
    Status st;
    EXPECT_NO_THROW(st = dataflow::DeserializeElem(reader, &out)) << what;
    if (must_fail) {
      EXPECT_FALSE(st.ok()) << what;
    }
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kOutOfRange) << what;
      EXPECT_NE(st.message().find("offset 0"), std::string::npos)
          << what << ": " << st.ToString();
      EXPECT_EQ(reader.position(), 0u) << what;
    }
  };
  for (size_t len = 0; len < bytes.size(); ++len) {
    expect_status(std::vector<uint8_t>(bytes.begin(), bytes.begin() + len),
                  /*must_fail=*/true, "prefix of " + std::to_string(len));
  }
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<uint8_t> flipped = bytes;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    expect_status(flipped, /*must_fail=*/false,
                  "flip of bit " + std::to_string(bit));
  }
}

TEST(SerializationPropertyTest, TruncatedOrFlippedRecordsFailWithAStatus) {
  {
    SCOPED_TRACE("fixed-width pair");
    ExpectBoundedDecoding(std::pair<uint64_t, float>{42, 0.5f});
  }
  {
    SCOPED_TRACE("nested pair of vectors");
    ExpectBoundedDecoding(
        std::pair<uint64_t, std::pair<std::vector<uint64_t>,
                                      std::vector<float>>>{
            7, {{1, 2, 3}, {0.25f, 0.5f, 0.75f}}});
  }
  {
    SCOPED_TRACE("vector of pairs");
    ExpectBoundedDecoding(std::vector<std::pair<uint64_t, float>>{
        {1, 1.0f}, {2, 2.0f}, {3, 3.0f}});
  }
  {
    SCOPED_TRACE("string");
    ExpectBoundedDecoding(std::string("psgraph"));
  }
}

TEST(SerializationPropertyTest, JvmBytesMonotoneInPayload) {
  std::vector<uint64_t> small(10), big(1000);
  EXPECT_LT(dataflow::JvmBytesOf(small), dataflow::JvmBytesOf(big));
  std::string s1 = "abc", s2(500, 'x');
  EXPECT_LT(dataflow::JvmBytesOf(s1), dataflow::JvmBytesOf(s2));
}

// ---------------------------------------------------------------------
// Shuffle determinism: results must not depend on partition counts.
// ---------------------------------------------------------------------

TEST(ShufflePropertyTest, ReduceByKeyIndependentOfPartitioning) {
  sim::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.num_servers = 1;
  cfg.executor_mem_bytes = 256ull << 20;

  std::vector<std::pair<uint64_t, uint64_t>> data;
  Rng rng(79);
  for (int i = 0; i < 5000; ++i) {
    data.push_back({rng.NextBounded(100), rng.NextBounded(1000)});
  }
  std::map<uint64_t, uint64_t> reference;
  for (auto& [k, v] : data) reference[k] += v;

  for (int parts : {1, 2, 3, 7, 16}) {
    sim::SimCluster cluster(cfg);
    dataflow::DataflowContext ctx(&cluster);
    auto ds = dataflow::Dataset<std::pair<uint64_t, uint64_t>>::FromVector(
        &ctx, data, parts);
    auto out = ds.ReduceByKey([](const uint64_t& a, const uint64_t& b) {
                   return a + b;
                 }).Collect();
    ASSERT_TRUE(out.ok());
    std::map<uint64_t, uint64_t> got(out->begin(), out->end());
    EXPECT_EQ(got, reference) << parts << " partitions";
  }
}

}  // namespace
}  // namespace psgraph
