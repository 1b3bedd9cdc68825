// Tests for the graph layer: CSR, generators, partitioning, degrees,
// edge IO, dataset catalog and shared algorithm math.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>
#include <unordered_set>

#include "graph/algo_math.h"
#include "graph/csr.h"
#include "graph/dense_accumulator.h"
#include "graph/datasets.h"
#include "graph/degree.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "graph/partition.h"
#include "storage/hdfs.h"

namespace psgraph::graph {
namespace {

TEST(CsrTest, BuildsAdjacency) {
  EdgeList edges{{0, 1}, {0, 2}, {2, 1}, {1, 0}};
  Csr csr = Csr::FromEdges(edges);
  EXPECT_EQ(csr.num_vertices(), 3u);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.OutDegree(0), 2u);
  auto n0 = csr.Neighbors(0);
  EXPECT_EQ(std::vector<VertexId>(n0.begin(), n0.end()),
            (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(csr.OutDegree(2), 1u);
  EXPECT_FALSE(csr.weighted());
}

TEST(CsrTest, WeightedGraphKeepsWeights) {
  EdgeList edges{{0, 1, 2.5f}, {0, 2, 1.0f}};
  Csr csr = Csr::FromEdges(edges);
  ASSERT_TRUE(csr.weighted());
  auto w = csr.Weights(0);
  EXPECT_FLOAT_EQ(w[0], 2.5f);
}

TEST(CsrTest, EmptyGraph) {
  Csr csr = Csr::FromEdges({});
  EXPECT_EQ(csr.num_vertices(), 0u);
  EXPECT_EQ(csr.num_edges(), 0u);
}

TEST(GeneratorTest, RmatDeterministicAndSkewed) {
  RmatParams params;
  params.scale = 12;
  params.num_edges = 40000;
  params.seed = 5;
  EdgeList a = GenerateRmat(params);
  EdgeList b = GenerateRmat(params);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a[100], b[100]);
  EXPECT_EQ(a.size(), 40000u);
  for (const Edge& e : a) {
    EXPECT_NE(e.src, e.dst);
    EXPECT_LT(e.src, 1u << 12);
  }
  DegreeStats stats = ComputeDegreeStats(a);
  // Power-law skew: top 1% of vertices should carry far more than 1% of
  // the edges.
  EXPECT_GT(stats.top1pct_edge_fraction, 0.05);
}

TEST(GeneratorTest, ErdosRenyiUniformish) {
  EdgeList edges = GenerateErdosRenyi(1000, 20000, 3);
  EXPECT_EQ(edges.size(), 20000u);
  DegreeStats stats = ComputeDegreeStats(edges);
  EXPECT_LT(stats.top1pct_edge_fraction, 0.05);
}

TEST(GeneratorTest, SbmCommunitiesAndFeatures) {
  SbmParams params;
  params.num_vertices = 2000;
  params.num_edges = 20000;
  params.num_communities = 4;
  params.feature_dim = 8;
  LabeledGraph g = GenerateSbm(params);
  EXPECT_EQ(g.labels.size(), 2000u);
  EXPECT_EQ(g.features.size(), 2000u * 8);
  EXPECT_EQ(g.num_classes, 4);
  // Labels roughly balanced.
  std::vector<int> counts(4, 0);
  for (int32_t label : g.labels) counts[label]++;
  for (int c : counts) EXPECT_NEAR(c, 500, 5);
  // Most edges intra-community.
  uint64_t intra = 0;
  for (const Edge& e : g.edges) {
    if (g.labels[e.src] == g.labels[e.dst]) ++intra;
  }
  EXPECT_GT(static_cast<double>(intra) / g.edges.size(), 0.7);
}

TEST(GeneratorTest, SymmetrizeDoublesAndMirrors) {
  EdgeList edges{{1, 2, 3.0f}};
  EdgeList sym = Symmetrize(edges);
  ASSERT_EQ(sym.size(), 2u);
  EXPECT_EQ(sym[1].src, 2u);
  EXPECT_EQ(sym[1].dst, 1u);
  EXPECT_EQ(sym[1].weight, 3.0f);
}

TEST(GeneratorTest, SimplifyRemovesDupsAndLoops) {
  EdgeList edges{{1, 2}, {1, 2}, {2, 2}, {2, 1}};
  EdgeList simple = Simplify(edges);
  ASSERT_EQ(simple.size(), 2u);  // (1,2) and (2,1); loop dropped
}

TEST(PartitionTest, VertexPartitionKeepsSrcTogether) {
  EdgeList edges = GenerateErdosRenyi(200, 3000, 9);
  auto parts =
      PartitionEdges(edges, 4, PartitionStrategy::kVertexPartition);
  ASSERT_EQ(parts.size(), 4u);
  // Every src appears in exactly one partition.
  std::set<VertexId> seen;
  for (const auto& part : parts) {
    std::set<VertexId> local;
    for (const Edge& e : part) local.insert(e.src);
    for (VertexId v : local) {
      EXPECT_TRUE(seen.insert(v).second) << "src " << v << " split";
    }
  }
  auto stats = ComputePartitionStats(parts);
  EXPECT_DOUBLE_EQ(stats.avg_src_replication, 1.0);
}

TEST(PartitionTest, EdgePartitionSplitsEvenly) {
  EdgeList edges = GenerateErdosRenyi(200, 4000, 9);
  auto parts = PartitionEdges(edges, 4, PartitionStrategy::kEdgePartition);
  auto stats = ComputePartitionStats(parts);
  EXPECT_EQ(stats.max_partition_edges, 1000u);
  EXPECT_EQ(stats.min_partition_edges, 1000u);
  EXPECT_GT(stats.avg_src_replication, 1.5);
}

TEST(PartitionTest, GroupBysrcBuildsNeighborTables) {
  EdgeList edges{{1, 2}, {1, 3}, {5, 2}};
  auto tables = GroupBysrc(edges);
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0].vertex, 1u);
  EXPECT_EQ(tables[0].neighbors, (std::vector<VertexId>{2, 3}));
  EXPECT_EQ(tables[1].vertex, 5u);
}

TEST(EdgeIoTest, TextRoundTripWithWeightsAndComments) {
  sim::SimCluster cluster(sim::ClusterConfig{});
  storage::Hdfs hdfs(&cluster);
  EdgeList edges{{1, 2, 1.0f}, {3, 4, 2.5f}};
  ASSERT_TRUE(WriteEdgesText(hdfs, "e.txt", edges, -1).ok());
  // Inject a comment and blank line.
  auto text = hdfs.ReadString("e.txt", -1);
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(
      hdfs.WriteString("e.txt", "# header\n\n" + *text, -1).ok());
  auto back = ReadEdgesText(hdfs, "e.txt", -1);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), 2u);
  EXPECT_EQ((*back)[0], edges[0]);
  EXPECT_EQ((*back)[1], edges[1]);
}

TEST(EdgeIoTest, MalformedTextRejected) {
  sim::SimCluster cluster(sim::ClusterConfig{});
  storage::Hdfs hdfs(&cluster);
  ASSERT_TRUE(hdfs.WriteString("bad.txt", "1 banana\n", -1).ok());
  EXPECT_FALSE(ReadEdgesText(hdfs, "bad.txt", -1).ok());
}

TEST(EdgeIoTest, BinaryRoundTrip) {
  sim::SimCluster cluster(sim::ClusterConfig{});
  storage::Hdfs hdfs(&cluster);
  EdgeList edges = GenerateErdosRenyi(100, 1000, 2);
  ASSERT_TRUE(WriteEdgesBinary(hdfs, "e.bin", edges, -1).ok());
  auto back = ReadEdgesBinary(hdfs, "e.bin", -1);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, edges);
  // Wrong magic rejected.
  ASSERT_TRUE(hdfs.WriteString("bad.bin", "XXXXYYYY", -1).ok());
  EXPECT_FALSE(ReadEdgesBinary(hdfs, "bad.bin", -1).ok());
}

TEST(DatasetCatalogTest, MiniDatasetsPreserveRatios) {
  DatasetInfo ds1 = Ds1MiniInfo();
  DatasetInfo ds2 = Ds2MiniInfo();
  DatasetInfo ds3 = Ds3MiniInfo();
  // DS2 is denser (edges per vertex) than DS1, like the paper.
  double d1 = (double)ds1.mini_edges / ds1.mini_vertices;
  double d2 = (double)ds2.mini_edges / ds2.mini_vertices;
  EXPECT_GT(d2, d1 * 2);
  EXPECT_GT(ds1.paper_scale(), 100.0);
  EXPECT_EQ(ds3.mini_vertices, 30000u);
  EXPECT_EQ(ds3.mini_edges, 100000u);
}

TEST(DatasetCatalogTest, GeneratorsMatchInfo) {
  DatasetInfo info = Ds1MiniInfo(/*scale_denom=*/100000);
  EdgeList edges = MakeDs1Mini(info);
  EXPECT_EQ(edges.size(), info.mini_edges);
  EXPECT_LE(NumVerticesOf(edges),
            2 * info.mini_vertices);  // RMAT rounds to powers of two
}

TEST(AlgoMathTest, HIndexCapped) {
  std::vector<uint32_t> vals{5, 4, 3, 2, 1};
  EXPECT_EQ(HIndexCapped(vals, 100), 3u);
  std::vector<uint32_t> vals2{9, 9, 9};
  EXPECT_EQ(HIndexCapped(vals2, 100), 3u);
  EXPECT_EQ(HIndexCapped(vals2, 2), 2u);
  std::vector<uint32_t> empty;
  EXPECT_EQ(HIndexCapped(empty, 4), 0u);
}

TEST(AlgoMathTest, LouvainPrefersHeavyNeighborCommunity) {
  // Vertex with k=2 in its own singleton community (tot = 2); community
  // 7 offers weight 2 with small tot -> clear positive gain.
  std::vector<LouvainCandidate> candidates{{7, {2.0f, 4.0f}}};
  EXPECT_EQ(LouvainChooseCommunity(1, 2.0f, 2.0f, 50.0, candidates), 7u);
}

TEST(AlgoMathTest, LouvainStaysWithoutImprovement) {
  // Candidate community with tiny weight but huge tot -> negative gain.
  std::vector<LouvainCandidate> candidates{{7, {0.1f, 90.0f}}};
  EXPECT_EQ(LouvainChooseCommunity(1, 2.0f, 2.0f, 10.0, candidates), 1u);
}

// Drains on both sides of the density rule: with 1024 ids the
// accumulator sorts a touched list of fewer than 64 ids and scans its
// flags for 64 or more. Each sweep must give the ascending ids and
// bit-equal sums of a std::map fed the same adds, and leave every slot
// clean for the next sweep (the sweeps reuse overlapping ids).
TEST(DenseAccumulatorTest, DrainEqualsOrderedMapAcrossDensityRule) {
  const uint64_t kIds = 1024;
  ASSERT_EQ(kIds / kDenseScanDivisor, 64u);
  Rng rng(17);
  for (uint64_t presized : {kIds, uint64_t{0}}) {  // 0: grows on demand
    DenseAccumulator<double> acc(presized);
    for (size_t distinct : {1u, 9u, 63u, 64u, 65u, 300u, 1024u, 5u}) {
      std::vector<uint64_t> ids(kIds);
      for (uint64_t i = 0; i < kIds; ++i) ids[i] = i;
      for (uint64_t i = kIds - 1; i > 0; --i) {
        std::swap(ids[i], ids[rng.NextBounded(i + 1)]);
      }
      ids.resize(distinct);
      std::map<uint64_t, double> want;
      for (int round = 0; round < 3; ++round) {
        for (uint64_t id : ids) {
          const double v = rng.NextDouble() - 0.5;
          acc.Add(id, v);
          want[id] += v;
        }
      }
      // A slot that sums back to zero is still drained.
      acc.Add(ids[0], -want[ids[0]]);
      want[ids[0]] += -want[ids[0]];
      ASSERT_EQ(acc.size(), distinct);

      std::vector<uint64_t> got_ids = {7};  // Drain appends
      std::vector<double> got_sums = {7.0};
      acc.Drain(&got_ids, &got_sums);
      EXPECT_TRUE(acc.empty());
      ASSERT_EQ(got_ids.size(), distinct + 1) << "distinct " << distinct;
      ASSERT_EQ(got_sums.size(), distinct + 1);
      size_t j = 1;
      for (const auto& [id, sum] : want) {
        EXPECT_EQ(got_ids[j], id) << "distinct " << distinct;
        EXPECT_EQ(std::memcmp(&got_sums[j], &sum, sizeof(double)), 0)
            << "distinct " << distinct << " id " << id;
        ++j;
      }
    }
  }
}

TEST(DenseAccumulatorTest, SortTouchedScansOrSortsToTheSameOrder) {
  for (size_t space : {16u, 100u, 4096u}) {
    Rng rng(space);
    std::vector<uint32_t> flags(space, 0);
    std::vector<uint64_t> touched;
    for (size_t k = 0; k < space / 2; ++k) {
      const uint64_t id = rng.NextBounded(space);
      if (flags[id] == 0) {
        flags[id] = 1 + static_cast<uint32_t>(k);
        touched.push_back(id);
      }
      std::vector<uint64_t> got = touched;
      SortTouched(flags, &got);
      std::vector<uint64_t> want = touched;
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "space " << space << " size " << want.size();
    }
  }
}

}  // namespace
}  // namespace psgraph::graph
