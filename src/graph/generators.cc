#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "common/hash.h"

namespace psgraph::graph {

EdgeList GenerateRmat(const RmatParams& params) {
  Rng rng(params.seed);
  const VertexId n = VertexId{1} << params.scale;
  const double ab = params.a + params.b;
  const double abc = ab + params.c;

  EdgeList edges;
  edges.reserve(params.num_edges);
  while (edges.size() < params.num_edges) {
    VertexId src = 0, dst = 0;
    VertexId step = n >> 1;
    while (step > 0) {
      double r = rng.NextDouble();
      if (r < params.a) {
        // top-left quadrant: no move
      } else if (r < ab) {
        dst += step;
      } else if (r < abc) {
        src += step;
      } else {
        src += step;
        dst += step;
      }
      step >>= 1;
    }
    if (src == dst) continue;
    edges.push_back({src, dst, 1.0f});
  }
  return edges;
}

EdgeList GenerateErdosRenyi(VertexId num_vertices, uint64_t num_edges,
                            uint64_t seed) {
  Rng rng(seed);
  EdgeList edges;
  edges.reserve(num_edges);
  while (edges.size() < num_edges) {
    VertexId src = rng.NextBounded(num_vertices);
    VertexId dst = rng.NextBounded(num_vertices);
    if (src == dst) continue;
    edges.push_back({src, dst, 1.0f});
  }
  return edges;
}

LabeledGraph GenerateSbm(const SbmParams& params) {
  Rng rng(params.seed);
  LabeledGraph g;
  g.num_vertices = params.num_vertices;
  g.num_classes = params.num_communities;
  g.feature_dim = params.feature_dim;

  // Assign communities round-robin with a shuffle so ids are uncorrelated
  // with the label.
  g.labels.resize(params.num_vertices);
  for (VertexId v = 0; v < params.num_vertices; ++v) {
    g.labels[v] = static_cast<int32_t>(v % params.num_communities);
  }
  for (VertexId v = params.num_vertices; v > 1; --v) {
    VertexId u = rng.NextBounded(v);
    std::swap(g.labels[v - 1], g.labels[u]);
  }

  // Bucket vertices per community for fast intra-community sampling.
  std::vector<std::vector<VertexId>> members(params.num_communities);
  for (VertexId v = 0; v < params.num_vertices; ++v) {
    members[g.labels[v]].push_back(v);
  }

  g.edges.reserve(params.num_edges);
  while (g.edges.size() < params.num_edges) {
    VertexId src = rng.NextBounded(params.num_vertices);
    VertexId dst;
    if (rng.NextBool(params.in_community_fraction)) {
      const auto& bucket = members[g.labels[src]];
      dst = bucket[rng.NextBounded(bucket.size())];
    } else {
      dst = rng.NextBounded(params.num_vertices);
    }
    if (src == dst) continue;
    g.edges.push_back({src, dst, 1.0f});
  }

  // Community centroids: random Gaussian directions scaled up so classes
  // are separable but individual features stay noisy.
  std::vector<float> centroids(
      static_cast<size_t>(params.num_communities) * params.feature_dim);
  for (auto& c : centroids) {
    c = static_cast<float>(rng.NextGaussian() * params.centroid_scale);
  }
  g.features.resize(static_cast<size_t>(params.num_vertices) *
                    params.feature_dim);
  for (VertexId v = 0; v < params.num_vertices; ++v) {
    const float* centroid =
        centroids.data() +
        static_cast<size_t>(g.labels[v]) * params.feature_dim;
    float* row = g.features.data() + static_cast<size_t>(v) *
                 params.feature_dim;
    for (int d = 0; d < params.feature_dim; ++d) {
      row[d] = centroid[d] +
               static_cast<float>(rng.NextGaussian() * params.feature_noise);
    }
  }
  return g;
}

EdgeList CapDegrees(EdgeList edges, uint64_t max_degree, uint64_t seed) {
  if (max_degree == 0) return edges;
  VertexId n = NumVerticesOf(edges);
  std::vector<uint32_t> degree(n, 0);
  Rng rng(seed);
  for (Edge& e : edges) {
    int guard = 0;
    while ((degree[e.src] >= max_degree || degree[e.dst] >= max_degree) &&
           guard++ < 64) {
      e.src = rng.NextBounded(n);
      e.dst = rng.NextBounded(n);
      if (e.src == e.dst) degree[e.src] = max_degree;  // force resample
    }
    degree[e.src]++;
    degree[e.dst]++;
  }
  return edges;
}

EdgeList Symmetrize(const EdgeList& edges) {
  EdgeList out;
  out.reserve(edges.size() * 2);
  for (const Edge& e : edges) {
    out.push_back(e);
    out.push_back({e.dst, e.src, e.weight});
  }
  return out;
}

EdgeList Simplify(const EdgeList& edges) {
  struct PairHash {
    size_t operator()(const std::pair<VertexId, VertexId>& p) const {
      return HashCombine(Hash64(p.first), p.second);
    }
  };
  std::unordered_set<std::pair<VertexId, VertexId>, PairHash> seen;
  seen.reserve(edges.size() * 2);
  EdgeList out;
  out.reserve(edges.size());
  for (const Edge& e : edges) {
    if (e.src == e.dst) continue;
    if (seen.insert({e.src, e.dst}).second) out.push_back(e);
  }
  return out;
}

}  // namespace psgraph::graph
