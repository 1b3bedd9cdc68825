// Synthetic graph generators standing in for Tencent's proprietary graphs.
//
// The experiments' datasets (DS1/DS2: billion-scale social graphs, DS3: a
// WeChat Pay graph with vertex features and labels) are not available;
// these generators produce scaled-down graphs with the same vertex:edge
// ratios and the power-law degree skew that drives the systems' behaviour
// (hot vertices stress vertex-cut partitioning and PS hot keys).

#ifndef PSGRAPH_GRAPH_GENERATORS_H_
#define PSGRAPH_GRAPH_GENERATORS_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "graph/types.h"

namespace psgraph::graph {

/// R-MAT recursive-matrix generator (Chakrabarti et al.). Produces a
/// power-law directed multigraph with 2^scale vertices and no self-loops.
struct RmatParams {
  int scale = 16;            ///< num_vertices = 2^scale
  uint64_t num_edges = 1 << 20;
  double a = 0.57, b = 0.19, c = 0.19;  ///< d = 1 - a - b - c
  uint64_t seed = 1;
};
EdgeList GenerateRmat(const RmatParams& params);

/// Erdős–Rényi G(n, m): m uniformly random directed edges. For tests.
EdgeList GenerateErdosRenyi(VertexId num_vertices, uint64_t num_edges,
                            uint64_t seed);

/// Planted-partition (stochastic block model) graph plus per-vertex
/// features and labels: vertices in the same community connect with
/// probability proportional to `p_in` vs `p_out`, features are the
/// community centroid plus Gaussian noise. This is the DS3 stand-in for
/// the GraphSage node-classification task (Table I).
struct SbmParams {
  VertexId num_vertices = 30000;
  uint64_t num_edges = 100000;
  int num_communities = 8;
  double in_community_fraction = 0.85;  ///< fraction of edges inside blocks
  int feature_dim = 32;
  double feature_noise = 1.0;
  double centroid_scale = 3.0;
  uint64_t seed = 7;
};

struct LabeledGraph {
  EdgeList edges;
  std::vector<int32_t> labels;         ///< size num_vertices
  std::vector<float> features;         ///< row-major [num_vertices x dim]
  int feature_dim = 0;
  int num_classes = 0;
  VertexId num_vertices = 0;
};

LabeledGraph GenerateSbm(const SbmParams& params);

/// Undirected view: appends the reverse of every edge (dedup not applied;
/// multigraph semantics match the RDD pipelines).
EdgeList Symmetrize(const EdgeList& edges);

/// Drops exact duplicate (src, dst) pairs and self loops; keeps first
/// weight. Used by algorithms that require simple graphs (triangle count).
EdgeList Simplify(const EdgeList& edges);

/// Rewires edges so no vertex exceeds `max_degree` (out + in combined):
/// offending endpoints are resampled uniformly. Keeps |E| and the
/// power-law shape below the cap. Scaled-down graphs need this because
/// R-MAT at small scales concentrates relatively far heavier hubs than
/// the original billion-vertex graphs had.
EdgeList CapDegrees(EdgeList edges, uint64_t max_degree, uint64_t seed);

}  // namespace psgraph::graph

#endif  // PSGRAPH_GRAPH_GENERATORS_H_
