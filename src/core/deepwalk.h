// DeepWalk vertex embeddings (Perozzi et al., cited by the paper §II-B
// as the canonical vertex-embedding algorithm PSGraph-style systems
// train).
//
// Random walks are generated *through the parameter server*: the neighbor
// tables live on the PS (like common neighbor, §IV-B) and each executor
// advances a frontier of walks by pulling the adjacency of the current
// positions in batches. Skip-gram training then reuses LINE's
// column-partitioned embedding machinery (server-side dot products and
// rank-1 updates).

#ifndef PSGRAPH_CORE_DEEPWALK_H_
#define PSGRAPH_CORE_DEEPWALK_H_

#include <cstdint>
#include <vector>

#include "core/graph_loader.h"
#include "core/psgraph_context.h"
#include "graph/types.h"
#include "ps/master.h"

namespace psgraph::core {

struct DeepWalkOptions {
  int embedding_dim = 32;
  int walk_length = 20;
  int walks_per_vertex = 2;
  int window = 4;  ///< skip-gram context window
  int negative_samples = 5;
  float learning_rate = 0.025f;
  int epochs = 1;  ///< passes of (walk generation + training)
  uint64_t batch_size = 4096;  ///< skip-gram pairs per training step
  uint64_t seed = 99;
  /// node2vec bias parameters (Grover & Leskovec, cited in paper §II-B
  /// [12]): return parameter p and in-out parameter q. Candidates that
  /// return to the previous vertex weigh 1/p, candidates adjacent to it
  /// weigh 1, others 1/q. (1, 1) reduces to unbiased DeepWalk.
  double return_p = 1.0;
  double inout_q = 1.0;
  ps::RecoveryMode recovery = ps::RecoveryMode::kPartial;
};

struct DeepWalkResult {
  std::vector<float> embeddings;  ///< row-major [num_vertices x dim]
  graph::VertexId num_vertices = 0;
  int dim = 0;
  uint64_t total_walks = 0;
  uint64_t total_pairs = 0;
  double final_avg_loss = 0.0;
};

/// Treats the input as undirected.
Result<DeepWalkResult> DeepWalk(PsGraphContext& ctx,
                                const dataflow::Dataset<graph::Edge>& edges,
                                graph::VertexId num_vertices,
                                const DeepWalkOptions& opts = {});

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_DEEPWALK_H_
