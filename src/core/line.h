// LINE graph embedding on the parameter server (paper §IV-D).
//
// Each vertex has an embedding vector and (for second-order proximity) a
// context vector. Both matrices are COLUMN-partitioned with identical
// range splits, so dimension k of every vector lives on the same server
// and the sigmoid dot products can be computed as server-side partials
// ("dot.partial" psFunc) merged by the agent — only scalars cross the
// network. SGD updates are likewise applied on the servers ("line.adjust"
// psFunc) from per-pair scalar coefficients. An ablation flag disables
// the psFunc path and pulls/pushes whole vectors instead.

#ifndef PSGRAPH_CORE_LINE_H_
#define PSGRAPH_CORE_LINE_H_

#include <cstdint>
#include <vector>

#include "core/graph_loader.h"
#include "core/psgraph_context.h"
#include "graph/types.h"
#include "ps/master.h"

namespace psgraph::core {

struct LineOptions {
  int embedding_dim = 32;
  /// 1 = first-order proximity (embedding . embedding), 2 = second-order
  /// (context . embedding).
  int order = 2;
  int epochs = 5;
  uint64_t batch_size = 1024;
  int negative_samples = 5;
  float learning_rate = 0.025f;
  uint64_t seed = 42;
  /// Paper's optimization: compute dot products on the PS via psFunc and
  /// push scalar coefficients. false = pull whole vectors and push whole
  /// updates (the ablation baseline).
  bool use_psfunc_dot = true;
  ps::RecoveryMode recovery = ps::RecoveryMode::kPartial;
};

struct LineResult {
  /// Row-major [num_vertices x dim] final embeddings.
  std::vector<float> embeddings;
  graph::VertexId num_vertices = 0;
  int dim = 0;
  int epochs = 0;
  /// Mean negative log-likelihood of the last epoch's batches.
  double final_avg_loss = 0.0;
};

Result<LineResult> Line(PsGraphContext& ctx,
                        const dataflow::Dataset<graph::Edge>& edges,
                        graph::VertexId num_vertices,
                        const LineOptions& opts = {});

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_LINE_H_
