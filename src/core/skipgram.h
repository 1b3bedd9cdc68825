// Skip-gram-with-negative-sampling training on the parameter server,
// shared by LINE (§IV-D) and DeepWalk (vertex embeddings, §II-B [11]).
//
// The embedding and context matrices are column-partitioned with
// identical range splits; a training step computes the pair dot products
// server-side ("dot.partial"), derives per-pair scalar coefficients on
// the executor, and applies rank-1 SGD updates server-side
// ("line.adjust"). Only scalars cross the network.

#ifndef PSGRAPH_CORE_SKIPGRAM_H_
#define PSGRAPH_CORE_SKIPGRAM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/psgraph_context.h"
#include "ps/matrix_meta.h"

namespace psgraph::core {

/// One embedding model on the PS: target matrix + context matrix (the
/// same matrix for first-order proximity).
struct SkipGramModel {
  ps::MatrixMeta emb;
  ps::MatrixMeta ctx;
  int dim = 0;
};

/// Creates the column-partitioned matrices and random-initializes the
/// embeddings server-side. `order1` reuses emb as ctx.
Result<SkipGramModel> CreateSkipGramModel(PsGraphContext& ctx,
                                          const std::string& name,
                                          uint64_t num_vertices, int dim,
                                          bool order1, uint64_t seed);

/// Trains one batch of (target, context, label) samples from executor
/// `e`. Returns the summed negative log-likelihood of the batch.
/// `use_psfunc_dot=false` pulls whole vectors instead (ablation path).
Result<double> TrainSkipGramBatch(
    PsGraphContext& ctx, int32_t e, const SkipGramModel& model,
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs,
    const std::vector<float>& labels, float learning_rate,
    bool use_psfunc_dot = true);

/// Pulls the full embedding table (row-major num_vertices x dim).
Result<std::vector<float>> PullEmbeddings(PsGraphContext& ctx,
                                          const SkipGramModel& model,
                                          uint64_t num_vertices);

/// Drops the model's matrices.
Status DropSkipGramModel(PsGraphContext& ctx, const std::string& name,
                         bool order1);

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_SKIPGRAM_H_
