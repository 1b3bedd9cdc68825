// The GraphSage model math (Hamilton et al. 2017), shared by the PSGraph
// implementation (src/core/graphsage.cc) and the Euler baseline
// (src/euler) so Table I compares systems, not model variants.
//
// Two layers with mean aggregation:
//   h1_u = relu(concat(x_u, mean_{w in S(u)} x_w) W1)
//   logits_v = concat(h1_v, mean_{u in S1(v)} h1_u) W2
// Both h1 inputs and the final logits use the sampled fixed-size
// neighborhoods; training is supervised softmax cross-entropy.
//
// SageSampler draws those neighborhoods for one mini-batch. It indexes
// vertices through a dense position array over the id space, kept
// across batches, and a batch's segments are CSR (minitorch::Segments):
// the step moves and indexes its data flat, with no per-vertex
// container.

#ifndef PSGRAPH_CORE_SAGE_MODEL_H_
#define PSGRAPH_CORE_SAGE_MODEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "minitorch/ops.h"
#include "minitorch/tensor.h"
#include "ps/agent.h"

namespace psgraph::core {

/// Neighborhood aggregator architecture (paper §IV-E step 3 lists mean,
/// LSTM and pooling aggregators; mean and max-pooling are implemented).
enum class SageAggregator {
  kMean,
  kMaxPool,  ///< max over relu(x W_pool) of the sampled neighbors
};

struct SageParams {
  minitorch::Tensor w1;  ///< (2*in_dim) x hidden
  minitorch::Tensor w2;  ///< (2*hidden) x classes
  SageAggregator aggregator = SageAggregator::kMean;
  minitorch::Tensor w_pool1;  ///< in_dim x in_dim (max-pool only)
  minitorch::Tensor w_pool2;  ///< hidden x hidden (max-pool only)
};

/// One mini-batch, expressed as row indices into a feature tensor.
struct SageBatch {
  /// Features of every vertex involved (batch + sampled 1-hop + 2-hop),
  /// deduplicated; rows indexed by the fields below. No gradient.
  minitorch::Tensor features;
  /// Rows (into features) of the layer-1 nodes (batch vertices first,
  /// then sampled 1-hop neighbors).
  std::vector<int64_t> nodes1;
  /// Segment per layer-1 node: rows (into features) of its sampled
  /// neighbors.
  std::shared_ptr<const minitorch::Segments> seg1;
  /// Segment per batch vertex: indices (into nodes1 order) of its
  /// sampled 1-hop neighbors.
  std::shared_ptr<const minitorch::Segments> seg2;
  /// Number of batch vertices (a prefix of nodes1).
  int64_t batch_size = 0;
  /// Labels of the batch vertices (empty for inference).
  std::vector<int32_t> labels;
};

/// Adjacency source of SageSampler: the neighbor lists of `keys`, in key
/// order (GraphSage pulls them from the PS in one call, the Euler
/// baseline in chunks of its fetch granularity).
using NeighborFetch = std::function<Result<ps::NeighborBlock>(
    const std::vector<uint64_t>& keys)>;

/// GraphSage's two-hop neighborhood sampler (paper Fig. 5), shared by
/// core::GraphSage and the Euler baseline.
///
/// For a batch B it fetches B's adjacency and draws fanout1 neighbors
/// per batch vertex, so nodes1 is B then each newly seen sample. It then
/// fetches the adjacency of nodes1 minus B and draws fanout2 neighbors
/// per nodes1 vertex, so the involved ids are nodes1 then each newly
/// seen two-hop sample. A vertex without neighbors draws nothing, and
/// both fetches happen even when their key list is empty.
///
/// A vertex's position in the batch lives in a dense array indexed by
/// id, allocated once and kept across batches; every call, failed ones
/// included, resets the entries it set.
class SageSampler {
 public:
  /// Ids must lie in [0, num_ids).
  SageSampler(uint64_t num_ids, int fanout1, int fanout2);

  /// Samples the neighborhood of `batch_ids` (distinct) with draws from
  /// `rng`. Fills `batch`'s batch_size, nodes1, seg1 and seg2, and sets
  /// `*involved` to the ids whose feature rows `batch->features` must
  /// hold, in row order.
  Status Sample(const std::vector<uint64_t>& batch_ids, Rng& rng,
                const NeighborFetch& fetch, SageBatch* batch,
                std::vector<uint64_t>* involved);

 private:
  std::vector<int64_t> pos_;  ///< id -> position in involved, or -1
  int fanout1_;
  int fanout2_;
};

/// Forward pass producing batch logits.
minitorch::Tensor SageForward(const SageParams& params,
                              const SageBatch& batch);

/// Approximate flop count of one forward pass (3x for backward); used to
/// charge simulated compute time.
uint64_t SageForwardOps(const SageParams& params, const SageBatch& batch);

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_SAGE_MODEL_H_
