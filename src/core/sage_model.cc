#include "core/sage_model.h"

#include <span>
#include <string>
#include <utility>

namespace psgraph::core {

namespace {

/// Aggregates neighbor rows: plain mean, or max over a learned
/// transformation (the pooling aggregator).
minitorch::Tensor Aggregate(
    const SageParams& params, const minitorch::Tensor& rows,
    const std::shared_ptr<const minitorch::Segments>& segs,
    const minitorch::Tensor& w_pool) {
  using namespace minitorch;  // NOLINT(build/namespaces)
  if (params.aggregator == SageAggregator::kMean) {
    return SegmentMean(rows, segs);
  }
  return SegmentMax(Relu(Matmul(rows, w_pool)), segs);
}

constexpr int64_t kAbsent = -1;

Status OutsideIdSpace(uint64_t id, size_t num_ids) {
  return Status::OutOfRange("sage sampler: id " + std::to_string(id) +
                            " outside [0, " + std::to_string(num_ids) + ")");
}

}  // namespace

SageSampler::SageSampler(uint64_t num_ids, int fanout1, int fanout2)
    : pos_(num_ids, kAbsent), fanout1_(fanout1), fanout2_(fanout2) {}

Status SageSampler::Sample(const std::vector<uint64_t>& batch_ids, Rng& rng,
                           const NeighborFetch& fetch, SageBatch* batch,
                           std::vector<uint64_t>* involved) {
  involved->clear();
  // Every position set below belongs to an id in *involved; clear them
  // on any return so the next batch starts from an all-absent array.
  struct ResetPositions {
    std::vector<int64_t>& pos;
    const std::vector<uint64_t>& ids;
    ~ResetPositions() {
      for (uint64_t id : ids) pos[id] = kAbsent;
    }
  } reset{pos_, *involved};
  // Position of `id` in *involved, appending it when absent; kAbsent
  // when `id` lies outside the id space.
  auto position_of = [&](uint64_t id) -> int64_t {
    if (id >= pos_.size()) return kAbsent;
    int64_t& pos = pos_[id];
    if (pos == kAbsent) {
      pos = static_cast<int64_t>(involved->size());
      involved->push_back(id);
    }
    return pos;
  };

  const size_t num_batch = batch_ids.size();
  for (size_t i = 0; i < num_batch; ++i) {
    const int64_t pos = position_of(batch_ids[i]);
    if (pos == kAbsent) return OutsideIdSpace(batch_ids[i], pos_.size());
    if (pos != static_cast<int64_t>(i)) {
      return Status::InvalidArgument("sage sampler: batch repeats id " +
                                     std::to_string(batch_ids[i]));
    }
  }
  auto draw = [&](std::span<const uint64_t> nbrs, int fanout,
                  minitorch::Segments* seg) -> Status {
    if (!nbrs.empty()) {
      for (int k = 0; k < fanout; ++k) {
        const uint64_t u = nbrs[rng.NextBounded(nbrs.size())];
        const int64_t pos = position_of(u);
        if (pos == kAbsent) return OutsideIdSpace(u, pos_.size());
        seg->indices.push_back(pos);
      }
    }
    seg->EndSegment();
    return Status::OK();
  };
  auto check_size = [](const ps::NeighborBlock& block, size_t keys) {
    return block.size() == keys
               ? Status::OK()
               : Status::Internal("sage sampler: adjacency for " +
                                  std::to_string(block.size()) +
                                  " keys, asked for " +
                                  std::to_string(keys));
  };

  // Hop 1: batch vertices sample their layer-1 neighbors. Layer-1 nodes
  // are an involved prefix, so a sample's involved position is also its
  // nodes1 position.
  PSG_ASSIGN_OR_RETURN(ps::NeighborBlock batch_adj, fetch(batch_ids));
  PSG_RETURN_NOT_OK(check_size(batch_adj, num_batch));
  auto seg2 = std::make_shared<minitorch::Segments>();
  seg2->offsets.reserve(num_batch + 1);
  for (size_t i = 0; i < num_batch; ++i) {
    PSG_RETURN_NOT_OK(draw(batch_adj.neighbors(i), fanout1_, seg2.get()));
  }

  // Hop 2: every layer-1 node samples its neighbors; the non-batch ones
  // need their adjacency first.
  const size_t num_nodes1 = involved->size();
  const std::vector<uint64_t> extra(involved->begin() + num_batch,
                                    involved->end());
  PSG_ASSIGN_OR_RETURN(ps::NeighborBlock extra_adj, fetch(extra));
  PSG_RETURN_NOT_OK(check_size(extra_adj, extra.size()));
  auto seg1 = std::make_shared<minitorch::Segments>();
  seg1->offsets.reserve(num_nodes1 + 1);
  for (size_t i = 0; i < num_nodes1; ++i) {
    PSG_RETURN_NOT_OK(draw(i < num_batch ? batch_adj.neighbors(i)
                                         : extra_adj.neighbors(i - num_batch),
                           fanout2_, seg1.get()));
  }

  batch->batch_size = static_cast<int64_t>(num_batch);
  batch->nodes1.resize(num_nodes1);
  for (size_t i = 0; i < num_nodes1; ++i) {
    batch->nodes1[i] = static_cast<int64_t>(i);  // prefix of involved
  }
  batch->seg1 = std::move(seg1);
  batch->seg2 = std::move(seg2);
  return Status::OK();
}

minitorch::Tensor SageForward(const SageParams& params,
                              const SageBatch& batch) {
  using namespace minitorch;  // NOLINT(build/namespaces)
  // Layer 1 over batch + sampled 1-hop nodes.
  Tensor self1 = GatherRows(batch.features, batch.nodes1);
  Tensor agg1 =
      Aggregate(params, batch.features, batch.seg1, params.w_pool1);
  Tensor h1 = Relu(Matmul(ConcatCols(self1, agg1), params.w1));

  // Layer 2 over the batch prefix.
  std::vector<int64_t> batch_rows(batch.batch_size);
  for (int64_t i = 0; i < batch.batch_size; ++i) batch_rows[i] = i;
  Tensor self2 = GatherRows(h1, batch_rows);
  Tensor agg2 = Aggregate(params, h1, batch.seg2, params.w_pool2);
  return Matmul(ConcatCols(self2, agg2), params.w2);
}

uint64_t SageForwardOps(const SageParams& params, const SageBatch& batch) {
  uint64_t n1 = batch.nodes1.size();
  uint64_t gathered = batch.seg1->indices.size();
  uint64_t ops = gathered * batch.features.cols();  // aggregation
  ops += n1 * params.w1.rows() * params.w1.cols();  // layer-1 matmul
  ops += static_cast<uint64_t>(batch.batch_size) * params.w2.rows() *
         params.w2.cols();
  if (params.aggregator == SageAggregator::kMaxPool) {
    // Pool transformations over every gathered/hidden row.
    ops += static_cast<uint64_t>(batch.features.rows()) *
           params.w_pool1.rows() * params.w_pool1.cols();
    ops += n1 * params.w_pool2.rows() * params.w_pool2.cols();
  }
  return ops;
}

}  // namespace psgraph::core
