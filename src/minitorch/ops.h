// Differentiable operations. Each builds the output tensor eagerly and
// records an OpNode so Tensor::Backward() can run the tape in reverse.
//
// Backward computes only the gradients it keeps: an op skips the
// gradient of an input that is off the grad path (no requires_grad and
// no tape node), and such an input never gets a grad buffer. Each op
// adds its contribution straight into an input's grad buffer when no
// other op has written it yet, and through a zeroed temporary that is
// then added when one has. Either way each element sums exactly as a
// zeroed per-op temporary added into a zeroed buffer would, so a tensor
// read by several ops sums each op's contribution as one term.
//
// Matmul's forward pass, dA and dB run one register-tiled kernel. It
// keeps the plain triple loop's zero skip and each element's summation
// order, so its results are those of the plain loop, bit for bit.

#ifndef PSGRAPH_MINITORCH_OPS_H_
#define PSGRAPH_MINITORCH_OPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "minitorch/tensor.h"

namespace psgraph::minitorch {

/// C = A (n x k) * B (k x m).
Tensor Matmul(const Tensor& a, const Tensor& b);

/// Elementwise sum; shapes must match.
Tensor Add(const Tensor& a, const Tensor& b);

/// Adds a 1 x m bias row to every row of a (n x m).
Tensor AddBias(const Tensor& a, const Tensor& bias);

/// Elementwise max(0, x).
Tensor Relu(const Tensor& a);

/// Elementwise logistic sigmoid.
Tensor Sigmoid(const Tensor& a);

/// Column-wise concatenation: [A | B].
Tensor ConcatCols(const Tensor& a, const Tensor& b);

/// Picks rows: out.row(i) = a.row(indices[i]).
Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices);

/// Row segments in CSR layout: segment i holds the rows
/// indices[offsets[i]] .. indices[offsets[i + 1] - 1]. A batch's
/// neighbor lists are two flat arrays, not one vector per vertex.
struct Segments {
  std::vector<int64_t> offsets = {0};  ///< num_segments() + 1 entries
  std::vector<int64_t> indices;

  int64_t num_segments() const {
    return static_cast<int64_t>(offsets.size()) - 1;
  }
  /// Closes the current segment: the indices added since the last call
  /// form the next one.
  void EndSegment() {
    offsets.push_back(static_cast<int64_t>(indices.size()));
  }
};

/// Neighbor aggregation: out.row(i) = mean over a.row(j), j in segment
/// i; zero row for an empty segment. This is GraphSage's mean
/// aggregator. The tape shares `segments`; it never copies them.
Tensor SegmentMean(const Tensor& a,
                   std::shared_ptr<const Segments> segments);

/// Element-wise max over each segment's rows (GraphSage's pooling
/// aggregator); zero row for an empty segment. Gradients flow to the
/// argmax element of each (segment, column).
Tensor SegmentMax(const Tensor& a,
                  std::shared_ptr<const Segments> segments);

/// L2-normalizes every row (GraphSage's embedding normalization). Rows
/// with zero norm pass through.
Tensor RowL2Normalize(const Tensor& a);

/// Mean softmax cross-entropy over rows of `logits` (n x classes) against
/// integer `labels` (size n). Returns a 1x1 loss tensor.
Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int32_t>& labels);

/// Row-wise argmax (predictions). Not differentiable.
std::vector<int32_t> ArgmaxRows(const Tensor& logits);

/// Fraction of rows where argmax == label.
double Accuracy(const Tensor& logits, const std::vector<int32_t>& labels);

}  // namespace psgraph::minitorch

#endif  // PSGRAPH_MINITORCH_OPS_H_
