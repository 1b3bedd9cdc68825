// minitorch: a small dense 2-D tensor library with reverse-mode autograd.
//
// Plays the role PyTorch's C++ runtime plays in the paper (§III-C "C++
// runtime"): GraphSage's forward/backward runs here while the dataflow
// layer moves graph data and the PS holds the model. Only the ops
// GraphSage needs are implemented: matmul, bias add, relu, sigmoid,
// row-gather, segment-mean (neighbor aggregation), column concat, and
// softmax cross-entropy.

#ifndef PSGRAPH_MINITORCH_TENSOR_H_
#define PSGRAPH_MINITORCH_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"

namespace psgraph::minitorch {

class Tensor;

namespace detail {

/// A node of the autograd tape: remembers the op's inputs and how to
/// push the output gradient back to them.
struct OpNode {
  virtual ~OpNode() = default;
  virtual void Backward(const struct TensorImpl& out) = 0;
  std::vector<Tensor> inputs;
  const char* name = "op";
};

struct TensorImpl {
  int64_t rows = 0;
  int64_t cols = 0;
  std::vector<float> data;
  std::vector<float> grad;  ///< allocated on demand
  bool requires_grad = false;
  std::shared_ptr<OpNode> grad_fn;

  int64_t size() const { return rows * cols; }
  void EnsureGrad() {
    if (grad.empty()) grad.assign(data.size(), 0.0f);
  }
};

}  // namespace detail

/// Value-semantics handle to a shared tensor (copying shares storage,
/// like torch::Tensor).
class Tensor {
 public:
  Tensor() : impl_(std::make_shared<detail::TensorImpl>()) {}

  static Tensor Zeros(int64_t rows, int64_t cols,
                      bool requires_grad = false);
  static Tensor Full(int64_t rows, int64_t cols, float value,
                     bool requires_grad = false);
  /// Xavier/Glorot-scaled Gaussian init.
  static Tensor Randn(int64_t rows, int64_t cols, Rng& rng,
                      bool requires_grad = false);
  static Tensor FromData(int64_t rows, int64_t cols,
                         std::vector<float> data,
                         bool requires_grad = false);

  int64_t rows() const { return impl_->rows; }
  int64_t cols() const { return impl_->cols; }
  int64_t size() const { return impl_->size(); }
  bool requires_grad() const { return impl_->requires_grad; }

  float At(int64_t r, int64_t c) const {
    return impl_->data[r * impl_->cols + c];
  }
  const std::vector<float>& data() const { return impl_->data; }
  std::vector<float>& mutable_data() { return impl_->data; }
  const std::vector<float>& grad() const { return impl_->grad; }
  std::vector<float>& mutable_grad() {
    impl_->EnsureGrad();
    return impl_->grad;
  }
  void ZeroGrad() {
    std::fill(impl_->grad.begin(), impl_->grad.end(), 0.0f);
  }

  /// Runs reverse-mode autodiff from this tensor (must be 1x1). Gradients
  /// accumulate into every reachable tensor with requires_grad.
  void Backward();

  detail::TensorImpl* impl() const { return impl_.get(); }
  std::shared_ptr<detail::TensorImpl> shared_impl() const { return impl_; }

 private:
  std::shared_ptr<detail::TensorImpl> impl_;
};

}  // namespace psgraph::minitorch

#endif  // PSGRAPH_MINITORCH_TENSOR_H_
