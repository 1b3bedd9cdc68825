#include "minitorch/tensor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace psgraph::minitorch {

Tensor Tensor::Zeros(int64_t rows, int64_t cols, bool requires_grad) {
  return Full(rows, cols, 0.0f, requires_grad);
}

Tensor Tensor::Full(int64_t rows, int64_t cols, float value,
                    bool requires_grad) {
  Tensor t;
  t.impl_->rows = rows;
  t.impl_->cols = cols;
  t.impl_->data.assign(rows * cols, value);
  t.impl_->requires_grad = requires_grad;
  return t;
}

Tensor Tensor::Randn(int64_t rows, int64_t cols, Rng& rng,
                     bool requires_grad) {
  Tensor t = Zeros(rows, cols, requires_grad);
  const float scale =
      std::sqrt(2.0f / static_cast<float>(rows + cols));
  for (auto& v : t.impl_->data) {
    v = static_cast<float>(rng.NextGaussian()) * scale;
  }
  return t;
}

Tensor Tensor::FromData(int64_t rows, int64_t cols,
                        std::vector<float> data, bool requires_grad) {
  assert(static_cast<int64_t>(data.size()) == rows * cols);
  Tensor t;
  t.impl_->rows = rows;
  t.impl_->cols = cols;
  t.impl_->data = std::move(data);
  t.impl_->requires_grad = requires_grad;
  return t;
}

namespace {

/// Post-order DFS over the tape (children before parents in `order`).
void Topo(detail::TensorImpl* node,
          std::unordered_set<detail::TensorImpl*>& visited,
          std::vector<detail::TensorImpl*>& order) {
  if (visited.count(node) > 0) return;
  visited.insert(node);
  if (node->grad_fn) {
    for (const Tensor& in : node->grad_fn->inputs) {
      Topo(in.impl(), visited, order);
    }
  }
  order.push_back(node);
}

}  // namespace

void Tensor::Backward() {
  assert(size() == 1 && "Backward() requires a scalar loss");
  std::unordered_set<detail::TensorImpl*> visited;
  std::vector<detail::TensorImpl*> order;
  Topo(impl_.get(), visited, order);

  impl_->EnsureGrad();
  impl_->grad[0] = 1.0f;
  // Reverse topological order: each node pushes its gradient to inputs.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    detail::TensorImpl* node = *it;
    if (node->grad_fn && !node->grad.empty()) {
      node->grad_fn->Backward(*node);
    }
  }
}

}  // namespace psgraph::minitorch
