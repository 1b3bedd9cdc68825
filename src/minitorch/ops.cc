#include "minitorch/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace psgraph::minitorch {

namespace {

using detail::OpNode;
using detail::TensorImpl;

/// Creates the output tensor and wires the tape node if any input needs
/// gradients.
template <typename NodeT, typename... Extra>
Tensor MakeOutput(int64_t rows, int64_t cols,
                  std::vector<Tensor> inputs, const char* name,
                  Extra&&... extra) {
  Tensor out = Tensor::Zeros(rows, cols);
  bool needs = false;
  for (const Tensor& t : inputs) needs |= t.requires_grad();
  if (needs) {
    auto node = std::make_shared<NodeT>(std::forward<Extra>(extra)...);
    node->inputs = std::move(inputs);
    node->name = name;
    out.impl()->grad_fn = node;
    out.impl()->requires_grad = true;
  }
  return out;
}

/// True when gradients flow into `t`: a leaf that asked for them, or an
/// op output on the tape.
bool OnGradPath(const Tensor& t) {
  return t.requires_grad() || t.impl()->grad_fn != nullptr;
}

/// Adds one op's gradient contribution to `t`'s grad buffer.
/// `add(float* dst)` must only `+=` into dst (never `=`), so a -0.0
/// term rounds to +0.0 as it does when added into zeros. The first
/// writer of a fresh buffer adds in place: a sum that starts at +0.0 is
/// never -0.0, so 0 + sum is the sum, bit for bit. A later writer
/// fills a zeroed temporary that is then added, so its contribution
/// joins the buffer as one term.
template <typename AddFn>
void AccumulateGrad(const Tensor& t, AddFn&& add) {
  if (!OnGradPath(t)) return;
  TensorImpl* impl = t.impl();
  if (impl->grad.empty()) {
    impl->grad.assign(impl->data.size(), 0.0f);
    add(impl->grad.data());
    return;
  }
  std::vector<float> delta(impl->data.size(), 0.0f);
  add(delta.data());
  for (size_t i = 0; i < delta.size(); ++i) impl->grad[i] += delta[i];
}

/// Adds `g` element-wise into `t`'s gradient.
void AccumulateGradOf(const Tensor& t, const std::vector<float>& g) {
  AccumulateGrad(t, [&](float* dst) {
    for (size_t i = 0; i < g.size(); ++i) dst[i] += g[i];
  });
}

/// out (rows x m) += S * V, where S(r, p) = s[r * s_row + p * s_col] and
/// V is p_count x m: out[r][c] += S(r, p) * V[p][c] for p in ascending
/// order, skipping every p with S(r, p) == 0. C = A B, dA = dC Bᵀ (over a
/// transposed B) and dB = Aᵀ dC are all this loop, so each element sums
/// its terms in the order of the plain triple loop. A tile of kTile
/// output columns stays in registers across p; `out` must not overlap
/// `s` or `v`.
void AddProducts(float* __restrict out, int64_t rows, int64_t m,
                 const float* __restrict s, int64_t s_row, int64_t s_col,
                 int64_t p_count, const float* __restrict v) {
  constexpr int64_t kTile = 32;
  for (int64_t r = 0; r < rows; ++r) {
    float* orow = out + r * m;
    const float* srow = s + r * s_row;
    int64_t c0 = 0;
    for (; c0 + kTile <= m; c0 += kTile) {
      float acc[kTile];
      for (int64_t c = 0; c < kTile; ++c) acc[c] = orow[c0 + c];
      for (int64_t p = 0; p < p_count; ++p) {
        const float sv = srow[p * s_col];
        if (sv == 0.0f) continue;
        const float* vrow = v + p * m + c0;
        for (int64_t c = 0; c < kTile; ++c) acc[c] += sv * vrow[c];
      }
      for (int64_t c = 0; c < kTile; ++c) orow[c0 + c] = acc[c];
    }
    if (c0 == m) continue;
    for (int64_t p = 0; p < p_count; ++p) {
      const float sv = srow[p * s_col];
      if (sv == 0.0f) continue;
      const float* vrow = v + p * m;
      for (int64_t c = c0; c < m; ++c) orow[c] += sv * vrow[c];
    }
  }
}

struct MatmulNode : OpNode {
  void Backward(const TensorImpl& out) override {
    const Tensor& a = inputs[0];
    const Tensor& b = inputs[1];
    const int64_t n = a.rows(), k = a.cols(), m = b.cols();
    const float* dc = out.grad.data();
    if (OnGradPath(a)) {
      // dA = dC * B^T over bt, whose row j is column j of B.
      const float* bd = b.data().data();
      std::vector<float> bt(static_cast<size_t>(k * m));
      for (int64_t x = 0; x < k; ++x) {
        for (int64_t j = 0; j < m; ++j) bt[j * k + x] = bd[x * m + j];
      }
      AccumulateGrad(a, [&](float* da) {
        AddProducts(da, n, k, dc, m, 1, m, bt.data());
      });
    }
    if (OnGradPath(b)) {
      // dB = A^T * dC: row x of dB sums A[i][x] * dC row i over i.
      AccumulateGrad(b, [&](float* db) {
        AddProducts(db, k, m, a.data().data(), 1, k, n, dc);
      });
    }
  }
};

struct AddNode : OpNode {
  void Backward(const TensorImpl& out) override {
    AccumulateGradOf(inputs[0], out.grad);
    AccumulateGradOf(inputs[1], out.grad);
  }
};

struct AddBiasNode : OpNode {
  void Backward(const TensorImpl& out) override {
    AccumulateGradOf(inputs[0], out.grad);
    const int64_t m = inputs[1].cols();
    AccumulateGrad(inputs[1], [&](float* db) {
      for (int64_t i = 0; i < out.rows; ++i) {
        for (int64_t j = 0; j < m; ++j) db[j] += out.grad[i * m + j];
      }
    });
  }
};

struct ReluNode : OpNode {
  void Backward(const TensorImpl& out) override {
    AccumulateGrad(inputs[0], [&](float* da) {
      for (size_t i = 0; i < out.data.size(); ++i) {
        const float g = out.grad[i];  // loaded either way: no branch
        da[i] += out.data[i] > 0.0f ? g : 0.0f;
      }
    });
  }
};

struct SigmoidNode : OpNode {
  void Backward(const TensorImpl& out) override {
    AccumulateGrad(inputs[0], [&](float* da) {
      for (size_t i = 0; i < out.data.size(); ++i) {
        da[i] += out.grad[i] * out.data[i] * (1.0f - out.data[i]);
      }
    });
  }
};

struct ConcatColsNode : OpNode {
  void Backward(const TensorImpl& out) override {
    const int64_t ca = inputs[0].cols(), cb = inputs[1].cols(), c = ca + cb;
    AccumulateGrad(inputs[0], [&](float* da) {
      for (int64_t i = 0; i < out.rows; ++i) {
        for (int64_t j = 0; j < ca; ++j) da[i * ca + j] += out.grad[i * c + j];
      }
    });
    AccumulateGrad(inputs[1], [&](float* db) {
      for (int64_t i = 0; i < out.rows; ++i) {
        for (int64_t j = 0; j < cb; ++j) {
          db[i * cb + j] += out.grad[i * c + ca + j];
        }
      }
    });
  }
};

struct GatherRowsNode : OpNode {
  std::vector<int64_t> indices;
  explicit GatherRowsNode(std::vector<int64_t> idx)
      : indices(std::move(idx)) {}
  void Backward(const TensorImpl& out) override {
    const int64_t m = inputs[0].cols();
    AccumulateGrad(inputs[0], [&](float* da) {
      for (size_t i = 0; i < indices.size(); ++i) {
        for (int64_t j = 0; j < m; ++j) {
          da[indices[i] * m + j] += out.grad[i * m + j];
        }
      }
    });
  }
};

struct SegmentMeanNode : OpNode {
  std::shared_ptr<const Segments> segments;
  explicit SegmentMeanNode(std::shared_ptr<const Segments> segs)
      : segments(std::move(segs)) {}
  void Backward(const TensorImpl& out) override {
    const int64_t m = inputs[0].cols();
    const std::vector<int64_t>& offsets = segments->offsets;
    const std::vector<int64_t>& indices = segments->indices;
    AccumulateGrad(inputs[0], [&](float* da) {
      for (int64_t i = 0; i < segments->num_segments(); ++i) {
        const int64_t begin = offsets[i], end = offsets[i + 1];
        if (begin == end) continue;
        const float inv = 1.0f / static_cast<float>(end - begin);
        for (int64_t s = begin; s < end; ++s) {
          float* darow = da + indices[s] * m;
          for (int64_t c = 0; c < m; ++c) {
            darow[c] += out.grad[i * m + c] * inv;
          }
        }
      }
    });
  }
};

struct SegmentMaxNode : OpNode {
  std::vector<int64_t> argmax;  ///< per (segment, col): winning input row
  int64_t cols = 0;
  SegmentMaxNode(std::vector<int64_t> am, int64_t c)
      : argmax(std::move(am)), cols(c) {}
  void Backward(const TensorImpl& out) override {
    AccumulateGrad(inputs[0], [&](float* da) {
      for (int64_t i = 0; i < out.rows; ++i) {
        for (int64_t c = 0; c < cols; ++c) {
          int64_t j = argmax[i * cols + c];
          if (j >= 0) da[j * cols + c] += out.grad[i * cols + c];
        }
      }
    });
  }
};

struct RowL2NormalizeNode : OpNode {
  std::vector<float> norms;  ///< forward-pass row norms
  explicit RowL2NormalizeNode(std::vector<float> n)
      : norms(std::move(n)) {}
  void Backward(const TensorImpl& out) override {
    const int64_t m = inputs[0].cols();
    AccumulateGrad(inputs[0], [&](float* da) {
      for (int64_t i = 0; i < out.rows; ++i) {
        float n = norms[i];
        if (n == 0.0f) {
          for (int64_t j = 0; j < m; ++j) da[i * m + j] += out.grad[i * m + j];
          continue;
        }
        // d(x/||x||)/dx = (I - y y^T) / ||x||, with y = x/||x||.
        float dot = 0.0f;
        for (int64_t j = 0; j < m; ++j) {
          dot += out.grad[i * m + j] * out.data[i * m + j];
        }
        for (int64_t j = 0; j < m; ++j) {
          da[i * m + j] +=
              (out.grad[i * m + j] - dot * out.data[i * m + j]) / n;
        }
      }
    });
  }
};

struct SoftmaxCrossEntropyNode : OpNode {
  std::vector<float> probs;  ///< forward softmax, n x classes
  std::vector<int32_t> labels;
  int64_t classes = 0;
  SoftmaxCrossEntropyNode(std::vector<float> p, std::vector<int32_t> l,
                          int64_t c)
      : probs(std::move(p)), labels(std::move(l)), classes(c) {}
  void Backward(const TensorImpl& out) override {
    const float g = out.grad[0] / static_cast<float>(labels.size());
    AccumulateGrad(inputs[0], [&](float* da) {
      for (size_t i = 0; i < labels.size(); ++i) {
        for (int64_t j = 0; j < classes; ++j) {
          float p = probs[i * classes + j];
          da[i * classes + j] += g * (p - (j == labels[i] ? 1.0f : 0.0f));
        }
      }
    });
  }
};

}  // namespace

Tensor Matmul(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows());
  const int64_t n = a.rows(), k = a.cols(), m = b.cols();
  Tensor out = MakeOutput<MatmulNode>(n, m, {a, b}, "matmul");
  AddProducts(out.mutable_data().data(), n, m, a.data().data(), k, 1, k,
              b.data().data());
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  Tensor out = MakeOutput<AddNode>(a.rows(), a.cols(), {a, b}, "add");
  for (int64_t i = 0; i < a.size(); ++i) {
    out.mutable_data()[i] = a.data()[i] + b.data()[i];
  }
  return out;
}

Tensor AddBias(const Tensor& a, const Tensor& bias) {
  assert(bias.rows() == 1 && bias.cols() == a.cols());
  Tensor out =
      MakeOutput<AddBiasNode>(a.rows(), a.cols(), {a, bias}, "add_bias");
  const int64_t m = a.cols();
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < m; ++j) {
      out.mutable_data()[i * m + j] = a.data()[i * m + j] + bias.data()[j];
    }
  }
  return out;
}

Tensor Relu(const Tensor& a) {
  Tensor out = MakeOutput<ReluNode>(a.rows(), a.cols(), {a}, "relu");
  for (int64_t i = 0; i < a.size(); ++i) {
    out.mutable_data()[i] = std::max(0.0f, a.data()[i]);
  }
  return out;
}

Tensor Sigmoid(const Tensor& a) {
  Tensor out = MakeOutput<SigmoidNode>(a.rows(), a.cols(), {a}, "sigmoid");
  for (int64_t i = 0; i < a.size(); ++i) {
    out.mutable_data()[i] = 1.0f / (1.0f + std::exp(-a.data()[i]));
  }
  return out;
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  assert(a.rows() == b.rows());
  const int64_t ca = a.cols(), cb = b.cols(), c = ca + cb;
  Tensor out =
      MakeOutput<ConcatColsNode>(a.rows(), c, {a, b}, "concat_cols");
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < ca; ++j) {
      out.mutable_data()[i * c + j] = a.data()[i * ca + j];
    }
    for (int64_t j = 0; j < cb; ++j) {
      out.mutable_data()[i * c + ca + j] = b.data()[i * cb + j];
    }
  }
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int64_t>& indices) {
  const int64_t m = a.cols();
  Tensor out = MakeOutput<GatherRowsNode>(
      static_cast<int64_t>(indices.size()), m, {a}, "gather_rows",
      indices);
  for (size_t i = 0; i < indices.size(); ++i) {
    assert(indices[i] >= 0 && indices[i] < a.rows());
    std::copy(a.data().begin() + indices[i] * m,
              a.data().begin() + (indices[i] + 1) * m,
              out.mutable_data().begin() + i * m);
  }
  return out;
}

Tensor SegmentMean(const Tensor& a,
                   std::shared_ptr<const Segments> segments) {
  const int64_t m = a.cols();
  const int64_t num = segments->num_segments();
  const std::vector<int64_t>& offsets = segments->offsets;
  const std::vector<int64_t>& indices = segments->indices;
  Tensor out = MakeOutput<SegmentMeanNode>(num, m, {a}, "segment_mean",
                                           segments);
  float* od = out.mutable_data().data();
  const float* ad = a.data().data();
  for (int64_t i = 0; i < num; ++i) {
    const int64_t begin = offsets[i], end = offsets[i + 1];
    if (begin == end) continue;
    const float inv = 1.0f / static_cast<float>(end - begin);
    for (int64_t s = begin; s < end; ++s) {
      const int64_t j = indices[s];
      assert(j >= 0 && j < a.rows());
      for (int64_t c = 0; c < m; ++c) od[i * m + c] += ad[j * m + c] * inv;
    }
  }
  return out;
}

Tensor SegmentMax(const Tensor& a,
                  std::shared_ptr<const Segments> segments) {
  const int64_t m = a.cols();
  const int64_t num = segments->num_segments();
  const std::vector<int64_t>& offsets = segments->offsets;
  const std::vector<int64_t>& indices = segments->indices;
  std::vector<int64_t> argmax(num * m, -1);
  Tensor out = MakeOutput<SegmentMaxNode>(num, m, {a}, "segment_max",
                                          argmax, m);
  auto* node = dynamic_cast<SegmentMaxNode*>(out.impl()->grad_fn.get());
  for (int64_t i = 0; i < num; ++i) {
    for (int64_t s = offsets[i]; s < offsets[i + 1]; ++s) {
      const int64_t j = indices[s];
      assert(j >= 0 && j < a.rows());
      const bool first = s == offsets[i];
      for (int64_t c = 0; c < m; ++c) {
        float v = a.data()[j * m + c];
        float& cur = out.mutable_data()[i * m + c];
        if (first || v > cur) {
          cur = v;
          if (node != nullptr) node->argmax[i * m + c] = j;
        }
      }
    }
  }
  return out;
}

Tensor RowL2Normalize(const Tensor& a) {
  const int64_t m = a.cols();
  std::vector<float> norms(a.rows(), 0.0f);
  for (int64_t i = 0; i < a.rows(); ++i) {
    float s = 0.0f;
    for (int64_t j = 0; j < m; ++j) {
      s += a.data()[i * m + j] * a.data()[i * m + j];
    }
    norms[i] = std::sqrt(s);
  }
  Tensor out = MakeOutput<RowL2NormalizeNode>(a.rows(), m, {a},
                                              "row_l2_normalize", norms);
  for (int64_t i = 0; i < a.rows(); ++i) {
    float inv = norms[i] == 0.0f ? 1.0f : 1.0f / norms[i];
    for (int64_t j = 0; j < m; ++j) {
      out.mutable_data()[i * m + j] = a.data()[i * m + j] * inv;
    }
  }
  return out;
}

Tensor SoftmaxCrossEntropy(const Tensor& logits,
                           const std::vector<int32_t>& labels) {
  assert(static_cast<int64_t>(labels.size()) == logits.rows());
  const int64_t n = logits.rows(), c = logits.cols();
  std::vector<float> probs(n * c);
  double loss = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    float maxv = logits.data()[i * c];
    for (int64_t j = 1; j < c; ++j) {
      maxv = std::max(maxv, logits.data()[i * c + j]);
    }
    double z = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      probs[i * c + j] = std::exp(logits.data()[i * c + j] - maxv);
      z += probs[i * c + j];
    }
    for (int64_t j = 0; j < c; ++j) {
      probs[i * c + j] = static_cast<float>(probs[i * c + j] / z);
    }
    loss -= std::log(std::max(1e-12f, probs[i * c + labels[i]]));
  }
  Tensor out = MakeOutput<SoftmaxCrossEntropyNode>(
      1, 1, {logits}, "softmax_ce", probs, labels, c);
  out.mutable_data()[0] = static_cast<float>(loss / n);
  return out;
}

std::vector<int32_t> ArgmaxRows(const Tensor& logits) {
  std::vector<int32_t> preds(logits.rows());
  const int64_t c = logits.cols();
  for (int64_t i = 0; i < logits.rows(); ++i) {
    int32_t best = 0;
    for (int64_t j = 1; j < c; ++j) {
      if (logits.data()[i * c + j] > logits.data()[i * c + best]) {
        best = static_cast<int32_t>(j);
      }
    }
    preds[i] = best;
  }
  return preds;
}

double Accuracy(const Tensor& logits, const std::vector<int32_t>& labels) {
  auto preds = ArgmaxRows(logits);
  size_t hits = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (preds[i] == labels[i]) ++hits;
  }
  return labels.empty() ? 0.0
                        : static_cast<double>(hits) / labels.size();
}

}  // namespace psgraph::minitorch
