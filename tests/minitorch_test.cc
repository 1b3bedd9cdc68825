// Tests for the minitorch tensor/autograd engine: forward correctness and
// numerical gradient checks for every op, the backward pass bit for bit
// against plain per-op loops, plus optimizer behaviour.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/random.h"
#include "minitorch/nn.h"
#include "minitorch/ops.h"
#include "minitorch/tensor.h"

namespace psgraph::minitorch {
namespace {

/// CSR segments from one index list per segment.
std::shared_ptr<const Segments> Segs(
    std::initializer_list<std::vector<int64_t>> lists) {
  auto segs = std::make_shared<Segments>();
  for (const std::vector<int64_t>& list : lists) {
    segs->indices.insert(segs->indices.end(), list.begin(), list.end());
    segs->EndSegment();
  }
  return segs;
}

/// Central-difference gradient check: perturbs each element of `param`
/// and compares the numerical gradient of `loss_fn` with autograd's.
void CheckGradient(Tensor& param,
                   const std::function<Tensor()>& loss_fn,
                   double tol = 2e-2) {
  param.mutable_grad();  // allocate
  param.ZeroGrad();      // drop residue from earlier checks
  Tensor loss = loss_fn();
  loss.Backward();
  std::vector<float> analytic = param.grad();
  ASSERT_EQ(analytic.size(), static_cast<size_t>(param.size()));
  const float eps = 1e-3f;
  for (int64_t i = 0; i < param.size(); ++i) {
    float saved = param.mutable_data()[i];
    param.mutable_data()[i] = saved + eps;
    double up = loss_fn().data()[0];
    param.mutable_data()[i] = saved - eps;
    double down = loss_fn().data()[0];
    param.mutable_data()[i] = saved;
    double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric, tol)
        << "param element " << i;
  }
}

TEST(TensorTest, Factories) {
  Tensor z = Tensor::Zeros(2, 3);
  EXPECT_EQ(z.rows(), 2);
  EXPECT_EQ(z.cols(), 3);
  for (float v : z.data()) EXPECT_EQ(v, 0.0f);
  Tensor f = Tensor::Full(2, 2, 1.5f);
  EXPECT_EQ(f.At(1, 1), 1.5f);
  Tensor d = Tensor::FromData(1, 2, {3.0f, 4.0f});
  EXPECT_EQ(d.At(0, 1), 4.0f);
  Rng rng(1);
  Tensor r = Tensor::Randn(10, 10, rng);
  double sum = 0;
  for (float v : r.data()) sum += v;
  EXPECT_LT(std::fabs(sum / 100.0), 0.2);
}

TEST(OpsTest, MatmulForward) {
  Tensor a = Tensor::FromData(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromData(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c = Matmul(a, b);
  EXPECT_FLOAT_EQ(c.At(0, 0), 58);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154);
}

TEST(OpsTest, ReluSigmoidForward) {
  Tensor a = Tensor::FromData(1, 4, {-1, 0, 2, -3});
  Tensor r = Relu(a);
  EXPECT_FLOAT_EQ(r.At(0, 0), 0);
  EXPECT_FLOAT_EQ(r.At(0, 2), 2);
  Tensor s = Sigmoid(Tensor::FromData(1, 1, {0.0f}));
  EXPECT_FLOAT_EQ(s.At(0, 0), 0.5f);
}

TEST(OpsTest, ConcatGatherSegmentMeanForward) {
  Tensor a = Tensor::FromData(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromData(2, 1, {9, 8});
  Tensor c = ConcatCols(a, b);
  EXPECT_EQ(c.cols(), 3);
  EXPECT_FLOAT_EQ(c.At(1, 2), 8);

  Tensor g = GatherRows(a, {1, 0, 1});
  EXPECT_EQ(g.rows(), 3);
  EXPECT_FLOAT_EQ(g.At(0, 0), 3);
  EXPECT_FLOAT_EQ(g.At(1, 0), 1);

  Tensor m = SegmentMean(a, Segs({{0, 1}, {}, {1}}));
  EXPECT_FLOAT_EQ(m.At(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(m.At(1, 0), 0.0f);  // empty segment -> zeros
  EXPECT_FLOAT_EQ(m.At(2, 1), 4.0f);
}

TEST(OpsTest, RowL2NormalizeForward) {
  Tensor a = Tensor::FromData(2, 2, {3, 4, 0, 0});
  Tensor n = RowL2Normalize(a);
  EXPECT_FLOAT_EQ(n.At(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(n.At(0, 1), 0.8f);
  EXPECT_FLOAT_EQ(n.At(1, 0), 0.0f);
}

TEST(OpsTest, SoftmaxCrossEntropyForward) {
  // Uniform logits over 4 classes -> loss = log(4).
  Tensor logits = Tensor::Zeros(2, 4);
  Tensor loss = SoftmaxCrossEntropy(logits, {0, 3});
  EXPECT_NEAR(loss.data()[0], std::log(4.0), 1e-6);
}

TEST(OpsTest, ArgmaxAndAccuracy) {
  Tensor logits = Tensor::FromData(2, 3, {0, 5, 1, 9, 0, 0});
  auto preds = ArgmaxRows(logits);
  EXPECT_EQ(preds, (std::vector<int32_t>{1, 0}));
  EXPECT_DOUBLE_EQ(Accuracy(logits, {1, 2}), 0.5);
}

TEST(GradTest, MatmulGradient) {
  Rng rng(3);
  Tensor a = Tensor::Randn(3, 4, rng, true);
  Tensor b = Tensor::Randn(4, 2, rng, true);
  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(Matmul(a, b), {0, 1, 0});
  };
  CheckGradient(a, loss_fn);
  a.ZeroGrad();
  CheckGradient(b, loss_fn);
}

TEST(GradTest, ReluGradient) {
  Rng rng(4);
  Tensor a = Tensor::Randn(2, 5, rng, true);
  Tensor w = Tensor::Randn(5, 3, rng, false);
  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(Matmul(Relu(a), w), {0, 2});
  };
  CheckGradient(a, loss_fn);
}

TEST(GradTest, SigmoidGradient) {
  Rng rng(5);
  Tensor a = Tensor::Randn(2, 4, rng, true);
  Tensor w = Tensor::Randn(4, 2, rng, false);
  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(Matmul(Sigmoid(a), w), {1, 0});
  };
  CheckGradient(a, loss_fn);
}

TEST(GradTest, ConcatGradientFlowsToBothSides) {
  Rng rng(6);
  Tensor a = Tensor::Randn(2, 3, rng, true);
  Tensor b = Tensor::Randn(2, 2, rng, true);
  Tensor w = Tensor::Randn(5, 2, rng, false);
  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(Matmul(ConcatCols(a, b), w), {0, 1});
  };
  CheckGradient(a, loss_fn);
  a.ZeroGrad();
  CheckGradient(b, loss_fn);
}

TEST(GradTest, GatherAndSegmentMeanGradient) {
  Rng rng(7);
  Tensor x = Tensor::Randn(4, 3, rng, true);
  Tensor w = Tensor::Randn(6, 2, rng, false);
  auto loss_fn = [&] {
    Tensor self = GatherRows(x, {0, 2});
    Tensor agg = SegmentMean(x, Segs({{1, 3}, {0}}));
    return SoftmaxCrossEntropy(Matmul(ConcatCols(self, agg), w), {1, 0});
  };
  CheckGradient(x, loss_fn);
}

TEST(GradTest, AddBiasGradient) {
  Rng rng(8);
  Tensor x = Tensor::Randn(3, 4, rng, false);
  Tensor b = Tensor::Randn(1, 4, rng, true);
  Tensor w = Tensor::Randn(4, 2, rng, false);
  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(Matmul(AddBias(x, b), w), {0, 1, 1});
  };
  CheckGradient(b, loss_fn);
}

TEST(GradTest, RowL2NormalizeGradient) {
  Rng rng(9);
  Tensor x = Tensor::Randn(2, 4, rng, true);
  Tensor w = Tensor::Randn(4, 2, rng, false);
  auto loss_fn = [&] {
    return SoftmaxCrossEntropy(Matmul(RowL2Normalize(x), w), {1, 0});
  };
  CheckGradient(x, loss_fn, /*tol=*/5e-2);
}

TEST(GradTest, ReusedTensorAccumulatesGradients) {
  Rng rng(10);
  Tensor x = Tensor::Randn(2, 3, rng, true);
  Tensor w = Tensor::Randn(6, 2, rng, false);
  auto loss_fn = [&] {
    // x used twice: gradient must be the sum of both paths.
    return SoftmaxCrossEntropy(Matmul(ConcatCols(x, x), w), {0, 1});
  };
  CheckGradient(x, loss_fn);
}

// ---- The backward pass against the loops it replaced ----
//
// Every backward op used to fill a zeroed per-op temporary, dA of a
// matmul included even when its input kept no gradient, and add it into
// a zeroed grad buffer. The functions below are those loops, kept as the
// reference the pass must reproduce bit for bit.

/// Zeroed buffer on first use, then `+= delta`.
void RefAccumulate(std::vector<float>* grad,
                   const std::vector<float>& delta) {
  if (grad->empty()) grad->assign(delta.size(), 0.0f);
  for (size_t i = 0; i < delta.size(); ++i) (*grad)[i] += delta[i];
}

/// C = A (n x k) * B (k x m). dA walks column j of B at stride m and is
/// kept only when `ga` is non-null.
void RefMatmulBackward(const std::vector<float>& a,
                       const std::vector<float>& b,
                       const std::vector<float>& dc, int64_t n, int64_t k,
                       int64_t m, std::vector<float>* ga,
                       std::vector<float>* gb) {
  std::vector<float> da(n * k, 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < m; ++j) {
      float g = dc[i * m + j];
      if (g == 0.0f) continue;
      for (int64_t x = 0; x < k; ++x) da[i * k + x] += g * b[x * m + j];
    }
  }
  if (ga != nullptr) RefAccumulate(ga, da);
  std::vector<float> db(k * m, 0.0f);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t x = 0; x < k; ++x) {
      float av = a[i * k + x];
      if (av == 0.0f) continue;
      for (int64_t j = 0; j < m; ++j) db[x * m + j] += av * dc[i * m + j];
    }
  }
  RefAccumulate(gb, db);
}

std::vector<float> RefSoftmaxCrossEntropyBackward(
    const std::vector<float>& logits, const std::vector<int32_t>& labels,
    int64_t c) {
  const int64_t n = static_cast<int64_t>(labels.size());
  std::vector<float> probs(n * c);
  for (int64_t i = 0; i < n; ++i) {
    float maxv = logits[i * c];
    for (int64_t j = 1; j < c; ++j) maxv = std::max(maxv, logits[i * c + j]);
    double z = 0.0;
    for (int64_t j = 0; j < c; ++j) {
      probs[i * c + j] = std::exp(logits[i * c + j] - maxv);
      z += probs[i * c + j];
    }
    for (int64_t j = 0; j < c; ++j) {
      probs[i * c + j] = static_cast<float>(probs[i * c + j] / z);
    }
  }
  const float g = 1.0f / static_cast<float>(n);
  std::vector<float> da(n * c);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < c; ++j) {
      da[i * c + j] = g * (probs[i * c + j] - (j == labels[i] ? 1.0f : 0.0f));
    }
  }
  return da;
}

/// Splits the gradient of [A | B] (rows x (ca + cb)) into dA and dB.
void RefConcatColsBackward(const std::vector<float>& dout, int64_t rows,
                           int64_t ca, int64_t cb, std::vector<float>* da,
                           std::vector<float>* db) {
  da->assign(rows * ca, 0.0f);
  db->assign(rows * cb, 0.0f);
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < ca; ++j) {
      (*da)[i * ca + j] = dout[i * (ca + cb) + j];
    }
    for (int64_t j = 0; j < cb; ++j) {
      (*db)[i * cb + j] = dout[i * (ca + cb) + ca + j];
    }
  }
}

std::vector<float> RefGatherRowsBackward(const std::vector<int64_t>& idx,
                                         const std::vector<float>& dout,
                                         int64_t rows, int64_t m) {
  std::vector<float> da(rows * m, 0.0f);
  for (size_t i = 0; i < idx.size(); ++i) {
    for (int64_t j = 0; j < m; ++j) da[idx[i] * m + j] += dout[i * m + j];
  }
  return da;
}

std::vector<float> RefSegmentMeanBackward(const Segments& segs,
                                          const std::vector<float>& dout,
                                          int64_t rows, int64_t m) {
  std::vector<float> da(rows * m, 0.0f);
  for (int64_t i = 0; i < segs.num_segments(); ++i) {
    const int64_t begin = segs.offsets[i], end = segs.offsets[i + 1];
    if (begin == end) continue;
    float inv = 1.0f / static_cast<float>(end - begin);
    for (int64_t s = begin; s < end; ++s) {
      for (int64_t c = 0; c < m; ++c) {
        da[segs.indices[s] * m + c] += dout[i * m + c] * inv;
      }
    }
  }
  return da;
}

void ExpectBitIdentical(const std::vector<float>& got,
                        const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
            0)
      << what;
}

size_t CountZeros(const std::vector<float>& v) {
  return static_cast<size_t>(std::count(v.begin(), v.end(), 0.0f));
}

TEST(BackwardTest, SageShapedTapeMatchesPerOpTemporariesBitForBit) {
  // Widths above 32 run the matmul kernel's register tile and its
  // remainder columns.
  const int64_t d = 20, h = 40, classes = 3, nb = 4, n1 = 7;
  // Layer-1 nodes are the batch (rows 0..3), then three sampled rows.
  const std::vector<int64_t> nodes1 = {0, 1, 2, 3, 4, 5, 6};
  const std::vector<int64_t> batch_rows = {0, 1, 2, 3};
  auto seg1 = Segs({{4, 5, 5}, {7}, {}, {8, 9, 4}, {0}, {1, 2}, {9}});
  // Into nodes1; batch rows recur, so both readers of h1 add to them.
  auto seg2 = Segs({{4, 0, 5}, {}, {6, 6, 1, 1}, {0, 2}});
  const std::vector<int32_t> labels = {0, 2, 1, 2};

  // Sage concatenates [self | agg], so the segment mean writes h1's
  // gradient first. [agg | self] makes it the later writer, whose
  // several terms per row must join h1's gradient as one.
  for (bool agg_first : {false, true}) {
    SCOPED_TRACE(agg_first ? "[agg | self]" : "[self | agg]");
    Rng rng(21);
    // Features have no grad path, and every third one is zero.
    Tensor x = Tensor::Randn(10, d, rng);
    for (int64_t i = 0; i < x.size(); i += 3) x.mutable_data()[i] = 0.0f;
    Tensor w1 = Tensor::Randn(2 * d, h, rng, /*requires_grad=*/true);
    Tensor w2 = Tensor::Randn(2 * h, classes, rng, /*requires_grad=*/true);
    auto backward = [&](Tensor* c1, Tensor* z1, Tensor* h1, Tensor* c2,
                        Tensor* logits) {
      *c1 = ConcatCols(GatherRows(x, nodes1), SegmentMean(x, seg1));
      *z1 = Matmul(*c1, w1);
      *h1 = Relu(*z1);  // read by two ops below
      Tensor self2 = GatherRows(*h1, batch_rows);
      Tensor agg2 = SegmentMean(*h1, seg2);
      *c2 = agg_first ? ConcatCols(agg2, self2) : ConcatCols(self2, agg2);
      *logits = Matmul(*c2, w2);
      SoftmaxCrossEntropy(*logits, labels).Backward();
    };
    Tensor c1, z1, h1, c2, logits;
    backward(&c1, &z1, &h1, &c2, &logits);

    // The reference, op by op in the tape's reverse order.
    std::vector<float> g_logits, g_c2, g_self2, g_agg2, g_h1, g_z1, g_w1,
        g_w2;
    RefAccumulate(&g_logits, RefSoftmaxCrossEntropyBackward(
                                 logits.data(), labels, classes));
    RefMatmulBackward(c2.data(), w2.data(), g_logits, nb, 2 * h, classes,
                      &g_c2, &g_w2);
    std::vector<float> d_left, d_right;
    RefConcatColsBackward(g_c2, nb, h, h, &d_left, &d_right);
    RefAccumulate(&g_self2, agg_first ? d_right : d_left);
    RefAccumulate(&g_agg2, agg_first ? d_left : d_right);
    RefAccumulate(&g_h1, RefSegmentMeanBackward(*seg2, g_agg2, n1, h));
    RefAccumulate(&g_h1, RefGatherRowsBackward(batch_rows, g_self2, n1, h));
    std::vector<float> d_z1(n1 * h);
    for (size_t i = 0; i < d_z1.size(); ++i) {
      d_z1[i] = h1.data()[i] > 0.0f ? g_h1[i] : 0.0f;
    }
    RefAccumulate(&g_z1, d_z1);
    RefMatmulBackward(c1.data(), w1.data(), g_z1, n1, 2 * d, h,
                      /*ga=*/nullptr, &g_w1);

    // The tape exercises both zero skips of both matmuls.
    ASSERT_GT(CountZeros(c1.data()), 0u);
    ASSERT_GT(CountZeros(g_z1), 0u);
    ASSERT_GT(CountZeros(c2.data()), 0u);
    ExpectBitIdentical(logits.grad(), g_logits, "logits");
    ExpectBitIdentical(c2.grad(), g_c2, "c2");
    ExpectBitIdentical(h1.grad(), g_h1, "h1");
    ExpectBitIdentical(z1.grad(), g_z1, "z1");
    ExpectBitIdentical(w1.grad(), g_w1, "w1");
    ExpectBitIdentical(w2.grad(), g_w2, "w2");
    // Off the grad path: no gradient computed, no buffer allocated.
    EXPECT_TRUE(x.grad().empty());
    EXPECT_TRUE(c1.grad().empty());

    // A second tape into the same weights adds its gradient as one term.
    backward(&c1, &z1, &h1, &c2, &logits);
    RefMatmulBackward(c2.data(), w2.data(), g_logits, nb, 2 * h, classes,
                      /*ga=*/nullptr, &g_w2);
    RefMatmulBackward(c1.data(), w1.data(), g_z1, n1, 2 * d, h,
                      /*ga=*/nullptr, &g_w1);
    ExpectBitIdentical(w1.grad(), g_w1, "w1 after two tapes");
    ExpectBitIdentical(w2.grad(), g_w2, "w2 after two tapes");
  }
}

TEST(NnTest, LinearLearnsXor) {
  // Tiny 2-layer MLP fits XOR — exercises the whole training loop.
  Rng rng(11);
  Linear l1(2, 8, rng), l2(8, 2, rng);
  std::vector<Tensor> params;
  for (Tensor& p : l1.Parameters()) params.push_back(p);
  for (Tensor& p : l2.Parameters()) params.push_back(p);
  Adam opt(params, 0.05f);

  Tensor x = Tensor::FromData(4, 2, {0, 0, 0, 1, 1, 0, 1, 1});
  std::vector<int32_t> y{0, 1, 1, 0};
  double last_loss = 1e9;
  for (int step = 0; step < 300; ++step) {
    Tensor logits = l2.Forward(Relu(l1.Forward(x)));
    Tensor loss = SoftmaxCrossEntropy(logits, y);
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
    last_loss = loss.data()[0];
  }
  EXPECT_LT(last_loss, 0.1);
  Tensor logits = l2.Forward(Relu(l1.Forward(x)));
  EXPECT_DOUBLE_EQ(Accuracy(logits, y), 1.0);
}

TEST(NnTest, SgdDecreasesLoss) {
  Rng rng(12);
  Tensor w = Tensor::Randn(3, 2, rng, true);
  Tensor x = Tensor::Randn(8, 3, rng, false);
  std::vector<int32_t> y{0, 1, 0, 1, 0, 1, 0, 1};
  Sgd opt({w}, 0.5f);
  double first = -1, last = -1;
  for (int step = 0; step < 50; ++step) {
    Tensor loss = SoftmaxCrossEntropy(Matmul(x, w), y);
    if (step == 0) first = loss.data()[0];
    last = loss.data()[0];
    opt.ZeroGrad();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last, first);
}

}  // namespace
}  // namespace psgraph::minitorch
