#include "core/skipgram.h"

#include <algorithm>
#include <cmath>

#include "common/varint.h"
#include "ps/agent.h"

namespace psgraph::core {

namespace {
float SigmoidF(double x) {
  return static_cast<float>(1.0 / (1.0 + std::exp(-x)));
}
}  // namespace

Result<SkipGramModel> CreateSkipGramModel(PsGraphContext& ctx,
                                          const std::string& name,
                                          uint64_t num_vertices, int dim,
                                          bool order1, uint64_t seed) {
  SkipGramModel model;
  model.dim = dim;
  PSG_ASSIGN_OR_RETURN(
      model.emb,
      ctx.ps().CreateMatrix(name + ".emb", num_vertices, dim,
                            ps::StorageKind::kRows,
                            ps::Layout::kColumnPartitioned,
                            ps::PartitionScheme::kRange));
  if (order1) {
    model.ctx = model.emb;
  } else {
    PSG_ASSIGN_OR_RETURN(
        model.ctx,
        ctx.ps().CreateMatrix(name + ".ctx", num_vertices, dim,
                              ps::StorageKind::kRows,
                              ps::Layout::kColumnPartitioned,
                              ps::PartitionScheme::kRange));
  }
  // Random-init the target embeddings server-side; context vectors start
  // at zero (word2vec convention). 1/sqrt(dim) keeps dots O(1).
  ps::PsAgent driver_agent(&ctx.ps(), ctx.cluster().config().driver());
  ByteBuffer args;
  args.Write<ps::MatrixId>(model.emb.id);
  args.Write<float>(1.0f / std::sqrt(static_cast<float>(dim)));
  args.Write<uint64_t>(seed);
  PSG_ASSIGN_OR_RETURN(auto resp,
                       driver_agent.CallFuncAll("init.randn", args));
  (void)resp;
  if (!order1) {
    // Materialize every context row now. Otherwise the first update to
    // touch a row would materialize it, and the charge for that would
    // fall on whichever concurrent executor's request got there first.
    ByteBuffer fill;
    fill.Write<ps::MatrixId>(model.ctx.id);
    fill.Write<float>(0.0f);
    PSG_ASSIGN_OR_RETURN(resp, driver_agent.CallFuncAll("init.fill", fill));
  }
  return model;
}

Result<double> TrainSkipGramBatch(
    PsGraphContext& ctx, int32_t e, const SkipGramModel& model,
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs,
    const std::vector<float>& labels, float learning_rate,
    bool use_psfunc_dot) {
  if (pairs.size() != labels.size()) {
    return Status::InvalidArgument("skipgram: pairs/labels mismatch");
  }
  if (pairs.empty()) return 0.0;
  const int dim = model.dim;

  std::vector<double> dots;
  std::vector<float> urows, vrows;  // only used by the pull path
  if (use_psfunc_dot) {
    PSG_ASSIGN_OR_RETURN(
        dots, ctx.agent(e).DotProducts(model.emb, model.ctx, pairs));
  } else {
    std::vector<uint64_t> ukeys(pairs.size()), vkeys(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      ukeys[i] = pairs[i].first;
      vkeys[i] = pairs[i].second;
    }
    PSG_ASSIGN_OR_RETURN(urows, ctx.agent(e).PullRows(model.emb, ukeys));
    PSG_ASSIGN_OR_RETURN(vrows, ctx.agent(e).PullRows(model.ctx, vkeys));
    dots.resize(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      double s = 0.0;
      for (int d = 0; d < dim; ++d) {
        s += static_cast<double>(urows[i * dim + d]) * vrows[i * dim + d];
      }
      dots[i] = s;
    }
  }

  // L = -log sigma(d) for positives, -log sigma(-d) for negatives; the
  // ascent coefficient is (label - sigma(d)).
  double loss_sum = 0.0;
  std::vector<uint64_t> flat;
  std::vector<float> coeffs;
  flat.reserve(pairs.size() * 2);
  coeffs.reserve(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    float s = SigmoidF(dots[i]);
    double p = labels[i] > 0.5f ? s : 1.0f - s;
    loss_sum += -std::log(std::max(1e-12, p));
    flat.push_back(pairs[i].first);
    flat.push_back(pairs[i].second);
    coeffs.push_back(labels[i] - s);
  }

  if (use_psfunc_dot) {
    ByteBuffer args;
    args.Write<ps::MatrixId>(model.emb.id);
    args.Write<ps::MatrixId>(model.ctx.id);
    args.Write<float>(learning_rate);
    PutDeltaList(&args, flat);
    args.WriteVector(coeffs);
    // line.adjust is LINE's gradient-push path; the broadcast goes to
    // every server, so the wire meter counts the payload once per
    // server against its v1 fixed-width-vector equivalent.
    const uint64_t servers =
        static_cast<uint64_t>(ctx.cluster().config().num_servers);
    const uint64_t delta_bytes = DeltaListSize(flat.data(), flat.size());
    ctx.metrics().Add("wire.func.req_bytes", args.size() * servers);
    ctx.metrics().Add(
        "wire.func.req_raw_bytes",
        (args.size() - delta_bytes + 8 + 8 * flat.size()) * servers);
    PSG_ASSIGN_OR_RETURN(auto resp,
                         ctx.agent(e).CallFuncAll("line.adjust", args));
    (void)resp;
  } else {
    std::vector<uint64_t> ukeys(pairs.size()), vkeys(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      ukeys[i] = pairs[i].first;
      vkeys[i] = pairs[i].second;
    }
    std::vector<float> du(pairs.size() * dim), dv(pairs.size() * dim);
    for (size_t i = 0; i < pairs.size(); ++i) {
      float g = learning_rate * coeffs[i];
      for (int d = 0; d < dim; ++d) {
        du[i * dim + d] = g * vrows[i * dim + d];
        dv[i * dim + d] = g * urows[i * dim + d];
      }
    }
    PSG_RETURN_NOT_OK(ctx.agent(e).PushAdd(model.emb, ukeys, du));
    PSG_RETURN_NOT_OK(ctx.agent(e).PushAdd(model.ctx, vkeys, dv));
  }
  ctx.cluster().clock().Advance(
      ctx.cluster().config().executor(e),
      ctx.cluster().cost().FlopsTime(pairs.size() * dim * 4) +
          ctx.cluster().cost().ComputeTime(pairs.size()));
  return loss_sum;
}

Result<std::vector<float>> PullEmbeddings(PsGraphContext& ctx,
                                          const SkipGramModel& model,
                                          uint64_t num_vertices) {
  ps::PsAgent driver_agent(&ctx.ps(), ctx.cluster().config().driver());
  std::vector<float> out(num_vertices * model.dim, 0.0f);
  const uint64_t kBatch = 1 << 14;
  for (uint64_t begin = 0; begin < num_vertices; begin += kBatch) {
    uint64_t end = std::min<uint64_t>(num_vertices, begin + kBatch);
    std::vector<uint64_t> keys(end - begin);
    for (uint64_t k = begin; k < end; ++k) keys[k - begin] = k;
    PSG_ASSIGN_OR_RETURN(std::vector<float> rows,
                         driver_agent.PullRows(model.emb, keys));
    std::copy(rows.begin(), rows.end(), out.begin() + begin * model.dim);
  }
  return out;
}

Status DropSkipGramModel(PsGraphContext& ctx, const std::string& name,
                         bool order1) {
  PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(name + ".emb"));
  if (!order1) {
    PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(name + ".ctx"));
  }
  return Status::OK();
}

}  // namespace psgraph::core
