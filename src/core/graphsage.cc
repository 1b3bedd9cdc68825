#include "core/graphsage.h"

#include <algorithm>

#include "common/hash.h"
#include "common/random.h"
#include "core/graph_loader.h"
#include "core/sage_model.h"
#include "graph/edge_io.h"
#include "minitorch/nn.h"
#include "ps/agent.h"

namespace psgraph::core {

namespace {

int g_sage_job = 0;

/// Pulls a full small matrix (all rows) into a minitorch tensor with
/// gradients enabled.
Result<minitorch::Tensor> PullWeights(ps::PsAgent& agent,
                                      const ps::MatrixMeta& meta) {
  std::vector<uint64_t> keys(meta.num_rows);
  for (uint64_t r = 0; r < meta.num_rows; ++r) keys[r] = r;
  PSG_ASSIGN_OR_RETURN(std::vector<float> rows, agent.PullRows(meta, keys));
  return minitorch::Tensor::FromData(meta.num_rows, meta.num_cols,
                                     std::move(rows),
                                     /*requires_grad=*/true);
}

/// Pushes gradients to the PS: either Adam-on-PS (psFunc, per owning
/// server) or a plain SGD delta push.
Status PushGradients(PsGraphContext& ctx, ps::PsAgent& agent,
                     const ps::MatrixMeta& w, const ps::MatrixMeta& m,
                     const ps::MatrixMeta& v, const minitorch::Tensor& t,
                     const GraphSageOptions& opts, int32_t step) {
  if (t.grad().empty()) return Status::OK();
  std::vector<uint64_t> keys(w.num_rows);
  for (uint64_t r = 0; r < w.num_rows; ++r) keys[r] = r;
  if (!opts.optimizer_on_ps) {
    std::vector<float> delta(t.grad().size());
    for (size_t i = 0; i < delta.size(); ++i) {
      delta[i] = -opts.learning_rate * t.grad()[i];
    }
    return agent.PushAdd(w, keys, delta);
  }
  // Group rows by owning server and invoke adam.apply per server.
  std::vector<std::vector<uint64_t>> by_server(ctx.ps().num_servers());
  for (uint64_t r = 0; r < w.num_rows; ++r) {
    by_server[ctx.ps().ServerOfKey(w, r)].push_back(r);
  }
  const uint32_t cols = w.num_cols;
  for (int32_t s = 0; s < ctx.ps().num_servers(); ++s) {
    if (by_server[s].empty()) continue;
    std::vector<float> grads;
    grads.reserve(by_server[s].size() * cols);
    for (uint64_t r : by_server[s]) {
      grads.insert(grads.end(), t.grad().begin() + r * cols,
                   t.grad().begin() + (r + 1) * cols);
    }
    ByteBuffer args;
    args.Write<ps::MatrixId>(w.id);
    args.Write<ps::MatrixId>(m.id);
    args.Write<ps::MatrixId>(v.id);
    args.Write<float>(opts.learning_rate);
    args.Write<float>(0.9f);
    args.Write<float>(0.999f);
    args.Write<float>(1e-8f);
    args.Write<int32_t>(step);
    args.WriteVector(by_server[s]);
    args.WriteVector(grads);
    PSG_ASSIGN_OR_RETURN(auto resp,
                         agent.CallFunc(s, "adam.apply", args));
    (void)resp;
  }
  return Status::OK();
}

struct BatchPlan {
  SageBatch batch;
  Status status;
};

}  // namespace

Result<GraphSageResult> GraphSage(PsGraphContext& ctx,
                                  const graph::LabeledGraph& g,
                                  const GraphSageOptions& opts) {
  GraphSageResult result;
  const std::string job = "sage" + std::to_string(g_sage_job++);
  const int d = g.feature_dim;
  const int h = opts.hidden_dim;
  const int classes = g.num_classes;
  const graph::VertexId n = g.num_vertices;

  double t0 = ctx.cluster().clock().Makespan();

  // ---- Preprocessing (the Table I "preprocessing" column) ----
  // Stage edges on HDFS, load, symmetrize, groupBy to neighbor tables.
  PSG_ASSIGN_OR_RETURN(
      auto edges, StageAndLoadEdges(ctx, g.edges, job + "/edges.bin"));
  auto nbr = ToNeighborTables(edges.FlatMap([](const graph::Edge& e) {
               return std::vector<graph::Edge>{e, {e.dst, e.src, 1.0f}};
             }))
                 .Cache();
  PSG_RETURN_NOT_OK(nbr.Evaluate());

  // PS models: adjacency A, features X, weights W1/W2 (+ Adam state).
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta adj,
      ctx.ps().CreateMatrix(job + ".adj", n, 0, ps::StorageKind::kNeighbors,
                            ps::Layout::kRowPartitioned,
                            ps::PartitionScheme::kHash));
  PSG_ASSIGN_OR_RETURN(ps::MatrixMeta feat,
                       ctx.ps().CreateMatrix(job + ".x", n, d));
  auto make_weight =
      [&](const std::string& name, uint64_t rows,
          uint32_t cols) -> Result<std::array<ps::MatrixMeta, 3>> {
    std::array<ps::MatrixMeta, 3> metas;
    PSG_ASSIGN_OR_RETURN(metas[0], ctx.ps().CreateMatrix(name, rows, cols));
    PSG_ASSIGN_OR_RETURN(metas[1],
                         ctx.ps().CreateMatrix(name + ".m", rows, cols));
    PSG_ASSIGN_OR_RETURN(metas[2],
                         ctx.ps().CreateMatrix(name + ".v", rows, cols));
    return metas;
  };
  PSG_ASSIGN_OR_RETURN(auto w1m, make_weight(job + ".w1", 2 * d, h));
  PSG_ASSIGN_OR_RETURN(auto w2m, make_weight(job + ".w2", 2 * h, classes));
  // Pool-aggregator transforms (tiny; created for both aggregators, used
  // only by max-pool).
  PSG_ASSIGN_OR_RETURN(auto wp1m, make_weight(job + ".wp1", d, d));
  PSG_ASSIGN_OR_RETURN(auto wp2m, make_weight(job + ".wp2", h, h));

  // Executors push adjacency and features for their vertices; the driver
  // pushes the initialized weights (paper Fig. 5 steps 2-3).
  std::vector<std::vector<std::pair<graph::VertexId, int32_t>>>
      local_train(ctx.num_executors()),
      local_test(ctx.num_executors());
  for (int32_t p = 0; p < nbr.num_partitions(); ++p) {
    int32_t e = ctx.dataflow().ExecutorOf(p);
    PSG_ASSIGN_OR_RETURN(auto tables, nbr.ComputePartition(p));
    std::vector<graph::NeighborList> lists;
    std::vector<uint64_t> keys;
    std::vector<float> xrows;
    lists.reserve(tables.size());
    for (NeighborPair& t : tables) {
      graph::NeighborList nl;
      nl.vertex = t.first;
      nl.neighbors = std::move(t.second);
      lists.push_back(std::move(nl));
      keys.push_back(t.first);
      const float* row = g.features.data() +
                         static_cast<size_t>(t.first) * d;
      xrows.insert(xrows.end(), row, row + d);
      // Train/test split by salted hash, so it is stable under any
      // partitioning.
      bool train =
          (Hash64(t.first ^ opts.seed) % 1000) <
          static_cast<uint64_t>(opts.train_fraction * 1000);
      auto& bucket = train ? local_train[e] : local_test[e];
      bucket.push_back({t.first, g.labels[t.first]});
    }
    PSG_RETURN_NOT_OK(ctx.agent(e).PushNeighbors(adj, lists));
    PSG_RETURN_NOT_OK(ctx.agent(e).PushAssign(feat, keys, xrows));
  }
  ps::PsAgent driver_agent(&ctx.ps(), ctx.cluster().config().driver());
  {
    Rng rng(opts.seed);
    minitorch::Tensor w1 = minitorch::Tensor::Randn(2 * d, h, rng);
    minitorch::Tensor w2 = minitorch::Tensor::Randn(2 * h, classes, rng);
    std::vector<uint64_t> k1(2 * d), k2(2 * h);
    for (size_t i = 0; i < k1.size(); ++i) k1[i] = i;
    for (size_t i = 0; i < k2.size(); ++i) k2[i] = i;
    PSG_RETURN_NOT_OK(driver_agent.PushAssign(w1m[0], k1, w1.data()));
    PSG_RETURN_NOT_OK(driver_agent.PushAssign(w2m[0], k2, w2.data()));
    if (opts.aggregator == SageAggregator::kMaxPool) {
      minitorch::Tensor wp1 = minitorch::Tensor::Randn(d, d, rng);
      minitorch::Tensor wp2 = minitorch::Tensor::Randn(h, h, rng);
      std::vector<uint64_t> kp1(d), kp2(h);
      for (size_t i = 0; i < kp1.size(); ++i) kp1[i] = i;
      for (size_t i = 0; i < kp2.size(); ++i) kp2[i] = i;
      PSG_RETURN_NOT_OK(driver_agent.PushAssign(wp1m[0], kp1, wp1.data()));
      PSG_RETURN_NOT_OK(driver_agent.PushAssign(wp2m[0], kp2, wp2.data()));
    }
  }
  ctx.sync().IterationBarrier();
  PSG_RETURN_NOT_OK(ctx.master().CheckpointAll());
  result.preprocess_sim_seconds = ctx.cluster().clock().Makespan() - t0;
  // Causality: training starts after the whole preprocessing pipeline.
  ctx.cluster().clock().BarrierAll();

  // ---- Training ----
  SageParams params;
  int32_t step = 0;

  // Builds a SageBatch by sampling the 2-hop neighborhood of `batch_v`
  // through the PS, then pulling the features of every involved vertex.
  SageSampler sampler(n, opts.fanout1, opts.fanout2);
  std::vector<uint64_t> involved;
  auto build_batch = [&](int32_t e,
                         const std::vector<std::pair<graph::VertexId,
                                                     int32_t>>& batch_v,
                         Rng& rng) -> Result<SageBatch> {
    SageBatch b;
    std::vector<uint64_t> bkeys;
    bkeys.reserve(batch_v.size());
    b.labels.reserve(batch_v.size());
    for (const auto& [v, label] : batch_v) {
      bkeys.push_back(v);
      b.labels.push_back(label);
    }
    PSG_RETURN_NOT_OK(sampler.Sample(
        bkeys, rng,
        [&](const std::vector<uint64_t>& keys) {
          return ctx.agent(e).PullNeighbors(adj, keys);
        },
        &b, &involved));
    PSG_ASSIGN_OR_RETURN(std::vector<float> xrows,
                         ctx.agent(e).PullRows(feat, involved));
    b.features = minitorch::Tensor::FromData(
        static_cast<int64_t>(involved.size()), d, std::move(xrows));
    return b;
  };

  auto run_batch = [&](int32_t e, const SageBatch& batch,
                       bool train) -> Result<std::pair<double, double>> {
    params.aggregator = opts.aggregator;
    PSG_ASSIGN_OR_RETURN(params.w1, PullWeights(ctx.agent(e), w1m[0]));
    PSG_ASSIGN_OR_RETURN(params.w2, PullWeights(ctx.agent(e), w2m[0]));
    if (opts.aggregator == SageAggregator::kMaxPool) {
      PSG_ASSIGN_OR_RETURN(params.w_pool1,
                           PullWeights(ctx.agent(e), wp1m[0]));
      PSG_ASSIGN_OR_RETURN(params.w_pool2,
                           PullWeights(ctx.agent(e), wp2m[0]));
    }
    minitorch::Tensor logits = SageForward(params, batch);
    minitorch::Tensor loss =
        minitorch::SoftmaxCrossEntropy(logits, batch.labels);
    double acc = minitorch::Accuracy(logits, batch.labels);
    uint64_t flops = SageForwardOps(params, batch);
    if (train) {
      loss.Backward();
      flops *= 3;
      ++step;
      PSG_RETURN_NOT_OK(PushGradients(ctx, ctx.agent(e), w1m[0], w1m[1],
                                      w1m[2], params.w1, opts, step));
      PSG_RETURN_NOT_OK(PushGradients(ctx, ctx.agent(e), w2m[0], w2m[1],
                                      w2m[2], params.w2, opts, step));
      if (opts.aggregator == SageAggregator::kMaxPool) {
        PSG_RETURN_NOT_OK(PushGradients(ctx, ctx.agent(e), wp1m[0],
                                        wp1m[1], wp1m[2], params.w_pool1,
                                        opts, step));
        PSG_RETURN_NOT_OK(PushGradients(ctx, ctx.agent(e), wp2m[0],
                                        wp2m[1], wp2m[2], params.w_pool2,
                                        opts, step));
      }
    }
    ctx.cluster().clock().Advance(ctx.cluster().config().executor(e),
                                  ctx.cluster().cost().FlopsTime(flops));
    return std::pair<double, double>(loss.data()[0], acc);
  };

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    PSG_ASSIGN_OR_RETURN(auto recovery,
                         ctx.HandleFailures(epoch, opts.recovery));
    (void)recovery;
    double epoch_start = ctx.cluster().clock().Makespan();
    double loss_sum = 0.0;
    uint64_t batches = 0;
    for (int32_t e = 0; e < ctx.num_executors(); ++e) {
      auto& mine = local_train[e];
      Rng rng(opts.seed ^ Hash64(epoch * 7919 + e));
      // Shuffle the local training vertices each epoch.
      for (size_t i = mine.size(); i > 1; --i) {
        std::swap(mine[i - 1], mine[rng.NextBounded(i)]);
      }
      for (size_t begin = 0; begin < mine.size();
           begin += opts.batch_size) {
        size_t end = std::min(mine.size(), begin + opts.batch_size);
        std::vector<std::pair<graph::VertexId, int32_t>> bv(
            mine.begin() + begin, mine.begin() + end);
        PSG_ASSIGN_OR_RETURN(SageBatch batch, build_batch(e, bv, rng));
        PSG_ASSIGN_OR_RETURN(auto la, run_batch(e, batch, /*train=*/true));
        loss_sum += la.first;
        ++batches;
      }
    }
    ctx.sync().IterationBarrier();
    PSG_RETURN_NOT_OK(ctx.MaybeCheckpoint(epoch));
    result.epochs = epoch + 1;
    result.final_train_loss =
        batches == 0 ? 0.0 : loss_sum / static_cast<double>(batches);
    ctx.convergence().Record("graphsage.train_loss", epoch,
                             result.final_train_loss);
    result.epoch_sim_seconds.push_back(ctx.cluster().clock().Makespan() -
                                       epoch_start);
  }

  // ---- Evaluation on the held-out split ----
  double correct = 0.0, total = 0.0;
  for (int32_t e = 0; e < ctx.num_executors(); ++e) {
    Rng rng(opts.seed ^ 0xe4a1ull ^ e);
    auto& mine = local_test[e];
    for (size_t begin = 0; begin < mine.size(); begin += opts.batch_size) {
      size_t end = std::min(mine.size(), begin + opts.batch_size);
      std::vector<std::pair<graph::VertexId, int32_t>> bv(
          mine.begin() + begin, mine.begin() + end);
      PSG_ASSIGN_OR_RETURN(SageBatch batch, build_batch(e, bv, rng));
      PSG_ASSIGN_OR_RETURN(auto la, run_batch(e, batch, /*train=*/false));
      correct += la.second * static_cast<double>(bv.size());
      total += static_cast<double>(bv.size());
    }
  }
  result.test_accuracy = total == 0.0 ? 0.0 : correct / total;

  for (const char* suffix :
       {".adj", ".x", ".w1", ".w1.m", ".w1.v", ".w2", ".w2.m", ".w2.v",
        ".wp1", ".wp1.m", ".wp1.v", ".wp2", ".wp2.m", ".wp2.v"}) {
    PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(job + suffix));
  }
  nbr.Unpersist();
  return result;
}

}  // namespace psgraph::core
