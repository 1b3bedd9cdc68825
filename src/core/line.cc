#include "core/line.h"

#include <algorithm>
#include <cmath>

#include "common/alias_table.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/skipgram.h"
#include "graph/degree.h"
#include "ps/agent.h"

namespace psgraph::core {

namespace {
int g_line_job = 0;
}  // namespace

Result<LineResult> Line(PsGraphContext& ctx,
                        const dataflow::Dataset<graph::Edge>& edges,
                        graph::VertexId num_vertices,
                        const LineOptions& opts) {
  if (opts.order != 1 && opts.order != 2) {
    return Status::InvalidArgument("LINE order must be 1 or 2");
  }
  PSG_ASSIGN_OR_RETURN(auto all_edges, edges.Collect());
  if (num_vertices == 0) num_vertices = graph::NumVerticesOf(all_edges);
  if (all_edges.empty()) return Status::InvalidArgument("empty graph");

  // Noise distribution for negative sampling: degree^0.75 (as in the
  // LINE/word2vec papers). Built once on the driver.
  AliasTable noise;
  {
    std::vector<uint64_t> deg = graph::InDegrees(all_edges, num_vertices);
    std::vector<double> weights(num_vertices);
    for (graph::VertexId v = 0; v < num_vertices; ++v) {
      weights[v] = std::pow(static_cast<double>(deg[v]), 0.75);
    }
    noise = AliasTable(weights);
  }

  const int dim = opts.embedding_dim;
  const std::string job = "line" + std::to_string(g_line_job++);
  PSG_ASSIGN_OR_RETURN(
      SkipGramModel model,
      CreateSkipGramModel(ctx, job, num_vertices, dim,
                          /*order1=*/opts.order == 1, opts.seed));

  // Edge partitions stay on their executors; each executor trains on its
  // local batches.
  const int32_t E = ctx.num_executors();
  std::vector<graph::EdgeList> local(E);
  for (int32_t p = 0; p < edges.num_partitions(); ++p) {
    int32_t e = ctx.dataflow().ExecutorOf(p);
    PSG_ASSIGN_OR_RETURN(auto part, edges.ComputePartition(p));
    local[e].insert(local[e].end(), part.begin(), part.end());
  }

  LineResult result;
  result.num_vertices = num_vertices;
  result.dim = dim;
  const int K = opts.negative_samples;

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    PSG_ASSIGN_OR_RETURN(auto recovery,
                         ctx.HandleFailures(epoch, opts.recovery));
    (void)recovery;
    // Executors train on their local batches concurrently (one task per
    // executor; the per-executor Rng keeps sampling independent of the
    // schedule). Per-executor losses are reduced in executor order after
    // the join so the reported loss is the same at any parallelism.
    std::vector<double> exec_loss(E, 0.0);
    std::vector<uint64_t> exec_count(E, 0);
    PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
        &ctx.dataflow(), E, [&](int32_t e) -> Status {
          Rng rng(opts.seed ^ Hash64((uint64_t)epoch * 1315423911ull + e));
          const graph::EdgeList& mine = local[e];
          for (uint64_t begin = 0; begin < mine.size();
               begin += opts.batch_size) {
            uint64_t end =
                std::min<uint64_t>(mine.size(), begin + opts.batch_size);
            // One positive pair per edge plus K shared-source negatives.
            std::vector<std::pair<uint64_t, uint64_t>> pairs;
            std::vector<float> labels;
            pairs.reserve((end - begin) * (K + 1));
            for (uint64_t i = begin; i < end; ++i) {
              pairs.push_back({mine[i].src, mine[i].dst});
              labels.push_back(1.0f);
              for (int k = 0; k < K; ++k) {
                pairs.push_back({mine[i].src, noise.Sample(rng)});
                labels.push_back(0.0f);
              }
            }
            PSG_ASSIGN_OR_RETURN(
                double loss,
                TrainSkipGramBatch(ctx, e, model, pairs, labels,
                                   opts.learning_rate,
                                   opts.use_psfunc_dot));
            exec_loss[e] += loss;
            exec_count[e] += pairs.size();
          }
          return Status::OK();
        }));
    double loss_sum = 0.0;
    uint64_t loss_count = 0;
    for (int32_t e = 0; e < E; ++e) {
      loss_sum += exec_loss[e];
      loss_count += exec_count[e];
    }
    ctx.sync().IterationBarrier();
    PSG_RETURN_NOT_OK(ctx.MaybeCheckpoint(epoch));
    result.epochs = epoch + 1;
    result.final_avg_loss =
        loss_count == 0 ? 0.0 : loss_sum / static_cast<double>(loss_count);
    ctx.convergence().Record("line.loss", epoch, result.final_avg_loss);
  }

  PSG_ASSIGN_OR_RETURN(result.embeddings,
                       PullEmbeddings(ctx, model, num_vertices));
  PSG_RETURN_NOT_OK(
      DropSkipGramModel(ctx, job, /*order1=*/opts.order == 1));
  return result;
}

}  // namespace psgraph::core
