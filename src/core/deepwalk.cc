#include "core/deepwalk.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>

#include "common/alias_table.h"
#include "common/hash.h"
#include "common/random.h"
#include "core/skipgram.h"
#include "graph/degree.h"
#include "ps/agent.h"

namespace psgraph::core {

namespace {

int g_dw_job = 0;

/// Builds the neighbor-table matrix on the PS (groupBy + push), exactly
/// like common neighbor's load phase.
Result<ps::MatrixMeta> PushAdjacency(
    PsGraphContext& ctx, const dataflow::Dataset<graph::Edge>& edges,
    const std::string& name,
    std::vector<std::vector<graph::VertexId>>* local_vertices) {
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta meta,
      ctx.ps().CreateMatrix(name, 0, 0, ps::StorageKind::kNeighbors,
                            ps::Layout::kRowPartitioned,
                            ps::PartitionScheme::kHash));
  auto nbr = ToNeighborTables(edges.FlatMap([](const graph::Edge& e) {
    return std::vector<graph::Edge>{e, {e.dst, e.src, 1.0f}};
  }));
  local_vertices->assign(ctx.num_executors(), {});
  for (int32_t p = 0; p < nbr.num_partitions(); ++p) {
    int32_t e = ctx.dataflow().ExecutorOf(p);
    PSG_ASSIGN_OR_RETURN(auto tables, nbr.ComputePartition(p));
    std::vector<graph::NeighborList> lists;
    lists.reserve(tables.size());
    for (NeighborPair& t : tables) {
      (*local_vertices)[e].push_back(t.first);
      graph::NeighborList nl;
      nl.vertex = t.first;
      nl.neighbors = std::move(t.second);
      lists.push_back(std::move(nl));
    }
    PSG_RETURN_NOT_OK(ctx.agent(e).PushNeighbors(meta, lists));
  }
  ctx.sync().IterationBarrier();
  return meta;
}

}  // namespace

Result<DeepWalkResult> DeepWalk(PsGraphContext& ctx,
                                const dataflow::Dataset<graph::Edge>& edges,
                                graph::VertexId num_vertices,
                                const DeepWalkOptions& opts) {
  if (num_vertices == 0) {
    PSG_ASSIGN_OR_RETURN(auto all, edges.Collect());
    num_vertices = graph::NumVerticesOf(all);
  }
  const std::string job = "dw" + std::to_string(g_dw_job++);

  // Adjacency on the PS; each executor owns the vertices of its
  // neighbor-table partitions (walk starting points).
  std::vector<std::vector<graph::VertexId>> local_vertices;
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta adj,
      PushAdjacency(ctx, edges, job + ".adj", &local_vertices));

  PSG_ASSIGN_OR_RETURN(
      SkipGramModel model,
      CreateSkipGramModel(ctx, job, num_vertices, opts.embedding_dim,
                          /*order1=*/false, opts.seed));

  // Noise distribution over vertex frequency in walks ~ degree.
  AliasTable noise;
  {
    PSG_ASSIGN_OR_RETURN(auto all, edges.Collect());
    std::vector<uint64_t> deg = graph::OutDegrees(all, num_vertices);
    std::vector<uint64_t> indeg = graph::InDegrees(all, num_vertices);
    std::vector<double> weights(num_vertices);
    for (graph::VertexId v = 0; v < num_vertices; ++v) {
      weights[v] =
          std::pow(static_cast<double>(deg[v] + indeg[v]), 0.75);
    }
    noise = AliasTable(weights);
  }

  DeepWalkResult result;
  result.num_vertices = num_vertices;
  result.dim = opts.embedding_dim;

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    PSG_ASSIGN_OR_RETURN(auto recovery,
                         ctx.HandleFailures(epoch, opts.recovery));
    (void)recovery;
    double loss_sum = 0.0;
    uint64_t loss_count = 0;

    for (int32_t e = 0; e < ctx.num_executors(); ++e) {
      Rng rng(opts.seed ^ Hash64((uint64_t)epoch * 2654435761ull + e));
      const auto& starts = local_vertices[e];
      if (starts.empty()) continue;

      // --- Walk generation: advance all walks one hop per PS round ---
      const bool biased = opts.return_p != 1.0 || opts.inout_q != 1.0;
      std::vector<std::vector<graph::VertexId>> walks;
      walks.reserve(starts.size() * opts.walks_per_vertex);
      for (graph::VertexId v : starts) {
        for (int w = 0; w < opts.walks_per_vertex; ++w) {
          walks.push_back({v});
        }
      }
      // node2vec needs the previous vertex's (sorted) adjacency to bias
      // the next-hop distribution.
      std::vector<std::vector<graph::VertexId>> prev_adj(
          biased ? walks.size() : 0);
      std::vector<uint64_t> frontier;
      for (int step = 1; step < opts.walk_length; ++step) {
        frontier.clear();
        std::vector<size_t> active;
        for (size_t i = 0; i < walks.size(); ++i) {
          if (static_cast<int>(walks[i].size()) == step) {
            frontier.push_back(walks[i].back());
            active.push_back(i);
          }
        }
        if (frontier.empty()) break;
        PSG_ASSIGN_OR_RETURN(auto entries,
                             ctx.agent(e).PullNeighbors(adj, frontier));
        uint64_t ops = 0;
        for (size_t j = 0; j < active.size(); ++j) {
          const std::span<const uint64_t> nbrs = entries.neighbors(j);
          if (nbrs.empty()) continue;  // walk ends at a sink
          size_t wi = active[j];
          graph::VertexId next;
          if (!biased || walks[wi].size() < 2) {
            next = nbrs[rng.NextBounded(nbrs.size())];
          } else {
            graph::VertexId prev = walks[wi][walks[wi].size() - 2];
            const auto& padj = prev_adj[wi];
            // Cumulative sampling over the node2vec weights.
            double total = 0.0;
            std::vector<double> weights(nbrs.size());
            for (size_t c = 0; c < nbrs.size(); ++c) {
              double w;
              if (nbrs[c] == prev) {
                w = 1.0 / opts.return_p;
              } else if (std::binary_search(padj.begin(), padj.end(),
                                            nbrs[c])) {
                w = 1.0;
              } else {
                w = 1.0 / opts.inout_q;
              }
              weights[c] = w;
              total += w;
            }
            double r = rng.NextDouble() * total;
            size_t pick = 0;
            for (; pick + 1 < nbrs.size(); ++pick) {
              r -= weights[pick];
              if (r <= 0) break;
            }
            next = nbrs[pick];
            ops += nbrs.size();
          }
          if (biased) {
            prev_adj[wi].assign(nbrs.begin(), nbrs.end());
            std::sort(prev_adj[wi].begin(), prev_adj[wi].end());
          }
          walks[wi].push_back(next);
        }
        ctx.cluster().clock().Advance(
            ctx.cluster().config().executor(e),
            ctx.cluster().cost().ComputeTime(active.size() + ops));
      }
      result.total_walks += walks.size();

      // --- Skip-gram pairs within the window, trained in batches ---
      std::vector<std::pair<uint64_t, uint64_t>> pairs;
      std::vector<float> labels;
      auto flush = [&]() -> Status {
        if (pairs.empty()) return Status::OK();
        PSG_ASSIGN_OR_RETURN(
            double loss,
            TrainSkipGramBatch(ctx, e, model, pairs, labels,
                               opts.learning_rate));
        loss_sum += loss;
        loss_count += pairs.size();
        result.total_pairs += pairs.size();
        pairs.clear();
        labels.clear();
        return Status::OK();
      };
      for (const auto& walk : walks) {
        for (size_t i = 0; i < walk.size(); ++i) {
          size_t lo = i >= (size_t)opts.window ? i - opts.window : 0;
          size_t hi = std::min(walk.size(), i + opts.window + 1);
          for (size_t j = lo; j < hi; ++j) {
            if (j == i) continue;
            pairs.push_back({walk[i], walk[j]});
            labels.push_back(1.0f);
            for (int k = 0; k < opts.negative_samples; ++k) {
              pairs.push_back({walk[i], noise.Sample(rng)});
              labels.push_back(0.0f);
            }
            if (pairs.size() >= opts.batch_size) {
              PSG_RETURN_NOT_OK(flush());
            }
          }
        }
      }
      PSG_RETURN_NOT_OK(flush());
    }
    ctx.sync().IterationBarrier();
    PSG_RETURN_NOT_OK(ctx.MaybeCheckpoint(epoch));
    result.final_avg_loss =
        loss_count == 0 ? 0.0 : loss_sum / static_cast<double>(loss_count);
  }

  PSG_ASSIGN_OR_RETURN(result.embeddings,
                       PullEmbeddings(ctx, model, num_vertices));
  PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(job + ".adj"));
  PSG_RETURN_NOT_OK(DropSkipGramModel(ctx, job, /*order1=*/false));
  return result;
}

}  // namespace psgraph::core
