#include "core/pagerank.h"

#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "graph/degree.h"
#include "graph/dense_accumulator.h"
#include "ps/agent.h"

namespace psgraph::core {

namespace {

/// Unique matrix-name counter so one context can run several jobs.
int g_pagerank_job = 0;

}  // namespace

Result<PageRankResult> PageRank(PsGraphContext& ctx,
                                const dataflow::Dataset<graph::Edge>& edges,
                                graph::VertexId num_vertices,
                                const PageRankOptions& opts) {
  // The ungrouped (edge-partitioned) path needs global out-degrees,
  // broadcast to every executor, because a source's edges span
  // partitions.
  std::vector<uint64_t> outdeg;
  if (num_vertices == 0 || !opts.group_to_neighbor_tables) {
    PSG_ASSIGN_OR_RETURN(auto all, edges.Collect());
    if (num_vertices == 0) num_vertices = graph::NumVerticesOf(all);
    if (!opts.group_to_neighbor_tables) {
      outdeg = graph::OutDegrees(all, num_vertices);
      // Broadcast cost: |V| counters to every executor.
      for (int32_t e = 0; e < ctx.num_executors(); ++e) {
        ctx.cluster().clock().Advance(
            ctx.cluster().config().executor(e),
            ctx.cluster().cost().NetworkTime(num_vertices * 8));
      }
    }
  }
  if (num_vertices == 0) return Status::InvalidArgument("empty graph");

  // Step 1 (paper): groupBy transforms edge partitioning to vertex
  // partitioning; cache the neighbor-table RDD on the executors. The
  // ablation path skips the shuffle and groups *within* each raw edge
  // partition, so a source touched by many partitions is pulled by each
  // of them.
  auto nbr =
      (opts.group_to_neighbor_tables
           ? ToNeighborTables(edges)
           : edges.MapPartitionsWithIndex(
                 [](int32_t, std::vector<graph::Edge>&& part)
                     -> Result<std::vector<NeighborPair>> {
                   std::unordered_map<graph::VertexId,
                                      std::vector<graph::VertexId>>
                       local;
                   for (const graph::Edge& e : part) {
                     local[e.src].push_back(e.dst);
                   }
                   std::vector<NeighborPair> out;
                   out.reserve(local.size());
                   for (auto& [v, ds] : local) {
                     out.push_back({v, std::move(ds)});
                   }
                   return out;
                 }))
          .Cache();
  PSG_RETURN_NOT_OK(nbr.Evaluate());

  // PS state: ranks and rank increments.
  const std::string job = "pagerank" + std::to_string(g_pagerank_job++);
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta ranks,
      ctx.ps().CreateMatrix(job + ".ranks", num_vertices, 1));
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta deltas,
      ctx.ps().CreateMatrix(job + ".deltas", num_vertices, 1));

  // Seed: delta_i = reset mass for the whole id space, applied on the
  // servers (no network transfer of |V| floats).
  ps::PsAgent driver_agent(&ctx.ps(), ctx.cluster().config().driver());
  {
    ByteBuffer args;
    args.Write<ps::MatrixId>(deltas.id);
    args.Write<float>(static_cast<float>(opts.reset_prob));
    PSG_ASSIGN_OR_RETURN(auto resp,
                         driver_agent.CallFuncAll("init.fill", args));
    (void)resp;
  }
  // Checkpoint the seeded state so a consistent rollback before the first
  // periodic checkpoint lands on a well-defined model.
  PSG_RETURN_NOT_OK(ctx.master().CheckpointAll());

  PageRankResult result;
  const int32_t E = ctx.num_executors();
  const double damp = 1.0 - opts.reset_prob;
  // Per-executor contribution sums, drained (and reset) by each push.
  std::vector<graph::DenseAccumulator<float>> updates(
      E, graph::DenseAccumulator<float>(num_vertices));

  // On a consistent PS recovery the model rolls back to the last
  // checkpoint, so the iteration counter must roll back with it and the
  // lost iterations are redone (paper SIII-B).
  int last_checkpoint_iter = -1;
  int iter = 0;
  while (iter < opts.max_iterations) {
    PSG_ASSIGN_OR_RETURN(auto recovery,
                         ctx.HandleFailures(iter, opts.recovery));
    if (recovery.servers_restarted > 0 &&
        opts.recovery == ps::RecoveryMode::kConsistent) {
      iter = last_checkpoint_iter + 1;
      // The model rolled back, so the telemetry rolls back with it: the
      // redone iterations re-record their points. The journal keeps the
      // rollback target (value = iter) so tooling can cross-check the
      // rewound convergence series against the recovery timeline.
      ctx.convergence().Rewind("pagerank.delta_l1", iter);
      ctx.convergence().Rewind("pagerank.active_updates", iter);
      ctx.events().Record(sim::JournalEventType::kRollback, /*node=*/-1,
                          ctx.cluster().clock().MakespanTicks(), iter);
      PSG_LOG(Info) << "pagerank: rolled back to iteration " << iter
                    << " after PS recovery";
    }

    // Phase 1: every executor pulls the deltas of its local sources and
    // computes contributions to destinations. Executors run concurrently
    // (RunPartitioned pins partition p to executor p % E, so updates[e]
    // and executor e's clock are only touched by e's task). The cached
    // neighbor tables are borrowed, not copied.
    PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
        &ctx.dataflow(), nbr.num_partitions(), [&](int32_t p) -> Status {
          int32_t e = ctx.dataflow().ExecutorOf(p);
          PSG_ASSIGN_OR_RETURN(auto borrowed, nbr.BorrowPartition(p));
          const std::vector<NeighborPair>& tables = *borrowed;
          std::vector<uint64_t> keys;
          keys.reserve(tables.size());
          for (const NeighborPair& t : tables) keys.push_back(t.first);
          PSG_ASSIGN_OR_RETURN(std::vector<float> ds,
                               ctx.agent(e).PullRows(deltas, keys));
          uint64_t edges_processed = 0;
          auto& local = updates[e];
          for (size_t i = 0; i < tables.size(); ++i) {
            double d = ds[i];
            if (std::fabs(d) <= opts.prune_epsilon) continue;
            const auto& dsts = tables[i].second;
            if (dsts.empty()) continue;
            double degree =
                opts.group_to_neighbor_tables
                    ? static_cast<double>(dsts.size())
                    : static_cast<double>(outdeg[tables[i].first]);
            float contrib = static_cast<float>(damp * d / degree);
            for (graph::VertexId dst : dsts) local.Add(dst, contrib);
            edges_processed += dsts.size();
          }
          ctx.cluster().clock().Advance(
              ctx.cluster().config().executor(e),
              ctx.cluster().cost().ComputeTime(edges_processed));
          return Status::OK();
        }));

    // Phase 2: PS adds deltas to ranks and resets deltas (psFunc); the
    // returned L1 norm doubles as the convergence metric.
    ByteBuffer args;
    args.Write<ps::MatrixId>(deltas.id);
    args.Write<ps::MatrixId>(ranks.id);
    PSG_ASSIGN_OR_RETURN(
        double l1, driver_agent.CallFuncSum("pagerank.advance", args));
    result.final_delta_l1 = l1;

    // Per-iteration telemetry: residual mass and how many destinations
    // received a contribution this sweep (the delta-active set).
    uint64_t active = 0;
    for (const auto& u : updates) active += u.size();
    ctx.convergence().Record("pagerank.delta_l1", iter, l1);
    ctx.convergence().Record("pagerank.active_updates", iter,
                             static_cast<double>(active));

    // Phase 3: push the new contributions into the delta vector; one
    // concurrent task per executor (index == executor id). The drain
    // sorts by destination, so every server's key list arrives ascending.
    PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
        &ctx.dataflow(), E, [&](int32_t e) -> Status {
          if (updates[e].empty()) return Status::OK();
          std::vector<uint64_t> keys;
          std::vector<float> values;
          updates[e].Drain(&keys, &values);
          return ctx.agent(e).PushAdd(deltas, keys, values);
        }));

    ctx.sync().IterationBarrier();
    if (ctx.options().checkpoint_interval > 0 && iter > 0 &&
        iter % ctx.options().checkpoint_interval == 0) {
      PSG_RETURN_NOT_OK(ctx.master().CheckpointAll());
      last_checkpoint_iter = iter;
    }
    result.iterations = iter + 1;

    if (opts.tolerance > 0.0 && iter > 0 &&
        l1 < opts.tolerance * static_cast<double>(num_vertices)) {
      break;
    }
    ++iter;
  }

  // Fold the last pushed deltas into the ranks.
  {
    ByteBuffer args;
    args.Write<ps::MatrixId>(deltas.id);
    args.Write<ps::MatrixId>(ranks.id);
    PSG_ASSIGN_OR_RETURN(
        double l1, driver_agent.CallFuncSum("pagerank.advance", args));
    result.final_delta_l1 = l1;
  }

  // Read back the rank vector in batches.
  result.ranks.resize(num_vertices, 0.0);
  const uint64_t kBatch = 1 << 16;
  for (uint64_t begin = 0; begin < num_vertices; begin += kBatch) {
    uint64_t end = std::min<uint64_t>(num_vertices, begin + kBatch);
    std::vector<uint64_t> keys(end - begin);
    for (uint64_t k = begin; k < end; ++k) keys[k - begin] = k;
    PSG_ASSIGN_OR_RETURN(std::vector<float> vals,
                         driver_agent.PullRows(ranks, keys));
    for (uint64_t k = begin; k < end; ++k) {
      result.ranks[k] = vals[k - begin];
    }
  }

  PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(job + ".ranks"));
  PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(job + ".deltas"));
  nbr.Unpersist();
  return result;
}

}  // namespace psgraph::core
