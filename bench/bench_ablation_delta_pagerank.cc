// Ablation B (paper §IV-A): the increments-of-ranks optimization.
//
// "Since the ranks of many vertices barely change after several
// iterations, we leverage this sparsity to reduce the communication cost
// by transferring the increments of ranks." With pruning enabled,
// converged vertices stop propagating; without it every source
// contributes every iteration regardless of how small its delta is.
//
// The bench drives the shared affected-frontier engine
// (stream::DeltaPageRankEngine — the same loop the freshness pipeline
// retrains with): a full recompute per pruning level shows the
// communication ablation, then one mutation epoch is applied
// incrementally and the bench asserts the incremental fixpoint agrees
// with a from-scratch recompute on the mutated graph while touching
// only a fraction of the vertices.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "core/psgraph_context.h"
#include "graph/datasets.h"
#include "stream/incremental.h"
#include "stream/mutation_log.h"

namespace psgraph::bench {
namespace {

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bench_ablation_delta_pagerank: gate failed: %s\n",
                 what);
    std::abort();
  }
}

/// MutateNeighbors needs a duplicate/self-loop-free live set.
graph::EdgeList CleanEdges(const graph::EdgeList& raw, uint64_t n) {
  graph::EdgeList edges;
  std::unordered_set<uint64_t> seen;
  for (const graph::Edge& e : raw) {
    if (e.src == e.dst) continue;
    if (!seen.insert(e.src * n + e.dst).second) continue;
    edges.push_back(e);
  }
  return edges;
}

void RunOne(const graph::EdgeList& edges, uint64_t num_vertices,
            double prune, const char* label, double scale,
            BenchReport* report, const char* cell_key) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 100;
  opts.cluster.num_servers = 20;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  opts.cluster.workload_scale = scale;
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());

  auto adj = stream::LoadMutableAdjacency(**ctx, edges, num_vertices,
                                          "abl.adj");
  PSG_CHECK_OK(adj.status());

  (*ctx)->metrics().Reset();  // isolate PageRank traffic from loading
  (*ctx)->rpc_telemetry().Reset();
  stream::DeltaPageRankOptions po;
  po.max_iterations = 60;
  po.tolerance = 1e-9;
  po.prune_epsilon = prune;
  auto engine = stream::DeltaPageRankEngine::Create(
      &**ctx, *adj, num_vertices, po, "abl.pr");
  PSG_CHECK_OK(engine.status());
  auto full = engine->RecomputeFull();
  PSG_CHECK_OK(full.status());

  const uint64_t rows_pushed = (*ctx)->metrics().Get("ps.rows_pushed");
  const uint64_t rpc_bytes = SumRpcBytes((*ctx)->rpc_telemetry()).total();

  // One 0.5 s epoch of edge mutations, applied incrementally: the
  // increments story extended to a mutating graph.
  stream::MutationLogOptions mo;
  mo.seed = 23;
  mo.num_vertices = num_vertices;
  mo.mutations_per_second = 100.0;
  mo.epoch_seconds = 0.5;
  stream::MutationLog log(edges, mo);
  stream::MutationEpoch epoch = log.Next();
  std::vector<ps::EdgeMutation> batch;
  for (const stream::MutationEvent& ev : epoch.events) {
    batch.push_back(ev.mutation);
  }
  auto inc = engine->ApplyMutationsAndRecompute(batch);
  PSG_CHECK_OK(inc.status());
  auto inc_ranks = engine->ReadRanks();
  PSG_CHECK_OK(inc_ranks.status());

  // Gate: a from-scratch recompute on the SAME mutated adjacency must
  // land on the same fixpoint (1% L1), and the incremental pass must
  // have touched strictly fewer vertices when pruning is on.
  PSG_CHECK_OK(engine->RecomputeFull().status());
  auto full_ranks = engine->ReadRanks();
  PSG_CHECK_OK(full_ranks.status());
  double diff_l1 = 0.0, full_l1 = 0.0;
  for (size_t v = 0; v < full_ranks->size(); ++v) {
    diff_l1 += std::fabs((*inc_ranks)[v] - (*full_ranks)[v]);
    full_l1 += std::fabs((*full_ranks)[v]);
  }
  const double rank_rel_err = full_l1 > 0 ? diff_l1 / full_l1 : 0.0;
  Check(rank_rel_err < 1e-2,
        "incremental ranks must agree with a full recompute (1% L1)");
  if (prune > 0.0) {
    Check(inc->vertices_touched < num_vertices,
          "pruned incremental recompute must touch strictly fewer "
          "vertices than the full id space");
  }
  const double touched_frac = static_cast<double>(inc->vertices_touched) /
                              static_cast<double>(num_vertices);

  std::printf("%-28s rows-pushed=%-10llu rpc-bytes=%-10s sim=%s "
              "(final delta L1=%.2e, incr touched %.1f%%, err %.1e)\n",
              label, (unsigned long long)rows_pushed,
              FormatBytes((double)rpc_bytes).c_str(),
              FormatDuration((*ctx)->cluster().clock().Makespan() * scale)
                  .c_str(),
              full->final_delta_l1, touched_frac * 100.0, rank_rel_err);

  JsonValue cell = JsonValue::Object();
  cell.Set("rows_pushed", rows_pushed);
  cell.Set("rpc_bytes", rpc_bytes);
  cell.Set("sim_seconds", (*ctx)->cluster().clock().Makespan());
  cell.Set("final_delta_l1", full->final_delta_l1);
  cell.Set("incremental_touched", inc->vertices_touched);
  cell.Set("incremental_touched_fraction", touched_frac);
  cell.Set("rank_rel_l1_err", rank_rel_err);
  report->Set(cell_key, std::move(cell));
  report->Capture(&(*ctx)->cluster(), cell_key);
}

void Run() {
  const uint64_t denom = EnvU64("PSG_DS1_DENOM", 25000);
  graph::DatasetInfo ds1 = graph::Ds1MiniInfo(denom);
  graph::EdgeList raw = graph::MakeDs1Mini(ds1);
  // RMAT ids run over the power-of-two id space, not mini_vertices.
  const uint64_t n = graph::NumVerticesOf(raw);
  graph::EdgeList edges = CleanEdges(raw, n);
  std::printf("=== Ablation B: delta PageRank increment pruning (DS1, 60 "
              "iterations + one mutation epoch) ===\n\n");
  BenchReport report("ablation_delta_pagerank");
  RunOne(edges, n, 0.0, "no pruning (full deltas)", ds1.paper_scale(),
         &report, "no_pruning");
  RunOne(edges, n, 1e-4, "prune |delta| <= 1e-4", ds1.paper_scale(),
         &report, "prune_1e-4");
  RunOne(edges, n, 1e-3, "prune |delta| <= 1e-3", ds1.paper_scale(),
         &report, "prune_1e-3");
  report.Write();
}

}  // namespace
}  // namespace psgraph::bench

int main() {
  psgraph::bench::Run();
  return 0;
}
