// Ablation D (paper §II-D/§III-A): BSP vs ASP synchronization.
//
// Under BSP every executor waits at the iteration barrier for the
// slowest one; under ASP executors run free. With a skewed partitioning
// (vertex partitioning of a power-law graph puts whole hub neighbor
// tables on single executors, and production inputs are often skewed)
// the stragglers make everyone else idle at each barrier; ASP drops
// that barrier and bounds no staleness: an executor may read values any
// number of iterations old, which GE/GNN training tolerates but exact
// PageRank does not (§III-B).

#include <cstdio>

#include "bench/bench_util.h"
#include "core/graph_loader.h"
#include "dataflow/dataset.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "graph/datasets.h"

namespace psgraph::bench {
namespace {

void RunOne(const graph::EdgeList& edges, ps::SyncProtocol sync,
            const char* label, double scale, BenchReport* report,
            const char* cell_key) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 100;
  opts.cluster.num_servers = 20;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  opts.cluster.workload_scale = scale;
  opts.sync = sync;
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());

  // Skewed placement (data skew happens in production): executor 0 gets
  // 10 partitions' worth of edges, everyone else shares the rest. The
  // local-grouping PageRank path preserves the skew (the groupBy shuffle
  // would rebalance it away).
  std::vector<graph::EdgeList> parts(100);
  uint64_t hot = edges.size() / 10;
  for (uint64_t i = 0; i < edges.size(); ++i) {
    if (i < hot) {
      parts[0].push_back(edges[i]);
    } else {
      parts[1 + (i % 99)].push_back(edges[i]);
    }
  }
  auto ds = dataflow::Dataset<graph::Edge>::FromPartitions(
      &(*ctx)->dataflow(), std::move(parts));

  core::PageRankOptions po;
  po.max_iterations = 10;
  po.group_to_neighbor_tables = false;
  auto result = core::PageRank(**ctx, ds, 0, po);
  PSG_CHECK_OK(result.status());

  // Straggler diagnostics: fastest vs slowest executor timeline plus the
  // cumulative barrier wait (idle time ASP avoids).
  double fastest = 1e300, slowest = 0.0;
  for (int32_t e = 0; e < 100; ++e) {
    double t = (*ctx)->cluster().clock().Now(
        (*ctx)->cluster().config().executor(e));
    fastest = std::min(fastest, t);
    slowest = std::max(slowest, t);
  }
  std::printf(
      "%-5s makespan(sim)=%-10s barrier-wait(sum)=%-10s executor spread "
      "%.0f%%\n",
      label,
      FormatDuration((*ctx)->cluster().clock().Makespan() * scale).c_str(),
      FormatDuration((*ctx)->sync().total_wait() * scale).c_str(),
      slowest > 0 ? (slowest - fastest) / slowest * 100 : 0.0);

  JsonValue cell = JsonValue::Object();
  cell.Set("sim_seconds", (*ctx)->cluster().clock().Makespan());
  cell.Set("barrier_wait_seconds", (*ctx)->sync().total_wait());
  cell.Set("executor_spread",
           slowest > 0 ? (slowest - fastest) / slowest : 0.0);
  report->Set(cell_key, std::move(cell));
  report->Capture(&(*ctx)->cluster(), cell_key);
}

void Run() {
  const uint64_t denom = EnvU64("PSG_DS1_DENOM", 25000);
  graph::DatasetInfo ds1 = graph::Ds1MiniInfo(denom);
  graph::EdgeList edges = graph::MakeDs1Mini(ds1);
  std::printf("=== Ablation D: BSP vs ASP synchronization (PageRank, "
              "DS1, skewed partitions) ===\n\n");
  BenchReport report("ablation_sync");
  RunOne(edges, ps::SyncProtocol::kBsp, "BSP", ds1.paper_scale(), &report,
         "bsp");
  RunOne(edges, ps::SyncProtocol::kAsp, "ASP", ds1.paper_scale(), &report,
         "asp");
  std::printf("\nNote: ASP drops the barrier wait and bounds no staleness "
              "(acceptable for GE/GNN, not for exact PageRank).\n");
  report.Write();
}

}  // namespace
}  // namespace psgraph::bench

int main() {
  psgraph::bench::Run();
  return 0;
}
