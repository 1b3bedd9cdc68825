// Ablation A (paper §II-D, Fig. 2): vertex partitioning (edge cut) vs
// edge partitioning (vertex cut) for the PageRank input RDD.
//
// Vertex partitioning keeps each source vertex's whole neighbor table on
// one executor, so each delta is pulled once cluster-wide; edge
// partitioning replicates sources across executors and multiplies pull
// traffic by the replication factor. The paper's PageRank implementation
// chooses vertex partitioning for exactly this reason (§IV-A).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "core/graph_loader.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "graph/datasets.h"
#include "graph/partition.h"

namespace psgraph::bench {
namespace {

void RunOne(const graph::EdgeList& edges, graph::PartitionStrategy strat,
            bool group, const char* label, double scale,
            BenchReport* report, const char* cell_key) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 100;
  opts.cluster.num_servers = 20;
  opts.cluster.executor_mem_bytes = 64ull << 20;
  opts.cluster.server_mem_bytes = 64ull << 20;
  opts.cluster.workload_scale = scale;
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  auto ds = core::StageAndLoadEdges(**ctx, edges, "bench/abl_part.bin",
                                    strat);
  PSG_CHECK_OK(ds.status());

  // Replication diagnostics on the raw partitions.
  auto parts = graph::PartitionEdges(edges, 100, strat);
  auto stats = graph::ComputePartitionStats(parts);

  (*ctx)->metrics().Reset();  // isolate PageRank traffic from loading
  (*ctx)->rpc_telemetry().Reset();
  core::PageRankOptions po;
  po.max_iterations = 10;
  po.group_to_neighbor_tables = group;
  auto result = core::PageRank(**ctx, *ds, 0, po);
  PSG_CHECK_OK(result.status());

  const uint64_t ps_bytes = SumRpcBytes((*ctx)->rpc_telemetry()).total();
  std::printf(
      "%-27s src-replication=%-6.2f ps-traffic/iter=%-9s end-to-end "
      "sim=%s\n",
      label, stats.avg_src_replication,
      FormatBytes((double)ps_bytes / 10).c_str(),
      FormatDuration((*ctx)->cluster().clock().Makespan() * scale)
          .c_str());

  JsonValue cell = JsonValue::Object();
  cell.Set("avg_src_replication", stats.avg_src_replication);
  cell.Set("ps_traffic_bytes", ps_bytes);
  cell.Set("sim_seconds", (*ctx)->cluster().clock().Makespan());
  report->Set(cell_key, std::move(cell));
  report->Capture(&(*ctx)->cluster(), cell_key);
}

void Run() {
  const uint64_t denom = EnvU64("PSG_DS1_DENOM", 25000);
  graph::DatasetInfo ds1 = graph::Ds1MiniInfo(denom);
  graph::EdgeList edges = graph::MakeDs1Mini(ds1);
  std::printf("=== Ablation A: graph partitioning strategy (PageRank, "
              "DS1) ===\n\n");
  BenchReport report("ablation_partitioning");
  RunOne(edges, graph::PartitionStrategy::kVertexPartition, true,
         "vertex partition (groupBy)", ds1.paper_scale(), &report,
         "vertex_partition");
  RunOne(edges, graph::PartitionStrategy::kEdgePartition, false,
         "edge partition (no group)", ds1.paper_scale(), &report,
         "edge_partition");
  std::printf(
      "\nPaper SIV-A: \"edge partitioning (vertex cut) yields a high "
      "communication overhead as many executors need to get the ranks "
      "of one vertex concurrently\"; the replication factor above "
      "multiplies the pull traffic.\n");
  report.Write();
}

}  // namespace
}  // namespace psgraph::bench

int main() {
  psgraph::bench::Run();
  return 0;
}
