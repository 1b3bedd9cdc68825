// Ablation C (paper §IV-D): LINE's server-side dot products via psFunc
// vs pulling whole embedding vectors to the executor.
//
// With the psFunc path only scalars cross the network per training pair
// (partial dots down, coefficients up); the pull path moves 2 x dim
// floats down and 2 x dim floats up per pair. The paper motivates the
// column-partitioned layout with exactly this saving.

#include <cstdio>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "core/graph_loader.h"
#include "core/line.h"
#include "core/psgraph_context.h"
#include "graph/datasets.h"

namespace psgraph::bench {
namespace {

void RunOne(const graph::EdgeList& edges, bool psfunc, int dim,
            double scale, BenchReport* report) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = 100;
  opts.cluster.num_servers = 20;
  opts.cluster.executor_mem_bytes = 128ull << 20;
  opts.cluster.server_mem_bytes = 128ull << 20;
  opts.cluster.workload_scale = scale;
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());
  auto ds = core::StageAndLoadEdges(**ctx, edges, "bench/abl_psf.bin");
  PSG_CHECK_OK(ds.status());

  (*ctx)->metrics().Reset();  // isolate training traffic from loading
  (*ctx)->rpc_telemetry().Reset();
  core::LineOptions lo;
  lo.embedding_dim = dim;
  lo.epochs = 1;
  lo.use_psfunc_dot = psfunc;
  auto result = core::Line(**ctx, *ds, 0, lo);
  PSG_CHECK_OK(result.status());

  const uint64_t rpc_bytes = SumRpcBytes((*ctx)->rpc_telemetry()).total();
  std::printf("%-26s rpc-bytes=%-10s sim/epoch=%s (loss %.4f)\n",
              psfunc ? "psFunc dot products" : "pull whole vectors",
              FormatBytes((double)rpc_bytes).c_str(),
              FormatDuration((*ctx)->cluster().clock().Makespan() * scale)
                  .c_str(),
              result->final_avg_loss);

  JsonValue cell = JsonValue::Object();
  cell.Set("rpc_bytes", rpc_bytes);
  cell.Set("sim_seconds", (*ctx)->cluster().clock().Makespan());
  cell.Set("final_avg_loss", result->final_avg_loss);
  report->Set(psfunc ? "psfunc_dot" : "pull_vectors", std::move(cell));
  report->Capture(&(*ctx)->cluster(), psfunc ? "psfunc_dot" : "pull_vectors");
}

void Run() {
  const uint64_t denom = EnvU64("PSG_DS1_DENOM", 25000);
  const int dim = static_cast<int>(EnvU64("PSG_LINE_DIM", 128));
  graph::DatasetInfo ds1 = graph::Ds1MiniInfo(denom);
  graph::EdgeList edges = graph::MakeDs1Mini(ds1);
  std::printf("=== Ablation C: LINE dot products on PS vs pulled vectors "
              "(DS1, dim %d, 1 epoch) ===\n\n", dim);
  BenchReport report("ablation_psfunc");
  RunOne(edges, true, dim, ds1.paper_scale(), &report);
  RunOne(edges, false, dim, ds1.paper_scale(), &report);
  report.Write();
}

}  // namespace
}  // namespace psgraph::bench

int main() {
  psgraph::bench::Run();
  return 0;
}
