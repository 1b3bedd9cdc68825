// §V-B2 reproduction: LINE graph embedding on DS1.
//
// The paper reports no distributed baseline ("there is rare open-source
// distributed graph embedding system that can run Line in a productive
// environment") and gives PSGraph's numbers for reference: embedding
// size 128 on DS1 with the TG resource allocation, 40 minutes per epoch
// and 4 hours in total (6 epochs).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/graph_loader.h"
#include "core/line.h"
#include "core/psgraph_context.h"
#include "graph/datasets.h"

namespace psgraph::bench {
namespace {

void Run() {
  const uint64_t denom = EnvU64("PSG_DS1_DENOM", 25000);
  const int dim = static_cast<int>(EnvU64("PSG_LINE_DIM", 128));
  const int epochs = static_cast<int>(EnvU64("PSG_LINE_EPOCHS", 2));

  graph::DatasetInfo ds1 = graph::Ds1MiniInfo(denom);
  graph::EdgeList edges = graph::MakeDs1Mini(ds1);

  std::printf("=== SecV-B2: LINE embedding on DS1 ===\n");
  std::printf(
      "DS1-mini: |V|=%llu |E|=%zu, dim=%d, order=2, %d epochs "
      "(paper: dim 128, 40 min/epoch, 4 h total)\n\n",
      (unsigned long long)graph::NumVerticesOf(edges), edges.size(), dim,
      epochs);

  core::PsGraphContext::Options opts;
  // TG resource allocation (paper): 100 executors + 20 servers. The
  // embedding tables need more PS memory than the scaled 15 GB/20000
  // budget (float32 embeddings dominate at small scale where per-row
  // overheads do not amortize), so servers get the DS2 allocation.
  opts.cluster.num_executors = 100;
  opts.cluster.num_servers = 20;
  opts.cluster.executor_mem_bytes =
      static_cast<uint64_t>(20.0 * (1ull << 30) / denom);
  opts.cluster.server_mem_bytes = 64ull << 20;
  opts.cluster.workload_scale = static_cast<double>(denom);
  auto ctx = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx.status());

  auto ds = core::StageAndLoadEdges(**ctx, edges, "bench/line.bin");
  PSG_CHECK_OK(ds.status());

  core::LineOptions lo;
  lo.embedding_dim = dim;
  lo.epochs = epochs;
  lo.order = 2;

  Stopwatch wall;
  (*ctx)->metrics().Reset();  // isolate the training phase from loading
  (*ctx)->rpc_telemetry().Reset();
  double t0 = (*ctx)->cluster().clock().Makespan();
  auto result = core::Line(**ctx, *ds, 0, lo);
  PSG_CHECK_OK(result.status());
  double sim = (*ctx)->cluster().clock().Makespan() - t0;
  double per_epoch = sim / epochs;

  std::printf("PSGraph LINE: final avg loss %.4f\n",
              result->final_avg_loss);
  std::printf("  per-epoch: paper=40 min   repro(sim)=%s   wall=%s\n",
              FormatDuration(per_epoch * ds1.paper_scale()).c_str(),
              FormatDuration(wall.ElapsedSeconds() / epochs).c_str());
  std::printf("  total (%d epochs at paper's 6-epoch budget: %s)\n",
              epochs,
              FormatDuration(per_epoch * ds1.paper_scale() * 6).c_str());
  const RpcBytes rpc_bytes = SumRpcBytes((*ctx)->rpc_telemetry());
  std::printf("  rpc bytes sent=%s received=%s\n",
              FormatBytes((double)rpc_bytes.sent).c_str(),
              FormatBytes((double)rpc_bytes.received).c_str());

  // Wire-format accounting: the agent meters every pull/push payload it
  // encodes against the fixed-width v1 framing of the same batch, so the
  // ratio is the exact shrink the varint/delta format bought on this
  // workload. The _bytes entries gate against the committed baseline.
  Metrics& m = (*ctx)->metrics();
  auto ratio = [](uint64_t encoded, uint64_t raw) {
    return raw == 0 ? 1.0
                    : static_cast<double>(encoded) /
                          static_cast<double>(raw);
  };
  const uint64_t pull_req = m.Get("wire.pull.req_bytes");
  const uint64_t pull_req_raw = m.Get("wire.pull.req_raw_bytes");
  const uint64_t pull_resp = m.Get("wire.pull.resp_bytes");
  const uint64_t pull_resp_raw = m.Get("wire.pull.resp_raw_bytes");
  // LINE's gradient traffic rides the line.adjust / dot.partial psFunc
  // broadcasts, metered under wire.func by the encode sites.
  const uint64_t func_req = m.Get("wire.func.req_bytes");
  const uint64_t func_req_raw = m.Get("wire.func.req_raw_bytes");
  std::printf(
      "  wire: pull req %s (%.2fx of raw), pull resp %s (%.2fx), "
      "psfunc req %s (%.2fx)\n",
      FormatBytes((double)pull_req).c_str(), ratio(pull_req, pull_req_raw),
      FormatBytes((double)pull_resp).c_str(),
      ratio(pull_resp, pull_resp_raw),
      FormatBytes((double)func_req).c_str(),
      ratio(func_req, func_req_raw));

  BenchReport report("line_embedding");
  report.Set("embedding_dim", JsonValue(dim));
  report.Set("epochs", JsonValue(epochs));
  report.Set("final_avg_loss", JsonValue(result->final_avg_loss));
  report.Set("per_epoch_sim_seconds", JsonValue(per_epoch));
  report.Set("wire_pull_request_bytes", JsonValue(pull_req));
  report.Set("wire_pull_request_raw_bytes", JsonValue(pull_req_raw));
  report.Set("wire_pull_request_ratio",
             JsonValue(ratio(pull_req, pull_req_raw)));
  report.Set("wire_pull_response_bytes", JsonValue(pull_resp));
  report.Set("wire_pull_response_raw_bytes", JsonValue(pull_resp_raw));
  report.Set("wire_pull_response_ratio",
             JsonValue(ratio(pull_resp, pull_resp_raw)));
  report.Set("wire_func_request_bytes", JsonValue(func_req));
  report.Set("wire_func_request_raw_bytes", JsonValue(func_req_raw));
  report.Set("wire_func_request_ratio",
             JsonValue(ratio(func_req, func_req_raw)));
  report.Capture(&(*ctx)->cluster());
  report.Write();
}

}  // namespace
}  // namespace psgraph::bench

int main() {
  psgraph::bench::Run();
  return 0;
}
