// Ablation E (paper §III-A "Data partitioning"): hash vs range vs
// hash-range placement of PS rows.
//
// Range partitioning keeps key ranges contiguous (cheap sequential scans,
// but hot key ranges land on one server); hash spreads uniformly (load
// balance, no locality); hash-range scatters contiguous chunks — the
// hybrid the paper implements after Ghandeharizadeh & DeWitt. We measure
// (a) row balance across servers and (b) the simulated time of a skewed
// pull workload (executors repeatedly pull a contiguous hot key range,
// like a frontier-based algorithm would).

#include <cstdio>

#include "bench/bench_util.h"
#include "common/random.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "sim/cluster.h"

namespace psgraph::bench {
namespace {

void RunOne(ps::PartitionScheme scheme, const char* label,
            BenchReport* report, const char* cell_key) {
  sim::ClusterConfig cfg;
  cfg.num_executors = 8;
  cfg.num_servers = 8;
  cfg.executor_mem_bytes = 512ull << 20;
  cfg.server_mem_bytes = 512ull << 20;
  sim::SimCluster cluster(cfg);
  net::RpcFabric fabric(&cluster);
  ps::PsContext psctx(&cluster, &fabric, nullptr);
  PSG_CHECK_OK(psctx.Start());

  const uint64_t kKeys = 1 << 18;
  auto meta = psctx.CreateMatrix("m", kKeys, 4, ps::StorageKind::kRows,
                                 ps::Layout::kRowPartitioned, scheme);
  PSG_CHECK_OK(meta.status());

  // Materialize every row, then inspect balance.
  ps::PsAgent agent(&psctx, cluster.config().executor(0));
  {
    ByteBuffer args;
    args.Write<ps::MatrixId>(meta->id);
    args.Write<float>(1.0f);
    PSG_CHECK_OK(agent.CallFuncAll("init.fill", args).status());
  }
  uint64_t min_rows = UINT64_MAX, max_rows = 0;
  for (int32_t s = 0; s < psctx.num_servers(); ++s) {
    ByteBuffer args;
    args.Write<ps::MatrixId>(meta->id);
    auto resp = agent.CallFunc(s, "rows.count", args);
    PSG_CHECK_OK(resp.status());
    ByteReader reader(resp->data(), resp->size());
    uint64_t rows = 0;
    PSG_CHECK_OK(reader.Read(&rows));
    min_rows = std::min(min_rows, rows);
    max_rows = std::max(max_rows, rows);
  }

  // Skewed workload: every executor pulls the same hot contiguous range
  // (a frontier) repeatedly. Under range partitioning the whole range is
  // one server's problem.
  double t0 = cluster.clock().Makespan();
  const uint64_t kHotBegin = kKeys / 2, kHotSize = 16384;
  for (int round = 0; round < 20; ++round) {
    for (int32_t e = 0; e < cfg.num_executors; ++e) {
      ps::PsAgent ea(&psctx, cluster.config().executor(e));
      std::vector<uint64_t> keys(kHotSize);
      for (uint64_t i = 0; i < kHotSize; ++i) keys[i] = kHotBegin + i;
      PSG_CHECK_OK(ea.PullRows(*meta, keys).status());
    }
  }
  double hot_time = cluster.clock().Makespan() - t0;

  std::printf("%-11s rows/server min=%-7llu max=%-7llu  hot-range pulls "
              "sim=%.3f s\n",
              label, (unsigned long long)min_rows,
              (unsigned long long)max_rows, hot_time);

  JsonValue cell = JsonValue::Object();
  cell.Set("rows_per_server_min", min_rows);
  cell.Set("rows_per_server_max", max_rows);
  cell.Set("hot_range_sim_seconds", hot_time);
  report->Set(cell_key, std::move(cell));
  report->Capture(&cluster, cell_key);
}

void Run() {
  std::printf("=== Ablation E: PS partitioning scheme (row balance + hot "
              "range workload) ===\n\n");
  BenchReport report("ablation_psparts");
  RunOne(ps::PartitionScheme::kRange, "range", &report, "range");
  RunOne(ps::PartitionScheme::kHash, "hash", &report, "hash");
  RunOne(ps::PartitionScheme::kHashRange, "hash-range", &report,
         "hash_range");
  std::printf("\nRange concentrates the hot range on one server "
              "(saturated busy time); hash and hash-range spread it. "
              "Hash-range keeps chunk locality, which matters for "
              "range-scan psFuncs.\n");
  report.Write();
}

}  // namespace
}  // namespace psgraph::bench

int main() {
  psgraph::bench::Run();
  return 0;
}
