// Ablation F (skew-aware PS): hot-key replication under uniform vs
// Zipfian access.
//
// Pure hash placement makes the servers homing the hottest keys the
// throughput ceiling on power-law access (exactly the degree skew of
// real graphs, paper §II). The skew-aware layer (src/ps/replication.h)
// classifies hot keys online, replicates them to every executor and
// merges accumulated deltas at barriers. This bench runs the same
// deterministic pull/push workload over a 2x2 grid — {uniform, zipfian
// s=1.0} x {replication off, on} — and reports, per cell, from the
// wire-level RPC telemetry: request bytes into each server, the hottest
// server's request bytes, busy-tick imbalance (max/mean callee busy
// ticks across servers) and the simulated makespan.
//
// The bench gates itself (exits non-zero) on the reproduction shape:
// under Zipfian access, replication must strictly lower both the
// hottest server's inbound request bytes and the busy-tick imbalance;
// under uniform access nothing classifies hot, so replication must be
// within noise of the baseline. CI runs this under
// scripts/check_bench_regression.py like every other bench.

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/random.h"
#include "common/rpc_telemetry.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/replication.h"
#include "sim/cluster.h"

namespace psgraph::bench {
namespace {

constexpr uint64_t kKeys = 1 << 16;
constexpr uint32_t kCols = 16;
constexpr int kRounds = 12;
constexpr int kBatchesPerRound = 32;  ///< per executor; every 4th pushes
constexpr uint64_t kBatchKeys = 64;

/// Zipfian(s=1.0) sampler over ranks 0..n-1 (rank == key: under the
/// matrix's default range placement the hot head lands on the low-key
/// server, which becomes the hottest shard — exactly the concentration
/// skew-aware replication targets). Cumulative-weight binary search;
/// deterministic given the Rng stream.
class ZipfSampler {
 public:
  explicit ZipfSampler(uint64_t n) : cum_(n) {
    double acc = 0.0;
    for (uint64_t r = 0; r < n; ++r) {
      acc += 1.0 / static_cast<double>(r + 1);
      cum_[r] = acc;
    }
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.NextDouble() * cum_.back();
    return static_cast<uint64_t>(
        std::upper_bound(cum_.begin(), cum_.end(), u) - cum_.begin());
  }

 private:
  std::vector<double> cum_;
};

/// What the gates and the printed table need from one cell.
struct CellStats {
  double makespan_sec = 0.0;
  uint64_t hottest_req_bytes = 0;
  uint64_t total_req_bytes = 0;
  double busy_imbalance = 0.0;  ///< max/mean callee busy ticks
  size_t hot_keys = 0;
  uint64_t replica_local_rows = 0;
};

CellStats RunOne(bool zipfian, bool replicate, const ZipfSampler& zipf,
                 BenchReport* report, const char* cell_key) {
  sim::ClusterConfig cfg;
  cfg.num_executors = 8;
  cfg.num_servers = 8;
  cfg.executor_mem_bytes = 512ull << 20;
  cfg.server_mem_bytes = 512ull << 20;
  sim::SimCluster cluster(cfg);
  RpcTelemetry& telemetry = cluster.rpc_telemetry();
  net::RpcFabric fabric(&cluster);
  ps::PsContext psctx(&cluster, &fabric, nullptr);
  PSG_CHECK_OK(psctx.Start());

  auto meta = psctx.CreateMatrix("emb", kKeys, kCols);
  PSG_CHECK_OK(meta.status());

  // Long-lived agents: the ReplicationManager installs a replica cache
  // into each one, so the workload must pull/push through these exact
  // instances (a per-loop temporary agent would bypass replication).
  std::vector<std::unique_ptr<ps::PsAgent>> agents;
  std::vector<ps::PsAgent*> agent_ptrs;
  for (int32_t e = 0; e < cfg.num_executors; ++e) {
    agents.push_back(std::make_unique<ps::PsAgent>(
        &psctx, cluster.config().executor(e)));
    agent_ptrs.push_back(agents.back().get());
  }

  {
    ByteBuffer args;
    args.Write<ps::MatrixId>(meta->id);
    args.Write<float>(1.0f);
    PSG_CHECK_OK(agents[0]->CallFuncAll("init.fill", args).status());
  }

  std::unique_ptr<ps::ReplicationManager> rep;
  if (replicate) {
    ps::ReplicationOptions opts;
    opts.hot_min_count = 32;
    opts.max_hot_keys = 64;
    rep = std::make_unique<ps::ReplicationManager>(&psctx, agent_ptrs,
                                                   opts);
    PSG_CHECK_OK(rep->Track(*meta));
  }

  // Measure the workload (plus, with replication on, its merge and
  // broadcast overhead) — not matrix init.
  telemetry.Reset();
  const double t0 = cluster.clock().Makespan();

  std::vector<float> push_vals(kBatchKeys * kCols, 0.01f);
  for (int round = 0; round < kRounds; ++round) {
    for (int32_t e = 0; e < cfg.num_executors; ++e) {
      // Per-(executor, round) streams: both the off and on cells draw
      // identical key sequences, so their workloads are byte-identical
      // on the cold path.
      Rng rng(0x5cafe + static_cast<uint64_t>(e) * 7919 +
              static_cast<uint64_t>(round) * 104729);
      for (int b = 0; b < kBatchesPerRound; ++b) {
        std::vector<uint64_t> keys(kBatchKeys);
        for (uint64_t& k : keys) {
          k = zipfian ? zipf.Next(rng) : rng.NextBounded(kKeys);
        }
        if (b % 4 == 3) {
          PSG_CHECK_OK(agents[e]->PushAdd(*meta, keys, push_vals));
        } else {
          PSG_CHECK_OK(agents[e]->PullRows(*meta, keys).status());
        }
      }
    }
    if (rep != nullptr) {
      // Classification refresh every 4th barrier (exercising promotion
      // and demotion), plain delta merge in between.
      if (round % 4 == 0) {
        PSG_CHECK_OK(rep->Refresh());
      } else {
        PSG_CHECK_OK(rep->Merge());
      }
    }
  }

  CellStats stats;
  stats.makespan_sec = cluster.clock().Makespan() - t0;

  // Wire telemetry, folded per callee server across methods. The
  // snapshot is deterministic (method, node) order, so so are these.
  std::vector<uint64_t> req_bytes(static_cast<size_t>(cfg.num_servers), 0);
  std::vector<int64_t> busy(static_cast<size_t>(cfg.num_servers), 0);
  for (const RpcTelemetry::MethodStat& m : telemetry.Snapshot()) {
    for (int32_t s = 0; s < cfg.num_servers; ++s) {
      if (m.node == cluster.config().server(s)) {
        req_bytes[static_cast<size_t>(s)] += m.request_bytes;
        busy[static_cast<size_t>(s)] += m.callee_busy_ticks;
      }
    }
  }
  int64_t busy_max = 0, busy_sum = 0;
  for (int32_t s = 0; s < cfg.num_servers; ++s) {
    stats.total_req_bytes += req_bytes[static_cast<size_t>(s)];
    stats.hottest_req_bytes =
        std::max(stats.hottest_req_bytes, req_bytes[static_cast<size_t>(s)]);
    busy_max = std::max(busy_max, busy[static_cast<size_t>(s)]);
    busy_sum += busy[static_cast<size_t>(s)];
  }
  const double busy_mean =
      static_cast<double>(busy_sum) / cfg.num_servers;
  stats.busy_imbalance =
      busy_mean > 0 ? static_cast<double>(busy_max) / busy_mean : 0.0;
  if (rep != nullptr) {
    stats.hot_keys = rep->HotKeys(meta->id).size();
    for (int32_t e = 0; e < cfg.num_executors; ++e) {
      stats.replica_local_rows += rep->cache(e)->local_rows();
    }
  }

  std::printf("%-18s hottest=%-10s total=%-10s imbalance=%.3f  hot=%-3zu "
              "local_rows=%-8llu sim=%.3f s\n",
              cell_key, FormatBytes(stats.hottest_req_bytes).c_str(),
              FormatBytes(stats.total_req_bytes).c_str(),
              stats.busy_imbalance, stats.hot_keys,
              (unsigned long long)stats.replica_local_rows,
              stats.makespan_sec);

  JsonValue cell = JsonValue::Object();
  cell.Set("workload_sim_seconds", stats.makespan_sec);
  cell.Set("hottest_server_req_bytes", stats.hottest_req_bytes);
  cell.Set("total_server_req_bytes", stats.total_req_bytes);
  cell.Set("busy_tick_imbalance", stats.busy_imbalance);
  cell.Set("hot_keys", static_cast<uint64_t>(stats.hot_keys));
  cell.Set("replica_local_rows", stats.replica_local_rows);
  JsonValue per_server = JsonValue::Object();
  for (int32_t s = 0; s < cfg.num_servers; ++s) {
    // Appended, not `"s" + std::to_string(s)`: GCC 12 reports a false
    // -Wrestrict inside libstdc++'s operator+ on a temporary.
    std::string key = "s";
    key += std::to_string(s);
    per_server.Set(key, req_bytes[static_cast<size_t>(s)]);
  }
  cell.Set("req_bytes_per_server", std::move(per_server));
  report->Set(cell_key, std::move(cell));
  report->Capture(&cluster, cell_key);
  return stats;
}

int Run() {
  std::printf("=== Ablation F: skew-aware PS (hot-key replication, "
              "uniform vs zipfian s=1.0) ===\n\n");
  const ZipfSampler zipf(kKeys);
  BenchReport report("ablation_skew");
  const CellStats uni_off =
      RunOne(false, false, zipf, &report, "uniform_off");
  const CellStats uni_on = RunOne(false, true, zipf, &report, "uniform_on");
  const CellStats zipf_off =
      RunOne(true, false, zipf, &report, "zipfian_off");
  const CellStats zipf_on = RunOne(true, true, zipf, &report, "zipfian_on");
  report.Write();

  // Reproduction-shape gates.
  int failures = 0;
  if (zipf_on.hottest_req_bytes >= zipf_off.hottest_req_bytes) {
    std::fprintf(stderr,
                 "GATE: zipfian hottest-server request bytes not reduced "
                 "by replication (%llu >= %llu)\n",
                 (unsigned long long)zipf_on.hottest_req_bytes,
                 (unsigned long long)zipf_off.hottest_req_bytes);
    ++failures;
  }
  if (zipf_on.busy_imbalance >= zipf_off.busy_imbalance) {
    std::fprintf(stderr,
                 "GATE: zipfian busy-tick imbalance not reduced by "
                 "replication (%.4f >= %.4f)\n",
                 zipf_on.busy_imbalance, zipf_off.busy_imbalance);
    ++failures;
  }
  if (zipf_on.hot_keys == 0) {
    std::fprintf(stderr,
                 "GATE: zipfian run classified no hot keys\n");
    ++failures;
  }
  // Uniform access must leave the hot set empty and the wire within
  // noise of the baseline (Refresh/Merge on an empty hot set send
  // nothing, so the two cells should be nearly identical).
  if (uni_on.hot_keys != 0) {
    std::fprintf(stderr,
                 "GATE: uniform run classified %zu hot keys (expected 0)\n",
                 uni_on.hot_keys);
    ++failures;
  }
  const double uni_delta =
      std::abs(static_cast<double>(uni_on.hottest_req_bytes) -
               static_cast<double>(uni_off.hottest_req_bytes));
  if (uni_delta > 0.10 * static_cast<double>(uni_off.hottest_req_bytes)) {
    std::fprintf(stderr,
                 "GATE: uniform hottest-server request bytes moved more "
                 "than 10%% under replication (%llu vs %llu)\n",
                 (unsigned long long)uni_on.hottest_req_bytes,
                 (unsigned long long)uni_off.hottest_req_bytes);
    ++failures;
  }

  std::printf("\nZipfian: replication took the hottest server from %s to "
              "%s inbound and imbalance %.3f -> %.3f; uniform stayed "
              "within noise (no keys classified hot).\n",
              FormatBytes(zipf_off.hottest_req_bytes).c_str(),
              FormatBytes(zipf_on.hottest_req_bytes).c_str(),
              zipf_off.busy_imbalance, zipf_on.busy_imbalance);
  if (failures > 0) {
    std::fprintf(stderr, "%d gate failure(s)\n", failures);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace psgraph::bench

int main() { return psgraph::bench::Run(); }
