// Tests for the real parallel execution engine: thread-pool semantics,
// concurrent RPC fan-out, concurrent PS access, and the determinism
// contract — simulated-clock totals must be bit-identical at any
// parallelism level (see DESIGN.md "Execution model").

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/deepwalk.h"
#include "core/fast_unfolding.h"
#include "core/graph_loader.h"
#include "core/graphsage.h"
#include "core/kcore.h"
#include "core/label_propagation.h"
#include "core/line.h"
#include "core/neighbor_algos.h"
#include "core/pagerank.h"
#include "core/psgraph_context.h"
#include "core/sgc.h"
#include "dataflow/dataset.h"
#include "euler/euler.h"
#include "graph/generators.h"
#include "graphx/algorithms.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/replication.h"
#include "sim/cluster.h"
#include "sim/memory_accountant.h"
#include "storage/hdfs.h"

namespace psgraph {
namespace {

/// Pins the engine parallelism for one test and restores the
/// PSGRAPH_THREADS/hardware default on exit.
struct ParallelismGuard {
  explicit ParallelismGuard(size_t n) { SetGlobalParallelism(n); }
  ~ParallelismGuard() { SetGlobalParallelism(0); }
};

TEST(ThreadPoolTest, ParallelForRunsEveryIndexOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller participates in the work, so a pool task may itself fan
  // out without starving the pool (2 threads, 4 concurrent regions).
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](size_t) {
    pool.ParallelFor(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ThreadPoolTest, ParallelForStress) {
  ThreadPool pool(4);
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(97, [&](size_t i) { sum.fetch_add(i); });
  }
  EXPECT_EQ(sum.load(), 50ull * (96ull * 97ull / 2));
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.ParallelFor(64,
                       [&](size_t i) {
                         if (i == 13) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after a failed region.
  std::atomic<int> ok{0};
  pool.ParallelFor(16, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
}

TEST(ThreadPoolTest, BoundedWithZeroHelpersRunsInline) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  pool.ParallelForBounded(32, 0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

/// One PS stack: cluster + fabric + context + per-executor agents.
struct PsStack {
  explicit PsStack(int32_t executors = 3, int32_t servers = 3) {
    sim::ClusterConfig cfg;
    cfg.num_executors = executors;
    cfg.num_servers = servers;
    cfg.executor_mem_bytes = 128ull << 20;
    cfg.server_mem_bytes = 128ull << 20;
    cluster = std::make_unique<sim::SimCluster>(cfg);
    hdfs = std::make_unique<storage::Hdfs>(cluster.get());
    fabric = std::make_unique<net::RpcFabric>(cluster.get());
    ctx = std::make_unique<ps::PsContext>(cluster.get(), fabric.get(),
                                          hdfs.get());
    PSG_CHECK_OK(ctx->Start());
    for (int32_t e = 0; e < executors; ++e) {
      agents.push_back(std::make_unique<ps::PsAgent>(
          ctx.get(), cluster->config().executor(e)));
    }
  }

  std::unique_ptr<sim::SimCluster> cluster;
  std::unique_ptr<storage::Hdfs> hdfs;
  std::unique_ptr<net::RpcFabric> fabric;
  std::unique_ptr<ps::PsContext> ctx;
  std::vector<std::unique_ptr<ps::PsAgent>> agents;
};

/// A fixed pull/push workload whose every RPC fans out across all three
/// servers. Returns the final pulled values.
std::vector<float> RunFanoutWorkload(PsStack& s) {
  auto meta = s.ctx->CreateMatrix("m", 4096, 4);
  PSG_CHECK_OK(meta.status());
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 4096; k += 3) {
    keys.push_back(k);
    for (int c = 0; c < 4; ++c) {
      vals.push_back(static_cast<float>(k % 101) * 0.25f + c);
    }
  }
  for (int round = 0; round < 5; ++round) {
    for (auto& agent : s.agents) {
      PSG_CHECK_OK(agent->PushAdd(*meta, keys, vals));
    }
  }
  auto out = s.agents[0]->PullRows(*meta, keys);
  PSG_CHECK_OK(out.status());
  return *out;
}

// The determinism contract: the same workload issued at parallelism 1
// (strictly sequential, the seed execution order) and at parallelism 8
// (RPC fan-out on the global pool) must produce bit-identical pulled
// values AND bit-identical per-node simulated clocks.
TEST(ConcurrencyTest, CallParallelClockTotalsMatchSequential) {
  std::vector<float> seq_vals;
  std::vector<int64_t> seq_ticks;
  {
    ParallelismGuard guard(1);
    PsStack s;
    seq_vals = RunFanoutWorkload(s);
    for (int32_t n = 0; n < s.cluster->config().num_nodes(); ++n) {
      seq_ticks.push_back(s.cluster->clock().NowTicks(n));
    }
  }
  std::vector<float> par_vals;
  std::vector<int64_t> par_ticks;
  {
    ParallelismGuard guard(8);
    PsStack s;
    par_vals = RunFanoutWorkload(s);
    for (int32_t n = 0; n < s.cluster->config().num_nodes(); ++n) {
      par_ticks.push_back(s.cluster->clock().NowTicks(n));
    }
  }
  ASSERT_EQ(seq_vals.size(), par_vals.size());
  for (size_t i = 0; i < seq_vals.size(); ++i) {
    ASSERT_EQ(seq_vals[i], par_vals[i]) << "value index " << i;
  }
  ASSERT_EQ(seq_ticks, par_ticks);
  // The workload actually charged time (executor 0 issued every pull).
  EXPECT_GT(seq_ticks.front(), 0);
}

// Error-path parity: a fan-out containing a handler failure and an
// unavailable callee must leave bit-identical telemetry aggregates and
// per-node clocks at parallelism 1 and 8 — the plan-all/execute-all
// schedule is the same in both modes, so a failure cannot change what
// the callees were charged or what the wire counters saw.
TEST(ConcurrencyTest, CallParallelErrorPathsMatchSequential) {
  struct Outcome {
    std::vector<RpcTelemetry::MethodStat> telemetry;
    std::vector<int64_t> ticks;
    std::string status;
  };
  auto run = [&](size_t parallelism) -> Outcome {
    ParallelismGuard guard(parallelism);
    sim::ClusterConfig cfg;
    cfg.num_executors = 2;
    cfg.num_servers = 2;
    cfg.executor_mem_bytes = 64ull << 20;
    cfg.server_mem_bytes = 64ull << 20;
    sim::SimCluster cluster(cfg);
    net::RpcFabric fabric(&cluster);
    auto ok_endpoint = std::make_shared<net::RpcEndpoint>();
    ok_endpoint->Register(
        "work",
        [&cluster](const std::vector<uint8_t>&) -> Result<ByteBuffer> {
          cluster.clock().Advance(2, 0.020);
          ByteBuffer out;
          out.Write<uint32_t>(1);
          return out;
        });
    fabric.Bind(2, ok_endpoint);  // server 0
    auto bad_endpoint = std::make_shared<net::RpcEndpoint>();
    bad_endpoint->Register(
        "work",
        [&cluster](const std::vector<uint8_t>&) -> Result<ByteBuffer> {
          cluster.clock().Advance(3, 0.005);  // burns time, then fails
          return Status::Internal("handler boom");
        });
    fabric.Bind(3, bad_endpoint);  // server 1
    // Node 4 (the driver) is alive but has no endpoint bound.

    ByteBuffer req;
    req.Write<uint64_t>(42);
    std::vector<net::RpcFabric::ParallelCall> calls;
    calls.push_back({2, "work", req});
    calls.push_back({3, "work", req});  // handler error
    calls.push_back({2, "work", req});
    calls.push_back({4, "work", req});  // plan error: unbound
    calls.push_back({3, "work", req});  // never planned
    Outcome out;
    out.status = fabric.CallParallel(0, std::move(calls))
                     .status()
                     .ToString();
    out.telemetry = cluster.rpc_telemetry().Snapshot();
    for (int32_t n = 0; n < cluster.config().num_nodes(); ++n) {
      out.ticks.push_back(cluster.clock().NowTicks(n));
    }
    return out;
  };

  Outcome seq = run(1);
  Outcome par = run(8);

  // The first handler error in call order wins over the plan error.
  EXPECT_NE(seq.status.find("handler boom"), std::string::npos)
      << seq.status;
  EXPECT_EQ(seq.status, par.status);
  ASSERT_EQ(seq.ticks, par.ticks);

  ASSERT_EQ(seq.telemetry.size(), 3u);  // ("work",2) ("work",3) ("work",4)
  ASSERT_EQ(par.telemetry.size(), 3u);
  for (size_t i = 0; i < seq.telemetry.size(); ++i) {
    const auto& a = seq.telemetry[i];
    const auto& b = par.telemetry[i];
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.calls, b.calls);
    EXPECT_EQ(a.request_bytes, b.request_bytes);
    EXPECT_EQ(a.response_bytes, b.response_bytes);
    EXPECT_EQ(a.callee_busy_ticks, b.callee_busy_ticks);
    EXPECT_EQ(a.caller_wait_ticks, b.caller_wait_ticks);
    EXPECT_EQ(a.errors_unavailable, b.errors_unavailable);
    EXPECT_EQ(a.errors_handler, b.errors_handler);
  }
  // Both planned calls to server 0 were dispatched despite the failure.
  EXPECT_EQ(seq.telemetry[0].node, 2);
  EXPECT_EQ(seq.telemetry[0].calls, 2u);
  EXPECT_EQ(seq.telemetry[0].response_bytes, 8u);  // 2 * sizeof(uint32)
  EXPECT_GT(seq.telemetry[0].callee_busy_ticks, 0);
  // The failing handler's burned busy time is attributed to it.
  EXPECT_EQ(seq.telemetry[1].node, 3);
  EXPECT_EQ(seq.telemetry[1].calls, 1u);
  EXPECT_EQ(seq.telemetry[1].errors_handler, 1u);
  EXPECT_GT(seq.telemetry[1].callee_busy_ticks, 0);
  // The unbound callee shows as unavailable; the call after it was
  // never planned, so only one error is recorded for node 3.
  EXPECT_EQ(seq.telemetry[2].node, 4);
  EXPECT_EQ(seq.telemetry[2].calls, 0u);
  EXPECT_EQ(seq.telemetry[2].errors_unavailable, 1u);
}

// Many real threads hammer one PS matrix through different agents.
// PushAdd of a constant is order-independent in float, so the final
// value is exact: num_workers * rounds additions of 1.0f per key.
TEST(ConcurrencyTest, ConcurrentPullPushHammer) {
  ParallelismGuard guard(8);
  PsStack s(/*executors=*/4, /*servers=*/3);
  auto meta = s.ctx->CreateMatrix("h", 512, 1);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys(512);
  for (uint64_t k = 0; k < 512; ++k) keys[k] = k;
  const std::vector<float> ones(512, 1.0f);

  constexpr size_t kWorkers = 8;
  constexpr int kRounds = 10;
  GlobalThreadPool().ParallelFor(kWorkers, [&](size_t w) {
    ps::PsAgent& agent = *s.agents[w % s.agents.size()];
    for (int r = 0; r < kRounds; ++r) {
      PSG_CHECK_OK(agent.PushAdd(*meta, keys, ones));
      auto pulled = agent.PullRows(*meta, keys);
      PSG_CHECK_OK(pulled.status());
      // Monotonicity: every key has absorbed at least this worker's own
      // pushes so far and never more than the global total.
      for (float v : *pulled) {
        ASSERT_GE(v, static_cast<float>(r + 1));
        ASSERT_LE(v, static_cast<float>(kWorkers * kRounds));
      }
    }
  });

  auto fin = s.agents[0]->PullRows(*meta, keys);
  ASSERT_TRUE(fin.ok());
  for (float v : *fin) {
    ASSERT_EQ(v, static_cast<float>(kWorkers * kRounds));
  }
}

// Whole-job determinism: an end-to-end PageRank run charges bit-identical
// per-node clocks at parallelism 1 and 8. (Model floats may differ in
// the last ulp under concurrency — cross-executor push arrival order —
// so ranks are compared with a tolerance; the clocks are exact.)
TEST(ConcurrencyTest, MemoryAccountantPerNodeChargesStayExact) {
  constexpr int32_t kNodes = 8;
  constexpr uint64_t kCharges = 20000;
  sim::MemoryAccountant mem(std::vector<uint64_t>(kNodes, 1ull << 40));
  std::atomic<bool> done{false};
  // A reader sweeps every node while the chargers run.
  std::thread reader([&] {
    while (!done.load()) (void)mem.MaxPeak();
  });
  std::vector<std::thread> chargers;
  for (int32_t n = 0; n < kNodes; ++n) {
    chargers.emplace_back([&mem, n] {
      const uint64_t bytes = static_cast<uint64_t>(n) + 1;
      for (uint64_t i = 0; i < kCharges; ++i) {
        PSG_CHECK_OK(mem.Allocate(n, bytes, "test"));
      }
      for (uint64_t i = 0; i < kCharges / 2; ++i) mem.Release(n, bytes);
    });
  }
  for (auto& t : chargers) t.join();
  done.store(true);
  reader.join();
  for (int32_t n = 0; n < kNodes; ++n) {
    const uint64_t bytes = static_cast<uint64_t>(n) + 1;
    EXPECT_EQ(mem.Usage(n), bytes * kCharges / 2) << "node " << n;
    EXPECT_EQ(mem.Peak(n), bytes * kCharges) << "node " << n;
  }
  EXPECT_EQ(mem.MaxPeak(), uint64_t{kNodes} * kCharges);
}

TEST(ConcurrencyTest, PageRankClocksBitIdenticalAcrossParallelism) {
  graph::EdgeList edges = graph::GenerateErdosRenyi(400, 2500, 7);
  struct Run {
    std::vector<int64_t> ticks;
    std::vector<uint64_t> peaks;
    HistogramSnapshot push_service;
    std::vector<double> ranks;
  };
  auto run = [&](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 3;
    opts.cluster.num_servers = 2;
    opts.cluster.executor_mem_bytes = 256ull << 20;
    opts.cluster.server_mem_bytes = 256ull << 20;
    auto ctx = core::PsGraphContext::Create(opts);
    PSG_CHECK_OK(ctx.status());
    auto ds = core::StageAndLoadEdges(**ctx, edges, "input/conc_pr.bin");
    PSG_CHECK_OK(ds.status());
    core::PageRankOptions pr;
    pr.max_iterations = 8;
    auto result = core::PageRank(**ctx, *ds, 400, pr);
    PSG_CHECK_OK(result.status());
    sim::SimCluster& cluster = (*ctx)->cluster();
    Run out;
    for (int32_t n = 0; n < cluster.config().num_nodes(); ++n) {
      out.ticks.push_back(cluster.clock().NowTicks(n));
      out.peaks.push_back(cluster.memory().Peak(n));
    }
    out.push_service =
        cluster.metrics().HistogramSnapshots().at("ps.push.service_ticks");
    out.ranks = std::move(result->ranks);
    return out;
  };
  const Run seq = run(1);
  const Run par = run(8);
  ASSERT_EQ(seq.ticks, par.ticks);
  EXPECT_EQ(seq.peaks, par.peaks);
  EXPECT_EQ(seq.push_service.count, par.push_service.count);
  EXPECT_EQ(seq.push_service.sum, par.push_service.sum);
  EXPECT_EQ(seq.push_service.buckets, par.push_service.buckets);
  ASSERT_EQ(seq.ranks.size(), par.ranks.size());
  for (size_t i = 0; i < seq.ranks.size(); ++i) {
    ASSERT_NEAR(seq.ranks[i], par.ranks[i], 1e-4) << "vertex " << i;
  }
}

// LINE trains its executors concurrently, so every server sees their
// line.adjust (or pull/push) requests in an order the threads pick. The
// simulated charges must not depend on it: every node's clock and memory
// peak are equal at parallelism 1 and 8, in both update modes. The
// embeddings themselves are Hogwild and may differ in the last bits.
TEST(ConcurrencyTest, LineClocksAndPeaksIdenticalAcrossParallelism) {
  const graph::EdgeList edges = graph::GenerateErdosRenyi(300, 2400, 23);
  struct Run {
    std::vector<int64_t> ticks;
    std::vector<uint64_t> peaks;
  };
  auto run = [&](size_t parallelism, bool use_psfunc_dot) {
    ParallelismGuard guard(parallelism);
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 4;
    opts.cluster.num_servers = 3;
    opts.cluster.executor_mem_bytes = 256ull << 20;
    opts.cluster.server_mem_bytes = 256ull << 20;
    auto ctx = core::PsGraphContext::Create(opts);
    PSG_CHECK_OK(ctx.status());
    auto ds = core::StageAndLoadEdges(**ctx, edges, "input/conc_line.bin");
    PSG_CHECK_OK(ds.status());
    core::LineOptions line;
    line.embedding_dim = 8;
    line.epochs = 2;
    line.batch_size = 256;
    line.use_psfunc_dot = use_psfunc_dot;
    PSG_CHECK_OK(core::Line(**ctx, *ds, 300, line).status());
    sim::SimCluster& cluster = (*ctx)->cluster();
    Run out;
    for (int32_t n = 0; n < cluster.config().num_nodes(); ++n) {
      out.ticks.push_back(cluster.clock().NowTicks(n));
      out.peaks.push_back(cluster.memory().Peak(n));
    }
    return out;
  };
  for (bool use_psfunc_dot : {true, false}) {
    SCOPED_TRACE(use_psfunc_dot ? "psfunc dot" : "pull/push");
    const Run seq = run(1, use_psfunc_dot);
    const Run par = run(8, use_psfunc_dot);
    EXPECT_EQ(seq.ticks, par.ticks);
    EXPECT_EQ(seq.peaks, par.peaks);
  }
}

TEST(ConcurrencyTest, GraphxClocksAndOutputsIdenticalAcrossParallelism) {
  const graph::EdgeList edges = graph::GenerateErdosRenyi(200, 1200, 11);
  struct Run {
    std::vector<int64_t> ticks;
    std::vector<uint64_t> peaks;
    std::vector<std::pair<graph::VertexId, double>> ranks;
    uint64_t components = 0;
    std::vector<std::pair<graph::VertexId, uint32_t>> coreness;
    uint64_t triangles = 0;
  };
  auto run = [&](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    sim::ClusterConfig cfg;
    cfg.num_executors = 3;
    cfg.num_servers = 1;
    cfg.executor_mem_bytes = 256ull << 20;
    cfg.server_mem_bytes = 64ull << 20;
    sim::SimCluster cluster(cfg);
    dataflow::DataflowContext ctx(&cluster);
    auto ds = dataflow::Dataset<graph::Edge>::FromVector(&ctx, edges, 6);
    graphx::PageRankOptions pr;
    pr.max_iterations = 5;
    auto ranks = graphx::PageRank(ds, pr);
    PSG_CHECK_OK(ranks.status());
    auto components = graphx::ConnectedComponents(ds);
    PSG_CHECK_OK(components.status());
    auto kcore = graphx::KCore(ds);
    PSG_CHECK_OK(kcore.status());
    auto triangles = graphx::TriangleCount(ds);
    PSG_CHECK_OK(triangles.status());
    Run out;
    for (int32_t n = 0; n < cluster.config().num_nodes(); ++n) {
      out.ticks.push_back(cluster.clock().NowTicks(n));
      out.peaks.push_back(cluster.memory().Peak(n));
    }
    out.ranks = std::move(*ranks);
    out.components = *components;
    out.coreness = std::move(kcore->coreness);
    out.triangles = *triangles;
    return out;
  };
  const Run seq = run(1);
  const Run par = run(8);
  EXPECT_EQ(seq.ticks, par.ticks);
  EXPECT_EQ(seq.peaks, par.peaks);
  // Exact doubles: reducers fetch blocks in map-partition order.
  EXPECT_EQ(seq.ranks, par.ranks);
  EXPECT_EQ(seq.components, par.components);
  EXPECT_EQ(seq.coreness, par.coreness);
  EXPECT_EQ(seq.triangles, par.triangles);
  EXPECT_GT(seq.triangles, 0u);

  // An executor budget some executors outgrow (Fig. 6's GraphX OOM
  // cells): each executor's partitions run up to its own first failure
  // at every parallelism, so the charges and the returned error agree.
  struct OomRun {
    std::vector<int64_t> ticks;
    std::vector<uint64_t> peaks;
    std::string status;
  };
  auto run_oom = [&](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    sim::ClusterConfig cfg;
    cfg.num_executors = 3;
    cfg.num_servers = 1;
    // The run above peaks at 48,200, 51,064 and 46,800 B on the three
    // executors, so executor 1 runs out of this budget.
    cfg.executor_mem_bytes = 48ull << 10;
    cfg.server_mem_bytes = 64ull << 20;
    sim::SimCluster cluster(cfg);
    dataflow::DataflowContext ctx(&cluster);
    auto ds = dataflow::Dataset<graph::Edge>::FromVector(&ctx, edges, 6);
    graphx::PageRankOptions pr;
    pr.max_iterations = 5;
    OomRun out;
    out.status = graphx::PageRank(ds, pr).status().ToString();
    for (int32_t n = 0; n < cluster.config().num_nodes(); ++n) {
      out.ticks.push_back(cluster.clock().NowTicks(n));
      out.peaks.push_back(cluster.memory().Peak(n));
    }
    return out;
  };
  const OomRun oom_seq = run_oom(1);
  const OomRun oom_par = run_oom(8);
  EXPECT_NE(oom_seq.status.find("MemoryLimitExceeded"), std::string::npos)
      << oom_seq.status;
  EXPECT_EQ(oom_seq.status, oom_par.status);
  EXPECT_EQ(oom_seq.ticks, oom_par.ticks);
  EXPECT_EQ(oom_seq.peaks, oom_par.peaks);
}

// Hot-key replication under concurrent executors: in each superstep
// every executor pulls the hot and its own cold keys and adds to both
// through its replica cache, all inside one dataflow action, and the
// driver merges at the barrier. Every node's clock and memory peak and
// every merged row must be equal at parallelism 1 and 8. A cold key has
// one writer, so no row's float sum depends on arrival order; the hot
// deltas merge home in executor order.
TEST(ConcurrencyTest, ReplicationMergeIdenticalAcrossParallelism) {
  constexpr int32_t kExecutors = 4;
  constexpr uint64_t kRows = 96;
  constexpr uint32_t kCols = 4;
  const std::vector<uint64_t> hot{3, 17, 40, 41};
  struct Run {
    std::vector<int64_t> ticks;
    std::vector<uint64_t> peaks;
    std::vector<float> rows;
    uint64_t local_rows = 0;
  };
  auto run = [&](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = kExecutors;
    opts.cluster.num_servers = 3;
    opts.cluster.executor_mem_bytes = 64ull << 20;
    opts.cluster.server_mem_bytes = 64ull << 20;
    auto ctx_or = core::PsGraphContext::Create(opts);
    PSG_CHECK_OK(ctx_or.status());
    core::PsGraphContext& ctx = **ctx_or;
    auto meta = ctx.ps().CreateMatrix("emb", kRows, kCols);
    PSG_CHECK_OK(meta.status());
    ps::ReplicationManager& rep = ctx.replication();
    PSG_CHECK_OK(rep.Track(*meta));
    PSG_CHECK_OK(rep.SeedHotKeys(meta->id, hot));
    for (int superstep = 0; superstep < 3; ++superstep) {
      PSG_CHECK_OK(dataflow::RunPartitioned(
          &ctx.dataflow(), kExecutors, [&](int32_t e) -> Status {
            std::vector<uint64_t> cold;
            for (uint64_t k = 50 + e; k < kRows; k += kExecutors) {
              cold.push_back(k);
            }
            std::vector<uint64_t> keys = hot;
            keys.insert(keys.end(), cold.begin(), cold.end());
            ps::PsAgent& agent = ctx.agent(e);
            for (int round = 0; round < 4; ++round) {
              PSG_RETURN_NOT_OK(agent.PullRows(*meta, keys).status());
              const float step = 0.1f * static_cast<float>(e + 1) +
                                 0.013f * static_cast<float>(round);
              PSG_RETURN_NOT_OK(agent.PushAdd(
                  *meta, hot, std::vector<float>(hot.size() * kCols, step)));
              PSG_RETURN_NOT_OK(agent.PushAdd(
                  *meta, cold,
                  std::vector<float>(cold.size() * kCols, step)));
            }
            return Status::OK();
          }));
      ctx.sync().IterationBarrier();
      PSG_CHECK_OK(rep.Merge());
    }
    EXPECT_EQ(rep.merges(), 3u);
    sim::SimCluster& cluster = ctx.cluster();
    Run out;
    for (int32_t n = 0; n < cluster.config().num_nodes(); ++n) {
      out.ticks.push_back(cluster.clock().NowTicks(n));
      out.peaks.push_back(cluster.memory().Peak(n));
    }
    for (int32_t e = 0; e < kExecutors; ++e) {
      out.local_rows += rep.cache(e)->local_rows();
    }
    std::vector<uint64_t> all(kRows);
    for (uint64_t k = 0; k < kRows; ++k) all[k] = k;
    auto rows = ctx.agent(0).PullRows(*meta, all);
    PSG_CHECK_OK(rows.status());
    out.rows = std::move(*rows);
    return out;
  };
  const Run seq = run(1);
  const Run par = run(8);
  EXPECT_EQ(seq.ticks, par.ticks);
  EXPECT_EQ(seq.peaks, par.peaks);
  EXPECT_EQ(seq.rows, par.rows);
  EXPECT_EQ(seq.local_rows, par.local_rows);
  // Every hot access was served or absorbed locally.
  EXPECT_EQ(seq.local_rows, 3u * kExecutors * 4 * 2 * hot.size());
  EXPECT_NE(seq.rows[3 * kCols], 0.0f);
}

TEST(ConcurrencyTest, GraphSageAndEulerIdenticalAcrossParallelism) {
  graph::SbmParams sbm;
  sbm.num_vertices = 300;
  sbm.num_edges = 2400;
  sbm.num_communities = 4;
  sbm.feature_dim = 8;
  sbm.seed = 13;
  const graph::LabeledGraph g = graph::GenerateSbm(sbm);
  sim::ClusterConfig cluster;
  cluster.num_executors = 3;
  cluster.num_servers = 2;
  cluster.executor_mem_bytes = 256ull << 20;
  cluster.server_mem_bytes = 256ull << 20;
  // Euler runs on a cluster of its own, so its makespan shows only
  // through the preprocessing and epoch spans it reports.
  struct Run {
    double makespan = 0.0;
    double preprocess = 0.0;
    std::vector<double> epochs;
    double loss = 0.0;
    double accuracy = 0.0;
  };
  auto sage = [&](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    core::PsGraphContext::Options opts;
    opts.cluster = cluster;
    auto ctx = core::PsGraphContext::Create(opts);
    PSG_CHECK_OK(ctx.status());
    core::GraphSageOptions o;
    o.hidden_dim = 16;
    o.epochs = 2;
    o.batch_size = 32;
    auto r = core::GraphSage(**ctx, g, o);
    PSG_CHECK_OK(r.status());
    return Run{(*ctx)->cluster().clock().Makespan(),
               r->preprocess_sim_seconds, r->epoch_sim_seconds,
               r->final_train_loss, r->test_accuracy};
  };
  auto euler = [&](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    euler::EulerOptions o;
    o.hidden_dim = 16;
    o.epochs = 2;
    o.batch_size = 32;
    o.cluster = cluster;
    auto r = euler::RunEulerGraphSage(g, o);
    PSG_CHECK_OK(r.status());
    return Run{0.0, r->preprocess_sim_seconds, r->epoch_sim_seconds,
               r->final_train_loss, r->test_accuracy};
  };
  for (const auto& [name, run] :
       {std::pair<const char*, std::function<Run(size_t)>>{"graphsage", sage},
        {"euler", euler}}) {
    SCOPED_TRACE(name);
    const Run seq = run(1);
    const Run par = run(8);
    EXPECT_EQ(seq.makespan, par.makespan);
    EXPECT_GT(seq.preprocess, 0.0);
    EXPECT_EQ(seq.preprocess, par.preprocess);
    EXPECT_EQ(seq.epochs.size(), 2u);
    EXPECT_EQ(seq.epochs, par.epochs);
    EXPECT_EQ(seq.loss, par.loss);
    EXPECT_EQ(seq.accuracy, par.accuracy);
  }
}

// DeepWalk, K-core, common neighbor, triangle count, fast unfolding,
// label propagation, connected components and SGC run back to back on
// one PS cluster. Every node's clock after each algorithm and every
// output must be bit-equal at parallelism 1 and 8. Label propagation and
// CC write -1-initialized label rows, SGC Adam rows.
TEST(ConcurrencyTest, PsAlgorithmsIdenticalAcrossParallelism) {
  const graph::EdgeList edges =
      graph::Symmetrize(graph::GenerateErdosRenyi(300, 1800, 17));
  graph::SbmParams sbm;
  sbm.num_vertices = 300;
  sbm.num_edges = 1800;
  sbm.num_communities = 4;
  sbm.feature_dim = 8;
  sbm.seed = 19;
  const graph::LabeledGraph labeled = graph::GenerateSbm(sbm);
  struct Run {
    std::vector<std::vector<int64_t>> ticks;  ///< [algorithm][node]
    std::vector<float> embeddings;
    uint64_t total_pairs = 0;
    double walk_loss = 0.0;
    std::vector<uint32_t> coreness;
    core::CommonNeighborStats cn;
    uint64_t triangles = 0;
    double modularity = 0.0;
    uint64_t communities = 0;
    std::vector<uint64_t> labels;
    uint64_t num_labels = 0;
    int lpa_iterations = 0;
    std::vector<uint64_t> components;
    uint64_t num_components = 0;
    int cc_iterations = 0;
    double sgc_loss = 0.0;
    double sgc_accuracy = 0.0;
    double sgc_propagation_s = 0.0;
  };
  auto run = [&](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    core::PsGraphContext::Options opts;
    opts.cluster.num_executors = 4;
    opts.cluster.num_servers = 3;
    opts.cluster.executor_mem_bytes = 256ull << 20;
    opts.cluster.server_mem_bytes = 256ull << 20;
    auto ctx = core::PsGraphContext::Create(opts);
    PSG_CHECK_OK(ctx.status());
    auto ds = core::StageAndLoadEdges(**ctx, edges, "input/conc_ps.bin");
    PSG_CHECK_OK(ds.status());
    sim::SimCluster& cluster = (*ctx)->cluster();
    Run out;
    auto record_ticks = [&] {
      out.ticks.emplace_back();
      for (int32_t n = 0; n < cluster.config().num_nodes(); ++n) {
        out.ticks.back().push_back(cluster.clock().NowTicks(n));
      }
    };
    core::DeepWalkOptions dw;
    dw.embedding_dim = 8;
    dw.walk_length = 8;
    dw.epochs = 2;
    auto walk = core::DeepWalk(**ctx, *ds, 300, dw);
    PSG_CHECK_OK(walk.status());
    out.embeddings = std::move(walk->embeddings);
    out.total_pairs = walk->total_pairs;
    out.walk_loss = walk->final_avg_loss;
    record_ticks();
    auto kcore = core::KCore(**ctx, *ds, 300);
    PSG_CHECK_OK(kcore.status());
    out.coreness = std::move(kcore->coreness);
    record_ticks();
    auto cn = core::CommonNeighbor(**ctx, *ds);
    PSG_CHECK_OK(cn.status());
    out.cn = *cn;
    record_ticks();
    auto triangles = core::TriangleCount(**ctx, *ds);
    PSG_CHECK_OK(triangles.status());
    out.triangles = *triangles;
    record_ticks();
    auto louvain = core::FastUnfolding(**ctx, *ds);
    PSG_CHECK_OK(louvain.status());
    out.modularity = louvain->modularity;
    out.communities = louvain->num_communities;
    record_ticks();
    auto lpa = core::LabelPropagation(**ctx, *ds, 300);
    PSG_CHECK_OK(lpa.status());
    out.labels = std::move(lpa->labels);
    out.num_labels = lpa->num_labels;
    out.lpa_iterations = lpa->iterations;
    record_ticks();
    auto cc = core::ConnectedComponents(**ctx, *ds, 300);
    PSG_CHECK_OK(cc.status());
    out.components = std::move(cc->component);
    out.num_components = cc->num_components;
    out.cc_iterations = cc->iterations;
    record_ticks();
    core::SgcOptions sgc_opts;
    sgc_opts.epochs = 3;
    auto sgc = core::Sgc(**ctx, labeled, sgc_opts);
    PSG_CHECK_OK(sgc.status());
    out.sgc_loss = sgc->final_train_loss;
    out.sgc_accuracy = sgc->test_accuracy;
    out.sgc_propagation_s = sgc->propagation_sim_seconds;
    record_ticks();
    return out;
  };
  const Run seq = run(1);
  const Run par = run(8);
  ASSERT_EQ(seq.ticks.size(), 8u);
  const char* names[] = {"deepwalk", "kcore", "common_neighbor",
                         "triangle_count", "fast_unfolding",
                         "label_propagation", "connected_components",
                         "sgc"};
  for (size_t a = 0; a < seq.ticks.size(); ++a) {
    EXPECT_EQ(seq.ticks[a], par.ticks[a]) << names[a];
  }
  EXPECT_EQ(seq.embeddings, par.embeddings);
  EXPECT_GT(seq.total_pairs, 0u);
  EXPECT_EQ(seq.total_pairs, par.total_pairs);
  EXPECT_EQ(seq.walk_loss, par.walk_loss);
  EXPECT_EQ(seq.coreness, par.coreness);
  EXPECT_GT(seq.cn.pairs, 0u);
  EXPECT_EQ(seq.cn.pairs, par.cn.pairs);
  EXPECT_EQ(seq.cn.total_common, par.cn.total_common);
  EXPECT_EQ(seq.cn.max_common, par.cn.max_common);
  EXPECT_EQ(seq.cn.rounds, par.cn.rounds);
  EXPECT_EQ(seq.triangles, par.triangles);
  EXPECT_EQ(seq.modularity, par.modularity);
  EXPECT_GT(seq.communities, 0u);
  EXPECT_EQ(seq.communities, par.communities);
  EXPECT_GT(seq.num_labels, 0u);
  EXPECT_EQ(seq.labels, par.labels);
  EXPECT_EQ(seq.num_labels, par.num_labels);
  EXPECT_EQ(seq.lpa_iterations, par.lpa_iterations);
  EXPECT_GT(seq.num_components, 0u);
  EXPECT_EQ(seq.components, par.components);
  EXPECT_EQ(seq.num_components, par.num_components);
  EXPECT_EQ(seq.cc_iterations, par.cc_iterations);
  EXPECT_GT(seq.sgc_accuracy, 0.0);
  EXPECT_EQ(seq.sgc_loss, par.sgc_loss);
  EXPECT_EQ(seq.sgc_accuracy, par.sgc_accuracy);
  EXPECT_EQ(seq.sgc_propagation_s, par.sgc_propagation_s);
}

}  // namespace
}  // namespace psgraph
