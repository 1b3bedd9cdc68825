// Micro-benchmarks (google-benchmark) for the hot substrate paths:
// PS pull/push, psFunc dispatch, shuffle round trips, serialization and
// minitorch kernels. These measure real wall time of the implementation,
// not simulated cluster time.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <unordered_map>

#include "bench/bench_util.h"
#include "common/byte_buffer.h"
#include "common/flat_hash.h"
#include "common/random.h"
#include "common/rpc_telemetry.h"
#include "common/thread_pool.h"
#include "common/varint.h"
#include "common/wire.h"
#include "core/sage_model.h"
#include "dataflow/dataset.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "minitorch/ops.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "sim/cluster.h"
#include "storage/hdfs.h"

namespace psgraph {
namespace {

struct PsFixture {
  explicit PsFixture(int32_t num_servers = 4) {
    sim::ClusterConfig cfg;
    cfg.num_executors = 4;
    cfg.num_servers = num_servers;
    cfg.executor_mem_bytes = 1ull << 30;
    cfg.server_mem_bytes = 1ull << 30;
    cluster = std::make_unique<sim::SimCluster>(cfg);
    fabric = std::make_unique<net::RpcFabric>(cluster.get());
    ctx = std::make_unique<ps::PsContext>(cluster.get(), fabric.get(),
                                          nullptr);
    PSG_CHECK_OK(ctx->Start());
    agent = std::make_unique<ps::PsAgent>(ctx.get(),
                                          cluster->config().executor(0));
    auto m = ctx->CreateMatrix("bench", 1 << 20, 8);
    PSG_CHECK_OK(m.status());
    meta = *m;
  }
  std::unique_ptr<sim::SimCluster> cluster;
  std::unique_ptr<net::RpcFabric> fabric;
  std::unique_ptr<ps::PsContext> ctx;
  std::unique_ptr<ps::PsAgent> agent;
  ps::MatrixMeta meta;
};

void BM_PsPushAdd(benchmark::State& state) {
  PsFixture fx;
  const size_t n = state.range(0);
  std::vector<uint64_t> keys(n);
  std::vector<float> vals(n * 8, 1.0f);
  Rng rng(1);
  for (auto& k : keys) k = rng.NextBounded(1 << 20);
  for (auto _ : state) {
    PSG_CHECK_OK(fx.agent->PushAdd(fx.meta, keys, vals));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PsPushAdd)->Arg(256)->Arg(4096)->Arg(65536);

void BM_PsPullRows(benchmark::State& state) {
  PsFixture fx;
  const size_t n = state.range(0);
  std::vector<uint64_t> keys(n);
  std::vector<float> vals(n * 8, 1.0f);
  Rng rng(2);
  for (auto& k : keys) k = rng.NextBounded(1 << 20);
  PSG_CHECK_OK(fx.agent->PushAdd(fx.meta, keys, vals));
  for (auto _ : state) {
    auto rows = fx.agent->PullRows(fx.meta, keys);
    PSG_CHECK_OK(rows.status());
    benchmark::DoNotOptimize(rows->data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PsPullRows)->Arg(256)->Arg(4096)->Arg(65536);

// One agent pulling the adjacency of N random vertices of an RMAT graph
// from two servers, whose neighbor shards are kept mutable (hash map, as
// the freshness retrain reads them) or frozen to CSR: the server-side
// ps.pull_nbrs encode plus the agent's flat NeighborBlock decode.
void BM_PsPullNeighbors(benchmark::State& state) {
  PsFixture fx(/*num_servers=*/2);
  const size_t n = static_cast<size_t>(state.range(0));
  graph::RmatParams rp;
  rp.scale = 13;
  rp.num_edges = 1 << 17;
  rp.seed = 3;
  const graph::EdgeList edges = graph::GenerateRmat(rp);
  std::map<uint64_t, std::vector<uint64_t>> by_src;
  for (const graph::Edge& e : edges) by_src[e.src].push_back(e.dst);
  std::vector<graph::NeighborList> tables;
  for (auto& [src, dsts] : by_src) tables.push_back({src, std::move(dsts), {}});
  auto adj = fx.ctx->CreateMatrix("bench.nbrs", uint64_t{1} << rp.scale, 0,
                                  ps::StorageKind::kNeighbors,
                                  ps::Layout::kRowPartitioned,
                                  ps::PartitionScheme::kHash);
  PSG_CHECK_OK(adj.status());
  PSG_CHECK_OK(fx.agent->PushNeighbors(*adj, tables));
  if (state.range(1) != 0) PSG_CHECK_OK(fx.agent->FreezeNeighbors(*adj));
  std::vector<uint64_t> keys(n);
  Rng rng(4);
  for (auto& k : keys) k = rng.NextBounded(uint64_t{1} << rp.scale);
  for (auto _ : state) {
    auto block = fx.agent->PullNeighbors(*adj, keys);
    PSG_CHECK_OK(block.status());
    benchmark::DoNotOptimize(block->neighbors(0).data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PsPullNeighbors)
    ->ArgNames({"keys", "frozen"})
    ->ArgsProduct({{256, 4096}, {0, 1}});

// One pagerank.advance psFunc over N materialized nonzero delta rows: the
// server-side fold that runs once per PageRank iteration.
void BM_PsFuncPageRankAdvance(benchmark::State& state) {
  PsFixture fx;
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  auto ranks = fx.ctx->CreateMatrix("bench.ranks", n, 1);
  auto deltas = fx.ctx->CreateMatrix("bench.deltas", n, 1);
  PSG_CHECK_OK(ranks.status());
  PSG_CHECK_OK(deltas.status());
  std::vector<uint64_t> keys(n);
  for (uint64_t k = 0; k < n; ++k) keys[k] = k;
  const std::vector<float> vals(n, 0.01f);
  ByteBuffer args;
  args.Write<ps::MatrixId>(deltas->id);
  args.Write<ps::MatrixId>(ranks->id);
  for (auto _ : state) {
    state.PauseTiming();
    PSG_CHECK_OK(fx.agent->PushAdd(*deltas, keys, vals));
    state.ResumeTiming();
    auto l1 = fx.agent->CallFuncSum("pagerank.advance", args);
    PSG_CHECK_OK(l1.status());
    benchmark::DoNotOptimize(*l1);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PsFuncPageRankAdvance)->Arg(4096)->Arg(65536);

void BM_ShuffleReduceByKey(benchmark::State& state) {
  sim::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.num_servers = 1;
  cfg.executor_mem_bytes = 1ull << 30;
  sim::SimCluster cluster(cfg);
  dataflow::DataflowContext dctx(&cluster);
  const size_t n = state.range(0);
  std::vector<std::pair<uint64_t, uint64_t>> data(n);
  Rng rng(3);
  for (auto& kv : data) kv = {rng.NextBounded(n / 8 + 1), 1};
  for (auto _ : state) {
    auto ds = dataflow::Dataset<std::pair<uint64_t, uint64_t>>::FromVector(
        &dctx, data, 4);
    auto out = ds.ReduceByKey(
                     [](const uint64_t& a, const uint64_t& b) {
                       return a + b;
                     })
                   .Count();
    PSG_CHECK_OK(out.status());
    benchmark::DoNotOptimize(*out);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ShuffleReduceByKey)->Arg(1 << 12)->Arg(1 << 16)->Arg(1 << 18);

void BM_SerializeEdges(benchmark::State& state) {
  graph::EdgeList edges =
      graph::GenerateErdosRenyi(1 << 12, state.range(0), 4);
  for (auto _ : state) {
    ByteBuffer buf;
    buf.WriteVector(edges);
    ByteReader reader(buf);
    graph::EdgeList back;
    PSG_CHECK_OK(reader.ReadVector(&back));
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) *
                          sizeof(graph::Edge));
}
BENCHMARK(BM_SerializeEdges)->Arg(1 << 14)->Arg(1 << 18);

void BM_MinitorchMatmulBackward(benchmark::State& state) {
  Rng rng(5);
  const int64_t n = state.range(0);
  minitorch::Tensor a =
      minitorch::Tensor::Randn(n, 64, rng, /*requires_grad=*/true);
  minitorch::Tensor w =
      minitorch::Tensor::Randn(64, 32, rng, /*requires_grad=*/true);
  std::vector<int32_t> labels(n);
  for (auto& l : labels) l = (int32_t)rng.NextBounded(32);
  for (auto _ : state) {
    a.ZeroGrad();
    w.ZeroGrad();
    auto loss = minitorch::SoftmaxCrossEntropy(
        minitorch::Matmul(minitorch::Relu(a), w), labels);
    loss.Backward();
    benchmark::DoNotOptimize(loss.data()[0]);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MinitorchMatmulBackward)->Arg(64)->Arg(512);

// One GraphSage mini-batch step on a DS3-mini-shaped batch, in memory:
// the shared two-hop sampler (64 batch vertices, fanouts 10 and 5) over
// adjacency served as ps::NeighborBlock through the pull_nbrs decoder,
// then forward and backward of the two-layer mean model (32 features,
// 64 hidden, 8 classes) with freshly pulled weights, as in training.
void BM_SageStep(benchmark::State& state) {
  const graph::LabeledGraph g =
      graph::MakeDs3Mini(graph::Ds3MiniInfo(2000), /*seed=*/1);
  const int64_t d = g.feature_dim, hidden = 64, batch_size = 64;
  std::vector<std::vector<uint64_t>> adj(g.num_vertices);
  for (const graph::Edge& e : g.edges) {
    adj[e.src].push_back(e.dst);
    adj[e.dst].push_back(e.src);
  }
  const core::NeighborFetch fetch = [&adj](const std::vector<uint64_t>& keys)
      -> Result<ps::NeighborBlock> {
    ByteBuffer response;
    std::vector<uint32_t> index(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      PutDeltaList(&response, adj[keys[i]]);
      WriteFloatBlock(&response, std::vector<float>{});
      index[i] = static_cast<uint32_t>(i);
    }
    ps::NeighborBlock block(keys.size());
    PSG_RETURN_NOT_OK(block.DecodeResponse(response.data(), index));
    return block;
  };
  Rng rng(6);
  const minitorch::Tensor w1 = minitorch::Tensor::Randn(2 * d, hidden, rng);
  const minitorch::Tensor w2 =
      minitorch::Tensor::Randn(2 * hidden, g.num_classes, rng);
  core::SageSampler sampler(g.num_vertices, /*fanout1=*/10, /*fanout2=*/5);
  core::SageParams params;
  std::vector<uint64_t> batch_ids(batch_size), involved;
  for (auto _ : state) {
    const uint64_t first = rng.NextBounded(g.num_vertices - batch_size);
    core::SageBatch batch;
    for (int64_t i = 0; i < batch_size; ++i) {
      batch_ids[i] = first + i;
      batch.labels.push_back(g.labels[first + i]);
    }
    PSG_CHECK_OK(sampler.Sample(batch_ids, rng, fetch, &batch, &involved));
    std::vector<float> x;
    x.reserve(involved.size() * d);
    for (uint64_t v : involved) {
      x.insert(x.end(), g.features.begin() + v * d,
               g.features.begin() + (v + 1) * d);
    }
    batch.features = minitorch::Tensor::FromData(
        static_cast<int64_t>(involved.size()), d, std::move(x));
    params.w1 = minitorch::Tensor::FromData(w1.rows(), w1.cols(), w1.data(),
                                            /*requires_grad=*/true);
    params.w2 = minitorch::Tensor::FromData(w2.rows(), w2.cols(), w2.data(),
                                            /*requires_grad=*/true);
    minitorch::Tensor loss = minitorch::SoftmaxCrossEntropy(
        core::SageForward(params, batch), batch.labels);
    loss.Backward();
    benchmark::DoNotOptimize(params.w1.grad().data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
}
BENCHMARK(BM_SageStep);

// Row-store kernel: upsert + probe + erase-half over the same key
// stream, once against the open-addressing FlatHashMap and once against
// std::unordered_map. The PS shard hot path is exactly this mix.
template <typename Map>
void HashMapKernel(benchmark::State& state) {
  const size_t n = state.range(0);
  std::vector<uint64_t> keys(n);
  Rng rng(11);
  for (auto& k : keys) k = rng.NextBounded(1ull << 40);
  for (auto _ : state) {
    Map map;
    for (size_t i = 0; i < n; ++i) {
      map[keys[i]] = static_cast<float>(i);
    }
    size_t found = 0;
    for (size_t i = 0; i < n; ++i) {
      found += map.find(keys[i]) != map.end() ? 1 : 0;
    }
    for (size_t i = 0; i < n; i += 2) map.erase(keys[i]);
    benchmark::DoNotOptimize(found);
    benchmark::DoNotOptimize(map.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}

void BM_FlatHashUpsertFindErase(benchmark::State& state) {
  HashMapKernel<FlatHashMap<float>>(state);
}
BENCHMARK(BM_FlatHashUpsertFindErase)->Arg(1 << 12)->Arg(1 << 16);

void BM_UnorderedMapUpsertFindErase(benchmark::State& state) {
  HashMapKernel<std::unordered_map<uint64_t, float>>(state);
}
BENCHMARK(BM_UnorderedMapUpsertFindErase)->Arg(1 << 12)->Arg(1 << 16);

void BM_VarintEncodeDecode(benchmark::State& state) {
  const size_t n = state.range(0);
  std::vector<uint64_t> values(n);
  Rng rng(13);
  for (auto& v : values) v = rng.NextBounded(1ull << 35);
  for (auto _ : state) {
    ByteBuffer buf;
    for (uint64_t v : values) PutVarint64(&buf, v);
    ByteReader reader(buf);
    uint64_t sum = 0;
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      PSG_CHECK_OK(GetVarint64(&reader, &v));
      sum += v;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_VarintEncodeDecode)->Arg(1 << 12)->Arg(1 << 16);

void BM_DeltaListRoundTrip(benchmark::State& state) {
  const size_t n = state.range(0);
  std::vector<uint64_t> keys(n);
  Rng rng(17);
  for (auto& k : keys) k = rng.NextBounded(1 << 20);
  std::sort(keys.begin(), keys.end());
  for (auto _ : state) {
    ByteBuffer buf;
    PutDeltaList(&buf, keys);
    ByteReader reader(buf);
    std::vector<uint64_t> back;
    PSG_CHECK_OK(GetDeltaList(&reader, &back));
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() * n * sizeof(uint64_t));
}
BENCHMARK(BM_DeltaListRoundTrip)->Arg(1 << 12)->Arg(1 << 16);

void BM_RmatGenerate(benchmark::State& state) {
  graph::RmatParams params;
  params.scale = 16;
  params.num_edges = state.range(0);
  for (auto _ : state) {
    params.seed++;
    auto edges = graph::GenerateRmat(params);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RmatGenerate)->Arg(1 << 16)->Arg(1 << 19);

// Deterministic instrumented PS workload for the regression baseline:
// with parallelism pinned to 1 every simulated tick is reproducible
// run-to-run, so the pull/push latency histograms and per-node
// makespans in BENCH_micro.json can be diffed exactly by
// scripts/check_bench_regression.py. The google-benchmark
// timings above measure wall clock and are NOT part of the report.
void EmitMicroReport() {
  SetGlobalParallelism(1);
  PsFixture fx;
  // Drop the fixture's setup traffic so the report holds exactly the
  // workload below; re-arming the sampler clears its stored points.
  fx.cluster->metrics().Reset();
  fx.cluster->tracer().Reset();
  fx.cluster->rpc_telemetry().Reset();
  MetricsSampler& sampler = fx.cluster->sampler();
  sampler.Configure(sampler.options());

  const size_t kKeys = 4096;
  const int kRounds = 32;
  std::vector<uint64_t> keys(kKeys);
  std::vector<float> vals(kKeys * 8, 1.0f);
  Rng rng(7);
  for (auto& k : keys) k = rng.NextBounded(1 << 20);
  for (int round = 0; round < kRounds; ++round) {
    PSG_CHECK_OK(fx.agent->PushAdd(fx.meta, keys, vals));
    auto rows = fx.agent->PullRows(fx.meta, keys);
    PSG_CHECK_OK(rows.status());
  }

  // One extra timed round for per-op simulated costs: at parallelism 1
  // the clock deltas are exact, reproducible numbers.
  const sim::NodeId agent_node = fx.cluster->config().executor(0);
  const int64_t push_t0 = fx.cluster->clock().NowTicks(agent_node);
  PSG_CHECK_OK(fx.agent->PushAdd(fx.meta, keys, vals));
  const int64_t push_ticks =
      fx.cluster->clock().NowTicks(agent_node) - push_t0;
  const int64_t pull_t0 = fx.cluster->clock().NowTicks(agent_node);
  {
    auto rows = fx.agent->PullRows(fx.meta, keys);
    PSG_CHECK_OK(rows.status());
  }
  const int64_t pull_ticks =
      fx.cluster->clock().NowTicks(agent_node) - pull_t0;

  // Kernel table: every entry carries {value, unit} — "bytes" entries
  // are pure functions of the wire format (gated exactly by
  // scripts/check_bench_regression.py), "ticks" entries derive from the
  // deterministic simulated clock (gated within the tolerance band).
  auto kernel = [](JsonValue value, const char* unit) {
    JsonValue entry = JsonValue::Object();
    entry.Set("value", std::move(value));
    entry.Set("unit", unit);
    return entry;
  };
  JsonValue kernels = JsonValue::Object();
  {
    // Key-batch framing: delta-varint list vs the v1 fixed layout
    // (8-byte count + 8 bytes per key) for one sorted pull batch.
    std::vector<uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    kernels.Set("keys_fixed64_bytes",
                kernel(JsonValue(static_cast<uint64_t>(
                           8 + sorted.size() * sizeof(uint64_t))),
                       "bytes"));
    kernels.Set("keys_delta_varint_bytes",
                kernel(JsonValue(static_cast<uint64_t>(DeltaListSize(
                           sorted.data(), sorted.size()))),
                       "bytes"));
  }
  uint64_t pull_req_bytes = 0, pull_resp_bytes = 0;
  uint64_t push_req_bytes = 0, push_resp_bytes = 0;
  for (const RpcTelemetry::MethodStat& stat :
       fx.cluster->rpc_telemetry().Snapshot()) {
    if (stat.method == "ps.pull") {
      pull_req_bytes += stat.request_bytes;
      pull_resp_bytes += stat.response_bytes;
    } else if (stat.method == "ps.push_add") {
      push_req_bytes += stat.request_bytes;
      push_resp_bytes += stat.response_bytes;
    }
  }
  kernels.Set("pull_request_bytes",
              kernel(JsonValue(pull_req_bytes), "bytes"));
  kernels.Set("pull_response_bytes",
              kernel(JsonValue(pull_resp_bytes), "bytes"));
  kernels.Set("push_request_bytes",
              kernel(JsonValue(push_req_bytes), "bytes"));
  kernels.Set("push_response_bytes",
              kernel(JsonValue(push_resp_bytes), "bytes"));
  kernels.Set("pull_roundtrip_ticks",
              kernel(JsonValue(pull_ticks), "ticks"));
  kernels.Set("push_roundtrip_ticks",
              kernel(JsonValue(push_ticks), "ticks"));

  bench::BenchReport report("micro");
  report.Set("rounds", JsonValue(kRounds));
  report.Set("keys_per_round", JsonValue((uint64_t)kKeys));
  report.Set("kernels", std::move(kernels));
  report.Capture(fx.cluster.get());
  report.Write();
  SetGlobalParallelism(0);  // restore the env/hardware default
}

}  // namespace
}  // namespace psgraph

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  psgraph::EmitMicroReport();
  return 0;
}
