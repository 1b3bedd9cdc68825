// Tests for the parameter server: partitioners, pull/push operators,
// neighbor tables, psFuncs, column partitioning, checkpoint/restore and
// master-driven failure recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/varint.h"
#include "minitorch/nn.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/master.h"
#include "ps/partitioner.h"
#include "ps/server.h"
#include "ps/sync.h"
#include "sim/cluster.h"
#include "storage/hdfs.h"

namespace psgraph::ps {
namespace {

template <typename T>
std::vector<T> ToVector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

class PsTest : public ::testing::Test {
 protected:
  PsTest() {
    sim::ClusterConfig cfg;
    cfg.num_executors = 2;
    cfg.num_servers = 3;
    cfg.executor_mem_bytes = 64ull << 20;
    cfg.server_mem_bytes = 64ull << 20;
    cluster_ = std::make_unique<sim::SimCluster>(cfg);
    hdfs_ = std::make_unique<storage::Hdfs>(cluster_.get());
    fabric_ = std::make_unique<net::RpcFabric>(cluster_.get());
    ctx_ = std::make_unique<PsContext>(cluster_.get(), fabric_.get(),
                                       hdfs_.get());
    PSG_CHECK_OK(ctx_->Start());
    agent_ = std::make_unique<PsAgent>(ctx_.get(),
                                       cluster_->config().executor(0));
  }

  std::unique_ptr<sim::SimCluster> cluster_;
  std::unique_ptr<storage::Hdfs> hdfs_;
  std::unique_ptr<net::RpcFabric> fabric_;
  std::unique_ptr<PsContext> ctx_;
  std::unique_ptr<PsAgent> agent_;
};

TEST(PartitionerTest, SchemesCoverAllPartitions) {
  for (PartitionScheme scheme :
       {PartitionScheme::kHash, PartitionScheme::kRange,
        PartitionScheme::kHashRange}) {
    // Chunk small enough that hash-range has more chunks than
    // partitions.
    Partitioner part(scheme, /*key_space=*/10000, /*num_partitions=*/7,
                     /*range_chunk=*/64);
    std::set<int32_t> seen;
    for (uint64_t k = 0; k < 10000; ++k) {
      int32_t p = part.PartitionOf(k);
      ASSERT_GE(p, 0);
      ASSERT_LT(p, 7);
      seen.insert(p);
    }
    EXPECT_EQ(seen.size(), 7u) << "scheme " << (int)scheme;
  }
}

TEST(PartitionerTest, RangeIsContiguous) {
  Partitioner part(PartitionScheme::kRange, 100, 4);
  EXPECT_EQ(part.PartitionOf(0), 0);
  EXPECT_EQ(part.PartitionOf(24), 0);
  EXPECT_EQ(part.PartitionOf(25), 1);
  EXPECT_EQ(part.PartitionOf(99), 3);
}

TEST(PartitionerTest, HashRangeKeepsChunksTogether) {
  Partitioner part(PartitionScheme::kHashRange, 1 << 20, 5,
                   /*range_chunk=*/256);
  for (uint64_t base = 0; base < (1 << 20); base += 4096) {
    int32_t p = part.PartitionOf(base);
    EXPECT_EQ(part.PartitionOf(base + 255), p);
  }
}

TEST(ColumnSliceTest, CoversAllColumnsDisjointly) {
  uint32_t covered = 0;
  uint32_t prev_end = 0;
  for (int s = 0; s < 3; ++s) {
    auto [b, e] = ColumnSliceOf(10, s, 3);
    EXPECT_EQ(b, prev_end);
    covered += e - b;
    prev_end = e;
  }
  EXPECT_EQ(covered, 10u);
}

TEST_F(PsTest, PullOfUnpushedRowsReturnsInitValue) {
  auto meta = ctx_->CreateMatrix("m", 100, 2, StorageKind::kRows,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kRange, 0.5f);
  ASSERT_TRUE(meta.ok());
  auto rows = agent_->PullRows(*meta, {3, 50, 99});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 6u);
  for (float v : *rows) EXPECT_FLOAT_EQ(v, 0.5f);
}

TEST_F(PsTest, PushAddAccumulatesAcrossServers) {
  auto meta = ctx_->CreateMatrix("m", 1000, 1);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 1000; k += 10) {
    keys.push_back(k);
    vals.push_back(static_cast<float>(k));
  }
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, vals).ok());
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, vals).ok());
  auto rows = agent_->PullRows(*meta, keys);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_FLOAT_EQ((*rows)[i], 2.0f * keys[i]);
  }
}

TEST_F(PsTest, PushAssignOverwrites) {
  auto meta = ctx_->CreateMatrix("m", 10, 1);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(agent_->PushAdd(*meta, {5}, {3.0f}).ok());
  ASSERT_TRUE(agent_->PushAssign(*meta, {5}, {7.0f}).ok());
  auto rows = agent_->PullRows(*meta, {5});
  ASSERT_TRUE(rows.ok());
  EXPECT_FLOAT_EQ((*rows)[0], 7.0f);
}

TEST_F(PsTest, NeighborTableRoundTrip) {
  auto meta = ctx_->CreateMatrix("nbrs", 0, 0, StorageKind::kNeighbors,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  std::vector<graph::NeighborList> tables(3);
  tables[0] = {1, {2, 3, 4}, {}};
  tables[1] = {2, {1}, {}};
  tables[2] = {77, {1, 2}, {0.5f, 0.25f}};
  ASSERT_TRUE(agent_->PushNeighbors(*meta, tables).ok());
  auto block = agent_->PullNeighbors(*meta, {77, 1, 999});
  ASSERT_TRUE(block.ok());
  ASSERT_EQ(block->size(), 3u);
  EXPECT_EQ(ToVector(block->neighbors(0)), (std::vector<uint64_t>{1, 2}));
  EXPECT_EQ(ToVector(block->weights(0)), (std::vector<float>{0.5f, 0.25f}));
  EXPECT_EQ(ToVector(block->neighbors(1)), (std::vector<uint64_t>{2, 3, 4}));
  EXPECT_TRUE(block->weights(1).empty());
  EXPECT_TRUE(block->neighbors(2).empty());
  EXPECT_TRUE(block->weights(2).empty());
}

TEST_F(PsTest, NeighborBlockFollowsRequestOrderAcrossServers) {
  auto meta = ctx_->CreateMatrix("nbrs", 0, 0, StorageKind::kNeighbors,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  // Vertex v links to {v+1, ..., v+1+v%4}: the list names its key.
  std::vector<graph::NeighborList> tables;
  for (uint64_t v = 0; v < 40; ++v) {
    graph::NeighborList nl;
    nl.vertex = v;
    for (uint64_t k = 0; k <= v % 4; ++k) nl.neighbors.push_back(v + 1 + k);
    if (v % 3 == 0) nl.weights.assign(nl.neighbors.size(), 0.5f * v);
    tables.push_back(std::move(nl));
  }
  ASSERT_TRUE(agent_->PushNeighbors(*meta, tables).ok());

  // Descending keys land on all three servers, and each server's share
  // is re-sorted on the wire; a duplicated key and an unknown one ride
  // along.
  std::vector<uint64_t> keys;
  for (uint64_t v = 40; v-- > 0;) keys.push_back(v);
  keys.insert(keys.begin() + 5, 17);
  keys.push_back(17);
  keys.push_back(12345);
  Partitioner part(meta->scheme, meta->num_rows, ctx_->num_servers());
  std::set<int32_t> servers;
  for (uint64_t k : keys) servers.insert(part.PartitionOf(k));
  ASSERT_EQ(servers.size(), 3u);

  auto block = agent_->PullNeighbors(*meta, keys);
  ASSERT_TRUE(block.ok()) << block.status().ToString();
  ASSERT_EQ(block->size(), keys.size());
  // Every known key, the duplicated one at both of its positions (5 and
  // keys.size() - 2), gets its own list and weights.
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    const uint64_t v = keys[i];
    EXPECT_EQ(ToVector(block->neighbors(i)), tables[v].neighbors)
        << "position " << i << " key " << v;
    EXPECT_EQ(ToVector(block->weights(i)), tables[v].weights)
        << "position " << i << " key " << v;
  }
  // The unknown key got empty spans.
  EXPECT_TRUE(block->neighbors(keys.size() - 1).empty());
  EXPECT_TRUE(block->weights(keys.size() - 1).empty());
}

TEST_F(PsTest, NeighborBlockRejectsLeftoverResponseBytes) {
  auto meta = ctx_->CreateMatrix("nbrs", 0, 0, StorageKind::kNeighbors,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(agent_->PushNeighbors(*meta, {{3, {4, 5}, {}}}).ok());
  Partitioner part(meta->scheme, meta->num_rows, ctx_->num_servers());
  ByteBuffer req;
  req.Write<MatrixId>(meta->id);
  PutDeltaList(&req, std::vector<uint64_t>{3});
  auto resp = fabric_->Call(cluster_->config().executor(0),
                            ctx_->ServerNode(part.PartitionOf(3)),
                            "ps.pull_nbrs", req);
  ASSERT_TRUE(resp.ok());
  const std::vector<uint32_t> index{0};
  {
    NeighborBlock block(1);
    ASSERT_TRUE(block.DecodeResponse(*resp, index).ok());
    EXPECT_EQ(ToVector(block.neighbors(0)), (std::vector<uint64_t>{4, 5}));
  }
  std::vector<uint8_t> padded = *resp;
  padded.push_back(0);
  NeighborBlock block(1);
  Status st = block.DecodeResponse(padded, index);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.ToString().find("1 bytes left over at offset " +
                               std::to_string(resp->size())),
            std::string::npos)
      << st.ToString();
}

TEST_F(PsTest, ColumnPartitionedPullReassemblesFullRows) {
  auto meta = ctx_->CreateMatrix("emb", 50, 8, StorageKind::kRows,
                                 Layout::kColumnPartitioned,
                                 PartitionScheme::kRange);
  ASSERT_TRUE(meta.ok());
  std::vector<float> row(8);
  for (int c = 0; c < 8; ++c) row[c] = static_cast<float>(c + 1);
  ASSERT_TRUE(agent_->PushAdd(*meta, {7}, row).ok());
  auto rows = agent_->PullRows(*meta, {7});
  ASSERT_TRUE(rows.ok());
  for (int c = 0; c < 8; ++c) {
    EXPECT_FLOAT_EQ((*rows)[c], static_cast<float>(c + 1));
  }
}

TEST_F(PsTest, DotPartialMatchesLocalDot) {
  auto emb = ctx_->CreateMatrix("emb", 20, 6, StorageKind::kRows,
                                Layout::kColumnPartitioned,
                                PartitionScheme::kRange);
  auto ctxm = ctx_->CreateMatrix("ctx", 20, 6, StorageKind::kRows,
                                 Layout::kColumnPartitioned,
                                 PartitionScheme::kRange);
  ASSERT_TRUE(emb.ok());
  ASSERT_TRUE(ctxm.ok());
  std::vector<float> u{1, 2, 3, 4, 5, 6};
  std::vector<float> c{0.5f, -1, 2, 0, 1, -2};
  ASSERT_TRUE(agent_->PushAdd(*emb, {3}, u).ok());
  ASSERT_TRUE(agent_->PushAdd(*ctxm, {9}, c).ok());
  auto dots = agent_->DotProducts(*emb, *ctxm, {{3, 9}, {3, 3}});
  ASSERT_TRUE(dots.ok());
  double expect = 0;
  for (int i = 0; i < 6; ++i) expect += u[i] * c[i];
  EXPECT_NEAR((*dots)[0], expect, 1e-6);
  EXPECT_NEAR((*dots)[1], 0.0, 1e-9) << "unpushed ctx row dots to zero";
}

TEST_F(PsTest, PageRankAdvancePsFunc) {
  auto ranks = ctx_->CreateMatrix("r", 100, 1);
  auto deltas = ctx_->CreateMatrix("d", 100, 1);
  ASSERT_TRUE(ranks.ok());
  ASSERT_TRUE(deltas.ok());
  ASSERT_TRUE(agent_->PushAdd(*deltas, {1, 2, 3}, {0.5f, -0.25f, 1.0f})
                  .ok());
  ByteBuffer args;
  args.Write<MatrixId>(deltas->id);
  args.Write<MatrixId>(ranks->id);
  auto l1 = agent_->CallFuncSum("pagerank.advance", args);
  ASSERT_TRUE(l1.ok());
  EXPECT_NEAR(*l1, 1.75, 1e-6);
  auto r = agent_->PullRows(*ranks, {1, 2, 3});
  ASSERT_TRUE(r.ok());
  EXPECT_FLOAT_EQ((*r)[0], 0.5f);
  EXPECT_FLOAT_EQ((*r)[1], -0.25f);
  auto d = agent_->PullRows(*deltas, {1, 2, 3});
  ASSERT_TRUE(d.ok());
  for (float v : *d) EXPECT_FLOAT_EQ(v, 0.0f);
  // Second advance: nothing left.
  auto l1b = agent_->CallFuncSum("pagerank.advance", args);
  ASSERT_TRUE(l1b.ok());
  EXPECT_DOUBLE_EQ(*l1b, 0.0);
}

TEST_F(PsTest, InitFillMaterializesWholeIdSpace) {
  auto meta = ctx_->CreateMatrix("f", 64, 1);
  ASSERT_TRUE(meta.ok());
  ByteBuffer args;
  args.Write<MatrixId>(meta->id);
  args.Write<float>(0.15f);
  ASSERT_TRUE(agent_->CallFuncAll("init.fill", args).ok());
  ByteBuffer count_args;
  count_args.Write<MatrixId>(meta->id);
  auto counts = agent_->CallFuncAll("rows.count", count_args);
  ASSERT_TRUE(counts.ok());
  uint64_t total = 0;
  for (const auto& resp : *counts) {
    ByteReader reader(resp.data(), resp.size());
    uint64_t c = 0;
    ASSERT_TRUE(reader.Read(&c).ok());
    total += c;
  }
  EXPECT_EQ(total, 64u);
}

TEST_F(PsTest, InitRandnIsLayoutIndependentDeterministic) {
  auto meta = ctx_->CreateMatrix("g", 32, 4, StorageKind::kRows,
                                 Layout::kColumnPartitioned,
                                 PartitionScheme::kRange);
  ASSERT_TRUE(meta.ok());
  ByteBuffer args;
  args.Write<MatrixId>(meta->id);
  args.Write<float>(1.0f);
  args.Write<uint64_t>(99);
  ASSERT_TRUE(agent_->CallFuncAll("init.randn", args).ok());
  auto row = agent_->PullRows(*meta, {5});
  ASSERT_TRUE(row.ok());
  // Reference: the same deterministic stream.
  Rng rng(99 ^ Hash64(5));
  for (int c = 0; c < 4; ++c) {
    EXPECT_FLOAT_EQ((*row)[c], (float)rng.NextGaussian());
  }
}

TEST_F(PsTest, AdamOnPsMatchesLocalAdam) {
  auto w = ctx_->CreateMatrix("w", 4, 3);
  auto m = ctx_->CreateMatrix("w.m", 4, 3);
  auto v = ctx_->CreateMatrix("w.v", 4, 3);
  ASSERT_TRUE(w.ok() && m.ok() && v.ok());
  // Local reference.
  Rng rng(1);
  minitorch::Tensor ref =
      minitorch::Tensor::Randn(4, 3, rng, /*requires_grad=*/true);
  std::vector<uint64_t> keys{0, 1, 2, 3};
  ASSERT_TRUE(agent_->PushAssign(*w, keys, ref.data()).ok());
  minitorch::Adam adam({ref}, 0.05f);

  Rng grad_rng(2);
  for (int step = 1; step <= 5; ++step) {
    std::vector<float> grads(12);
    for (auto& g : grads) g = (float)grad_rng.NextGaussian();
    // Local step.
    auto& gr = ref.mutable_grad();
    std::copy(grads.begin(), grads.end(), gr.begin());
    adam.Step();
    adam.ZeroGrad();
    // PS step, per owning server.
    for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
      std::vector<uint64_t> skeys;
      std::vector<float> sgrads;
      for (uint64_t r : keys) {
        if (ctx_->ServerOfKey(*w, r) != s) continue;
        skeys.push_back(r);
        sgrads.insert(sgrads.end(), grads.begin() + r * 3,
                      grads.begin() + (r + 1) * 3);
      }
      if (skeys.empty()) continue;
      ByteBuffer args;
      args.Write<MatrixId>(w->id);
      args.Write<MatrixId>(m->id);
      args.Write<MatrixId>(v->id);
      args.Write<float>(0.05f);
      args.Write<float>(0.9f);
      args.Write<float>(0.999f);
      args.Write<float>(1e-8f);
      args.Write<int32_t>(step);
      args.WriteVector(skeys);
      args.WriteVector(sgrads);
      ASSERT_TRUE(agent_->CallFunc(s, "adam.apply", args).ok());
    }
  }
  auto rows = agent_->PullRows(*w, keys);
  ASSERT_TRUE(rows.ok());
  for (size_t i = 0; i < rows->size(); ++i) {
    EXPECT_NEAR((*rows)[i], ref.data()[i], 1e-4) << "element " << i;
  }
}

TEST_F(PsTest, CheckpointRestoreRoundTrip) {
  auto meta = ctx_->CreateMatrix("ck", 100, 2);
  ASSERT_TRUE(meta.ok());
  ASSERT_TRUE(
      agent_->PushAdd(*meta, {1, 50, 99}, {1, 2, 3, 4, 5, 6}).ok());
  PsMaster master(ctx_.get(), "ckpt/test");
  ASSERT_TRUE(master.CheckpointAll().ok());
  // Clobber and restore.
  ASSERT_TRUE(agent_->PushAdd(*meta, {1}, {100.0f, 100.0f}).ok());
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    ASSERT_TRUE(ctx_->server(s)->Restore("ckpt/test").ok());
  }
  auto rows = agent_->PullRows(*meta, {1, 50, 99});
  ASSERT_TRUE(rows.ok());
  EXPECT_FLOAT_EQ((*rows)[0], 1.0f);
  EXPECT_FLOAT_EQ((*rows)[5], 6.0f);
}

TEST_F(PsTest, MasterRecoversDeadServerFromCheckpoint) {
  auto meta = ctx_->CreateMatrix("rec", 100, 1);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 100; ++k) {
    keys.push_back(k);
    vals.push_back(static_cast<float>(k) * 2);
  }
  ASSERT_TRUE(agent_->PushAssign(*meta, keys, vals).ok());
  PsMaster master(ctx_.get(), "ckpt/rec");
  ASSERT_TRUE(master.CheckpointAll().ok());

  sim::NodeId victim = ctx_->ServerNode(1);
  cluster_->KillNode(victim);
  EXPECT_FALSE(agent_->PullRows(*meta, keys).ok())
      << "pull must fail while a server is down";
  EXPECT_EQ(master.FindDeadServers(), std::vector<int32_t>{1});

  auto recovered = master.CheckAndRecover(RecoveryMode::kPartial);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, 1);
  auto rows = agent_->PullRows(*meta, keys);
  ASSERT_TRUE(rows.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_FLOAT_EQ((*rows)[k], static_cast<float>(k) * 2);
  }
}

TEST_F(PsTest, ConsistentRecoveryRollsBackAllServers) {
  auto meta = ctx_->CreateMatrix("cons", 30, 1);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 30; ++k) keys.push_back(k);
  std::vector<float> ones(30, 1.0f);
  ASSERT_TRUE(agent_->PushAssign(*meta, keys, ones).ok());
  PsMaster master(ctx_.get(), "ckpt/cons");
  ASSERT_TRUE(master.CheckpointAll().ok());

  // Post-checkpoint updates that must be rolled back everywhere.
  std::vector<float> twos(30, 2.0f);
  ASSERT_TRUE(agent_->PushAssign(*meta, keys, twos).ok());
  cluster_->KillNode(ctx_->ServerNode(0));
  auto recovered = master.CheckAndRecover(RecoveryMode::kConsistent);
  ASSERT_TRUE(recovered.ok());
  auto rows = agent_->PullRows(*meta, keys);
  ASSERT_TRUE(rows.ok());
  for (float v : *rows) {
    EXPECT_FLOAT_EQ(v, 1.0f) << "all servers must roll back";
  }
}

TEST_F(PsTest, DropMatrixReleasesMemory) {
  auto meta = ctx_->CreateMatrix("tmp", 1000, 4);
  ASSERT_TRUE(meta.ok());
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 1000; ++k) {
    keys.push_back(k);
    for (int c = 0; c < 4; ++c) vals.push_back(1.0f);
  }
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, vals).ok());
  uint64_t used = 0;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    used += cluster_->memory().Usage(ctx_->ServerNode(s));
  }
  EXPECT_GT(used, 0u);
  ASSERT_TRUE(ctx_->DropMatrix("tmp").ok());
  uint64_t after = 0;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    after += cluster_->memory().Usage(ctx_->ServerNode(s));
  }
  EXPECT_EQ(after, 0u);
}

TEST_F(PsTest, ServerMemoryBudgetEnforced) {
  sim::ClusterConfig cfg;
  cfg.num_executors = 1;
  cfg.num_servers = 1;
  cfg.server_mem_bytes = 32 << 10;
  sim::SimCluster tiny(cfg);
  net::RpcFabric fabric(&tiny);
  PsContext psctx(&tiny, &fabric, nullptr);
  ASSERT_TRUE(psctx.Start().ok());
  auto meta = psctx.CreateMatrix("big", 1 << 20, 16);
  ASSERT_TRUE(meta.ok());
  PsAgent agent(&psctx, tiny.config().executor(0));
  std::vector<uint64_t> keys;
  std::vector<float> vals;
  for (uint64_t k = 0; k < 4096; ++k) {
    keys.push_back(k);
    for (int c = 0; c < 16; ++c) vals.push_back(1.0f);
  }
  Status st = agent.PushAdd(*meta, keys, vals);
  EXPECT_TRUE(st.IsMemoryLimitExceeded()) << st.ToString();
}

TEST_F(PsTest, SyncControllerSspBarriersEveryNthCall) {
  SyncController ssp(cluster_.get(), SyncProtocol::kSsp, /*staleness=*/3);
  cluster_->clock().Advance(cluster_->config().executor(0), 9.0);
  ssp.IterationBarrier();  // call 1: within bound, no barrier
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   0.0);
  ssp.IterationBarrier();  // call 2: still within bound
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   0.0);
  ssp.IterationBarrier();  // call 3: barrier fires
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   9.0);
  EXPECT_GT(ssp.total_wait(), 0.0);
}

TEST_F(PsTest, SyncControllerBspVsAsp) {
  cluster_->clock().Advance(cluster_->config().executor(0), 10.0);
  SyncController asp(cluster_.get(), SyncProtocol::kAsp);
  asp.IterationBarrier();
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   0.0);
  SyncController bsp(cluster_.get(), SyncProtocol::kBsp);
  bsp.IterationBarrier();
  EXPECT_DOUBLE_EQ(cluster_->clock().Now(cluster_->config().executor(1)),
                   10.0);
}

// --- Batched psFunc row writes (PsServer::RowBatch) ------------------------

/// One PS server on its own one-server cluster with private telemetry
/// sinks. Charge-identity tests run a psFunc on one of these and the
/// equivalent sequence of one-key PushAdd/PushAssign calls on another,
/// so every charge can be compared whole.
struct SoloServer {
  explicit SoloServer(uint64_t server_mem = 64ull << 20) {
    sim::ClusterConfig cfg;
    cfg.num_executors = 1;
    cfg.num_servers = 1;
    cfg.server_mem_bytes = server_mem;
    cluster = std::make_unique<sim::SimCluster>(cfg);
    server = std::make_unique<PsServer>(0, 1, cluster.get(), nullptr);
    RegisterBuiltinPsFuncs();
  }

  void Create(MatrixId id, uint64_t rows, uint32_t cols) {
    MatrixMeta meta;
    meta.id = id;
    meta.name = "m" + std::to_string(id);
    meta.num_rows = rows;
    meta.num_cols = cols;
    PSG_CHECK_OK(server->InitMatrix(meta));
  }

  /// Runs a registered psFunc directly on the server.
  Status Call(const std::string& name, const ByteBuffer& args) {
    auto fn = PsFuncRegistry::Global().Find(name);
    if (!fn.ok()) return fn.status();
    ByteReader reader(args);
    return (*fn)(*server, reader).status();
  }

  bool Has(MatrixId id, uint64_t key) {
    return (*server->GetShard(id))->FindRow(key) != nullptr;
  }

  Status Add(MatrixId id, uint64_t key, std::vector<float> row) {
    return server->PushAdd(id, std::vector<uint64_t>{key}, row);
  }
  Status Assign(MatrixId id, uint64_t key, std::vector<float> row) {
    return server->PushAssign(id, std::vector<uint64_t>{key}, row);
  }

  std::unique_ptr<sim::SimCluster> cluster;
  std::unique_ptr<PsServer> server;
};

void ExpectSameCharges(SoloServer& batched, SoloServer& per_row) {
  const sim::NodeId node = batched.server->node();
  EXPECT_EQ(batched.cluster->clock().NowTicks(node),
            per_row.cluster->clock().NowTicks(node));
  EXPECT_EQ(batched.cluster->memory().Usage(node),
            per_row.cluster->memory().Usage(node));
  EXPECT_EQ(batched.cluster->memory().Peak(node),
            per_row.cluster->memory().Peak(node));
  // ps.rows_pushed and the per-server ps.server0.rows_pushed.
  EXPECT_EQ(batched.cluster->metrics().CounterSnapshot(),
            per_row.cluster->metrics().CounterSnapshot());
  // ps.push.keys_per_request and ps.push.service_ticks.
  auto hb = batched.cluster->metrics().HistogramSnapshots();
  auto hp = per_row.cluster->metrics().HistogramSnapshots();
  ASSERT_EQ(hb.size(), hp.size());
  for (const auto& [name, want] : hp) {
    ASSERT_EQ(hb.count(name), 1u) << name;
    const HistogramSnapshot& got = hb.at(name);
    EXPECT_EQ(got.count, want.count) << name;
    EXPECT_EQ(got.sum, want.sum) << name;
    EXPECT_EQ(got.min, want.min) << name;
    EXPECT_EQ(got.max, want.max) << name;
    EXPECT_EQ(got.buckets, want.buckets) << name;
  }
}

/// Rows of matrix `id` in ascending key order.
std::vector<std::pair<uint64_t, std::vector<float>>> RowsOf(SoloServer& s,
                                                            MatrixId id) {
  std::vector<std::pair<uint64_t, std::vector<float>>> out;
  for (const auto& [key, row] : (*s.server->GetShard(id))->rows) {
    out.emplace_back(key, row);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(PsFuncBatchTest, PageRankAdvanceChargesLikePerRowPushes) {
  SoloServer batched, per_row;
  for (SoloServer* s : {&batched, &per_row}) {
    s->Create(1, 500, 1);  // deltas
    s->Create(2, 500, 1);  // ranks
    for (uint64_t k = 0; k < 500; k += 3) {
      // Some zero deltas: advance skips them without a push.
      PSG_CHECK_OK(s->Add(1, k, {k % 7 == 0 ? 0.0f : 0.01f * k}));
    }
    PSG_CHECK_OK(s->Add(2, 9, {1.0f}));  // one rank row already exists
  }
  ByteBuffer args;
  args.Write<MatrixId>(1);
  args.Write<MatrixId>(2);
  ASSERT_TRUE(batched.Call("pagerank.advance", args).ok());
  // Reference: the pre-batching loop, one PushAdd per nonzero delta.
  MatrixShard* deltas = *per_row.server->GetShard(1);
  for (auto& [key, row] : deltas->rows) {
    if (row[0] == 0.0f) continue;
    ASSERT_TRUE(per_row.Add(2, key, {row[0]}).ok());
    row[0] = 0.0f;
  }
  ExpectSameCharges(batched, per_row);
  EXPECT_EQ(RowsOf(batched, 2), RowsOf(per_row, 2));
  EXPECT_EQ(RowsOf(batched, 1), RowsOf(per_row, 1));
}

TEST(PsFuncBatchTest, InitFillAndRandnChargeLikePerRowAssigns) {
  for (const char* fn : {"init.fill", "init.randn"}) {
    SCOPED_TRACE(fn);
    SoloServer batched, per_row;
    for (SoloServer* s : {&batched, &per_row}) {
      s->Create(1, 300, 4);
      // Pre-existing rows are overwritten in place, without a push.
      PSG_CHECK_OK(s->Add(1, 17, {1, 2, 3, 4}));
      PSG_CHECK_OK(s->Add(1, 250, {1, 2, 3, 4}));
    }
    ByteBuffer args;
    args.Write<MatrixId>(1);
    args.Write<float>(0.5f);
    if (std::string(fn) == "init.randn") args.Write<uint64_t>(7);
    ASSERT_TRUE(batched.Call(fn, args).ok());
    for (uint64_t k = 0; k < 300; ++k) {
      if (!per_row.Has(1, k)) {
        ASSERT_TRUE(per_row.Assign(1, k, {0, 0, 0, 0}).ok());
      }
    }
    ExpectSameCharges(batched, per_row);
  }
}

TEST(PsFuncBatchTest, LineAdjustChargesLikePerRowZeroPushes) {
  SoloServer batched, per_row;
  // (u, c) tuples with repeats, and rows that already exist.
  const std::vector<uint64_t> flat = {3, 4, 5, 4, 3, 9, 11, 4, 5, 5};
  for (SoloServer* s : {&batched, &per_row}) {
    s->Create(1, 64, 3);  // emb
    s->Create(2, 64, 3);  // ctx
    PSG_CHECK_OK(s->Add(1, 5, {1, 1, 1}));
    PSG_CHECK_OK(s->Add(2, 9, {1, 1, 1}));
  }
  ByteBuffer args;
  args.Write<MatrixId>(1);
  args.Write<MatrixId>(2);
  args.Write<float>(0.1f);
  PutDeltaList(&args, flat);
  args.WriteVector(std::vector<float>{1.0f, -1.0f, 0.5f, 2.0f, 1.0f});
  ASSERT_TRUE(batched.Call("line.adjust", args).ok());
  for (size_t p = 0; p + 1 < flat.size(); p += 2) {
    if (!per_row.Has(1, flat[p])) {
      ASSERT_TRUE(per_row.Add(1, flat[p], {0, 0, 0}).ok());
    }
    if (!per_row.Has(2, flat[p + 1])) {
      ASSERT_TRUE(per_row.Add(2, flat[p + 1], {0, 0, 0}).ok());
    }
  }
  ExpectSameCharges(batched, per_row);
}

TEST(PsFuncBatchTest, OptimizersChargeLikePerRowZeroPushes) {
  const std::vector<uint64_t> keys = {6, 2, 6, 40};  // a duplicate key
  const std::vector<float> grads(keys.size() * 2, 0.25f);
  {
    SCOPED_TRACE("adam.apply");
    SoloServer batched, per_row;
    for (SoloServer* s : {&batched, &per_row}) {
      for (MatrixId id : {1, 2, 3}) s->Create(id, 64, 2);
      PSG_CHECK_OK(s->Add(2, 2, {0.1f, 0.1f}));
    }
    ByteBuffer args;
    for (MatrixId id : {1, 2, 3}) args.Write<MatrixId>(id);
    for (float v : {0.01f, 0.9f, 0.999f, 1e-8f}) args.Write<float>(v);
    args.Write<int32_t>(1);
    args.WriteVector(keys);
    args.WriteVector(grads);
    ASSERT_TRUE(batched.Call("adam.apply", args).ok());
    for (uint64_t k : keys) {
      for (MatrixId id : {1, 2, 3}) {
        ASSERT_TRUE(per_row.Add(id, k, {0, 0}).ok());
      }
    }
    ExpectSameCharges(batched, per_row);
  }
  {
    SCOPED_TRACE("adagrad.apply");
    SoloServer batched, per_row;
    for (SoloServer* s : {&batched, &per_row}) {
      for (MatrixId id : {1, 2}) s->Create(id, 64, 2);
    }
    ByteBuffer args;
    args.Write<MatrixId>(1);
    args.Write<MatrixId>(2);
    args.Write<float>(0.01f);
    args.Write<float>(1e-8f);
    args.WriteVector(keys);
    args.WriteVector(grads);
    ASSERT_TRUE(batched.Call("adagrad.apply", args).ok());
    for (uint64_t k : keys) {
      for (MatrixId id : {1, 2}) {
        ASSERT_TRUE(per_row.Add(id, k, {0, 0}).ok());
      }
    }
    ExpectSameCharges(batched, per_row);
  }
}

TEST(PsFuncBatchTest, MidBatchMemoryLimitStopsAtTheSameRow) {
  // Room for ~100 one-float rows (52 B each): init.fill over 1000 rows
  // runs out partway. The failing row's compute is charged, its memory
  // is not, and every row before it keeps its full bookkeeping.
  SoloServer batched(5200), per_row(5200);
  for (SoloServer* s : {&batched, &per_row}) s->Create(1, 1000, 1);
  ByteBuffer args;
  args.Write<MatrixId>(1);
  args.Write<float>(0.15f);
  Status st = batched.Call("init.fill", args);
  EXPECT_TRUE(st.IsMemoryLimitExceeded()) << st.ToString();
  Status ref;
  for (uint64_t k = 0; k < 1000 && ref.ok(); ++k) {
    ref = per_row.Assign(1, k, {0.15f});
  }
  EXPECT_TRUE(ref.IsMemoryLimitExceeded()) << ref.ToString();
  ExpectSameCharges(batched, per_row);
  EXPECT_EQ(RowsOf(batched, 1), RowsOf(per_row, 1));
  EXPECT_GT(batched.cluster->metrics().Get("ps.rows_pushed"), 0u);
}

TEST_F(PsTest, DuplicatePushKeysApplyInArrivalOrder) {
  auto meta = ctx_->CreateMatrix("dup", 1000, 1, StorageKind::kRows,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  // Every other key on 700's server, descending, with 700's three values
  // spread through the batch: that server's list arrives out of order
  // and takes a full sort, not a small insertion sort.
  Partitioner part(meta->scheme, meta->num_rows, ctx_->num_servers());
  std::vector<uint64_t> others;
  for (uint64_t k = 1000; k-- > 0;) {
    if (k != 700 && part.PartitionOf(k) == part.PartitionOf(700)) {
      others.push_back(k);
    }
  }
  ASSERT_GT(others.size(), 100u);
  // In arrival order 1e8 + 1 rounds back to 1e8, so 700 sums to 0; an
  // order that applies 1 last gives 1.
  const float dup[] = {1e8f, 1.0f, -1e8f};
  std::vector<uint64_t> keys;
  std::vector<float> values;
  for (size_t i = 0; i < others.size(); ++i) {
    if (i % (others.size() / 3) == 0 && i / (others.size() / 3) < 3) {
      keys.push_back(700);
      values.push_back(dup[i / (others.size() / 3)]);
    }
    keys.push_back(others[i]);
    values.push_back(5.0f);
  }
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, values).ok());
  auto rows = agent_->PullRows(*meta, {700, others.front(), others.back()});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ((*rows)[0], 0.0f);
  EXPECT_EQ((*rows)[1], 5.0f);
  EXPECT_EQ((*rows)[2], 5.0f);
}

TEST_F(PsTest, UnsortedAndSortedPushesSendIdenticalRequests) {
  auto meta = ctx_->CreateMatrix("wire", 5000, 2, StorageKind::kRows,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kHash);
  ASSERT_TRUE(meta.ok());
  // Swap every server's endpoint for one that records push payloads.
  std::map<sim::NodeId, std::vector<std::vector<uint8_t>>> seen;
  std::mutex mu;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    const sim::NodeId node = ctx_->ServerNode(s);
    auto endpoint = std::make_shared<net::RpcEndpoint>();
    endpoint->Register("ps.push_add",
                       [&, node](const std::vector<uint8_t>& req)
                           -> Result<ByteBuffer> {
                         std::lock_guard<std::mutex> lock(mu);
                         seen[node].push_back(req);
                         return ByteBuffer();
                       });
    fabric_->Bind(node, endpoint);
  }
  Rng rng(11);
  std::vector<uint64_t> keys;
  std::set<uint64_t> used;
  while (keys.size() < 300) {
    const uint64_t k = rng.NextBounded(5000);
    if (used.insert(k).second) keys.push_back(k);
  }
  std::vector<float> values;
  for (size_t i = 0; i < keys.size() * 2; ++i) values.push_back(0.5f * i);
  ASSERT_TRUE(agent_->PushAdd(*meta, keys, values).ok());
  // The same rows, pre-sorted by key.
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  std::vector<uint64_t> sorted_keys;
  std::vector<float> sorted_values;
  for (size_t i : order) {
    sorted_keys.push_back(keys[i]);
    sorted_values.push_back(values[2 * i]);
    sorted_values.push_back(values[2 * i + 1]);
  }
  ASSERT_TRUE(agent_->PushAdd(*meta, sorted_keys, sorted_values).ok());
  ASSERT_EQ(seen.size(), static_cast<size_t>(ctx_->num_servers()));
  for (const auto& [node, reqs] : seen) {
    ASSERT_EQ(reqs.size(), 2u) << "server node " << node;
    EXPECT_EQ(reqs[0], reqs[1]) << "server node " << node;
  }
}

}  // namespace
}  // namespace psgraph::ps
