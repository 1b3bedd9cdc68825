// Tests for the parameter server: partitioners, pull/push operators,
// neighbor tables, psFuncs, column partitioning, checkpoint/restore and
// master-driven failure recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
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
#include "net/ps_wire.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/master.h"
#include "ps/partitioner.h"
#include "ps/row_store.h"
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

/// (key, row) pairs, as a store iterates them.
using RowList = std::vector<std::pair<uint64_t, std::vector<float>>>;

/// The rows of a store, in its ascending key order.
RowList Contents(const RowStore& store) {
  RowList out;
  for (const auto [key, row] : store) {
    out.emplace_back(key, std::vector<float>(row.begin(), row.end()));
  }
  return out;
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

TEST(PartitionerTest, KeyWindowsHoldEveryOwnedKey) {
  for (uint64_t key_space : {0, 1, 7, 100, 1001}) {
    for (int32_t parts : {1, 3, 4}) {
      SCOPED_TRACE("key_space " + std::to_string(key_space) + " parts " +
                   std::to_string(parts));
      // Range windows tile [0, key_space) in partition order.
      Partitioner range(PartitionScheme::kRange, key_space, parts);
      uint64_t next = 0;
      for (int32_t p = 0; p < parts; ++p) {
        auto [begin, end] = range.KeyWindow(p);
        EXPECT_EQ(begin, next);
        EXPECT_LE(begin, end);
        next = end;
      }
      EXPECT_EQ(next, key_space);
      for (uint64_t k = 0; k < key_space; ++k) {
        auto [begin, end] = range.KeyWindow(range.PartitionOf(k));
        EXPECT_TRUE(begin <= k && k < end) << "key " << k;
      }
      // The hash schemes scatter every partition over the whole space.
      for (PartitionScheme scheme :
           {PartitionScheme::kHash, PartitionScheme::kHashRange}) {
        Partitioner part(scheme, key_space, parts);
        for (int32_t p = 0; p < parts; ++p) {
          EXPECT_EQ(part.KeyWindow(p),
                    (std::pair<uint64_t, uint64_t>{0, key_space}));
        }
      }
    }
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
  net::EncodeKeysRequest(meta->id, std::vector<uint64_t>{3}, &req);
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
  // A push or merge of more new rows than the server's budget holds fails
  // whole: the rows, the shard's charges and the node's usage and peak
  // stay where they were before it.
  for (const bool merge : {false, true}) {
    SCOPED_TRACE(merge ? "ps.merge" : "ps.push_add");
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
    ASSERT_TRUE(
        agent.PushAdd(*meta, {5000}, std::vector<float>(16, 2.0f)).ok());
    PsServer* server = psctx.server(0);
    MatrixShard* shard = *server->GetShard(meta->id);
    const RowList rows = Contents(shard->rows);
    const uint64_t charged = server->charged_bytes();
    const sim::NodeId node = server->node();
    const uint64_t usage = tiny.memory().Usage(node);
    const uint64_t peak = tiny.memory().Peak(node);

    std::vector<uint64_t> keys;
    std::vector<float> vals;
    for (uint64_t k = 0; k < 4096; ++k) {
      keys.push_back(k);
      for (int c = 0; c < 16; ++c) vals.push_back(1.0f);
    }
    Status st = merge ? agent.MergeRows(*meta, 0, keys, vals)
                      : agent.PushAdd(*meta, keys, vals);
    EXPECT_TRUE(st.IsMemoryLimitExceeded()) << st.ToString();
    EXPECT_EQ(Contents(shard->rows), rows);
    EXPECT_EQ(server->charged_bytes(), charged);
    EXPECT_EQ(tiny.memory().Usage(node), usage);
    EXPECT_EQ(tiny.memory().Peak(node), peak);
  }
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
  // ps.rows_pushed.
  EXPECT_EQ(batched.cluster->metrics().CounterSnapshot(),
            per_row.cluster->metrics().CounterSnapshot());
  // ps.push.service_ticks.
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

/// Rows of matrix `id`, in ascending key order.
RowList RowsOf(SoloServer& s, MatrixId id) {
  return Contents((*s.server->GetShard(id))->rows);
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
  for (auto [key, row] : deltas->rows) {
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

// --- Flat row store (ps/row_store.h) --------------------------------------

/// Materializes `key` in `store` with every float set to `value`.
void Put(RowStore& store, uint64_t key, float value) {
  auto row = store.Insert(key);
  ASSERT_TRUE(row.ok()) << row.status().ToString();
  std::fill_n(*row, store.cols(), value);
}

TEST(RowStoreTest, IteratesInAscendingKeyOrder) {
  RowStore store(0, 200, 2);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(Contents(store).empty());
  for (uint64_t key : {130, 3, 64, 199, 63, 0, 128}) {
    Put(store, key, static_cast<float>(key));
  }
  EXPECT_EQ(store.size(), 7u);
  std::vector<uint64_t> keys;
  for (const auto& [key, row] : Contents(store)) {
    keys.push_back(key);
    EXPECT_EQ(row, std::vector<float>(2, static_cast<float>(key)));
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 3, 63, 64, 128, 130, 199}));
  EXPECT_EQ(store.Find(1), nullptr);
  ASSERT_NE(store.Find(199), nullptr);
  EXPECT_EQ(store.Find(199)[1], 199.0f);
  // Writes through an iterated span land in the store.
  for (auto [key, row] : store) row[0] = -static_cast<float>(key);
  EXPECT_EQ(store.Find(64)[0], -64.0f);
  EXPECT_EQ(store.Find(64)[1], 64.0f);
}

TEST(RowStoreTest, KeysOutsideTheWindowGrowTheArray) {
  RowStore store(100, 110, 3);
  Put(store, 105, 1.0f);
  Put(store, 7, 2.0f);       // below the window
  Put(store, 100000, 3.0f);  // far beyond it
  Put(store, 109, 4.0f);
  Put(store, 0, 5.0f);
  EXPECT_EQ(store.window_begin(), 100u);
  EXPECT_EQ(store.window_end(), 110u);
  const RowList want = {{0, {5, 5, 5}},   {7, {2, 2, 2}},
                         {105, {1, 1, 1}}, {109, {4, 4, 4}},
                         {100000, {3, 3, 3}}};
  EXPECT_EQ(Contents(store), want);
  EXPECT_EQ(store.Find(8), nullptr);
  EXPECT_EQ(store.Find(99999), nullptr);
  EXPECT_EQ(store.Find(100001), nullptr);

  // An empty window (num_rows == 0) takes any key.
  RowStore empty(0, 0, 1);
  Put(empty, 12, 1.0f);
  Put(empty, 0, 2.0f);
  Put(empty, 4096, 3.0f);
  EXPECT_EQ(Contents(empty), (RowList{{0, {2}}, {12, {1}}, {4096, {3}}}));

  // A window too large to allocate starts from the first key alone.
  RowStore huge(0, uint64_t{1} << 62, 4);
  Put(huge, 1000, 1.0f);
  Put(huge, 1001, 2.0f);
  Put(huge, 5, 3.0f);
  EXPECT_EQ(Contents(huge), (RowList{{5, {3, 3, 3, 3}},
                                      {1000, {1, 1, 1, 1}},
                                      {1001, {2, 2, 2, 2}}}));

  // A key no allocation can reach fails loudly and changes nothing.
  auto far = store.Insert(~uint64_t{0} - 1);
  ASSERT_FALSE(far.ok());
  EXPECT_TRUE(far.status().code() == StatusCode::kOutOfRange)
      << far.status().ToString();
  EXPECT_EQ(Contents(store), want);
}

TEST_F(PsTest, ServerAcceptsKeysOutsideItsWindow) {
  // Server 1 of 3 owns [100, 200) of a 300-row range matrix; direct
  // calls may still push it keys below that window and beyond num_rows.
  auto meta = ctx_->CreateMatrix("win", 300, 2, StorageKind::kRows,
                                 Layout::kRowPartitioned,
                                 PartitionScheme::kRange, 0.5f);
  ASSERT_TRUE(meta.ok());
  PsServer* server = ctx_->server(1);
  const std::vector<uint64_t> keys = {150, 5, 1000, 199, 100};
  std::vector<float> values;
  for (uint64_t k : keys) values.insert(values.end(), 2, 0.25f * k);
  ASSERT_TRUE(server->PushAdd(meta->id, keys, values).ok());
  ASSERT_TRUE(server->PushAdd(meta->id, keys, values).ok());
  std::vector<float> out;
  ASSERT_TRUE(server
                  ->PullRows(meta->id,
                             std::vector<uint64_t>{5, 6, 1000, 150, 250}, &out)
                  .ok());
  EXPECT_EQ(out, (std::vector<float>{3.0f, 3.0f, 0.5f, 0.5f, 500.5f, 500.5f,
                                     75.5f, 75.5f, 0.5f, 0.5f}));
  std::vector<uint64_t> stored;
  for (const auto [key, row] : (*server->GetShard(meta->id))->rows) {
    stored.push_back(key);
  }
  EXPECT_EQ(stored, (std::vector<uint64_t>{5, 100, 150, 199, 1000}));

  // A matrix with num_rows == 0 takes keys on every server.
  auto empty = ctx_->CreateMatrix("empty", 0, 1);
  ASSERT_TRUE(empty.ok());
  const std::vector<uint64_t> any = {0, 7, 12345};
  ASSERT_TRUE(agent_->PushAdd(*empty, any, {1.0f, 2.0f, 3.0f}).ok());
  auto rows = agent_->PullRows(*empty, {12345, 0, 7, 8});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<float>{3.0f, 1.0f, 2.0f, 0.0f}));
}

TEST_F(PsTest, ZeroWidthColumnSliceKeepsItsRowsAndCharges) {
  // Two columns over three servers: server 2's slice is empty, yet a row
  // written there still materializes and is charged one entry.
  auto meta = ctx_->CreateMatrix("narrow", 40, 2, StorageKind::kRows,
                                 Layout::kColumnPartitioned,
                                 PartitionScheme::kRange);
  ASSERT_TRUE(meta.ok());
  PsServer* server = ctx_->server(2);
  const sim::NodeId node = ctx_->ServerNode(2);
  MatrixShard* shard = *server->GetShard(meta->id);
  ASSERT_EQ(shard->slice_cols, 0u);
  ASSERT_TRUE(server->PushAdd(meta->id, std::vector<uint64_t>{3, 39, 3},
                              std::vector<float>{})
                  .ok());
  ASSERT_TRUE(server->PushAssign(meta->id, std::vector<uint64_t>{50},
                                 std::vector<float>{})
                  .ok());
  EXPECT_EQ(shard->rows.size(), 3u);
  EXPECT_EQ(cluster_->memory().Usage(node), 3 * 48u);
  EXPECT_NE(shard->FindRow(50), nullptr);
  EXPECT_EQ(shard->FindRow(4), nullptr);
  std::vector<uint64_t> keys;
  for (const auto [key, row] : shard->rows) {
    keys.push_back(key);
    EXPECT_TRUE(row.empty());
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{3, 39, 50}));
  std::vector<float> out;
  ASSERT_TRUE(
      server->PullRows(meta->id, std::vector<uint64_t>{3, 4}, &out).ok());
  EXPECT_TRUE(out.empty());
  // init.fill materializes the rest of [0, 40) there as well.
  ByteBuffer args;
  args.Write<MatrixId>(meta->id);
  args.Write<float>(1.5f);
  ASSERT_TRUE(agent_->CallFuncAll("init.fill", args).ok());
  EXPECT_EQ(shard->rows.size(), 41u);
  EXPECT_EQ(cluster_->memory().Usage(node), 41 * 48u);
  auto rows = agent_->PullRows(*meta, {3, 50, 7});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, (std::vector<float>{1.5f, 1.5f, 0, 0, 1.5f, 1.5f}));
}

TEST(PsServerTest, FailedChargeLeavesNoRow) {
  // Room for three 2-float rows (56 B each). A push of four new rows
  // (key 9 twice, counted once) does not fit: it fails whole, and no row
  // is materialized or charged.
  SoloServer solo(3 * 56 + 20);
  solo.Create(1, 100, 2);
  const sim::NodeId node = solo.server->node();
  Status st = solo.server->PushAdd(1, std::vector<uint64_t>{9, 2, 9, 70, 71},
                                   std::vector<float>(5 * 2, 1.0f));
  EXPECT_TRUE(st.IsMemoryLimitExceeded()) << st.ToString();
  EXPECT_TRUE(RowsOf(solo, 1).empty());
  EXPECT_EQ(solo.cluster->memory().Usage(node), 0u);
  EXPECT_EQ(solo.cluster->memory().Peak(node), 0u);
  EXPECT_EQ(solo.server->charged_bytes(), 0u);
  // The push's compute was charged before the rows were applied.
  EXPECT_EQ(solo.cluster->clock().NowTicks(node),
            sim::SimClock::TicksOf(
                solo.cluster->cost().ComputeTime(10 / 4 + 5)));
  // Three new rows, 9 again counted once, fit.
  ASSERT_TRUE(solo.server
                  ->PushAdd(1, std::vector<uint64_t>{9, 2, 9, 70},
                            std::vector<float>(4 * 2, 1.0f))
                  .ok());
  EXPECT_EQ(RowsOf(solo, 1),
            (RowList{{2, {1, 1}}, {9, {2, 2}}, {70, {1, 1}}}));
  EXPECT_EQ(solo.cluster->memory().Usage(node), 3 * 56u);
  EXPECT_EQ(solo.server->charged_bytes(), 3 * 56u);
  // Dropping the matrix releases exactly what was charged.
  ASSERT_TRUE(solo.server->DropMatrix(1).ok());
  EXPECT_EQ(solo.cluster->memory().Usage(node), 0u);
}

/// The rows of every matrix in `metas` on every server, server by server.
std::vector<RowList> AllRows(PsContext& ctx,
                             const std::vector<MatrixMeta>& metas) {
  std::vector<RowList> out;
  for (int32_t s = 0; s < ctx.num_servers(); ++s) {
    for (const MatrixMeta& meta : metas) {
      out.push_back(Contents((*ctx.server(s)->GetShard(meta.id))->rows));
    }
  }
  return out;
}

TEST_F(PsTest, CheckpointRestoreGivesEqualRowsForEveryLayout) {
  std::vector<MatrixMeta> metas;
  for (PartitionScheme scheme :
       {PartitionScheme::kRange, PartitionScheme::kHash,
        PartitionScheme::kHashRange}) {
    auto meta = ctx_->CreateMatrix("rt" + std::to_string(metas.size()), 500,
                                   3, StorageKind::kRows,
                                   Layout::kRowPartitioned, scheme, 0.5f);
    ASSERT_TRUE(meta.ok());
    metas.push_back(*meta);
  }
  auto column = ctx_->CreateMatrix("rt_col", 500, 2, StorageKind::kRows,
                                   Layout::kColumnPartitioned,
                                   PartitionScheme::kRange);
  ASSERT_TRUE(column.ok());
  metas.push_back(*column);
  Rng rng(3);
  for (const MatrixMeta& meta : metas) {
    std::vector<uint64_t> keys;
    std::vector<float> values;
    for (int i = 0; i < 200; ++i) {
      keys.push_back(rng.NextBounded(600));  // some beyond num_rows
      for (uint32_t c = 0; c < meta.num_cols; ++c) {
        values.push_back(static_cast<float>(rng.NextGaussian()));
      }
    }
    ASSERT_TRUE(agent_->PushAdd(meta, keys, values).ok());
  }
  const auto want = AllRows(*ctx_, metas);
  std::vector<uint64_t> charged;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    charged.push_back(ctx_->server(s)->charged_bytes());
  }
  PsMaster master(ctx_.get(), "ckpt/rt");
  ASSERT_TRUE(master.CheckpointAll().ok());
  ASSERT_TRUE(agent_->PushAdd(metas[0], {1, 2}, std::vector<float>(6, 9.0f))
                  .ok());
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    ASSERT_TRUE(ctx_->server(s)->Restore("ckpt/rt").ok());
    EXPECT_EQ(ctx_->server(s)->charged_bytes(), charged[s]) << "server " << s;
  }
  EXPECT_EQ(AllRows(*ctx_, metas), want);
}

/// A one-matrix checkpoint for server 0 of `meta` holding `rows` as
/// (key, floats) in the given order and, when given, a CSR image, less
/// its last `cut` bytes, written straight to sim-HDFS.
void WriteCheckpoint(storage::Hdfs* hdfs, sim::NodeId node,
                     const std::string& prefix, const MatrixMeta& meta,
                     const RowList& rows, size_t cut,
                     const CsrStore* csr = nullptr) {
  ByteBuffer buf;
  buf.Write<uint32_t>(0x50534350);  // "PSCP"
  buf.Write<uint64_t>(1);
  SerializeMeta(buf, meta);
  buf.Write<uint64_t>(rows.size());
  for (const auto& [key, row] : rows) {
    buf.Write<uint64_t>(key);
    buf.WriteVector(row);
  }
  buf.Write<uint64_t>(0);  // no neighbor entries
  buf.Write<uint8_t>(csr != nullptr ? 1 : 0);
  if (csr != nullptr) {
    buf.WriteVector(csr->keys);
    buf.WriteVector(csr->offsets);
    buf.WriteVector(csr->neighbors);
    buf.WriteVector(csr->weights);
  }
  std::vector<uint8_t> bytes = buf.data();
  bytes.resize(bytes.size() - cut);
  PSG_CHECK_OK(hdfs->Write(prefix + "/server_0", std::move(bytes), node));
}

TEST_F(PsTest, RestoreRejectsBadRowsBeforeChargingThem) {
  auto meta = ctx_->CreateMatrix("bad", 90, 4);
  ASSERT_TRUE(meta.ok());
  PsServer* server = ctx_->server(0);
  const sim::NodeId node = ctx_->ServerNode(0);
  // A row the server holds before every failed restore, and must still
  // hold after it, with its charges.
  const std::vector<float> seeded{9, 8, 7, 6};
  ASSERT_TRUE(server->PushAssign(meta->id, std::vector<uint64_t>{10}, seeded)
                  .ok());
  const uint64_t charged = server->charged_bytes();
  const uint64_t usage = cluster_->memory().Usage(node);
  ASSERT_GT(charged, 0u);
  // Header: magic, matrix count, meta, row count; each row is
  // key + count + 4 floats. A CSR image follows the rows, the neighbor
  // count and the CSR flag.
  ByteBuffer meta_bytes;
  SerializeMeta(meta_bytes, *meta);
  const size_t first_row = 4 + 8 + meta_bytes.size() + 8;
  const size_t row_size = 8 + 8 + 4 * 4;
  CsrStore bad_csr;
  bad_csr.keys = {2, 4};
  bad_csr.offsets = {0, 3, 2};  // decreasing: key 4 would span -1 entries
  bad_csr.neighbors = {5, 6};
  struct Case {
    const char* name;
    RowList rows;
    size_t bad_offset;
    const char* what;
    size_t cut = 0;
    const CsrStore* csr = nullptr;
  };
  const std::vector<Case> cases = {
      {"short", {{1, {1, 2, 3, 4}}, {2, {1, 2}}, {3, {1, 2, 3, 4}}},
       first_row + row_size, "holds 2 floats"},
      {"long", {{1, std::vector<float>(9, 1.0f)}}, first_row,
       "holds 9 floats"},
      {"duplicate",
       {{1, {1, 2, 3, 4}}, {5, {1, 2, 3, 4}}, {1, {5, 6, 7, 8}}},
       first_row + 2 * row_size, "repeats an earlier key"},
      // Ends two floats into its second row (the neighbor count and CSR
      // flag that follow the rows are cut too).
      {"truncated", {{1, {1, 2, 3, 4}}, {2, {1, 2, 3, 4}}},
       first_row + row_size, "is truncated", 8 + 1 + 2 * 4},
      {"csr", {{1, {1, 2, 3, 4}}}, first_row + row_size + 8 + 1,
       "has decreasing offsets at index 2", 0, &bad_csr},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string prefix = std::string("ckpt/bad_") + c.name;
    WriteCheckpoint(hdfs_.get(), node, prefix, *meta, c.rows, c.cut, c.csr);
    Status st = server->Restore(prefix);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kIoError) << st.ToString();
    EXPECT_NE(st.ToString().find("at offset " + std::to_string(c.bad_offset)),
              std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find(c.what), std::string::npos)
        << st.ToString();
    // Nothing of the bad checkpoint was restored or charged.
    EXPECT_EQ(server->charged_bytes(), charged);
    EXPECT_EQ(cluster_->memory().Usage(node), usage);
    MatrixShard* shard = *server->GetShard(meta->id);
    EXPECT_EQ(shard->rows.size(), 1u);
    const float* row = shard->FindRow(10);
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(std::vector<float>(row, row + 4), seeded);
    EXPECT_FALSE(shard->csr.has_value());
  }
}

TEST(CsrRestoreTest, EveryMalformedImageIsRejected) {
  sim::ClusterConfig cfg;
  cfg.num_executors = 1;
  cfg.num_servers = 1;
  sim::SimCluster cluster(cfg);
  storage::Hdfs hdfs(&cluster);
  PsServer server(0, 1, &cluster, &hdfs);
  MatrixMeta meta;
  meta.id = 3;
  meta.name = "adj";
  meta.kind = StorageKind::kNeighbors;
  ASSERT_TRUE(server.InitMatrix(meta).ok());
  const sim::NodeId node = server.node();
  CsrStore good;
  good.keys = {2, 4, 9};
  good.offsets = {0, 2, 2, 3};
  good.neighbors = {5, 6, 7};
  WriteCheckpoint(&hdfs, node, "ckpt/csr_good", meta, {}, 0, &good);
  ASSERT_TRUE(server.Restore("ckpt/csr_good").ok());
  const uint64_t charged = server.charged_bytes();
  EXPECT_EQ(charged, good.ByteSize());
  struct Case {
    const char* name;
    std::function<void(CsrStore&)> corrupt;
    const char* what;
  };
  const std::vector<Case> cases = {
      {"short offsets", [](CsrStore& c) { c.offsets.pop_back(); },
       "has 3 offsets for 3 keys"},
      {"nonzero start", [](CsrStore& c) { c.offsets[0] = 1; },
       "starts its offsets at 1"},
      {"decreasing", [](CsrStore& c) { c.offsets[2] = 1; },
       "has decreasing offsets at index 2"},
      {"past the end", [](CsrStore& c) { c.offsets[3] = 4; },
       "ends its offsets at 4, not at its 3 neighbors"},
      {"repeated key", [](CsrStore& c) { c.keys[1] = 2; },
       "has keys out of order at index 1"},
      {"descending key", [](CsrStore& c) { c.keys[2] = 3; },
       "has keys out of order at index 2"},
      {"short weights", [](CsrStore& c) { c.weights = {1.0f, 2.0f}; },
       "has 2 weights for 3 neighbors"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    CsrStore csr = good;
    c.corrupt(csr);
    const std::string prefix = std::string("ckpt/csr_") + c.name;
    WriteCheckpoint(&hdfs, node, prefix, meta, {}, 0, &csr);
    Status st = server.Restore(prefix);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kIoError) << st.ToString();
    EXPECT_NE(st.ToString().find("CSR image of matrix 3"), std::string::npos)
        << st.ToString();
    EXPECT_NE(st.ToString().find(c.what), std::string::npos)
        << st.ToString();
    EXPECT_EQ(server.charged_bytes(), charged);
    EXPECT_EQ(cluster.memory().Usage(node), charged);
    MatrixShard* shard = *server.GetShard(meta.id);
    ASSERT_TRUE(shard->csr.has_value());
    EXPECT_EQ(shard->csr->offsets, good.offsets);
  }
}

}  // namespace
}  // namespace psgraph::ps
