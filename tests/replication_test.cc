// Skew-aware PS tests (ps/replication.h): hot keys serve from
// executor-local replicas with read-your-writes, deltas merge home at
// barriers, demotion flushes pending state, merges survive a server
// kill/restart exactly once, and classification tie-breaking is
// identical at any engine parallelism.

#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.h"
#include "core/psgraph_context.h"
#include "ps/replication.h"

namespace psgraph::core {
namespace {

PsGraphContext::Options SmallOptions(int32_t executors = 2,
                                     int32_t servers = 2) {
  PsGraphContext::Options opts;
  opts.cluster.num_executors = executors;
  opts.cluster.num_servers = servers;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  return opts;
}

std::vector<float> Row(PsGraphContext& ctx, int32_t executor,
                       const ps::MatrixMeta& meta, uint64_t key) {
  auto pulled = ctx.agent(executor).PullRows(meta, {key});
  PSG_CHECK_OK(pulled.status());
  return *pulled;
}

TEST(ReplicationTest, HotKeyReadYourWritesAndMerge) {
  auto ctx_or = PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  auto meta = ctx.ps().CreateMatrix("emb", 64, 2);
  PSG_CHECK_OK(meta.status());

  auto& rep = ctx.replication();
  PSG_CHECK_OK(rep.Track(*meta));
  PSG_CHECK_OK(ctx.agent(0).PushAssign(*meta, {7}, {1.0f, 2.0f}));
  PSG_CHECK_OK(rep.SeedHotKeys(meta->id, {7}));

  // Hot pulls serve from the executor-local replica.
  const uint64_t local_before = rep.cache(0)->local_rows();
  EXPECT_EQ(Row(ctx, 0, *meta, 7), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_GT(rep.cache(0)->local_rows(), local_before);

  // A hot PushAdd is absorbed locally: the pushing executor reads its
  // own write immediately, the peer still sees the last merged value.
  PSG_CHECK_OK(ctx.agent(0).PushAdd(*meta, {7}, {0.5f, 0.5f}));
  EXPECT_EQ(Row(ctx, 0, *meta, 7), (std::vector<float>{1.5f, 2.5f}));
  EXPECT_EQ(Row(ctx, 1, *meta, 7), (std::vector<float>{1.0f, 2.0f}));

  // The barrier merge flushes the delta home and re-broadcasts.
  PSG_CHECK_OK(rep.Merge());
  EXPECT_EQ(Row(ctx, 1, *meta, 7), (std::vector<float>{1.5f, 2.5f}));
  EXPECT_EQ(Row(ctx, 0, *meta, 7), (std::vector<float>{1.5f, 2.5f}));

  // PushAssign writes through: replicas drop the pending delta.
  PSG_CHECK_OK(ctx.agent(0).PushAdd(*meta, {7}, {9.0f, 9.0f}));
  PSG_CHECK_OK(ctx.agent(0).PushAssign(*meta, {7}, {3.0f, 3.0f}));
  PSG_CHECK_OK(rep.Merge());
  EXPECT_EQ(Row(ctx, 1, *meta, 7), (std::vector<float>{3.0f, 3.0f}));
}

TEST(ReplicationTest, DemotionMidIterationFlushesPendingDeltas) {
  auto ctx_or = PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  auto meta = ctx.ps().CreateMatrix("emb", 64, 1);
  PSG_CHECK_OK(meta.status());

  ps::ReplicationOptions opts;
  opts.hot_min_count = 4;
  opts.max_hot_keys = 8;
  auto& rep = ctx.replication(opts);
  PSG_CHECK_OK(rep.Track(*meta));

  // Window 1: key 5 is hot.
  for (int i = 0; i < 4; ++i) {
    PSG_CHECK_OK(ctx.agent(0).PullRows(*meta, {5}).status());
  }
  PSG_CHECK_OK(rep.Refresh());
  ASSERT_EQ(rep.HotKeys(meta->id), (std::vector<uint64_t>{5}));

  // Mid-iteration: an absorbed delta is pending on executor 0 when the
  // next window's refresh demotes key 5 (key 9 takes over).
  PSG_CHECK_OK(ctx.agent(0).PushAdd(*meta, {5}, {2.5f}));
  for (int i = 0; i < 4; ++i) {
    PSG_CHECK_OK(ctx.agent(1).PullRows(*meta, {9}).status());
  }
  PSG_CHECK_OK(rep.Refresh());
  EXPECT_EQ(rep.HotKeys(meta->id), (std::vector<uint64_t>{9}));

  // The demoted key lost nothing: its home row holds the flushed delta
  // and pulls now take the single-home path again.
  EXPECT_EQ(Row(ctx, 1, *meta, 5), (std::vector<float>{2.5f}));
  EXPECT_EQ(Row(ctx, 0, *meta, 5), (std::vector<float>{2.5f}));
}

TEST(ReplicationTest, MergeRetriesExactlyOnceAfterServerKillRestart) {
  auto ctx_or = PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  auto meta = ctx.ps().CreateMatrix("emb", 64, 1);
  PSG_CHECK_OK(meta.status());

  // One hot key homed on each server, so the first merge clears server
  // 0's deltas into live state before failing on dead server 1.
  uint64_t on_s0 = 64, on_s1 = 64;
  for (uint64_t k = 0; k < 64; ++k) {
    const int32_t s = ctx.ps().ServerOfKey(*meta, k);
    if (s == 0 && on_s0 == 64) on_s0 = k;
    if (s == 1 && on_s1 == 64) on_s1 = k;
  }
  ASSERT_LT(on_s0, 64u);
  ASSERT_LT(on_s1, 64u);

  auto& rep = ctx.replication();
  PSG_CHECK_OK(rep.Track(*meta));
  PSG_CHECK_OK(ctx.agent(0).PushAssign(*meta, {on_s0, on_s1},
                                       {1.0f, 10.0f}));
  PSG_CHECK_OK(ctx.master().CheckpointAll());
  PSG_CHECK_OK(rep.SeedHotKeys(meta->id, {on_s0, on_s1}));

  PSG_CHECK_OK(ctx.agent(0).PushAdd(*meta, {on_s0, on_s1}, {0.25f, 0.5f}));
  PSG_CHECK_OK(ctx.agent(1).PushAdd(*meta, {on_s1}, {0.5f}));

  // Server 1 dies before the barrier; the merge must fail.
  ctx.failures().ScheduleKill(ctx.ps().ServerNode(1), /*iteration=*/1);
  ctx.failures().Tick(ctx.cluster(), 1);
  EXPECT_FALSE(rep.Merge().ok());

  // Master restarts + restores the dead server from its checkpoint
  // (partial recovery: the live server keeps any state the failed merge
  // already applied). The retry re-sends exactly the unmerged deltas.
  auto recovered = ctx.HandleFailures(2, ps::RecoveryMode::kPartial);
  PSG_CHECK_OK(recovered.status());
  EXPECT_EQ(recovered->servers_restarted, 1);
  PSG_CHECK_OK(rep.Merge());

  EXPECT_EQ(Row(ctx, 1, *meta, on_s0), (std::vector<float>{1.25f}));
  EXPECT_EQ(Row(ctx, 0, *meta, on_s1), (std::vector<float>{11.0f}));
}

TEST(ReplicationTest, ClassificationTieBreakIdenticalAcrossParallelism) {
  // Four keys tie at the classification threshold with room for only
  // three: the winner set must be (count desc, key asc) at any engine
  // parallelism.
  auto run = [](size_t parallelism) -> std::vector<uint64_t> {
    SetGlobalParallelism(parallelism);
    auto ctx_or = PsGraphContext::Create(SmallOptions(4, 2));
    PSG_CHECK_OK(ctx_or.status());
    auto& ctx = **ctx_or;
    auto meta = ctx.ps().CreateMatrix("emb", 64, 1);
    PSG_CHECK_OK(meta.status());
    ps::ReplicationOptions opts;
    opts.hot_min_count = 4;
    opts.max_hot_keys = 3;
    auto& rep = ctx.replication(opts);
    PSG_CHECK_OK(rep.Track(*meta));
    // Each executor contributes one access per contender per round, so
    // every contender aggregates to exactly the threshold.
    for (int round = 0; round < 1; ++round) {
      for (int32_t e = 0; e < 4; ++e) {
        PSG_CHECK_OK(
            ctx.agent(e).PullRows(*meta, {40, 30, 20, 10}).status());
      }
    }
    PSG_CHECK_OK(rep.Refresh());
    return rep.HotKeys(meta->id);
  };
  const std::vector<uint64_t> at_t1 = run(1);
  const std::vector<uint64_t> at_t8 = run(8);
  SetGlobalParallelism(0);  // restore the env/hardware default
  EXPECT_EQ(at_t1, (std::vector<uint64_t>{10, 20, 30}));
  EXPECT_EQ(at_t1, at_t8);
}

}  // namespace
}  // namespace psgraph::core
