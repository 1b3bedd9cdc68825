// Tests for the mini-Spark dataflow engine: transforms, shuffles, memory
// accounting (OOM), caching and lineage recomputation.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "dataflow/dataset.h"
#include "sim/cluster.h"

namespace psgraph::dataflow {
namespace {

using IntPair = std::pair<uint64_t, uint64_t>;

sim::ClusterConfig SmallCluster() {
  sim::ClusterConfig cfg;
  cfg.num_executors = 4;
  cfg.num_servers = 1;
  cfg.executor_mem_bytes = 64ull << 20;
  cfg.server_mem_bytes = 64ull << 20;
  return cfg;
}

class DataflowTest : public ::testing::Test {
 protected:
  DataflowTest() : cluster_(SmallCluster()), ctx_(&cluster_) {}
  sim::SimCluster cluster_;
  DataflowContext ctx_;
};

TEST_F(DataflowTest, FromVectorRoundTrip) {
  std::vector<uint64_t> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<uint64_t>::FromVector(&ctx_, data, 4);
  EXPECT_EQ(ds.num_partitions(), 4);
  auto out = ds.Collect();
  ASSERT_TRUE(out.ok());
  std::sort(out->begin(), out->end());
  EXPECT_EQ(*out, data);
}

TEST_F(DataflowTest, MapFilterFlatMap) {
  std::vector<uint64_t> data{1, 2, 3, 4, 5, 6};
  auto ds = Dataset<uint64_t>::FromVector(&ctx_, data, 3);
  auto result = ds.Map([](uint64_t& v) { return v * 10; })
                    .Filter([](const uint64_t& v) { return v > 20; })
                    .FlatMap([](uint64_t& v) {
                      return std::vector<uint64_t>{v, v + 1};
                    })
                    .Collect();
  ASSERT_TRUE(result.ok());
  std::sort(result->begin(), result->end());
  std::vector<uint64_t> expect{30, 31, 40, 41, 50, 51, 60, 61};
  EXPECT_EQ(*result, expect);
}

TEST_F(DataflowTest, CountEmpty) {
  auto ds = Dataset<uint64_t>::FromVector(&ctx_, {}, 2);
  auto n = ds.Count();
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST_F(DataflowTest, GroupByKeyGroupsAllValues) {
  std::vector<IntPair> data;
  for (uint64_t i = 0; i < 60; ++i) data.push_back({i % 5, i});
  auto ds = Dataset<IntPair>::FromVector(&ctx_, data, 4);
  auto grouped = ds.GroupByKey().Collect();
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->size(), 5u);
  size_t total = 0;
  for (auto& [k, vs] : *grouped) {
    EXPECT_EQ(vs.size(), 12u) << "key " << k;
    for (uint64_t v : vs) EXPECT_EQ(v % 5, k);
    total += vs.size();
  }
  EXPECT_EQ(total, 60u);
}

TEST_F(DataflowTest, ReduceByKeySums) {
  std::vector<IntPair> data;
  for (uint64_t i = 0; i < 100; ++i) data.push_back({i % 10, 1});
  auto ds = Dataset<IntPair>::FromVector(&ctx_, data, 4);
  auto reduced =
      ds.ReduceByKey([](const uint64_t& a, const uint64_t& b) {
          return a + b;
        }).Collect();
  ASSERT_TRUE(reduced.ok());
  ASSERT_EQ(reduced->size(), 10u);
  for (auto& [k, v] : *reduced) EXPECT_EQ(v, 10u);
}

TEST_F(DataflowTest, JoinMatchesKeys) {
  std::vector<IntPair> left{{1, 10}, {2, 20}, {3, 30}};
  std::vector<std::pair<uint64_t, std::string>> right{
      {2, "two"}, {3, "three"}, {4, "four"}};
  auto l = Dataset<IntPair>::FromVector(&ctx_, left, 2);
  auto r = Dataset<std::pair<uint64_t, std::string>>::FromVector(&ctx_,
                                                                 right, 2);
  auto joined = l.Join<std::string>(r).Collect();
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->size(), 2u);
  std::sort(joined->begin(), joined->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ((*joined)[0].first, 2u);
  EXPECT_EQ((*joined)[0].second.first, 20u);
  EXPECT_EQ((*joined)[0].second.second, "two");
  EXPECT_EQ((*joined)[1].first, 3u);
  EXPECT_EQ((*joined)[1].second.second, "three");
}

TEST_F(DataflowTest, JoinProducesCrossProductPerKey) {
  std::vector<IntPair> left{{1, 10}, {1, 11}};
  std::vector<IntPair> right{{1, 100}, {1, 101}, {1, 102}};
  auto l = Dataset<IntPair>::FromVector(&ctx_, left, 2);
  auto r = Dataset<IntPair>::FromVector(&ctx_, right, 2);
  auto joined = l.Join<uint64_t>(r).Collect();
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->size(), 6u);
}

TEST_F(DataflowTest, CoGroupKeepsUnmatched) {
  std::vector<IntPair> left{{1, 10}};
  std::vector<IntPair> right{{2, 20}};
  auto l = Dataset<IntPair>::FromVector(&ctx_, left, 1);
  auto r = Dataset<IntPair>::FromVector(&ctx_, right, 1);
  auto grouped = l.CoGroup<uint64_t>(r).Collect();
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->size(), 2u);
  for (auto& [k, vw] : *grouped) {
    if (k == 1) {
      EXPECT_EQ(vw.first.size(), 1u);
      EXPECT_TRUE(vw.second.empty());
    } else {
      EXPECT_TRUE(vw.first.empty());
      EXPECT_EQ(vw.second.size(), 1u);
    }
  }
}

TEST_F(DataflowTest, UnionConcatenates) {
  auto a = Dataset<uint64_t>::FromVector(&ctx_, {1, 2}, 1);
  auto b = Dataset<uint64_t>::FromVector(&ctx_, {3, 4}, 1);
  auto u = a.Union(b).Collect();
  ASSERT_TRUE(u.ok());
  std::sort(u->begin(), u->end());
  EXPECT_EQ(*u, (std::vector<uint64_t>{1, 2, 3, 4}));
}

TEST_F(DataflowTest, DistinctKeys) {
  std::vector<IntPair> data{{1, 0}, {1, 1}, {2, 0}, {3, 0}, {3, 9}};
  auto ds = Dataset<IntPair>::FromVector(&ctx_, data, 2);
  auto keys = ds.DistinctKeys().Collect();
  ASSERT_TRUE(keys.ok());
  std::sort(keys->begin(), keys->end());
  EXPECT_EQ(*keys, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(DataflowTest, MapPartitionsWithIndexSeesAllPartitions) {
  std::vector<uint64_t> data(40, 1);
  auto ds = Dataset<uint64_t>::FromVector(&ctx_, data, 4);
  auto tagged = ds.MapPartitionsWithIndex(
      [](int32_t p, std::vector<uint64_t>&& in)
          -> Result<std::vector<IntPair>> {
        std::vector<IntPair> out;
        for (uint64_t v : in) out.push_back({(uint64_t)p, v});
        return out;
      });
  auto rows = tagged.Collect();
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 40u);
  std::vector<int> seen(4, 0);
  for (auto& [p, v] : *rows) seen[p]++;
  for (int c : seen) EXPECT_EQ(c, 10);
}

TEST_F(DataflowTest, CacheAvoidsRecompute) {
  int computes = 0;
  auto ds = Dataset<uint64_t>::FromVector(&ctx_, {1, 2, 3, 4}, 2)
                .Map([&computes](uint64_t& v) {
                  ++computes;
                  return v;
                })
                .Cache();
  ASSERT_TRUE(ds.Evaluate().ok());
  EXPECT_EQ(computes, 4);
  ASSERT_TRUE(ds.Collect().ok());
  EXPECT_EQ(computes, 4) << "cached partitions must not recompute";
  ds.Unpersist();
  ASSERT_TRUE(ds.Collect().ok());
  EXPECT_EQ(computes, 8) << "unpersisted partitions recompute";
}

TEST_F(DataflowTest, CacheChargesAndReleasesMemory) {
  auto usage_before = cluster_.memory().Usage(0);
  auto ds =
      Dataset<uint64_t>::FromVector(&ctx_, std::vector<uint64_t>(1000, 7),
                                    4)
          .Cache();
  ASSERT_TRUE(ds.Evaluate().ok());
  EXPECT_GT(cluster_.memory().Usage(0), usage_before);
  ds.Unpersist();
  EXPECT_EQ(cluster_.memory().Usage(0), usage_before);
}

TEST_F(DataflowTest, ExecutorFailureInvalidatesCacheViaLineage) {
  int computes = 0;
  auto ds = Dataset<uint64_t>::FromVector(&ctx_, {1, 2, 3, 4, 5, 6, 7, 8},
                                          4)
                .Map([&computes](uint64_t& v) {
                  ++computes;
                  return v * 2;
                })
                .Cache();
  ASSERT_TRUE(ds.Evaluate().ok());
  int after_first = computes;

  // Executor 1 dies: its ledger is wiped and its cached partitions are
  // stale; lineage recomputes only those.
  cluster_.KillNode(1);
  cluster_.ReviveNode(1);
  ctx_.BumpExecutorEpoch(1);

  auto out = ds.Collect();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->size(), 8u);
  EXPECT_GT(computes, after_first);
  EXPECT_LT(computes, 2 * after_first)
      << "only the dead executor's partitions should recompute";
}

TEST_F(DataflowTest, BorrowedCacheReadsShareStorageUntilEvicted) {
  std::vector<uint64_t> data(200);
  std::iota(data.begin(), data.end(), 0);
  auto ds = Dataset<uint64_t>::FromVector(&ctx_, data, 4)
                .Map([](uint64_t& v) { return v * 3; })
                .Cache();
  const int32_t p = 1;
  const sim::NodeId exec = ctx_.ExecutorOf(p);
  auto want = ds.ComputePartition(p);
  ASSERT_TRUE(want.ok());
  auto a = ds.BorrowPartition(p);
  auto b = ds.BorrowPartition(p);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(**a, *want);
  EXPECT_EQ(a->get(), b->get()) << "cached reads must share storage";

  // Executor death makes the entry stale: the next read recomputes it
  // into fresh storage, while earlier borrowers keep the old copy.
  ctx_.BumpExecutorEpoch(exec);
  auto c = ds.BorrowPartition(p);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(c->get(), a->get());
  EXPECT_EQ(**c, *want);
  EXPECT_EQ(a->use_count(), 2) << "the cache must drop the stale copy";
  EXPECT_EQ(c->use_count(), 2);

  const uint64_t cached_usage = cluster_.memory().Usage(exec);
  ds.Unpersist();
  EXPECT_EQ(c->use_count(), 1) << "Unpersist must release the cache's copy";
  EXPECT_LT(cluster_.memory().Usage(exec), cached_usage);
  EXPECT_EQ(**c, *want);
}

/// A grouped dataset's partitions, sorted by key (group order within a
/// partition follows hash-table iteration).
std::vector<std::pair<uint64_t, std::vector<uint64_t>>> SortedGroups(
    std::vector<std::pair<uint64_t, std::vector<uint64_t>>> groups) {
  std::sort(groups.begin(), groups.end());
  return groups;
}

TEST_F(DataflowTest, KilledExecutorRecomputesCachedGroupByFromShuffle) {
  std::vector<IntPair> data;
  for (uint64_t i = 0; i < 400; ++i) data.push_back({i % 37, i});
  auto cached =
      Dataset<IntPair>::FromVector(&ctx_, data, 4).GroupByKey().Cache();
  auto first = cached.Collect();
  ASSERT_TRUE(first.ok());
  // A killed executor's partitions recompute from the shuffle blocks.
  ctx_.BumpExecutorEpoch(1);
  auto again = cached.Collect();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(SortedGroups(*again), SortedGroups(*first));
}

TEST(DataflowLifetimeTest, GroupByHandleMayOutliveItsContext) {
  using Grouped = Dataset<std::pair<uint64_t, std::vector<uint64_t>>>;
  sim::SimCluster cluster(SmallCluster());
  std::unique_ptr<Grouped> grouped;
  {
    DataflowContext ctx(&cluster);
    grouped = std::make_unique<Grouped>(
        Dataset<IntPair>::FromVector(&ctx, {{1, 2}, {1, 3}, {4, 5}}, 2)
            .GroupByKey());
    ASSERT_TRUE(grouped->Count().ok());
  }
  // The shuffle service died with the context; destroying the last
  // handle must not touch it.
  grouped.reset();
}

/// Pins the engine parallelism for one test and restores the
/// PSGRAPH_THREADS/hardware default on exit.
struct ParallelismGuard {
  explicit ParallelismGuard(size_t n) { SetGlobalParallelism(n); }
  ~ParallelismGuard() { SetGlobalParallelism(0); }
};

TEST(DataflowStageTest, MapStagesNeverRunInsideAReduceTask) {
  struct Run {
    int64_t makespan = 0;
    size_t partition_spans = 0;
    size_t nested = 0;
  };
  auto run = [](size_t parallelism) {
    ParallelismGuard guard(parallelism);
    sim::SimCluster cluster(SmallCluster());
    cluster.tracer().set_enabled(true);
    DataflowContext ctx(&cluster);
    std::vector<IntPair> data;
    for (uint64_t i = 0; i < 600; ++i) data.push_back({i % 53, i});
    auto out =
        Dataset<IntPair>::FromVector(&ctx, data, 6)
            .ReduceByKey([](const uint64_t& a, const uint64_t& b) {
              return a + b;
            })
            .Map([](IntPair& kv) { return IntPair(kv.first % 7, kv.second); })
            .GroupByKey()
            .Collect();
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    Run r;
    r.makespan = cluster.clock().MakespanTicks();
    const std::vector<TraceSpan> spans = cluster.tracer().Snapshot();
    std::map<uint64_t, const TraceSpan*> by_id;
    for (const TraceSpan& s : spans) by_id[s.id] = &s;
    for (const TraceSpan& s : spans) {
      if (s.name != "dataflow.partition") continue;
      ++r.partition_spans;
      for (auto it = by_id.find(s.parent); it != by_id.end();
           it = by_id.find(it->second->parent)) {
        if (it->second->name == "dataflow.partition") {
          ++r.nested;
          break;
        }
      }
    }
    return r;
  };
  const Run seq = run(1);
  const Run par = run(4);
  // Two map stages and the action, six partitions each.
  EXPECT_EQ(seq.partition_spans, 18u);
  EXPECT_EQ(par.partition_spans, 18u);
  EXPECT_EQ(seq.nested, 0u);
  EXPECT_EQ(par.nested, 0u);
  EXPECT_EQ(seq.makespan, par.makespan);
}

TEST_F(DataflowTest, GroupByKeyOomWhenBudgetTiny) {
  sim::ClusterConfig cfg = SmallCluster();
  cfg.executor_mem_bytes = 16 << 10;  // 16 KB per executor
  sim::SimCluster tiny(cfg);
  DataflowContext tctx(&tiny);
  std::vector<IntPair> data;
  for (uint64_t i = 0; i < 5000; ++i) data.push_back({i % 7, i});
  auto ds = Dataset<IntPair>::FromVector(&tctx, data, 4);
  auto out = ds.GroupByKey().Collect();
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsMemoryLimitExceeded())
      << out.status().ToString();
}

/// One shuffle operator's run at one executor budget: the action's
/// status and, per executor, its clock and memory peak afterwards.
struct OomPoint {
  std::string op;
  uint64_t budget = 0;
  std::string status;
  std::vector<int64_t> ticks;
  std::vector<uint64_t> peak;
  bool operator==(const OomPoint&) const = default;
};

std::ostream& operator<<(std::ostream& os, const OomPoint& p) {
  os << p.op << " at " << p.budget << " B: " << p.status << "; ticks";
  for (int64_t t : p.ticks) os << " " << t;
  os << "; peak";
  for (uint64_t b : p.peak) os << " " << b;
  return os;
}

/// Runs `op` over one fixed input, 2400 records on 600 keys in 8
/// partitions, on 4 executors of `budget` bytes each. Every executor's
/// usage must be back to 0 after the action, whether it failed or not.
OomPoint RunShuffleAtBudget(const std::string& op, uint64_t budget) {
  sim::ClusterConfig cfg = SmallCluster();
  cfg.executor_mem_bytes = budget;
  sim::SimCluster cluster(cfg);
  DataflowContext ctx(&cluster);
  std::vector<IntPair> data;
  for (uint64_t i = 0; i < 2400; ++i) data.push_back({i % 600, i});
  auto ds = Dataset<IntPair>::FromVector(&ctx, data, 8);
  Status st;
  if (op == "groupByKey") {
    st = ds.GroupByKey().Collect().status();
  } else if (op == "reduceByKey") {
    st = ds.ReduceByKey([](const uint64_t& a, const uint64_t& b) {
             return a + b;
           })
             .Collect()
             .status();
  } else {
    std::vector<IntPair> right;
    for (uint64_t k = 0; k < 600; k += 2) right.push_back({k, k * 10});
    st = ds.Join<uint64_t>(Dataset<IntPair>::FromVector(&ctx, right, 8))
             .Collect()
             .status();
  }
  OomPoint p{op, budget, st.ToString(), {}, {}};
  for (int32_t e = 0; e < cfg.num_executors; ++e) {
    p.ticks.push_back(cluster.clock().NowTicks(e));
    p.peak.push_back(cluster.memory().Peak(e));
    EXPECT_EQ(cluster.memory().Usage(e), 0u) << p;
  }
  return p;
}

TEST(DataflowOomTest, HashTablesFailAtTheSameRecordAtAnyBudget) {
  // Recorded from the engine that charged each record's hash-table bytes
  // in its own Allocate call. Per operator: a budget nothing fills, one
  // the largest executor's records fill exactly, one byte less (the last
  // record fails), and budgets whose first failing records fall inside a
  // shuffle block; reduceByKey's last budget fails in its map-side
  // combine instead.
  const std::vector<OomPoint> expected = {
    {"groupByKey", 64ull << 20,
     "OK",
     {4104568800, 4104568800, 4104568800, 4104568800},
     {9928, 10472, 10336, 10880}},
    {"groupByKey", 10880,
     "OK",
     {4104568800, 4104568800, 4104568800, 4104568800},
     {9928, 10472, 10336, 10880}},
    {"groupByKey", 10879,
     "MemoryLimitExceeded: node 3: "
     "groupByKey hash table needs 24 B, used 10856 of 10879 B",
     {3802622400, 3904158400, 4003248800, 4102968800},
     {9928, 10472, 10336, 10856}},
    {"groupByKey", 10000,
     "MemoryLimitExceeded: node 2: "
     "groupByKey hash table needs 24 B, used 10000 of 10000 B",
     {3802622400, 3902618400, 4000268800, 4101388800},
     {9928, 9992, 10000, 10000}},
    {"groupByKey", 8000,
     "MemoryLimitExceeded: node 0: "
     "groupByKey hash table needs 24 B, used 7992 of 8000 B",
     {3799782400, 3901158400, 4000268800, 4101388800},
     {7992, 8000, 7992, 7968}},
    {"groupByKey", 6100,
     "MemoryLimitExceeded: node 0: "
     "groupByKey hash table needs 64 B, used 6048 of 6100 B",
     {3799782400, 3901158400, 4000268800, 4101388800},
     {6048, 6080, 6096, 6072}},
    {"groupByKey", 3001,
     "MemoryLimitExceeded: node 0: "
     "groupByKey hash table needs 24 B, used 2984 of 3001 B",
     {3799782400, 3901158400, 4000268800, 4101388800},
     {2984, 3000, 2976, 2992}},
    {"reduceByKey", 64ull << 20,
     "OK",
     {4046527200, 4046527200, 4046527200, 4046527200},
     {4672, 4928, 4864, 5120}},
    {"reduceByKey", 5120,
     "OK",
     {4046527200, 4046527200, 4046527200, 4046527200},
     {4672, 4928, 4864, 5120}},
    {"reduceByKey", 5119,
     "MemoryLimitExceeded: node 3: "
     "reduceByKey hash table needs 64 B, used 5056 of 5119 B",
     {3745785600, 3846289600, 3946047200, 4044927200},
     {4672, 4928, 4864, 5056}},
    {"reduceByKey", 4900,
     "MemoryLimitExceeded: node 3: "
     "reduceByKey hash table needs 64 B, used 4864 of 4900 B",
     {3745785600, 3844749600, 3946047200, 4043347200},
     {4672, 4864, 4864, 4864}},
    {"reduceByKey", 4700,
     "MemoryLimitExceeded: node 2: "
     "reduceByKey hash table needs 64 B, used 4672 of 4700 B",
     {3745785600, 3844749600, 3943067200, 4043347200},
     {4672, 4672, 4672, 4672}},
    {"reduceByKey", 4500,
     "MemoryLimitExceeded: node 0: "
     "reduceByKey hash table needs 64 B, used 4480 of 4500 B",
     {3742945600, 3843289600, 3943067200, 4043347200},
     {4480, 4480, 4480, 4480}},
    {"reduceByKey", 4100,
     "MemoryLimitExceeded: node 0: "
     "shuffle map-side combine needs 4200 B, used 0 of 4100 B",
     {12000000, 12000000, 12000000, 12000000},
     {0, 0, 0, 0}},
    {"join", 64ull << 20,
     "OK",
     {8127544000, 8127544000, 8127544000, 8127544000},
     {10720, 11384, 11296, 11864}},
    {"join", 11864,
     "OK",
     {8127544000, 8127544000, 8127544000, 8127544000},
     {10720, 11384, 11296, 11864}},
    {"join", 11863,
     "MemoryLimitExceeded: node 3: "
     "coGroup hash table needs 24 B, used 11840 of 11863 B",
     {7825097600, 7926172800, 8026664000, 8121064000},
     {10720, 11384, 11296, 11840}},
    {"join", 9000,
     "MemoryLimitExceeded: node 0: "
     "coGroup hash table needs 24 B, used 8992 of 9000 B",
     {7813737600, 7914252800, 8014704000, 8114784000},
     {8992, 8944, 8992, 8992}},
    {"join", 7000,
     "MemoryLimitExceeded: node 0: "
     "coGroup hash table needs 64 B, used 6984 of 7000 B",
     {7813737600, 7914252800, 8014704000, 8114784000},
     {6984, 6992, 7000, 7000}},
    {"join", 5000,
     "MemoryLimitExceeded: node 0: "
     "coGroup hash table needs 64 B, used 4992 of 5000 B",
     {7813737600, 7914252800, 8014704000, 8114784000},
     {4992, 4984, 4992, 4992}},
    {"join", 2500,
     "MemoryLimitExceeded: node 0: "
     "coGroup hash table needs 24 B, used 2480 of 2500 B",
     {7813737600, 7914252800, 8014704000, 8114784000},
     {2480, 2496, 2480, 2448}},
  };
  for (size_t parallelism : {1, 8}) {
    ParallelismGuard guard(parallelism);
    for (const OomPoint& want : expected) {
      EXPECT_EQ(RunShuffleAtBudget(want.op, want.budget), want)
          << "at parallelism " << parallelism;
    }
  }
}

TEST_F(DataflowTest, ShuffleChargesSimulatedTime) {
  std::vector<IntPair> data;
  for (uint64_t i = 0; i < 1000; ++i) data.push_back({i % 100, i});
  auto ds = Dataset<IntPair>::FromVector(&ctx_, data, 4);
  double before = cluster_.clock().Makespan();
  ASSERT_TRUE(
      ds.ReduceByKey([](const uint64_t& a, const uint64_t& b) {
          return a + b;
        }).Evaluate().ok());
  EXPECT_GT(cluster_.clock().Makespan(), before);
}

TEST_F(DataflowTest, StageBarrierAlignsExecutors) {
  cluster_.clock().Advance(0, 5.0);
  cluster_.clock().Advance(2, 1.0);
  ctx_.StageBarrier();
  for (int e = 0; e < 4; ++e) {
    EXPECT_DOUBLE_EQ(cluster_.clock().Now(e), 5.0);
  }
}

}  // namespace
}  // namespace psgraph::dataflow
