// Dynamic-graph streaming tests (src/stream): the mutation log is
// deterministic and only emits valid events, ps.mutate fails loudly on
// bad deltas, incremental delta-PageRank lands on the full-recompute
// fixpoint while touching strictly fewer vertices, the freshness
// pipeline replays exactly-once across a server kill/restart, a whole
// pipeline run is byte-identical at engine parallelism 1 vs 8, and an
// RMAT pipeline run matches a checksum pinned before the retrain's
// vertex sets became dense arrays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/psgraph_context.h"
#include "graph/generators.h"
#include "graph/types.h"
#include "ps/agent.h"
#include "ps/partitioner.h"
#include "stream/incremental.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"

namespace psgraph::stream {
namespace {

core::PsGraphContext::Options SmallOptions(int32_t executors = 2,
                                           int32_t servers = 2) {
  core::PsGraphContext::Options opts;
  opts.cluster.num_executors = executors;
  opts.cluster.num_servers = servers;
  opts.cluster.executor_mem_bytes = 256ull << 20;
  opts.cluster.server_mem_bytes = 256ull << 20;
  return opts;
}

/// Ring + chord: dense ids, every vertex has out-degree 2, no self
/// loops, no duplicates — a valid MutationLog seed set.
graph::EdgeList MakeRing(uint64_t n) {
  graph::EdgeList edges;
  for (uint64_t v = 0; v < n; ++v) {
    edges.push_back({v, (v + 1) % n, 1.0f});
    edges.push_back({v, (v + 7) % n, 1.0f});
  }
  return edges;
}

MutationLogOptions LogOptions(uint64_t n) {
  MutationLogOptions mo;
  mo.seed = 11;
  mo.num_vertices = n;
  mo.mutations_per_second = 40.0;
  mo.epoch_seconds = 0.5;
  mo.delete_fraction = 0.4;
  return mo;
}

/// Applies an epoch's events to a plain edge list (reference semantics
/// for the PS-side MutateNeighbors).
void ApplyToEdgeList(const MutationEpoch& epoch, graph::EdgeList* edges) {
  for (const MutationEvent& ev : epoch.events) {
    const ps::EdgeMutation& m = ev.mutation;
    if (m.insert) {
      edges->push_back({m.src, m.dst, m.weight});
    } else {
      auto it = std::find_if(edges->begin(), edges->end(),
                             [&](const graph::Edge& e) {
                               return e.src == m.src && e.dst == m.dst;
                             });
      ASSERT_NE(it, edges->end());
      edges->erase(it);
    }
  }
}

TEST(MutationLogTest, DeterministicValidEpochs) {
  const uint64_t n = 48;
  graph::EdgeList edges = MakeRing(n);
  MutationLog a(edges, LogOptions(n));
  MutationLog b(edges, LogOptions(n));

  // Shadow semantics: track the live set alongside and check validity.
  std::vector<std::pair<uint64_t, uint64_t>> live;
  for (const graph::Edge& e : edges) live.push_back({e.src, e.dst});

  for (int k = 0; k < 6; ++k) {
    MutationEpoch ea = a.Next();
    MutationEpoch eb = b.Next();
    EXPECT_EQ(ea.epoch, k + 1);
    EXPECT_EQ(ea.epoch, eb.epoch);
    EXPECT_EQ(ea.start_ticks, eb.start_ticks);
    EXPECT_EQ(ea.end_ticks, eb.end_ticks);
    ASSERT_EQ(ea.events.size(), eb.events.size());
    EXPECT_FALSE(ea.events.empty());

    std::unordered_set<uint64_t> touched;
    int64_t prev_arrival = ea.start_ticks;
    for (size_t i = 0; i < ea.events.size(); ++i) {
      const ps::EdgeMutation& m = ea.events[i].mutation;
      const ps::EdgeMutation& m2 = eb.events[i].mutation;
      EXPECT_EQ(m.src, m2.src);
      EXPECT_EQ(m.dst, m2.dst);
      EXPECT_EQ(m.insert, m2.insert);
      EXPECT_EQ(ea.events[i].arrival_ticks, eb.events[i].arrival_ticks);

      // Arrivals are inside the window and monotone.
      EXPECT_GE(ea.events[i].arrival_ticks, prev_arrival);
      EXPECT_LT(ea.events[i].arrival_ticks, ea.end_ticks);
      prev_arrival = ea.events[i].arrival_ticks;

      // Each edge at most once per epoch; inserts new, deletes live.
      const uint64_t key = m.src * n + m.dst;
      EXPECT_TRUE(touched.insert(key).second);
      EXPECT_NE(m.src, m.dst);
      auto it = std::find(live.begin(), live.end(),
                          std::make_pair(m.src, m.dst));
      if (m.insert) {
        EXPECT_EQ(it, live.end());
        live.push_back({m.src, m.dst});
      } else {
        ASSERT_NE(it, live.end());
        live.erase(it);
      }
    }
  }
  EXPECT_EQ(a.live_edges(), live.size());
}

TEST(MutateNeighborsTest, DeleteOfNonexistentEdgeFailsLoudly) {
  // A 1 MB server budget, so one batch below can exceed it.
  core::PsGraphContext::Options opts = SmallOptions();
  opts.cluster.server_mem_bytes = 1ull << 20;
  auto ctx_or = core::PsGraphContext::Create(opts);
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  const uint64_t n = 16;
  auto adj = LoadMutableAdjacency(ctx, MakeRing(n), n, "adj");
  PSG_CHECK_OK(adj.status());
  ps::PsAgent agent(&ctx.ps(), ctx.cluster().config().driver());

  // DELETE of an edge that was never inserted: loud NotFound naming it.
  Status s = agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/5, 1.0f, /*insert=*/false}});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nonexistent edge"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("3"), std::string::npos) << s.message();

  // DELETE from a source with no adjacency entry at all.
  s = agent.MutateNeighbors(
      *adj, {{/*src=*/n + 100, /*dst=*/0, 1.0f, /*insert=*/false}});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("no adjacency"), std::string::npos)
      << s.message();

  // Duplicate INSERT of a live edge is rejected too.
  s = agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/4, 1.0f, /*insert=*/true}});
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate"), std::string::npos)
      << s.message();

  // A bad multi-op batch applies nothing: not its earlier inserts and
  // deletes, not their memory charges, not their compute. Each batch
  // goes straight to the server owning its sources, so no wire ticks
  // land on its clock either.
  const ps::Partitioner part(adj->scheme, adj->num_rows,
                             ctx.ps().num_servers());
  ps::PsServer* server = ctx.ps().server(part.PartitionOf(3));
  std::vector<uint64_t> own;  // the server's sources, ascending
  for (uint64_t v = 0; v < n; ++v) {
    if (ctx.ps().server(part.PartitionOf(v)) == server) own.push_back(v);
  }
  ASSERT_GE(own.size(), 2u);
  auto adjacency = [&] {
    auto block = agent.PullNeighbors(*adj, own);
    PSG_CHECK_OK(block.status());
    std::vector<std::vector<uint64_t>> lists;
    for (size_t i = 0; i < block->size(); ++i) {
      lists.emplace_back(block->neighbors(i).begin(),
                         block->neighbors(i).end());
    }
    return lists;
  };
  const std::vector<std::vector<uint64_t>> before = adjacency();
  const uint64_t a = own[0];
  const uint64_t b = own[1];
  const uint64_t b_edge = before[1][0];  // a live edge b -> b_edge
  // A vertex own[i] has no edge to.
  auto non_neighbor = [&](size_t i) {
    uint64_t v = 0;
    while (v == own[i] ||
           std::count(before[i].begin(), before[i].end(), v) > 0) {
      ++v;
    }
    return v;
  };
  const uint64_t x = non_neighbor(0);
  const uint64_t y = non_neighbor(1);
  auto expect_applies_nothing =
      [&](const char* what, std::vector<uint64_t> insert_src,
          std::vector<uint64_t> insert_dst, std::vector<uint64_t> delete_src,
          std::vector<uint64_t> delete_dst, const char* error) {
        SCOPED_TRACE(what);
        const sim::NodeId node = server->node();
        const uint64_t charged = server->charged_bytes();
        const uint64_t usage = ctx.cluster().memory().Usage(node);
        const uint64_t peak = ctx.cluster().memory().Peak(node);
        const int64_t ticks = ctx.cluster().clock().NowTicks(node);
        Status st = server->MutateNeighbors(adj->id, insert_src, insert_dst,
                                            {}, delete_src, delete_dst);
        EXPECT_FALSE(st.ok());
        EXPECT_NE(st.message().find(error), std::string::npos)
            << st.message();
        EXPECT_EQ(server->charged_bytes(), charged);
        EXPECT_EQ(ctx.cluster().memory().Usage(node), usage);
        EXPECT_EQ(ctx.cluster().memory().Peak(node), peak);
        EXPECT_EQ(ctx.cluster().clock().NowTicks(node), ticks);
        EXPECT_EQ(adjacency(), before);
      };
  expect_applies_nothing("last insert repeats the batch's first",
                         {a, b, a}, {x, y, x}, {b}, {b_edge}, "duplicate");
  expect_applies_nothing("last delete names an edge the batch deleted",
                         {a}, {x}, {a, b, a}, {x, b_edge, x},
                         "nonexistent edge");
  // One new source per insert after the first, each charged a 48 B
  // table entry and its 8 B neighbor id: the last insert crosses the
  // budget.
  const uint64_t per_new_source = 48 + sizeof(uint64_t);
  const sim::NodeId node = server->node();
  const uint64_t room = ctx.cluster().memory().Budget(node) -
                        ctx.cluster().memory().Usage(node);
  std::vector<uint64_t> insert_src{a};
  std::vector<uint64_t> insert_dst{x};
  for (uint64_t k = 0; k <= room / per_new_source; ++k) {
    insert_src.push_back(n + 1000 + k);
    insert_dst.push_back(a);
  }
  expect_applies_nothing("inserts exceed the server budget", insert_src,
                         insert_dst, {}, {}, "needs");

  // A valid insert-then-delete round trip still works after the errors.
  PSG_CHECK_OK(agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/5, 1.0f, /*insert=*/true}}));
  PSG_CHECK_OK(agent.MutateNeighbors(
      *adj, {{/*src=*/3, /*dst=*/5, 1.0f, /*insert=*/false}}));
}

TEST(DeltaPageRankTest, IncrementalMatchesFullOnMutatedGraph) {
  // Big enough (and a small enough epoch) that the pruned residual wave
  // dies out before wrapping the ring — the "strictly fewer vertices"
  // gate is meaningful.
  const uint64_t n = 512;
  graph::EdgeList edges = MakeRing(n);
  MutationLogOptions mo = LogOptions(n);
  mo.mutations_per_second = 4.0;  // two events in the epoch
  MutationLog log(edges, mo);
  MutationEpoch epoch = log.Next();

  // Incremental: bootstrap on the initial graph, then apply the epoch.
  auto ctx_or = core::PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  auto adj = LoadMutableAdjacency(ctx, edges, n, "adj");
  PSG_CHECK_OK(adj.status());
  DeltaPageRankOptions po;
  po.tolerance = 1e-9;
  po.prune_epsilon = 1e-6;
  po.max_iterations = 100;
  auto engine = DeltaPageRankEngine::Create(&ctx, *adj, n, po, "pr");
  PSG_CHECK_OK(engine.status());
  PSG_CHECK_OK(engine->RecomputeFull().status());

  std::vector<ps::EdgeMutation> batch;
  for (const MutationEvent& ev : epoch.events) batch.push_back(ev.mutation);
  auto stats = engine->ApplyMutationsAndRecompute(batch);
  PSG_CHECK_OK(stats.status());
  EXPECT_GT(stats->vertices_touched, 0u);
  EXPECT_LT(stats->vertices_touched, n)
      << "incremental recompute must touch strictly fewer vertices";
  EXPECT_FALSE(stats->affected.empty());
  EXPECT_TRUE(std::is_sorted(stats->affected.begin(),
                             stats->affected.end()));
  auto ranks = engine->ReadRanks();
  PSG_CHECK_OK(ranks.status());

  // Reference: a full recompute on the already-mutated graph in a fresh
  // context.
  graph::EdgeList mutated = edges;
  ApplyToEdgeList(epoch, &mutated);
  auto ref_ctx_or = core::PsGraphContext::Create(SmallOptions());
  PSG_CHECK_OK(ref_ctx_or.status());
  auto& ref_ctx = **ref_ctx_or;
  auto ref_adj = LoadMutableAdjacency(ref_ctx, mutated, n, "adj");
  PSG_CHECK_OK(ref_adj.status());
  auto ref_engine =
      DeltaPageRankEngine::Create(&ref_ctx, *ref_adj, n, po, "pr");
  PSG_CHECK_OK(ref_engine.status());
  PSG_CHECK_OK(ref_engine->RecomputeFull().status());
  auto ref_ranks = ref_engine->ReadRanks();
  PSG_CHECK_OK(ref_ranks.status());

  ASSERT_EQ(ranks->size(), ref_ranks->size());
  double max_err = 0.0;
  for (size_t v = 0; v < ranks->size(); ++v) {
    max_err = std::max(max_err, std::fabs((*ranks)[v] - (*ref_ranks)[v]));
  }
  EXPECT_LT(max_err, 1e-4)
      << "incremental fixpoint must agree with a full recompute";
}

TEST(FreshnessPipelineTest, ExactlyOnceReplayAfterServerKillRestart) {
  const uint64_t n = 48;
  const int kEpochs = 4;
  graph::EdgeList edges = MakeRing(n);

  DeltaPageRankOptions po;
  po.max_iterations = 30;

  // Run the pipeline over the same deterministic log twice: once clean,
  // once with server 1 killed at epoch 3 (RunEpoch repairs it before the
  // watermark check, restoring the epoch-2 checkpoint).
  auto run = [&](bool kill) -> std::vector<double> {
    auto ctx_or = core::PsGraphContext::Create(SmallOptions());
    PSG_CHECK_OK(ctx_or.status());
    auto& ctx = **ctx_or;
    auto adj = LoadMutableAdjacency(ctx, edges, n, "adj");
    PSG_CHECK_OK(adj.status());
    auto engine = DeltaPageRankEngine::Create(&ctx, *adj, n, po, "pr");
    PSG_CHECK_OK(engine.status());
    PSG_CHECK_OK(engine->RecomputeFull().status());
    FreshnessPipeline pipeline(&ctx, &*engine, nullptr, PipelineOptions());
    PSG_CHECK_OK(pipeline.Init());
    if (kill) {
      ctx.failures().ScheduleKill(ctx.ps().ServerNode(1), /*iteration=*/3);
    }

    MutationLog log(edges, LogOptions(n));
    for (int k = 0; k < kEpochs; ++k) {
      auto r = pipeline.RunEpoch(log.Next());
      PSG_CHECK_OK(r.status());
      EXPECT_FALSE(r->skipped);
      EXPECT_GT(r->mutations, 0u);
    }
    auto wm = pipeline.Watermark();
    PSG_CHECK_OK(wm.status());
    EXPECT_EQ(*wm, kEpochs);

    // A full log replay (the post-restart path) offers every epoch
    // again; each is skipped exactly once — never re-applied.
    MutationLog replay(edges, LogOptions(n));
    for (int k = 0; k < kEpochs; ++k) {
      auto r = pipeline.RunEpoch(replay.Next());
      PSG_CHECK_OK(r.status());
      EXPECT_TRUE(r->skipped);
    }

    // Out-of-order epochs are rejected loudly, not silently applied.
    MutationLog gap(edges, LogOptions(n));
    for (int k = 0; k < kEpochs + 1; ++k) gap.Next();
    MutationEpoch future = gap.Next();  // epoch kEpochs + 2
    auto bad = pipeline.RunEpoch(future);
    EXPECT_FALSE(bad.ok());
    EXPECT_NE(bad.status().message().find("replayed in order"),
              std::string::npos);

    auto ranks = engine->ReadRanks();
    PSG_CHECK_OK(ranks.status());
    return *ranks;
  };

  std::vector<double> clean = run(/*kill=*/false);
  std::vector<double> killed = run(/*kill=*/true);
  ASSERT_EQ(clean.size(), killed.size());
  // Exactly-once: the kill/restart run converges to the same state as
  // the clean run, bit for bit (consistent rollback to the epoch-2
  // checkpoint plus deterministic re-application of epoch 3).
  EXPECT_EQ(0, std::memcmp(clean.data(), killed.data(),
                           clean.size() * sizeof(double)));
}

/// Everything a freshness-pipeline run leaves behind that must not
/// depend on engine parallelism.
struct PipelineRun {
  std::vector<double> ranks;
  std::vector<float> emb;
  std::vector<int64_t> staleness;
  int64_t makespan_ticks = 0;

  /// FNV-1a over the raw bytes of every field, in declaration order.
  uint64_t Checksum() const {
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](const void* data, size_t n) {
      const auto* p = static_cast<const unsigned char*>(data);
      for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
      }
    };
    mix(ranks.data(), ranks.size() * sizeof(double));
    mix(emb.data(), emb.size() * sizeof(float));
    mix(staleness.data(), staleness.size() * sizeof(int64_t));
    mix(&makespan_ticks, sizeof(makespan_ticks));
    return h;
  }
};

/// Full recompute and embedding, then `epochs` pipeline epochs of `log`,
/// on a fresh context with `executors` executors and two servers.
PipelineRun RunPipeline(const graph::EdgeList& edges, uint64_t n,
                        int32_t executors, const MutationLogOptions& log_opts,
                        int epochs) {
  auto ctx_or = core::PsGraphContext::Create(SmallOptions(executors));
  PSG_CHECK_OK(ctx_or.status());
  auto& ctx = **ctx_or;
  auto adj = LoadMutableAdjacency(ctx, edges, n, "adj");
  PSG_CHECK_OK(adj.status());
  DeltaPageRankOptions po;
  po.max_iterations = 30;
  auto engine = DeltaPageRankEngine::Create(&ctx, *adj, n, po, "pr");
  PSG_CHECK_OK(engine.status());
  PSG_CHECK_OK(engine->RecomputeFull().status());
  ReembedOptions eo;
  eo.dim = 4;
  auto embedder = IncrementalEmbedder::Create(&ctx, *adj, n, eo, "emb");
  PSG_CHECK_OK(embedder.status());
  PSG_CHECK_OK(embedder->InitFull());
  FreshnessPipeline pipeline(&ctx, &*engine, &*embedder, PipelineOptions());
  PSG_CHECK_OK(pipeline.Init());

  PipelineRun out;
  MutationLog log(edges, log_opts);
  for (int k = 0; k < epochs; ++k) {
    auto r = pipeline.RunEpoch(log.Next());
    PSG_CHECK_OK(r.status());
    out.staleness.insert(out.staleness.end(), r->staleness_ticks.begin(),
                         r->staleness_ticks.end());
  }
  auto ranks = engine->ReadRanks();
  PSG_CHECK_OK(ranks.status());
  out.ranks = *ranks;
  ps::PsAgent agent(&ctx.ps(), ctx.cluster().config().driver());
  std::vector<uint64_t> keys(n);
  for (uint64_t v = 0; v < n; ++v) keys[v] = v;
  auto emb = agent.PullRows(embedder->matrix(), keys);
  PSG_CHECK_OK(emb.status());
  out.emb = *emb;
  out.makespan_ticks = ctx.cluster().clock().MakespanTicks();
  return out;
}

TEST(FreshnessPipelineTest, ByteIdenticalAcrossEngineParallelism) {
  const uint64_t n = 48;
  const int kEpochs = 3;
  graph::EdgeList edges = MakeRing(n);

  SetGlobalParallelism(1);
  PipelineRun t1 = RunPipeline(edges, n, 2, LogOptions(n), kEpochs);
  SetGlobalParallelism(8);
  PipelineRun t8 = RunPipeline(edges, n, 2, LogOptions(n), kEpochs);
  SetGlobalParallelism(0);  // restore the env/hardware default

  EXPECT_EQ(t1.makespan_ticks, t8.makespan_ticks);
  EXPECT_EQ(t1.staleness, t8.staleness);
  ASSERT_EQ(t1.ranks.size(), t8.ranks.size());
  EXPECT_EQ(0, std::memcmp(t1.ranks.data(), t8.ranks.data(),
                           t1.ranks.size() * sizeof(double)));
  ASSERT_EQ(t1.emb.size(), t8.emb.size());
  EXPECT_EQ(0, std::memcmp(t1.emb.data(), t8.emb.data(),
                           t1.emb.size() * sizeof(float)));
  EXPECT_FALSE(t1.staleness.empty());
  for (int64_t s : t1.staleness) EXPECT_GE(s, 0);
}

TEST(FreshnessPipelineTest, RmatRunMatchesPinnedChecksum) {
  // A skewed 2048-vertex graph on 4 executors: the full recompute and
  // the bootstrap embedding cover the whole id space, while the small
  // epochs after it touch a few dozen vertices, so the retrain's dense
  // vertex sets (accumulator drains, re-embed row sets) are listed both
  // by sorting and by scanning. The checksum was captured before those
  // sets became dense arrays and pins that every float is still summed
  // in the same order, at any engine parallelism.
  graph::RmatParams rp;
  rp.scale = 11;
  rp.num_edges = 16000;
  rp.seed = 23;
  graph::EdgeList edges = graph::GenerateRmat(rp);
  std::sort(edges.begin(), edges.end(),
            [](const graph::Edge& a, const graph::Edge& b) {
              return a.src != b.src ? a.src < b.src : a.dst < b.dst;
            });
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const graph::Edge& a, const graph::Edge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          }),
              edges.end());
  const uint64_t n = uint64_t{1} << rp.scale;
  MutationLogOptions lo = LogOptions(n);
  lo.mutations_per_second = 16.0;
  const int kEpochs = 4;
  const uint64_t kPinned = 0x0fca373a6489d930ULL;

  SetGlobalParallelism(1);
  PipelineRun t1 = RunPipeline(edges, n, 4, lo, kEpochs);
  SetGlobalParallelism(8);
  PipelineRun t8 = RunPipeline(edges, n, 4, lo, kEpochs);
  SetGlobalParallelism(0);  // restore the env/hardware default

  ASSERT_EQ(t1.ranks.size(), n);
  ASSERT_EQ(t8.ranks.size(), n);
  EXPECT_EQ(t1.emb.size(), n * 4);
  EXPECT_FALSE(t1.staleness.empty());
  EXPECT_EQ(t1.Checksum(), kPinned) << std::hex << t1.Checksum();
  // At parallelism > 1 the executors' residual pushes reach a server in
  // arrival order, and a destination fed by three or more executors sums
  // them in that order, so the ranks may differ in their last bits (the
  // determinism item on ROADMAP.md). Everything else is pinned bit for
  // bit: the embeddings, staleness samples and makespan of the parallel
  // run, with the sequential run's ranks, give the same checksum.
  double max_diff = 0.0;
  for (uint64_t v = 0; v < n; ++v) {
    max_diff = std::max(max_diff, std::fabs(t8.ranks[v] - t1.ranks[v]));
  }
  EXPECT_LT(max_diff, 1e-5);
  t8.ranks = t1.ranks;
  EXPECT_EQ(t8.Checksum(), kPinned) << std::hex << t8.Checksum();
}

}  // namespace
}  // namespace psgraph::stream
