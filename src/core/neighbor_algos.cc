#include "core/neighbor_algos.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "common/hash.h"

#include "common/logging.h"
#include "ps/agent.h"

namespace psgraph::core {

namespace {

int g_nbr_job = 0;

/// Sorted-vector intersection size.
uint64_t IntersectionSize(std::span<const uint64_t> a,
                          std::span<const uint64_t> b) {
  uint64_t n = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

/// groupBy + push: builds sorted neighbor tables on the PS from an edge
/// dataset (paper: "first transforming the original graph data to
/// neighbor tables by groupBy ... and then pushing the neighbor tables
/// to PS").
Result<ps::MatrixMeta> BuildNeighborTablesOnPs(
    PsGraphContext& ctx, const dataflow::Dataset<graph::Edge>& edges,
    const std::string& name) {
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta meta,
      ctx.ps().CreateMatrix(name, /*num_rows=*/0, /*num_cols=*/0,
                            ps::StorageKind::kNeighbors,
                            ps::Layout::kRowPartitioned,
                            ps::PartitionScheme::kHash));
  auto nbr = ToNeighborTables(edges);
  for (int32_t p = 0; p < nbr.num_partitions(); ++p) {
    int32_t e = ctx.dataflow().ExecutorOf(p);
    PSG_ASSIGN_OR_RETURN(auto tables, nbr.ComputePartition(p));
    std::vector<graph::NeighborList> lists;
    lists.reserve(tables.size());
    for (NeighborPair& t : tables) {
      graph::NeighborList nl;
      nl.vertex = t.first;
      nl.neighbors = std::move(t.second);
      std::sort(nl.neighbors.begin(), nl.neighbors.end());
      lists.push_back(std::move(nl));
    }
    PSG_RETURN_NOT_OK(ctx.agent(e).PushNeighbors(meta, lists));
  }
  ctx.sync().IterationBarrier();
  return meta;
}

/// Hash-range partitioners need a key space; neighbor tables use kHash,
/// so num_rows = 0 is fine (unused by the hash scheme).

struct EdgeScoringState {
  std::vector<graph::EdgeList> local_edges;  ///< per executor
  std::vector<uint64_t> cursor;              ///< next edge index
  std::vector<CommonNeighborStats> stats;    ///< per-executor partials
};

}  // namespace

Result<CommonNeighborStats> CommonNeighbor(
    PsGraphContext& ctx, const dataflow::Dataset<graph::Edge>& edges,
    const CommonNeighborOptions& opts) {
  const std::string job = "cn" + std::to_string(g_nbr_job++);
  PSG_ASSIGN_OR_RETURN(ps::MatrixMeta meta,
                       BuildNeighborTablesOnPs(ctx, edges, job + ".nbrs"));
  // Loading is done: freeze the adjacency into compact CSR shards (paper
  // §III-A lists CSR among the PS data structures).
  PSG_RETURN_NOT_OK(ctx.agent(0).FreezeNeighbors(meta));
  // Checkpoint the frozen tables so a PS failure recovers without a
  // rebuild.
  PSG_RETURN_NOT_OK(ctx.master().CheckpointAll());

  // Each executor owns its edge partitions' scoring work.
  const int32_t E = ctx.num_executors();
  EdgeScoringState st;
  st.local_edges.resize(E);
  st.cursor.assign(E, 0);
  st.stats.resize(E);
  auto selected = [&](const graph::Edge& edge) {
    if (opts.pair_fraction >= 1.0) return true;
    return (HashCombine(Hash64(edge.src), edge.dst) % 10000) <
           static_cast<uint64_t>(opts.pair_fraction * 10000);
  };
  for (int32_t p = 0; p < edges.num_partitions(); ++p) {
    int32_t e = ctx.dataflow().ExecutorOf(p);
    PSG_ASSIGN_OR_RETURN(auto part, edges.ComputePartition(p));
    auto& dst = st.local_edges[e];
    for (const graph::Edge& edge : part) {
      if (selected(edge)) dst.push_back(edge);
    }
  }

  CommonNeighborStats total;
  int64_t round = 0;
  bool work_left = true;
  while (work_left) {
    PSG_ASSIGN_OR_RETURN(auto recovery,
                         ctx.HandleFailures(round, opts.recovery));
    for (int32_t e : recovery.executors_restarted) {
      // The restarted executor lost its partial statistics and its edge
      // partitions; it reloads them via lineage and redoes its batches
      // from the start (Table II: ~5 extra minutes on the paper scale).
      st.stats[e] = {};
      st.cursor[e] = 0;
      st.local_edges[e].clear();
      for (int32_t p = 0; p < edges.num_partitions(); ++p) {
        if (ctx.dataflow().ExecutorOf(p) != e) continue;
        PSG_ASSIGN_OR_RETURN(auto part, edges.ComputePartition(p));
        for (const graph::Edge& edge : part) {
          if (selected(edge)) st.local_edges[e].push_back(edge);
        }
      }
      work_left = true;
    }
    work_left = false;
    for (int32_t e = 0; e < E; ++e) {
      auto& local = st.local_edges[e];
      uint64_t begin = st.cursor[e];
      if (begin >= local.size()) continue;
      uint64_t end = std::min<uint64_t>(local.size(),
                                        begin + opts.batch_size);
      // Pull both endpoints' adjacency for the batch.
      std::vector<uint64_t> keys;
      keys.reserve((end - begin) * 2);
      for (uint64_t i = begin; i < end; ++i) {
        keys.push_back(local[i].src);
        keys.push_back(local[i].dst);
      }
      PSG_ASSIGN_OR_RETURN(auto entries,
                           ctx.agent(e).PullNeighbors(meta, keys));
      uint64_t ops = 0;
      for (uint64_t i = begin; i < end; ++i) {
        const std::span<const uint64_t> nu = entries.neighbors((i - begin) * 2);
        const std::span<const uint64_t> nv =
            entries.neighbors((i - begin) * 2 + 1);
        uint64_t c = IntersectionSize(nu, nv);
        st.stats[e].pairs++;
        st.stats[e].total_common += c;
        st.stats[e].max_common = std::max(st.stats[e].max_common, c);
        ops += nu.size() + nv.size();
      }
      ctx.cluster().clock().Advance(
          ctx.cluster().config().executor(e),
          ctx.cluster().cost().ComputeTime(ops));
      st.cursor[e] = end;
      if (end < local.size()) work_left = true;
    }
    ctx.sync().IterationBarrier();
    ++round;
  }

  for (int32_t e = 0; e < E; ++e) {
    total.pairs += st.stats[e].pairs;
    total.total_common += st.stats[e].total_common;
    total.max_common = std::max(total.max_common, st.stats[e].max_common);
  }
  total.rounds = static_cast<int>(round);
  PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(job + ".nbrs"));
  return total;
}

Result<uint64_t> TriangleCount(PsGraphContext& ctx,
                               const dataflow::Dataset<graph::Edge>& edges,
                               const TriangleCountOptions& opts) {
  // Canonical undirected simple graph: one record per pair, u < v; the
  // adjacency pushed to PS covers both directions.
  auto canon = edges
                   .Filter([](const graph::Edge& e) {
                     return e.src != e.dst;
                   })
                   .Map([](const graph::Edge& e) {
                     graph::Edge c = e;
                     if (c.src > c.dst) std::swap(c.src, c.dst);
                     return std::pair<std::pair<graph::VertexId,
                                                graph::VertexId>,
                                      uint8_t>({c.src, c.dst}, 1);
                   })
                   .ReduceByKey([](const uint8_t& a, const uint8_t&) {
                     return a;
                   })
                   .Map([](std::pair<std::pair<graph::VertexId,
                                               graph::VertexId>,
                                     uint8_t>& kv) {
                     return graph::Edge{kv.first.first, kv.first.second,
                                        1.0f};
                   })
                   .Cache();
  PSG_RETURN_NOT_OK(canon.Evaluate());
  auto undirected = canon.FlatMap([](const graph::Edge& e) {
    return std::vector<graph::Edge>{e, {e.dst, e.src, 1.0f}};
  });

  CommonNeighborOptions cn_opts;
  cn_opts.batch_size = opts.batch_size;
  cn_opts.recovery = opts.recovery;
  const std::string job = "tc" + std::to_string(g_nbr_job++);
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta meta,
      BuildNeighborTablesOnPs(ctx, undirected, job + ".nbrs"));

  uint64_t sum = 0;
  for (int32_t p = 0; p < canon.num_partitions(); ++p) {
    int32_t e = ctx.dataflow().ExecutorOf(p);
    PSG_ASSIGN_OR_RETURN(auto part, canon.ComputePartition(p));
    for (uint64_t begin = 0; begin < part.size();
         begin += opts.batch_size) {
      uint64_t end =
          std::min<uint64_t>(part.size(), begin + opts.batch_size);
      std::vector<uint64_t> keys;
      keys.reserve((end - begin) * 2);
      for (uint64_t i = begin; i < end; ++i) {
        keys.push_back(part[i].src);
        keys.push_back(part[i].dst);
      }
      PSG_ASSIGN_OR_RETURN(auto entries,
                           ctx.agent(e).PullNeighbors(meta, keys));
      uint64_t ops = 0;
      for (uint64_t i = begin; i < end; ++i) {
        const std::span<const uint64_t> nu = entries.neighbors((i - begin) * 2);
        const std::span<const uint64_t> nv =
            entries.neighbors((i - begin) * 2 + 1);
        sum += IntersectionSize(nu, nv);
        ops += nu.size() + nv.size();
      }
      ctx.cluster().clock().Advance(
          ctx.cluster().config().executor(e),
          ctx.cluster().cost().ComputeTime(ops));
    }
  }
  ctx.sync().IterationBarrier();
  canon.Unpersist();
  PSG_RETURN_NOT_OK(ctx.ps().DropMatrix(job + ".nbrs"));
  return sum / 3;
}

}  // namespace psgraph::core
