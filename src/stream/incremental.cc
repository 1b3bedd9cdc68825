#include "stream/incremental.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <span>

#include "common/byte_buffer.h"
#include "dataflow/dataset.h"
#include "sim/cost_ledger.h"

namespace psgraph::stream {

namespace {

/// Contiguous slice [begin, end) of an n-element work list for executor
/// e of E — the deterministic chunking every loop here shares.
std::pair<size_t, size_t> ChunkOf(size_t n, int32_t e, int32_t E) {
  return {n * static_cast<size_t>(e) / static_cast<size_t>(E),
          n * (static_cast<size_t>(e) + 1) / static_cast<size_t>(E)};
}

}  // namespace

Result<ps::MatrixMeta> LoadMutableAdjacency(core::PsGraphContext& ctx,
                                            const graph::EdgeList& edges,
                                            uint64_t num_vertices,
                                            const std::string& name) {
  PSG_ASSIGN_OR_RETURN(
      ps::MatrixMeta adj,
      ctx.ps().CreateMatrix(name, num_vertices, 0,
                            ps::StorageKind::kNeighbors,
                            ps::Layout::kRowPartitioned,
                            ps::PartitionScheme::kHash));
  // Group by source on the driver, then executors push contiguous
  // source chunks (each source lives in exactly one chunk, so the
  // server-side merge never interleaves one vertex's list).
  std::map<graph::VertexId, std::vector<graph::VertexId>> by_src;
  for (const graph::Edge& e : edges) by_src[e.src].push_back(e.dst);
  std::vector<graph::NeighborList> lists;
  lists.reserve(by_src.size());
  for (auto& [src, dsts] : by_src) {
    graph::NeighborList nl;
    nl.vertex = src;
    nl.neighbors = std::move(dsts);
    lists.push_back(std::move(nl));
  }
  const int32_t E = ctx.num_executors();
  PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
      &ctx.dataflow(), E, [&](int32_t e) -> Status {
        auto [begin, end] = ChunkOf(lists.size(), e, E);
        if (begin == end) return Status::OK();
        std::vector<graph::NeighborList> chunk(
            lists.begin() + static_cast<ptrdiff_t>(begin),
            lists.begin() + static_cast<ptrdiff_t>(end));
        return ctx.agent(e).PushNeighbors(adj, chunk);
      }));
  return adj;
}

Result<DeltaPageRankEngine> DeltaPageRankEngine::Create(
    core::PsGraphContext* ctx, const ps::MatrixMeta& adjacency,
    uint64_t num_vertices, const DeltaPageRankOptions& opts,
    const std::string& name) {
  DeltaPageRankEngine engine;
  engine.ctx_ = ctx;
  engine.adjacency_ = adjacency;
  engine.num_vertices_ = num_vertices;
  engine.opts_ = opts;
  engine.merged_ = graph::DenseAccumulator<double>(num_vertices);
  PSG_ASSIGN_OR_RETURN(
      engine.ranks_,
      ctx->ps().CreateMatrix(name + ".ranks", num_vertices, 1));
  PSG_ASSIGN_OR_RETURN(
      engine.deltas_,
      ctx->ps().CreateMatrix(name + ".deltas", num_vertices, 1));
  return engine;
}

Result<DeltaStats> DeltaPageRankEngine::RecomputeFull() {
  sim::ScopedWaitAlias alias(ctx_->cluster().cost_ledger(),
                             sim::CostCategory::kStreamRetrain);
  ps::PsAgent driver_agent(&ctx_->ps(), ctx_->cluster().config().driver());
  {
    ByteBuffer args;
    args.Write<ps::MatrixId>(ranks_.id);
    args.Write<float>(0.0f);
    PSG_ASSIGN_OR_RETURN(auto r, driver_agent.CallFuncAll("init.fill", args));
    (void)r;
  }
  {
    ByteBuffer args;
    args.Write<ps::MatrixId>(deltas_.id);
    args.Write<float>(static_cast<float>(opts_.reset_prob));
    PSG_ASSIGN_OR_RETURN(auto r, driver_agent.CallFuncAll("init.fill", args));
    (void)r;
  }
  std::vector<uint64_t> frontier(num_vertices_);
  for (uint64_t v = 0; v < num_vertices_; ++v) frontier[v] = v;
  return RunFrontier(std::move(frontier));
}

Result<DeltaStats> DeltaPageRankEngine::ApplyMutationsAndRecompute(
    const std::vector<ps::EdgeMutation>& mutations) {
  ps::PsAgent driver_agent(&ctx_->ps(), ctx_->cluster().config().driver());

  // Distinct mutated sources, sorted — the vertices whose out-transition
  // column changes.
  std::vector<uint64_t> srcs;
  srcs.reserve(mutations.size());
  for (const ps::EdgeMutation& m : mutations) srcs.push_back(m.src);
  std::sort(srcs.begin(), srcs.end());
  srcs.erase(std::unique(srcs.begin(), srcs.end()), srcs.end());

  PSG_ASSIGN_OR_RETURN(ps::NeighborBlock old_adj,
                       driver_agent.PullNeighbors(adjacency_, srcs));
  PSG_ASSIGN_OR_RETURN(std::vector<float> src_ranks,
                       driver_agent.PullRows(ranks_, srcs));

  // The apply itself: caller waits land in "stream.apply", the handler's
  // compute too (see WaitCategoryForMethod and the rpc.cc callee branch).
  PSG_RETURN_NOT_OK(driver_agent.MutateNeighbors(adjacency_, mutations));

  sim::ScopedWaitAlias alias(ctx_->cluster().cost_ledger(),
                             sim::CostCategory::kStreamRetrain);
  PSG_ASSIGN_OR_RETURN(ps::NeighborBlock new_adj,
                       driver_agent.PullNeighbors(adjacency_, srcs));

  // Residual seed: delta_v gets damp * R_u * (M_new - M_old)[v, u] for
  // every mutated source u (see the header derivation), summed in the
  // dense merge buffer (`x += -c` rounds exactly like `x -= c`), which
  // drains the seed keys in ascending order.
  const double damp = 1.0 - opts_.reset_prob;
  graph::DenseAccumulator<double>& seeds = merged_;
  seeds.Clear();
  uint64_t scanned = 0;
  for (size_t i = 0; i < srcs.size(); ++i) {
    const double r = src_ranks[i];
    const std::span<const uint64_t> added = new_adj.neighbors(i);
    const std::span<const uint64_t> removed = old_adj.neighbors(i);
    scanned += removed.size() + added.size();
    if (r == 0.0) continue;
    if (!added.empty()) {
      const double c = damp * r / added.size();
      for (uint64_t v : added) seeds.Add(v, c);
    }
    if (!removed.empty()) {
      const double c = damp * r / removed.size();
      for (uint64_t v : removed) seeds.Add(v, -c);
    }
  }
  ctx_->cluster().clock().Advance(
      ctx_->cluster().config().driver(),
      ctx_->cluster().cost().ComputeTime(scanned + mutations.size()));

  std::vector<uint64_t> seed_ids;
  std::vector<double> seed_sums;
  seeds.Drain(&seed_ids, &seed_sums);
  std::vector<uint64_t> frontier;
  std::vector<uint64_t> seed_keys;
  std::vector<float> seed_vals;
  frontier.reserve(seed_ids.size());
  for (size_t j = 0; j < seed_ids.size(); ++j) {
    const float f = static_cast<float>(seed_sums[j]);
    if (f == 0.0f) continue;  // exact cancellation: nothing to propagate
    frontier.push_back(seed_ids[j]);
    seed_keys.push_back(seed_ids[j]);
    seed_vals.push_back(f);
  }
  if (!seed_keys.empty()) {
    PSG_RETURN_NOT_OK(driver_agent.PushAdd(deltas_, seed_keys, seed_vals));
  }

  // affected = dirtied destinations + the mutated sources themselves.
  std::vector<uint64_t> affected = frontier;
  affected.insert(affected.end(), srcs.begin(), srcs.end());
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  PSG_ASSIGN_OR_RETURN(DeltaStats stats, RunFrontier(std::move(frontier)));
  stats.affected = std::move(affected);
  return stats;
}

Result<DeltaStats> DeltaPageRankEngine::RunFrontier(
    std::vector<uint64_t> frontier) {
  DeltaStats stats;
  const int32_t E = ctx_->num_executors();
  const double damp = 1.0 - opts_.reset_prob;
  ps::PsAgent driver_agent(&ctx_->ps(), ctx_->cluster().config().driver());
  if (updates_.size() != static_cast<size_t>(E)) {
    updates_.assign(static_cast<size_t>(E),
                    graph::DenseAccumulator<float>(num_vertices_));
  }
  // Drop whatever an aborted earlier sweep left pending.
  for (auto& local : updates_) local.Clear();
  merged_.Clear();
  touched_.assign(num_vertices_, 0);

  ByteBuffer advance_args;
  advance_args.Write<ps::MatrixId>(deltas_.id);
  advance_args.Write<ps::MatrixId>(ranks_.id);

  int iter = 0;
  while (!frontier.empty() && iter < opts_.max_iterations) {
    for (uint64_t v : frontier) {
      if (v >= touched_.size()) touched_.resize(v + 1, 0);
      stats.vertices_touched += touched_[v] == 0;
      touched_[v] = 1;
    }
    stats.frontier_total += frontier.size();

    // Sweep phase: each executor pulls its frontier chunk's residuals
    // and (mutable) adjacency and accumulates contributions locally.
    std::vector<uint64_t> edges_done(E, 0);
    PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
        &ctx_->dataflow(), E, [&](int32_t e) -> Status {
          auto [begin, end] = ChunkOf(frontier.size(), e, E);
          if (begin == end) return Status::OK();
          std::vector<uint64_t> keys(
              frontier.begin() + static_cast<ptrdiff_t>(begin),
              frontier.begin() + static_cast<ptrdiff_t>(end));
          PSG_ASSIGN_OR_RETURN(std::vector<float> ds,
                               ctx_->agent(e).PullRows(deltas_, keys));
          PSG_ASSIGN_OR_RETURN(
              ps::NeighborBlock adj,
              ctx_->agent(e).PullNeighbors(adjacency_, keys));
          auto& local = updates_[static_cast<size_t>(e)];
          uint64_t edges_processed = 0;
          for (size_t i = 0; i < keys.size(); ++i) {
            const double d = ds[i];
            if (std::fabs(d) <= opts_.prune_epsilon) continue;
            const std::span<const uint64_t> dsts = adj.neighbors(i);
            if (dsts.empty()) continue;
            const float contrib = static_cast<float>(
                damp * d / static_cast<double>(dsts.size()));
            for (uint64_t dst : dsts) local.Add(dst, contrib);
            edges_processed += dsts.size();
          }
          edges_done[static_cast<size_t>(e)] = edges_processed;
          ctx_->cluster().clock().Advance(
              ctx_->cluster().config().executor(e),
              ctx_->cluster().cost().ComputeTime(edges_processed));
          return Status::OK();
        }));

    // Fold phase: ranks += deltas, deltas reset; l1 is the residual mass
    // consumed by this sweep.
    PSG_ASSIGN_OR_RETURN(
        double l1, driver_agent.CallFuncSum("pagerank.advance",
                                            advance_args));
    ctx_->convergence().Record("stream.pagerank.delta_l1", step_, l1);
    ctx_->convergence().Record("stream.pagerank.epoch", step_,
                               static_cast<double>(epoch_));
    ++step_;

    // Push phase: the new residuals, sorted per executor for a stable
    // wire image and apply order.
    std::vector<std::vector<uint64_t>> pushed_keys(E);
    std::vector<std::vector<float>> pushed_values(E);
    PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
        &ctx_->dataflow(), E, [&](int32_t e) -> Status {
          auto& local = updates_[static_cast<size_t>(e)];
          if (local.empty()) return Status::OK();
          local.Drain(&pushed_keys[e], &pushed_values[e]);
          return ctx_->agent(e).PushAdd(deltas_, pushed_keys[e],
                                        pushed_values[e]);
        }));

    // Next frontier: destinations whose RECEIVED residual is itself
    // worth propagating. Folding already banked every pushed update into
    // the ranks, so dropping a below-threshold destination loses only
    // its onward |contribution| <= prune_epsilon — the same mass the
    // in-sweep prune discards. Without this filter the frontier would
    // include the whole one-hop halo of the wave and `touched` would
    // saturate on small-world graphs. The merge iterates executors in
    // index order, so the sums are thread-count independent.
    std::vector<uint64_t> next;
    {
      for (int32_t e = 0; e < E; ++e) {
        for (size_t j = 0; j < pushed_keys[e].size(); ++j) {
          merged_.Add(pushed_keys[e][j],
                      static_cast<double>(pushed_values[e][j]));
        }
      }
      std::vector<uint64_t> dsts;
      std::vector<double> sums;
      merged_.Drain(&dsts, &sums);
      for (size_t j = 0; j < dsts.size(); ++j) {
        if (std::fabs(sums[j]) > opts_.prune_epsilon) next.push_back(dsts[j]);
      }
    }
    for (uint64_t e : edges_done) stats.edges_processed += e;

    ctx_->sync().IterationBarrier();
    stats.iterations = ++iter;
    stats.final_delta_l1 = l1;
    if (opts_.tolerance > 0.0 &&
        l1 < opts_.tolerance * static_cast<double>(num_vertices_)) {
      break;
    }
    frontier = std::move(next);
  }

  // Fold whatever the last sweep pushed (the loop folds before pushing).
  PSG_ASSIGN_OR_RETURN(
      double tail, driver_agent.CallFuncSum("pagerank.advance",
                                            advance_args));
  stats.final_delta_l1 = tail;
  return stats;
}

Result<std::vector<double>> DeltaPageRankEngine::ReadRanks() {
  ps::PsAgent driver_agent(&ctx_->ps(), ctx_->cluster().config().driver());
  std::vector<double> out(num_vertices_, 0.0);
  const uint64_t kBatch = 1 << 16;
  for (uint64_t begin = 0; begin < num_vertices_; begin += kBatch) {
    const uint64_t end = std::min<uint64_t>(num_vertices_, begin + kBatch);
    std::vector<uint64_t> keys(end - begin);
    for (uint64_t k = begin; k < end; ++k) keys[k - begin] = k;
    PSG_ASSIGN_OR_RETURN(std::vector<float> vals,
                         driver_agent.PullRows(ranks_, keys));
    for (uint64_t k = begin; k < end; ++k) out[k] = vals[k - begin];
  }
  return out;
}

Result<IncrementalEmbedder> IncrementalEmbedder::Create(
    core::PsGraphContext* ctx, const ps::MatrixMeta& adjacency,
    uint64_t num_vertices, const ReembedOptions& opts,
    const std::string& name) {
  IncrementalEmbedder emb;
  emb.ctx_ = ctx;
  emb.adjacency_ = adjacency;
  emb.num_vertices_ = num_vertices;
  emb.opts_ = opts;
  PSG_ASSIGN_OR_RETURN(
      emb.emb_,
      ctx->ps().CreateMatrix(name + ".emb", num_vertices,
                             static_cast<uint32_t>(opts.dim)));
  return emb;
}

Status IncrementalEmbedder::InitFull() {
  ps::PsAgent driver_agent(&ctx_->ps(), ctx_->cluster().config().driver());
  ByteBuffer args;
  args.Write<ps::MatrixId>(emb_.id);
  args.Write<float>(1.0f);
  args.Write<uint64_t>(opts_.seed);
  PSG_ASSIGN_OR_RETURN(auto r,
                       driver_agent.CallFuncAll("init.randn", args));
  (void)r;
  std::vector<uint64_t> all(num_vertices_);
  for (uint64_t v = 0; v < num_vertices_; ++v) all[v] = v;
  return ReembedDirty(all).status();
}

Result<uint64_t> IncrementalEmbedder::ReembedDirty(
    const std::vector<uint64_t>& dirty) {
  if (dirty.empty()) return uint64_t{0};
  sim::ScopedWaitAlias alias(ctx_->cluster().cost_ledger(),
                             sim::CostCategory::kStreamRetrain);
  const int32_t E = ctx_->num_executors();
  const uint32_t d = emb_.num_cols;
  if (row_pos_.size() != static_cast<size_t>(E)) {
    row_pos_.assign(static_cast<size_t>(E),
                    std::vector<uint32_t>(num_vertices_, 0));
  }
  for (int step = 0; step < opts_.steps; ++step) {
    // Phase 1: pull everything and stage the smoothed rows; no pushes
    // until every executor joined, so reads never race writes.
    std::vector<std::vector<float>> staged(E);
    PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
        &ctx_->dataflow(), E, [&](int32_t e) -> Status {
          auto [begin, end] = ChunkOf(dirty.size(), e, E);
          if (begin == end) return Status::OK();
          std::vector<uint64_t> chunk(
              dirty.begin() + static_cast<ptrdiff_t>(begin),
              dirty.begin() + static_cast<ptrdiff_t>(end));
          PSG_ASSIGN_OR_RETURN(
              ps::NeighborBlock adj,
              ctx_->agent(e).PullNeighbors(adjacency_, chunk));
          // Rows needed: the chunk plus every neighbor it averages over,
          // marked in this executor's position array, listed ascending,
          // then numbered: pos[v] = 1 + v's row in the pull.
          std::vector<uint32_t>& pos = row_pos_[static_cast<size_t>(e)];
          std::vector<uint64_t> needed;
          auto mark = [&](uint64_t v) {
            if (v >= pos.size()) pos.resize(v + 1, 0);
            if (pos[v] == 0) {
              pos[v] = 1;
              needed.push_back(v);
            }
          };
          for (uint64_t v : chunk) mark(v);
          for (size_t i = 0; i < adj.size(); ++i) {
            for (uint64_t u : adj.neighbors(i)) mark(u);
          }
          graph::SortTouched(pos, &needed);
          for (size_t j = 0; j < needed.size(); ++j) {
            pos[needed[j]] = static_cast<uint32_t>(j + 1);
          }
          Result<std::vector<float>> pulled =
              ctx_->agent(e).PullRows(emb_, needed);
          if (!pulled.ok()) {
            for (uint64_t v : needed) pos[v] = 0;
            return pulled.status();
          }
          const std::vector<float>& rows = *pulled;
          auto row_of = [&](uint64_t v) -> const float* {
            return rows.data() + size_t{pos[v] - 1} * d;
          };
          std::vector<float>& out = staged[e];
          out.resize(chunk.size() * d);
          uint64_t averaged = 0;
          std::vector<const float*> nbr_rows;
          for (size_t i = 0; i < chunk.size(); ++i) {
            const float* self = row_of(chunk[i]);
            float* dst = out.data() + i * d;
            const std::span<const uint64_t> nbrs = adj.neighbors(i);
            if (nbrs.empty()) {
              std::copy(self, self + d, dst);
              continue;
            }
            // Resolve each neighbor's row once, not once per column; the
            // per-column sums still run in neighbor order (bit-identical).
            nbr_rows.clear();
            for (uint64_t u : nbrs) nbr_rows.push_back(row_of(u));
            for (uint32_t c = 0; c < d; ++c) {
              double mean = 0.0;
              for (const float* row : nbr_rows) mean += row[c];
              mean /= static_cast<double>(nbrs.size());
              dst[c] = (1.0f - opts_.alpha) * self[c] +
                       opts_.alpha * static_cast<float>(mean);
            }
            averaged += nbrs.size();
          }
          for (uint64_t v : needed) pos[v] = 0;
          ctx_->cluster().clock().Advance(
              ctx_->cluster().config().executor(e),
              ctx_->cluster().cost().ComputeTime(averaged * d));
          return Status::OK();
        }));
    // Phase 2: write the staged rows back.
    PSG_RETURN_NOT_OK(dataflow::RunPartitioned(
        &ctx_->dataflow(), E, [&](int32_t e) -> Status {
          auto [begin, end] = ChunkOf(dirty.size(), e, E);
          if (begin == end) return Status::OK();
          std::vector<uint64_t> chunk(
              dirty.begin() + static_cast<ptrdiff_t>(begin),
              dirty.begin() + static_cast<ptrdiff_t>(end));
          return ctx_->agent(e).PushAssign(emb_, chunk, staged[e]);
        }));
    ctx_->sync().IterationBarrier();
    ctx_->convergence().Record("stream.reembed.rows", step_,
                               static_cast<double>(dirty.size()));
    ctx_->convergence().Record("stream.reembed.epoch", step_,
                               static_cast<double>(epoch_));
    ++step_;
  }
  return static_cast<uint64_t>(dirty.size()) *
         static_cast<uint64_t>(opts_.steps);
}

}  // namespace psgraph::stream
