// Incremental recompute over a mutable PS adjacency.
//
// DeltaPageRankEngine is the affected-frontier delta-PageRank the paper's
// increment-sparsity optimization (§IV-A) grows into once the graph
// mutates: ranks and residual deltas live on the PS, adjacency is read
// per-iteration from the mutable neighbor tables (never frozen to CSR),
// and each sweep only pulls the *frontier* — the vertices whose residual
// delta is nonzero. A full recompute and an incremental one are the SAME
// loop with different seeds:
//
//   full:        zero ranks, delta_v = reset mass for every v
//                (frontier = the whole id space);
//   incremental: after applying edge mutations, for every mutated
//                source u with rank R_u,
//                  delta_v += damp * R_u / deg_new(u)   for v in A_new(u)
//                  delta_v -= damp * R_u / deg_old(u)   for v in A_old(u)
//                (frontier = the seeded destinations).
//
// The incremental seed is the residual of the OLD fixpoint under the NEW
// transition matrix: R satisfies R = r0 + damp*M_old*R, so the residual
// r0 + damp*M_new*R - R collapses to damp*(M_new - M_old)*R, which is
// exactly the per-mutated-source correction above. Continuing the delta
// iteration from that seed converges to the new graph's fixpoint — same
// answer as a full recompute, touching only the vertices mutations can
// reach.
//
// IncrementalEmbedder is the dirty-vertex re-embedding counterpart: a
// deterministic hash-seeded embedding plus neighbor-averaging smoothing
// steps, re-run only for the vertices an epoch dirtied.
//
// Both record ConvergenceLog rows ("stream.pagerank.delta_l1" /
// "stream.reembed.rows") at a monotone step counter, with a parallel
// "<series>.epoch" row carrying the epoch tag. While either engine runs,
// a CostLedger wait alias re-labels generic RPC waits to
// CostCategory::kStreamRetrain so bench_diff.py can attribute freshness
// regressions to the retrain phase (mutation applies keep their own
// first-class "stream.apply" category via ps.mutate).

#ifndef PSGRAPH_STREAM_INCREMENTAL_H_
#define PSGRAPH_STREAM_INCREMENTAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/psgraph_context.h"
#include "graph/dense_accumulator.h"
#include "graph/types.h"
#include "ps/agent.h"

namespace psgraph::stream {

/// Loads `edges` into a mutable (never-frozen) neighbor-table matrix,
/// pushed by the executors in contiguous source chunks.
Result<ps::MatrixMeta> LoadMutableAdjacency(
    core::PsGraphContext& ctx, const graph::EdgeList& edges,
    uint64_t num_vertices, const std::string& name);

struct DeltaPageRankOptions {
  double reset_prob = 0.15;
  /// Stop when the folded |delta| L1 drops below tolerance * |V|
  /// (0 disables; runs max_iterations sweeps).
  double tolerance = 1e-7;
  /// Residuals with |d| at or below this are not propagated.
  double prune_epsilon = 0.0;
  int max_iterations = 50;
};

/// What one recompute (full or incremental) cost. vertices_touched is
/// the gateable "strictly fewer vertices" quantity: the number of
/// distinct vertices whose residual was ever pulled.
struct DeltaStats {
  int iterations = 0;
  double final_delta_l1 = 0.0;
  uint64_t vertices_touched = 0;
  uint64_t frontier_total = 0;  ///< sum of per-sweep frontier sizes
  uint64_t edges_processed = 0;
  /// Sorted distinct vertices dirtied by the triggering mutations (the
  /// seed frontier plus the mutated sources); empty for a full run.
  std::vector<uint64_t> affected;
};

class DeltaPageRankEngine {
 public:
  /// Creates `<name>.ranks` / `<name>.deltas` PS vectors next to the
  /// mutable `adjacency` matrix.
  static Result<DeltaPageRankEngine> Create(core::PsGraphContext* ctx,
                                            const ps::MatrixMeta& adjacency,
                                            uint64_t num_vertices,
                                            const DeltaPageRankOptions& opts,
                                            const std::string& name);

  /// Full recompute: zero ranks, reset-mass deltas everywhere, iterate.
  Result<DeltaStats> RecomputeFull();

  /// Applies `mutations` to the adjacency via ps.mutate, seeds the
  /// residual correction and iterates only the affected frontier. The
  /// batch must follow the MutateNeighbors epoch contract (each edge at
  /// most once, inserts valid, deletes of live edges).
  Result<DeltaStats> ApplyMutationsAndRecompute(
      const std::vector<ps::EdgeMutation>& mutations);

  /// Reads the dense rank vector back (batched driver pulls).
  Result<std::vector<double>> ReadRanks();

  const ps::MatrixMeta& adjacency() const { return adjacency_; }
  const ps::MatrixMeta& ranks() const { return ranks_; }
  uint64_t num_vertices() const { return num_vertices_; }

  /// Epoch tag stamped onto convergence rows (0 = bootstrap).
  void set_epoch(int64_t epoch) { epoch_ = epoch; }

 private:
  DeltaPageRankEngine() = default;

  /// The shared sweep loop; `frontier` must be sorted and unique.
  Result<DeltaStats> RunFrontier(std::vector<uint64_t> frontier);

  core::PsGraphContext* ctx_ = nullptr;
  ps::MatrixMeta adjacency_;
  ps::MatrixMeta ranks_;
  ps::MatrixMeta deltas_;
  uint64_t num_vertices_ = 0;
  DeltaPageRankOptions opts_;
  int64_t epoch_ = 0;
  int64_t step_ = 0;  ///< monotone convergence-row index across epochs
  /// Sweep scratch kept across epochs, so an incremental frontier costs
  /// its own size: per-executor contribution sums and their merge (which
  /// also sums an incremental recompute's residual seeds).
  std::vector<graph::DenseAccumulator<float>> updates_;
  graph::DenseAccumulator<double> merged_;
  /// Vertices whose residual a recompute pulled (nonzero = touched),
  /// over the id space; DeltaStats::vertices_touched counts them.
  std::vector<uint8_t> touched_;
};

struct ReembedOptions {
  int dim = 8;
  float alpha = 0.5f;  ///< neighbor-smoothing mix per step
  int steps = 2;
  uint64_t seed = 42;
};

class IncrementalEmbedder {
 public:
  /// Creates the `<name>.emb` PS matrix next to `adjacency`.
  static Result<IncrementalEmbedder> Create(core::PsGraphContext* ctx,
                                            const ps::MatrixMeta& adjacency,
                                            uint64_t num_vertices,
                                            const ReembedOptions& opts,
                                            const std::string& name);

  /// Bootstrap: hash-seeded rows for every vertex (server-side
  /// init.randn), then the smoothing steps over the whole id space.
  Status InitFull();

  /// Re-embeds only `dirty` (sorted, unique): pulls their adjacency and
  /// the needed neighbor rows, re-runs the smoothing steps, pushes the
  /// dirty rows back. Returns rows rewritten (dirty.size() * steps).
  Result<uint64_t> ReembedDirty(const std::vector<uint64_t>& dirty);

  const ps::MatrixMeta& matrix() const { return emb_; }

  void set_epoch(int64_t epoch) { epoch_ = epoch; }

 private:
  IncrementalEmbedder() = default;

  core::PsGraphContext* ctx_ = nullptr;
  ps::MatrixMeta adjacency_;
  ps::MatrixMeta emb_;
  uint64_t num_vertices_ = 0;
  ReembedOptions opts_;
  int64_t epoch_ = 0;
  int64_t step_ = 0;
  /// Per-executor row positions over the id space, kept across calls:
  /// 0 = not needed, else 1 + the vertex's row in that executor's pull.
  /// Only the marked slots are reset after each use.
  std::vector<std::vector<uint32_t>> row_pos_;
};

}  // namespace psgraph::stream

#endif  // PSGRAPH_STREAM_INCREMENTAL_H_
