// Common neighbor and triangle count on the parameter server (paper
// §IV-B). Both store the neighbor tables on the PS and stream batches of
// edges on the executors, pulling the two endpoints' adjacency and
// intersecting — no joins, no shuffle, memory bounded by the batch size.

#ifndef PSGRAPH_CORE_NEIGHBOR_ALGOS_H_
#define PSGRAPH_CORE_NEIGHBOR_ALGOS_H_

#include <cstdint>
#include <string>

#include "core/graph_loader.h"
#include "core/psgraph_context.h"
#include "graph/types.h"
#include "ps/master.h"

namespace psgraph::core {

struct CommonNeighborOptions {
  /// Fraction of edges scored as candidate pairs (deterministic hash
  /// selection, identical to the GraphX baseline's).
  double pair_fraction = 1.0;
  /// Edges scored per executor per round.
  uint64_t batch_size = 4096;
  /// Neighbor tables tolerate partition-level inconsistency (§III-B).
  ps::RecoveryMode recovery = ps::RecoveryMode::kPartial;
};

struct CommonNeighborStats {
  uint64_t pairs = 0;
  uint64_t total_common = 0;
  uint64_t max_common = 0;
  int rounds = 0;
};

/// Scores |N(u) ∩ N(v)| for every input edge (u, v) using out-neighbor
/// tables stored on the PS.
Result<CommonNeighborStats> CommonNeighbor(
    PsGraphContext& ctx, const dataflow::Dataset<graph::Edge>& edges,
    const CommonNeighborOptions& opts = {});

struct TriangleCountOptions {
  uint64_t batch_size = 4096;
  ps::RecoveryMode recovery = ps::RecoveryMode::kPartial;
};

/// Exact triangle count ("the implementation is similar to common
/// neighbor", paper footnote 2): canonicalizes to an undirected simple
/// graph, stores full sorted adjacency on the PS, and sums per-edge
/// common-neighbor counts / 3.
Result<uint64_t> TriangleCount(PsGraphContext& ctx,
                               const dataflow::Dataset<graph::Edge>& edges,
                               const TriangleCountOptions& opts = {});

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_NEIGHBOR_ALGOS_H_
