// Deterministic critical-path analysis of a simulated run.
//
// The makespan of a SimCluster run is the final clock of its
// last-finishing node. This module answers *why* that node's clock
// reads what it reads:
//
//   1. Category attribution. The critical node's makespan is split over
//      the fixed CostCategory taxonomy (sim/cost_ledger.h): ledger
//      charges (rpc.serialize, rpc.wait, recovery, replication.merge,
//      serving.queue) + the clock's own barrier-wait accumulator
//      (barrier.skew) + residual compute. By construction the seven
//      categories sum EXACTLY to the makespan — the conservation
//      invariant the report validator enforces. A negative residual
//      means a subsystem double-charged the ledger and the report is
//      rejected rather than silently clamped.
//
//   2. Path segments. The clock's barrier fence log tiles [0, makespan]
//      into intervals between consecutive fences; each interval is
//      owned by the node that gated its closing fence (the slowest
//      participant — the node the whole cluster was waiting on), and
//      the final interval by the critical node. This is the superstep
//      view of "who was the straggler when".
//
//   3. What-if projection. For the top critical-node span names,
//      "shrink every span named X by factor f" is projected as
//      max_n(clock[n] - (1-f) * span_ticks[X][n]) — the longest-path
//      recomputation under the BSP DAG where each node's chain
//      contracts by its own share of X. Monotone in f and bounded by
//      the makespan by construction.
//
// Everything here derives from scheduling-independent aggregates
// (final clocks, ledger sums, fence log, per-(name,node) span totals),
// so the emitted JSON is byte-identical at PSGRAPH_THREADS=1 vs 8.
// Raw span *intervals* are deliberately not used: at parallelism > 1 a
// server handler's begin tick depends on dispatch order even though
// every aggregate total does not (see dataflow/dataset.h on lineage
// absorption).

#ifndef PSGRAPH_SIM_CRITICAL_PATH_H_
#define PSGRAPH_SIM_CRITICAL_PATH_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "sim/cost_ledger.h"

namespace psgraph::sim {

class SimCluster;

/// What-if shrink factors evaluated per top span name: "halve it" and
/// "make it free" bracket the plausible optimization range.
inline constexpr double kWhatIfFactors[] = {0.5, 0.0};

struct CriticalPathReport {
  /// Set by AnalyzeCriticalPath; false only for a default-constructed
  /// report.
  bool valid = false;

  int32_t critical_node = -1;
  std::string critical_role;
  int64_t makespan_ticks = 0;

  /// Ticks per CostCategory (kCostCategoryNames order) on the critical
  /// node. Sums exactly to makespan_ticks; compute is the residual.
  std::array<int64_t, kNumCostCategories> categories{};

  /// One straggler interval of the fence tiling. Contiguous: the first
  /// begins at 0, each begins where the previous ended, the last ends
  /// at makespan_ticks.
  struct Segment {
    int32_t node = -1;
    std::string role;
    int64_t begin_ticks = 0;
    int64_t end_ticks = 0;
    /// What closed the segment: "barrier" (a fence this node gated) or
    /// "makespan" (the final stretch of the critical node).
    std::string gate;
  };
  std::vector<Segment> path;

  /// Top span names by critical-node ticks (desc, name asc on ties).
  struct SpanAttr {
    std::string name;
    int64_t critical_node_ticks = 0;
    int64_t total_ticks = 0;  ///< across all nodes
    uint64_t count = 0;       ///< across all nodes
  };
  std::vector<SpanAttr> top_spans;

  /// Predicted-speedup table over top_spans x kWhatIfFactors. Empty
  /// when tracing was disabled (categories and path never depend on
  /// the tracer).
  struct WhatIf {
    std::string name;
    double factor = 1.0;
    int64_t projected_makespan_ticks = 0;
    double speedup = 1.0;  ///< makespan / projected
  };
  std::vector<WhatIf> what_if;
};

/// Builds the full report for `cluster`. Reads the clock, ledger,
/// fence log and tracer node summaries; mutates nothing.
CriticalPathReport AnalyzeCriticalPath(SimCluster* cluster);

/// What-if primitive, exposed for tests: projected makespan after
/// shrinking every span named `name` to `factor` of its duration, per
/// node. Monotone non-decreasing in `factor`; equals the current
/// makespan at factor 1.
int64_t ProjectedMakespanTicks(SimCluster* cluster, const std::string& name,
                               double factor);

/// Span names whose per-(name, node) totals are scheduling-dependent
/// (shared-lineage work lands on whichever task materializes it first)
/// and must therefore stay out of the deterministic report sections.
bool SpanTicksDeterministicPerNode(const std::string& name);

/// Longest weighted root-to-leaf path through an explicit span DAG:
/// edges are parent -> child links plus `extra_edges` (from-id, to-id;
/// e.g. cross-node RPC flow arrows), weights are span durations, and
/// the path must end at the last-finishing span (max end_ticks, ties
/// to the lowest id). Returns span ids in path order. Edges that run
/// backwards in begin_ticks are ignored. Exposed for the hand-built
/// DAG tests; AnalyzeCriticalPath itself uses the aggregate tiling
/// above for determinism under real scheduling.
std::vector<uint64_t> LongestSpanPath(
    const std::vector<TraceSpan>& spans,
    const std::vector<std::pair<uint64_t, uint64_t>>& extra_edges = {});

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_CRITICAL_PATH_H_
