// Per-iteration algorithm telemetry (the "convergence" section of a run
// report).
//
// A ConvergenceLog holds named time series of (iteration, value) points:
// PageRank's delta L1 and active-vertex count, K-core's peeling frontier
// size, Louvain's modularity, LINE/GraphSage loss. Algorithms record
// through the cluster sink (SimCluster::convergence()); benches snapshot
// the log into the run report where CI schema-validates it.
//
// Iterations within one series must be strictly increasing — a point at
// an iteration <= the last recorded one is rejected (and counted), so a
// series can always be plotted without sorting and a rollback bug in an
// algorithm's iteration counter shows up as rejected points instead of a
// silently mangled curve. Recovery rollbacks that legitimately re-run
// iterations call Rewind() first to truncate the series.

#ifndef PSGRAPH_SIM_CONVERGENCE_H_
#define PSGRAPH_SIM_CONVERGENCE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace psgraph::sim {

class ConvergenceLog {
 public:
  struct Point {
    int64_t iteration = 0;
    double value = 0.0;
  };
  using Series = std::vector<Point>;

  /// Appends one point to `series`. Returns false (and counts the point
  /// in rejected()) when `iteration` is not strictly greater than the
  /// series' last iteration.
  bool Record(const std::string& series, int64_t iteration, double value);

  /// Drops every point of `series` with iteration >= `iteration`, so a
  /// consistent-recovery rollback can re-record the redone iterations.
  void Rewind(const std::string& series, int64_t iteration);

  /// All series, sorted by name; points in recording (= iteration)
  /// order.
  std::map<std::string, Series> Snapshot() const;

  /// Points rejected for violating the monotonic-iteration invariant.
  uint64_t rejected() const;

  /// Copies every series of `other` into this log under
  /// `prefix + name`. Existing points of a colliding series are kept and
  /// the merged points appended only where they extend it monotonically.
  void Merge(const ConvergenceLog& other, const std::string& prefix);

  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Series> series_;
  uint64_t rejected_ = 0;
};

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_CONVERGENCE_H_
