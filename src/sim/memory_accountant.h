// Per-node memory budgets.
//
// Every sizeable allocation a logical node makes (RDD partitions, join hash
// tables, PS partitions, shuffle buffers) is charged here. Exceeding the
// node's budget yields Status::MemoryLimitExceeded — the simulated
// equivalent of the executor OOM the paper reports for GraphX on DS2,
// K-core and triangle count (Fig. 6).

#ifndef PSGRAPH_SIM_MEMORY_ACCOUNTANT_H_
#define PSGRAPH_SIM_MEMORY_ACCOUNTANT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace psgraph::sim {

/// Thread-safe with one lock per node: executors charge their own node
/// from their own task and PS shards charge theirs under their endpoint
/// lock, so charges to different nodes never contend.
class MemoryAccountant {
 public:
  /// One budget per node, in bytes.
  explicit MemoryAccountant(const std::vector<uint64_t>& budgets)
      : nodes_(budgets.size()) {
    for (size_t n = 0; n < budgets.size(); ++n) nodes_[n].budget = budgets[n];
  }

  int32_t num_nodes() const { return static_cast<int32_t>(nodes_.size()); }

  /// Charges `bytes` to `node`. Fails with MemoryLimitExceeded (and leaves
  /// usage unchanged) if the budget would be exceeded.
  Status Allocate(int32_t node, uint64_t bytes, const char* what = "alloc");

  /// Releases `bytes` previously charged to `node`. Over-release clamps to
  /// zero (callers may free conservatively on error paths).
  void Release(int32_t node, uint64_t bytes);

  /// Drops everything the node holds (container death).
  void ReleaseAll(int32_t node);

  uint64_t Usage(int32_t node) const;
  uint64_t Peak(int32_t node) const;
  uint64_t Budget(int32_t node) const;
  /// Budget minus usage: the most one Allocate on `node` can take now.
  uint64_t Headroom(int32_t node) const;

  /// Max over nodes of peak usage (bench reporting).
  uint64_t MaxPeak() const;

 private:
  /// Cache-line aligned so neighbouring nodes' locks do not false-share.
  struct alignas(64) NodeState {
    mutable std::mutex mu;
    uint64_t budget = 0;
    uint64_t usage = 0;
    uint64_t peak = 0;
  };
  // Sized once in the constructor, never resized (NodeState holds a
  // mutex).
  std::vector<NodeState> nodes_;
};

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_MEMORY_ACCOUNTANT_H_
