// DataflowContext: the mini-Spark runtime shared by all Datasets.
//
// Partitions are assigned to executors round-robin (partition p lives on
// executor p % num_executors). Actions evaluate partitions concurrently on
// the global thread pool — one task per executor, partitions in ascending
// order within a task — so each executor's simulated clock receives its
// charges from a single thread in a fixed order and the makespan math
// stays exact and deterministic at any parallelism (see DESIGN.md,
// "Execution model"). PSGRAPH_THREADS=1 runs the same tasks inline, one
// executor after another. The context holds no shuffle state: each
// ShuffleWriter owns its blocks (dataset.h).

#ifndef PSGRAPH_DATAFLOW_CONTEXT_H_
#define PSGRAPH_DATAFLOW_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "sim/cluster.h"

namespace psgraph::dataflow {

class DataflowContext {
 public:
  explicit DataflowContext(sim::SimCluster* cluster)
      : cluster_(cluster),
        executor_epochs_(cluster->config().num_executors) {}

  sim::SimCluster* cluster() { return cluster_; }

  /// Observability sinks: the cluster's registries.
  Metrics& metrics() const { return cluster_->metrics(); }
  Tracer& tracer() const { return cluster_->tracer(); }

  int32_t num_executors() const { return cluster_->config().num_executors; }
  int32_t ExecutorOf(int32_t partition) const {
    return partition % num_executors();
  }

  /// CPU accounting: charges `ops` record-operations to the executor that
  /// owns `partition`.
  void ChargeCompute(int32_t partition, uint64_t ops);
  /// Disk accounting on the partition's executor.
  void ChargeDiskWrite(int32_t partition, uint64_t bytes);
  void ChargeDiskRead(int32_t partition, uint64_t bytes);
  /// Transfer of `bytes` from the executor of `from_part` to the executor
  /// of `to_part`; local if both map to the same executor.
  void ChargeTransfer(int32_t from_part, int32_t to_part, uint64_t bytes);

  /// Memory accounting on the owning executor; OOM surfaces as
  /// MemoryLimitExceeded, which aborts the job like a Spark executor OOM.
  Status AllocatePartitionMemory(int32_t partition, uint64_t bytes,
                                 const char* what);
  void ReleasePartitionMemory(int32_t partition, uint64_t bytes);
  /// What the owning executor can still allocate.
  uint64_t PartitionHeadroom(int32_t partition) const;

  /// BSP barrier across all executors at a stage boundary.
  void StageBarrier();

  /// Failure-recovery epochs: bumping an executor's epoch invalidates all
  /// cached partitions living on it (Spark lineage then recomputes them).
  /// Atomic because cache slots read epochs from evaluation tasks.
  uint64_t ExecutorEpoch(int32_t executor) const {
    return executor_epochs_[executor].load(std::memory_order_acquire);
  }
  void BumpExecutorEpoch(int32_t executor) {
    executor_epochs_[executor].fetch_add(1, std::memory_order_acq_rel);
  }

 private:
  sim::SimCluster* cluster_;
  // Sized once in the constructor, never resized (atomics cannot move).
  std::vector<std::atomic<uint64_t>> executor_epochs_;
};

/// A task's per-record memory charges on its executor (the reduce-side
/// hash tables), handed to the accountant per run of records rather
/// than per record. It reads the executor's headroom once, sums each
/// record's delta locally while the sum fits, and charges the sum in one
/// call. The first delta that does not fit commits what is pending and
/// is then charged alone, so it fails at the same record as one
/// Allocate per record would, with the same message, usage and peak.
///
/// Precondition (DESIGN.md §9): only the executor's own partition stream
/// charges its node, so nothing else moves the headroom during the task.
class RecordCharges {
 public:
  RecordCharges(DataflowContext* ctx, int32_t partition, const char* what);

  /// Charges one record's delta.
  Status Add(uint64_t delta) {
    if (delta <= headroom_ - pending_) {
      pending_ += delta;
      return Status::OK();
    }
    return AddAlone(delta);
  }

  /// Commits what is pending, then releases everything charged.
  void Release();

 private:
  /// Commits what is pending, then charges `delta` by itself.
  Status AddAlone(uint64_t delta);
  /// Charges what is pending in one call.
  Status Commit();

  DataflowContext* ctx_;
  int32_t partition_;
  const char* what_;
  uint64_t headroom_;
  uint64_t pending_ = 0;  ///< summed but not yet charged; <= headroom_
  uint64_t charged_ = 0;  ///< charged to the accountant
};

}  // namespace psgraph::dataflow

#endif  // PSGRAPH_DATAFLOW_CONTEXT_H_
