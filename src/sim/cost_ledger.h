// Per-node makespan attribution ledger.
//
// Every simulated-time charge that is NOT a node doing its own local
// work falls into one of a fixed set of categories (RPC serialization,
// RPC wait, barrier skew, recovery, replica merge, serving queue). The
// subsystems that advance the SimClock record those charges here as
// they happen; the critical-path analyzer (sim/critical_path.h) then
// attributes the run's makespan as "ledger categories + residual
// compute" with an exact conservation invariant — the categories of the
// critical node sum to the makespan by construction, and a negative
// residual means a subsystem double-charged and the report validator
// rejects the run.
//
// The ledger is owned by SimCluster (one per cluster, like the clock),
// so multi-cell benches that tear down one cluster per cell get a fresh
// ledger per cell and conservation holds cell-locally.
//
// Determinism: all recording sites are either serial orchestration
// points (driver code, the serving router event loop, barrier entry) or
// derive the recorded value from scheduling-independent quantities (an
// RPC fan-out's caller jump `t_end - t0` is a pure function of the call
// list; callee busy brackets are serialized per endpoint). Totals are
// therefore bit-identical at PSGRAPH_THREADS=1 vs 8.

#ifndef PSGRAPH_SIM_COST_LEDGER_H_
#define PSGRAPH_SIM_COST_LEDGER_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace psgraph::sim {

/// Fixed category taxonomy for makespan attribution. The JSON names in
/// kCostCategoryNames are part of the run-report schema (v7) — adding a
/// category is a schema bump.
enum class CostCategory : uint8_t {
  kCompute = 0,           ///< residual: local handler/partition work, disk
  kRpcSerialize = 1,      ///< NIC/wire time on either side of an RPC
  kRpcWait = 2,           ///< caller stalled on a remote handler
  kBarrierSkew = 3,       ///< waiting at a barrier for slower nodes
  kRecovery = 4,          ///< restart delay, checkpoint save/restore
  kReplicationMerge = 5,  ///< hot-key replica delta merge (ps.merge)
  kServingQueue = 6,      ///< serving batch queue delay (router flush)
  kStreamApply = 7,       ///< mutation-batch apply to neighbor tables (ps.mutate)
  kStreamRetrain = 8,     ///< incremental-recompute stalls inside a stream epoch
};

inline constexpr int kNumCostCategories = 9;

/// Canonical JSON keys, indexed by CostCategory. Order is the schema's
/// emission order.
inline constexpr const char* kCostCategoryNames[kNumCostCategories] = {
    "compute",  "rpc.serialize",     "rpc.wait",      "barrier.skew",
    "recovery", "replication.merge", "serving.queue", "stream.apply",
    "stream.retrain",
};

/// Category charged to a caller stalled on a fan-out whose slowest call
/// used `method`: replica merges, serving lookups and mutation applies
/// are first-class categories, everything else is generic RPC wait.
inline CostCategory WaitCategoryForMethod(const std::string& method) {
  if (method == "ps.merge") return CostCategory::kReplicationMerge;
  if (method == "ps.mutate") return CostCategory::kStreamApply;
  if (method.rfind("serve.", 0) == 0) return CostCategory::kServingQueue;
  return CostCategory::kRpcWait;
}

class CostLedger {
 public:
  explicit CostLedger(int32_t num_nodes)
      : ticks_(static_cast<size_t>(num_nodes)) {}

  /// Adds `ticks` of category `c` to `node`'s ledger. Non-positive
  /// charges and out-of-range nodes are ignored (an already-past
  /// AdvanceToTicks jump is a legitimate zero). While a wait alias is
  /// installed (SetWaitAlias), generic kRpcWait charges are re-labelled
  /// to the alias category; first-class wait categories (merge, serving
  /// queue, stream apply) keep their identity.
  void Record(int32_t node, CostCategory c, int64_t ticks) {
    if (ticks <= 0) return;
    if (node < 0 || static_cast<size_t>(node) >= ticks_.size()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (c == CostCategory::kRpcWait && wait_alias_ >= 0) {
      c = static_cast<CostCategory>(wait_alias_);
    }
    ticks_[static_cast<size_t>(node)][static_cast<size_t>(c)] += ticks;
  }

  /// Installs a phase-scoped re-label for generic RPC waits. Call only
  /// from serial orchestration points (the driver loop) with all worker
  /// fan-outs joined on both sides, so the set of records falling inside
  /// the aliased window is scheduling-independent — that keeps ledger
  /// totals bit-identical at any PSGRAPH_THREADS. Conservation is
  /// unaffected: aliasing moves ticks between categories, never creates
  /// or destroys them.
  void SetWaitAlias(CostCategory c) {
    std::lock_guard<std::mutex> lock(mu_);
    wait_alias_ = static_cast<int>(c);
  }

  void ClearWaitAlias() {
    std::lock_guard<std::mutex> lock(mu_);
    wait_alias_ = -1;
  }

  int64_t Ticks(int32_t node, CostCategory c) const {
    if (node < 0 || static_cast<size_t>(node) >= ticks_.size()) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return ticks_[static_cast<size_t>(node)][static_cast<size_t>(c)];
  }

  /// All categories of one node in kCostCategoryNames order.
  std::array<int64_t, kNumCostCategories> NodeTicks(int32_t node) const {
    if (node < 0 || static_cast<size_t>(node) >= ticks_.size()) return {};
    std::lock_guard<std::mutex> lock(mu_);
    return ticks_[static_cast<size_t>(node)];
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& row : ticks_) row.fill(0);
  }

 private:
  mutable std::mutex mu_;
  int wait_alias_ = -1;  ///< active alias for kRpcWait, -1 = none
  std::vector<std::array<int64_t, kNumCostCategories>> ticks_;
};

/// RAII wait-alias scope for a retrain (or similar) phase:
///   { ScopedWaitAlias alias(ledger, CostCategory::kStreamRetrain);
///     ... incremental recompute ... }
class ScopedWaitAlias {
 public:
  ScopedWaitAlias(CostLedger& ledger, CostCategory c) : ledger_(ledger) {
    ledger_.SetWaitAlias(c);
  }
  ~ScopedWaitAlias() { ledger_.ClearWaitAlias(); }
  ScopedWaitAlias(const ScopedWaitAlias&) = delete;
  ScopedWaitAlias& operator=(const ScopedWaitAlias&) = delete;

 private:
  CostLedger& ledger_;
};

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_COST_LEDGER_H_
