// Wire-level RPC telemetry: per-(method, callee-node) counters.
//
// The paper's argument against GraphX is communication cost — pull/push
// over the PS instead of join/shuffle — so the fabric meters every call:
// how many requests each (method, callee) pair served, the bytes that
// crossed the wire in both directions, how long the callee was busy and
// how long the caller waited end-to-end, and error outcomes split into
// Unavailable (dead/unbound node — the failure-injection path) versus
// handler errors.
//
// Lives in common/ (not net/) because sim/report.cc serializes the
// snapshot into run reports and psg_net already depends on psg_sim; like
// Metrics, the registry has no dependencies beyond the standard library.
// All recorded tick quantities derive from the simulated clocks under
// the fabric's per-endpoint serialization, so the aggregates are
// identical at any parallelism level (accumulation is order-independent
// sums; Snapshot() returns deterministic (method, node) order).

#ifndef PSGRAPH_COMMON_RPC_TELEMETRY_H_
#define PSGRAPH_COMMON_RPC_TELEMETRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace psgraph {

class RpcTelemetry {
 public:
  /// Aggregate for one (method, callee-node) pair.
  struct Stat {
    uint64_t calls = 0;           ///< requests planned (sent on the wire)
    uint64_t request_bytes = 0;   ///< payload bytes caller -> callee
    uint64_t response_bytes = 0;  ///< payload bytes callee -> caller
    /// Callee busy time across this pair's requests: request
    /// deserialization + handler compute + response serialization,
    /// bracketed under the endpoint's serial lock (deterministic).
    int64_t callee_busy_ticks = 0;
    /// Caller-perceived time from fan-out start to this call's response
    /// (send serialization + latency + service + latency); queueing is
    /// excluded, so the sum is deterministic at any parallelism.
    int64_t caller_wait_ticks = 0;
    uint64_t errors_unavailable = 0;  ///< dead or unbound callee
    uint64_t errors_handler = 0;      ///< handler returned an error
  };

  /// Stat plus its key, as returned by Snapshot().
  struct MethodStat : Stat {
    std::string method;
    int32_t node = -1;
  };

  /// A request to (method, node) was planned and its payload sent.
  void RecordCall(const std::string& method, int32_t node,
                  uint64_t request_bytes);
  /// A response came back: response payload size, the callee's busy time
  /// for this request and the caller's end-to-end wait.
  void RecordResponse(const std::string& method, int32_t node,
                      uint64_t response_bytes, int64_t busy_ticks,
                      int64_t wait_ticks);
  /// The call failed. `unavailable` distinguishes dead/unbound callees
  /// from handler errors; `busy_ticks` charges any callee busy time
  /// accrued before the handler failed.
  void RecordError(const std::string& method, int32_t node,
                   bool unavailable, int64_t busy_ticks = 0);

  /// All pairs in (method, node) order — deterministic for reports.
  std::vector<MethodStat> Snapshot() const;

  void Reset();

 private:
  using Key = std::pair<std::string, int32_t>;
  mutable std::mutex mu_;
  std::map<Key, Stat> stats_;
};

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_RPC_TELEMETRY_H_
