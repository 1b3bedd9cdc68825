// Simulated cluster model.
//
// The paper's experiments run on >1000 machines connected by 10 GbE; here a
// cluster is a set of *logical nodes* (executors, parameter servers, one
// driver) multiplexed over a thread pool. Each node has its own memory
// budget and its own simulated clock; all cross-node traffic is charged to
// a cost model so the bench harness can report the makespan the same
// workload would have at the paper's cluster geometry.

#ifndef PSGRAPH_SIM_CLUSTER_H_
#define PSGRAPH_SIM_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rpc_telemetry.h"
#include "common/status.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "sim/convergence.h"
#include "sim/cost_ledger.h"
#include "sim/cost_model.h"
#include "sim/event_journal.h"
#include "sim/memory_accountant.h"
#include "sim/sim_clock.h"
#include "sim/watchdog.h"

namespace psgraph::sim {

/// Logical node identifier. Layout: [0, num_executors) are executors,
/// [num_executors, num_executors + num_servers) are parameter servers, and
/// the last id is the driver.
using NodeId = int32_t;

/// Geometry and per-container resources of a simulated cluster, mirroring
/// the paper's resource allocations (e.g. Fig. 6: 100 executors x 20 GB +
/// 20 servers x 15 GB for PSGraph on DS1).
struct ClusterConfig {
  int32_t num_executors = 4;
  int32_t num_servers = 2;
  uint64_t executor_mem_bytes = 512ull << 20;
  uint64_t server_mem_bytes = 512ull << 20;
  CostModelConfig cost;

  /// Ratio between the paper's dataset and the scaled-down one actually
  /// executed; benches multiply the simulated makespan by this to report
  /// cluster-scale time. 1.0 = no extrapolation.
  double workload_scale = 1.0;

  int32_t num_nodes() const { return num_executors + num_servers + 1; }
  NodeId executor(int32_t i) const { return i; }
  NodeId server(int32_t i) const { return num_executors + i; }
  NodeId driver() const { return num_executors + num_servers; }
  bool is_executor(NodeId n) const { return n >= 0 && n < num_executors; }
  bool is_server(NodeId n) const {
    return n >= num_executors && n < num_executors + num_servers;
  }
};

/// Bundles everything that defines the simulated environment: geometry,
/// per-node clocks, memory budgets, cost model, liveness flags and the
/// telemetry sinks its components report into.
///
/// Thread-safe: clocks and memory have their own synchronization; liveness
/// uses an internal mutex.
class SimCluster {
 public:
  explicit SimCluster(ClusterConfig config);

  const ClusterConfig& config() const { return config_; }
  SimClock& clock() { return clock_; }
  MemoryAccountant& memory() { return memory_; }
  const CostModel& cost() const { return cost_; }

  /// Makespan-attribution ledger (sim/cost_ledger.h). Owned directly,
  /// like the clock — NOT a swappable sink: conservation of the
  /// critical-path report only holds when the ledger's lifetime exactly
  /// matches the clock whose charges it attributes.
  CostLedger& cost_ledger() { return cost_ledger_; }

  /// Observability sinks every component holding a SimCluster* reports
  /// into (PS servers, the RPC fabric, the dataflow context). Owned by
  /// value like the clock, so two clusters in one process never share
  /// one. The constructor enables the tracer from PSGRAPH_TRACE, arms
  /// the sampler to scrape metrics() and rpc_telemetry() once per
  /// simulated millisecond into 256 points, and has the watchdog
  /// evaluate at every scrape and append its alerts to events().
  Metrics& metrics() { return metrics_; }
  Tracer& tracer() { return tracer_; }
  /// Flight recorder: algorithms record per-iteration telemetry into
  /// convergence().
  ConvergenceLog& convergence() { return convergence_; }
  /// Wire-level RPC telemetry (per-(method, callee) counters recorded by
  /// the fabric) and the control-plane event journal (kill/restart,
  /// health checks, checkpoints, barriers, recovery episodes).
  RpcTelemetry& rpc_telemetry() { return rpc_telemetry_; }
  EventJournal& events() { return events_; }
  /// Continuous-telemetry sampler and SLO watchdog. A bare cluster's
  /// watchdog has no rules; PsGraphContext::Create adds the defaults.
  MetricsSampler& sampler() { return sampler_; }
  Watchdog& watchdog() { return watchdog_; }

  /// Marks a node as failed. Subsequent RPCs to it return Unavailable and
  /// its memory ledger is wiped (the container is gone).
  void KillNode(NodeId node);

  /// Brings a failed node back (a fresh container: empty memory ledger,
  /// clock advanced by the configured restart delay).
  void ReviveNode(NodeId node);

  bool IsAlive(NodeId node) const;

  /// Simulated seconds it takes the resource manager to restart a
  /// container (paper: Yarn/Kubernetes relaunch).
  double restart_delay_sec() const { return restart_delay_sec_; }
  void set_restart_delay_sec(double s) { restart_delay_sec_ = s; }

 private:
  ClusterConfig config_;
  CostModel cost_;
  SimClock clock_;
  CostLedger cost_ledger_;
  MemoryAccountant memory_;
  // Declared in wiring order: the sampler scrapes metrics_ and
  // rpc_telemetry_, the watchdog reads the sampler's store and appends
  // to events_.
  Metrics metrics_;
  Tracer tracer_;
  ConvergenceLog convergence_;
  RpcTelemetry rpc_telemetry_;
  EventJournal events_;
  MetricsSampler sampler_;
  Watchdog watchdog_;
  mutable std::mutex mu_;
  std::vector<bool> alive_;
  double restart_delay_sec_ = 30.0;
};

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_CLUSTER_H_
