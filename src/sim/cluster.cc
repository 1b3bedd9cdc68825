#include "sim/cluster.h"

#include "common/env.h"

namespace psgraph::sim {

namespace {
/// PSGRAPH_NET_BANDWIDTH (bytes/sec) overrides the modeled NIC for
/// what-if experiments — e.g. halve it and let bench_diff.py attribute
/// the slowdown to rpc.serialize/rpc.wait. Unset/0 keeps the default.
ClusterConfig WithEnvCostOverrides(ClusterConfig cfg) {
  const uint64_t bw = EnvU64("PSGRAPH_NET_BANDWIDTH", 0);
  if (bw > 0) {
    cfg.cost.network_bandwidth_bytes_per_sec = static_cast<double>(bw);
  }
  return cfg;
}

std::vector<uint64_t> MakeBudgets(const ClusterConfig& cfg) {
  std::vector<uint64_t> budgets;
  budgets.reserve(cfg.num_nodes());
  for (int32_t i = 0; i < cfg.num_executors; ++i) {
    budgets.push_back(cfg.executor_mem_bytes);
  }
  for (int32_t i = 0; i < cfg.num_servers; ++i) {
    budgets.push_back(cfg.server_mem_bytes);
  }
  budgets.push_back(cfg.executor_mem_bytes);  // driver
  return budgets;
}
}  // namespace

SimCluster::SimCluster(ClusterConfig config)
    : config_(WithEnvCostOverrides(config)),
      cost_(config_.cost),
      clock_(config.num_nodes()),
      cost_ledger_(config.num_nodes()),
      memory_(MakeBudgets(config)),
      // One point per simulated millisecond (1 tick = 1 ps), 256 points
      // before the store compacts.
      sampler_({.metrics = &metrics_,
                .rpc = &rpc_telemetry_,
                .interval_ticks = 1'000'000'000,
                .capacity = 256}),
      watchdog_(&sampler_.store(), &events_),
      alive_(config.num_nodes(), true) {
  tracer_.set_enabled(Tracer::EnabledByEnv());
  sampler_.set_scrape_callback(
      [this](int64_t ticks) { watchdog_.Evaluate(ticks); });
  // Container restart is a constant cost (Yarn relaunch ~30 s); when the
  // workload is a scaled-down stand-in whose simulated times get
  // multiplied back up by `workload_scale`, pre-divide so the restart
  // still reports as ~30 s at paper scale.
  if (config_.workload_scale > 1.0) {
    restart_delay_sec_ = 30.0 / config_.workload_scale;
  }
}

void SimCluster::KillNode(NodeId node) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    alive_[node] = false;
  }
  memory_.ReleaseAll(node);
  // Stamped with the cluster frontier: the failure is observed at the
  // point the slowest node has reached.
  events_.Record(JournalEventType::kNodeKilled, node, clock_.MakespanTicks());
}

void SimCluster::ReviveNode(NodeId node) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    alive_[node] = true;
  }
  const int64_t before = clock_.NowTicks(node);
  clock_.Advance(node, restart_delay_sec_);
  // A restarted container starts at least at the cluster's current frontier:
  // it was relaunched after the failure was observed.
  clock_.AdvanceTo(node, clock_.Makespan());
  cost_ledger_.Record(node, CostCategory::kRecovery,
                      clock_.NowTicks(node) - before);
  events_.Record(JournalEventType::kNodeRestarted, node,
                 clock_.NowTicks(node));
}

bool SimCluster::IsAlive(NodeId node) const {
  std::lock_guard<std::mutex> lock(mu_);
  return alive_[node];
}

}  // namespace psgraph::sim
