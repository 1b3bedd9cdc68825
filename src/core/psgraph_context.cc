#include "core/psgraph_context.h"

#include <algorithm>

#include "common/logging.h"

namespace psgraph::core {

Result<std::unique_ptr<PsGraphContext>> PsGraphContext::Create(
    Options options) {
  std::unique_ptr<PsGraphContext> ctx(new PsGraphContext(options));
  ctx->cluster_ = std::make_unique<sim::SimCluster>(options.cluster);
  // The cluster's sampler scrapes its own registries; add the
  // cluster-level sources that live outside them (aggregated, not
  // per-node — a 121-node cluster would bloat every report).
  sim::SimCluster* cl = ctx->cluster_.get();
  MetricsSampler& sampler = cl->sampler();
  sampler.AddSource("mem.total_usage_bytes", [cl] {
    double total = 0.0;
    for (sim::NodeId n = 0; n < cl->config().num_nodes(); ++n) {
      total += static_cast<double>(cl->memory().Usage(n));
    }
    return total;
  });
  sampler.AddSource("mem.max_peak_bytes", [cl] {
    return static_cast<double>(cl->memory().MaxPeak());
  });
  sampler.AddSource("mem.max_usage_frac", [cl] {
    double frac = 0.0;
    for (sim::NodeId n = 0; n < cl->config().num_nodes(); ++n) {
      const uint64_t budget = cl->memory().Budget(n);
      if (budget == 0) continue;
      frac = std::max(frac, static_cast<double>(cl->memory().Usage(n)) /
                                static_cast<double>(budget));
    }
    return frac;
  });
  // Default SLO rules — one of each form. The recovery rule watches the
  // counter HandleFailures bumps (kill and repair complete within one
  // HandleFailures call, so an RPC-error rule would never see the
  // outage); the burn-rate rule trips on a cold or freshly-swapped
  // serving cache and clears once it warms past a 50% windowed miss
  // rate (10x a 5% miss budget).
  sim::Watchdog& watchdog = cl->watchdog();
  {
    sim::WatchdogRule r;
    r.name = "recovery_restarts";
    r.form = sim::WatchdogRuleForm::kDelta;
    r.series = "counter.recovery.nodes_restarted";
    r.threshold = 0.0;
    r.window = 4;
    watchdog.AddRule(r);
  }
  {
    sim::WatchdogRule r;
    r.name = "serving_cache_miss_burn";
    r.form = sim::WatchdogRuleForm::kBurnRate;
    r.bad_series = "counter.serving.cache_misses";
    r.total_series = "counter.serving.cache_probes";
    r.window = 8;
    r.error_budget = 0.05;
    r.burn_threshold = 10.0;
    watchdog.AddRule(r);
  }
  {
    sim::WatchdogRule r;
    r.name = "executor_mem_pressure";
    r.form = sim::WatchdogRuleForm::kThreshold;
    r.series = "mem.max_usage_frac";
    r.threshold = 0.9;
    watchdog.AddRule(r);
  }
  ctx->hdfs_ = std::make_unique<storage::Hdfs>(ctx->cluster_.get());
  ctx->fabric_ = std::make_unique<net::RpcFabric>(ctx->cluster_.get());
  ctx->dataflow_ =
      std::make_unique<dataflow::DataflowContext>(ctx->cluster_.get());
  ctx->ps_ = std::make_unique<ps::PsContext>(
      ctx->cluster_.get(), ctx->fabric_.get(), ctx->hdfs_.get());
  PSG_RETURN_NOT_OK(ctx->ps_->Start());
  ctx->master_ = std::make_unique<ps::PsMaster>(
      ctx->ps_.get(), options.checkpoint_prefix);
  ctx->sync_ = std::make_unique<ps::SyncController>(
      ctx->cluster_.get(), options.sync);
  for (int32_t e = 0; e < options.cluster.num_executors; ++e) {
    ctx->agents_.push_back(std::make_unique<ps::PsAgent>(
        ctx->ps_.get(), options.cluster.executor(e)));
  }
  return ctx;
}

ps::ReplicationManager& PsGraphContext::replication(
    ps::ReplicationOptions options) {
  if (replication_ == nullptr) {
    std::vector<ps::PsAgent*> agents;
    agents.reserve(agents_.size());
    for (auto& agent : agents_) agents.push_back(agent.get());
    replication_ = std::make_unique<ps::ReplicationManager>(
        ps_.get(), std::move(agents), options);
  }
  return *replication_;
}

Result<PsGraphContext::RecoveryReport> PsGraphContext::HandleFailures(
    int64_t iteration, ps::RecoveryMode mode) {
  cluster_->events().set_iteration(iteration);
  failures_.Tick(*cluster_, iteration);
  // Bracket the whole repair (server restore + executor revival) as one
  // recovery episode in the journal; end - begin is the run's
  // time-to-recovery at this iteration.
  int64_t dead_nodes = 0;
  for (sim::NodeId n = 0; n < cluster_->config().num_nodes(); ++n) {
    if (!cluster_->IsAlive(n)) ++dead_nodes;
  }
  if (dead_nodes > 0) {
    cluster_->events().Record(sim::JournalEventType::kRecoveryBegin,
                              /*node=*/-1, cluster_->clock().MakespanTicks(),
                              dead_nodes);
  }
  RecoveryReport report;
  // Server failures: master detects and repairs (checkpoint restore).
  PSG_ASSIGN_OR_RETURN(report.servers_restarted,
                       master_->CheckAndRecover(mode));
  // Executor failures: the resource manager restarts the container; its
  // cached RDD partitions become stale (lineage recomputes them when next
  // accessed). The synchronization controller blocks peers meanwhile —
  // modeled by the restart delay folded into the next BSP barrier.
  for (int32_t e = 0; e < num_executors(); ++e) {
    sim::NodeId node = cluster_->config().executor(e);
    if (!cluster_->IsAlive(node)) {
      cluster_->ReviveNode(node);
      dataflow_->BumpExecutorEpoch(e);
      report.executors_restarted.push_back(e);
      PSG_LOG(Info) << "executor " << e
                    << " restarted; lineage will reload its partitions";
    }
  }
  if (dead_nodes > 0) {
    cluster_->events().Record(sim::JournalEventType::kRecoveryEnd,
                              /*node=*/-1, cluster_->clock().MakespanTicks(),
                              report.total());
  }
  // Feed the watchdog's recovery rule (delta over this counter) and
  // scrape up to the post-repair clock — failure handling is a serial
  // orchestration point, so this poll is deterministic.
  if (report.total() > 0) {
    cluster_->metrics().Add("recovery.nodes_restarted",
                            static_cast<uint64_t>(report.total()));
  }
  cluster_->sampler().Poll(cluster_->clock().MakespanTicks());
  return report;
}

Status PsGraphContext::MaybeCheckpoint(int64_t iteration) {
  if (options_.checkpoint_interval <= 0) return Status::OK();
  if (iteration == 0 ||
      iteration % options_.checkpoint_interval != 0) {
    return Status::OK();
  }
  cluster_->events().set_iteration(iteration);
  return master_->CheckpointAll();
}

}  // namespace psgraph::core
