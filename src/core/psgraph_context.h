// PsGraphContext: the top-level runtime of the PSGraph system (paper
// Fig. 3) — it owns the simulated cluster, the HDFS, the RPC fabric, the
// Spark-like dataflow context, the parameter servers with their master,
// the per-executor PS agents, and the synchronization controller.
//
// Algorithms (src/core/*.cc) take a PsGraphContext& plus input data and
// options; benches and examples create one context per run.

#ifndef PSGRAPH_CORE_PSGRAPH_CONTEXT_H_
#define PSGRAPH_CORE_PSGRAPH_CONTEXT_H_

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/rpc_telemetry.h"
#include "common/status.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "dataflow/context.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/master.h"
#include "ps/replication.h"
#include "ps/sync.h"
#include "sim/cluster.h"
#include "sim/event_journal.h"
#include "sim/failure_injector.h"
#include "sim/watchdog.h"
#include "storage/hdfs.h"

namespace psgraph::core {

class PsGraphContext {
 public:
  struct Options {
    sim::ClusterConfig cluster;
    ps::SyncProtocol sync = ps::SyncProtocol::kBsp;
    /// HDFS prefix for PS checkpoints.
    std::string checkpoint_prefix = "ckpt/psgraph";
    /// Checkpoint every N iterations (<= 0 disables periodic
    /// checkpoints; algorithms may still checkpoint explicitly).
    int checkpoint_interval = 5;
  };

  /// Builds and starts the full stack (servers bound, psFuncs
  /// registered).
  static Result<std::unique_ptr<PsGraphContext>> Create(Options options);

  const Options& options() const { return options_; }
  sim::SimCluster& cluster() { return *cluster_; }

  /// The cluster's observability sinks (sim/cluster.h), forwarded for
  /// convenience. Each context has its own cluster, so concurrent
  /// contexts never share counters, spans or run-report sections.
  /// Create adds the cluster's memory watermark series to sampler() and
  /// three default SLO rules to watchdog().
  Metrics& metrics() { return cluster_->metrics(); }
  Tracer& tracer() { return cluster_->tracer(); }
  sim::ConvergenceLog& convergence() { return cluster_->convergence(); }
  RpcTelemetry& rpc_telemetry() { return cluster_->rpc_telemetry(); }
  sim::EventJournal& events() { return cluster_->events(); }
  MetricsSampler& sampler() { return cluster_->sampler(); }
  sim::Watchdog& watchdog() { return cluster_->watchdog(); }
  storage::Hdfs& hdfs() { return *hdfs_; }
  net::RpcFabric& fabric() { return *fabric_; }
  dataflow::DataflowContext& dataflow() { return *dataflow_; }
  ps::PsContext& ps() { return *ps_; }
  ps::PsMaster& master() { return *master_; }
  ps::SyncController& sync() { return *sync_; }
  sim::FailureInjector& failures() { return failures_; }

  int32_t num_executors() const {
    return cluster_->config().num_executors;
  }
  ps::PsAgent& agent(int32_t executor) { return *agents_[executor]; }

  /// Lazily-created skew-aware replication manager (ps/replication.h).
  /// First call installs a ReplicaCache into every agent; until then the
  /// agents run the plain single-home paths with zero overhead.
  ps::ReplicationManager& replication(ps::ReplicationOptions options = {});

  struct RecoveryReport {
    int32_t servers_restarted = 0;
    /// Executor indices that were restarted this call (their cached RDD
    /// partitions are stale and any executor-local algorithm state must
    /// be rebuilt by the caller).
    std::vector<int32_t> executors_restarted;
    int32_t total() const {
      return servers_restarted +
             static_cast<int32_t>(executors_restarted.size());
    }
  };

  /// Runs start-of-iteration failure handling: fires due injected
  /// failures, restarts+restores dead servers in the given mode, and
  /// revives dead executors (their cached RDD partitions recompute via
  /// lineage).
  Result<RecoveryReport> HandleFailures(int64_t iteration,
                                        ps::RecoveryMode mode);

  /// Periodic checkpoint hook; no-op unless `iteration` is a multiple of
  /// the configured interval.
  Status MaybeCheckpoint(int64_t iteration);

 private:
  explicit PsGraphContext(Options options) : options_(std::move(options)) {}

  Options options_;
  std::unique_ptr<sim::SimCluster> cluster_;
  std::unique_ptr<storage::Hdfs> hdfs_;
  std::unique_ptr<net::RpcFabric> fabric_;
  std::unique_ptr<dataflow::DataflowContext> dataflow_;
  std::unique_ptr<ps::PsContext> ps_;
  std::unique_ptr<ps::PsMaster> master_;
  std::unique_ptr<ps::SyncController> sync_;
  std::vector<std::unique_ptr<ps::PsAgent>> agents_;
  std::unique_ptr<ps::ReplicationManager> replication_;
  sim::FailureInjector failures_;
};

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_PSGRAPH_CONTEXT_H_
