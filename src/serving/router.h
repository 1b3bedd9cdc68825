// Serving front-end: hash-routes requests across shards, micro-batches
// them per (shard, request type), and drives hot snapshot swaps.
//
// Batching policy (open-loop): a request's keys are split by the shard
// partitioner and appended to per-(shard, type) pending batches. A batch
// flushes when it reaches `max_batch` sub-requests, or when a later
// arrival finds its deadline (first-enqueue + max_delay) expired — the
// router then advances its own clock to the flush trigger and fans the
// due batches out in one RpcFabric::CallParallel per request type (one
// call per shard per round keeps the per-shard request order, and
// therefore the shard caches, deterministic at any parallelism).
// Request latency = completion of its slowest sub-batch − arrival, so
// both queueing-for-batch and shard service time are included.
//
// Hot swap: SwapTo(v) preloads v on every shard while the active
// version keeps serving, drains the pending batches, then activates v
// everywhere. Responses carry the serving version; a request whose
// sub-responses disagree is counted as torn (the swap test asserts the
// counter stays zero).

#ifndef PSGRAPH_SERVING_ROUTER_H_
#define PSGRAPH_SERVING_ROUTER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/rpc.h"
#include "ps/partitioner.h"
#include "sim/cluster.h"

namespace psgraph::serving {

enum class RequestType : uint8_t { kLookup = 0, kInfer = 1 };

struct ServingRequest {
  RequestType type = RequestType::kLookup;
  std::vector<uint64_t> keys;
  int64_t arrival_ticks = 0;  ///< open-loop arrival stamp (sim ticks)
};

struct RequestRecord {
  int64_t arrival_ticks = 0;
  int64_t completion_ticks = -1;
  int64_t version = -1;  ///< version the response was served from
  bool failed = false;
  bool torn = false;  ///< sub-responses disagreed on the version
  bool done = false;
};

struct RouterOptions {
  int32_t num_shards = 1;
  uint64_t key_space = 1;    ///< must match the published snapshot's
  uint64_t max_batch = 16;   ///< sub-requests per (shard, type) batch
  double max_delay_sec = 2e-3;  ///< flush deadline from first enqueue
};

class ServingRouter {
 public:
  ServingRouter(sim::SimCluster* cluster, net::RpcFabric* fabric,
                sim::NodeId node, std::vector<sim::NodeId> shard_nodes,
                RouterOptions options);

  /// Enqueues one arrival-stamped request; flushes whatever batches the
  /// arrival time makes due first. Single-threaded by design (the
  /// front-end is one event loop; shard fan-out is where the
  /// parallelism lives).
  Status Submit(const ServingRequest& request);

  /// Drains every pending batch at the router's current clock.
  Status Flush();

  /// Hot swap: preload `version` on all shards (traffic keeps flowing
  /// conceptually; in this single-threaded loop, queued batches stay
  /// queued), drain, then activate everywhere.
  Status SwapTo(int64_t version);

  const std::vector<RequestRecord>& records() const { return records_; }
  uint64_t failed_requests() const;
  uint64_t torn_requests() const;

 private:
  struct SubItem {
    size_t request_index = 0;
    std::vector<uint64_t> keys;
  };
  struct Batch {
    std::vector<SubItem> items;
    int64_t deadline_ticks = 0;
  };

  /// Flushes the given (shard, type) batches at `trigger_ticks`; one
  /// CallParallel per request type.
  Status FlushBatches(
      const std::vector<std::pair<int32_t, RequestType>>& due,
      int64_t trigger_ticks);
  Status FlushDue(int64_t now_ticks);
  /// Refreshes the router queue gauges (queued sub-requests, open
  /// batches) and polls the continuous-telemetry sampler — the router
  /// loop is the serial scrape driver while a load is being served.
  void PollTelemetry(int64_t now_ticks);
  void CompleteSub(size_t request_index, int64_t version,
                   int64_t completion_ticks);
  void FailSub(size_t request_index, int64_t completion_ticks);

  Metrics& metrics() const { return cluster_->metrics(); }
  int64_t NowTicks() const { return cluster_->clock().NowTicks(node_); }

  sim::SimCluster* cluster_;
  net::RpcFabric* fabric_;
  sim::NodeId node_;
  std::vector<sim::NodeId> shard_nodes_;
  RouterOptions options_;
  ps::Partitioner partitioner_;
  int64_t max_delay_ticks_ = 0;

  std::vector<RequestRecord> records_;
  std::vector<int32_t> pending_subs_;  ///< open sub-requests per record
  std::vector<std::array<Batch, 2>> pending_;  ///< [shard][type]
  /// Scratch for concatenating one batch's keys during a flush, reused
  /// across batches (the router is a single event loop).
  std::vector<uint64_t> flush_keys_;
};

}  // namespace psgraph::serving

#endif  // PSGRAPH_SERVING_ROUTER_H_
