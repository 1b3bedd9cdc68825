// Synchronization controller (paper §III-A): BSP inserts a barrier across
// all executors at every iteration boundary; ASP lets executors run
// free.

#ifndef PSGRAPH_PS_SYNC_H_
#define PSGRAPH_PS_SYNC_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/cluster.h"

namespace psgraph::ps {

enum class SyncProtocol : uint8_t {
  kBsp = 0,
  kAsp = 1,
};

class SyncController {
 public:
  SyncController(sim::SimCluster* cluster, SyncProtocol protocol)
      : cluster_(cluster), protocol_(protocol) {}

  SyncProtocol protocol() const { return protocol_; }

  /// In BSP mode, advances every executor's simulated clock to the
  /// slowest one (the barrier); in ASP mode this is a no-op and stragglers
  /// simply lag. Returns the barrier time (BSP) or 0 (ASP).
  double IterationBarrier() {
    if (protocol_ == SyncProtocol::kAsp) return 0.0;
    std::vector<int32_t> executors;
    executors.reserve(cluster_->config().num_executors);
    for (int32_t e = 0; e < cluster_->config().num_executors; ++e) {
      executors.push_back(cluster_->config().executor(e));
    }
    // Account the idle time every executor spends waiting for the
    // straggler — the cost ASP avoids.
    int64_t barrier_ticks = 0;
    for (int32_t n : executors) {
      barrier_ticks =
          std::max(barrier_ticks, cluster_->clock().NowTicks(n));
    }
    int64_t wait_ticks = 0;
    for (int32_t n : executors) {
      wait_ticks += barrier_ticks - cluster_->clock().NowTicks(n);
    }
    total_wait_ += sim::SimClock::SecondsOf(wait_ticks);
    // Journal the barrier: when the superstep fence fell and what it
    // cost in aggregate executor idle time.
    cluster_->events().Record(sim::JournalEventType::kBarrierEntry,
                              /*node=*/-1, barrier_ticks, wait_ticks);
    const double barrier = cluster_->clock().Barrier(executors);
    // Scrape the continuous-telemetry series at the superstep fence —
    // the canonical serial poll point for training runs.
    cluster_->sampler().Poll(barrier_ticks);
    return barrier;
  }

  /// Cumulative executor idle time spent at BSP barriers.
  double total_wait() const { return total_wait_; }

 private:
  sim::SimCluster* cluster_;
  SyncProtocol protocol_;
  double total_wait_ = 0.0;
};

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_SYNC_H_
