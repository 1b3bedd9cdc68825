// Skew-aware parameter management (NuPS-style, see PAPERS.md).
//
// Pure hash/range placement makes the hottest shard the whole system's
// throughput ceiling on Zipfian access. This module splits keys into two
// management classes per tracked matrix:
//
//  * HOT keys — replicated to every executor. Pulls are served from the
//    executor-local replica (replica value + that executor's own pending
//    deltas, so an executor reads its own writes); PushAdd accumulates
//    into a local delta row instead of crossing the wire. At sim-clock
//    barriers the driver merges: every executor's deltas flush to the
//    key's home shard over "ps.merge" (executor order, keys ascending —
//    float accumulation is a function of state, not schedule), then the
//    refreshed home values broadcast back into every replica.
//  * COLD keys (the long tail) — single-home, untouched semantics.
//
// Classification: every tracked-matrix access an executor makes is
// counted in that executor's own table (single-writer, so counts are
// exact and their cross-executor aggregate is an order-independent sum —
// deterministic at any PSGRAPH_THREADS). Refresh() aggregates in
// executor order, classifies keys with count >= hot_min_count (ties
// broken by ascending key), caps the set at max_hot_keys, and installs
// the new hot set everywhere. SeedHotKeys() installs a caller-chosen
// first hot set instead.
//
// Consistency: between merges an executor sees home-state-at-last-merge
// plus its own deltas — the bounded-staleness window BSP training
// already tolerates (updates land before the next barrier). PushAssign
// on a hot key writes through to the home shard AND the local replica
// (pending delta discarded: assign overwrites).

#ifndef PSGRAPH_PS_REPLICATION_H_
#define PSGRAPH_PS_REPLICATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "ps/matrix_meta.h"

namespace psgraph::ps {

class PsAgent;
class PsContext;

struct ReplicationOptions {
  /// Minimum aggregated access count (across executors, since the last
  /// Refresh) for a key to classify as hot.
  uint64_t hot_min_count = 32;
  /// Hard cap on the replicated set per matrix; the top keys by
  /// (count desc, key asc) win.
  size_t max_hot_keys = 64;
};

/// Per-executor replica state. Installed into that executor's PsAgent;
/// the agent consults it on every pull/push of a tracked matrix. All
/// methods take an internal mutex: one executor node can run several
/// partition tasks concurrently, and replica rows/deltas/counts are all
/// order-independent under that interleaving (copies and commutative
/// adds), so serving stays deterministic where the remote path is.
class ReplicaCache {
 public:
  /// True when `id` is tracked AND serving is enabled (the manager
  /// suspends serving while it rebuilds replica values, so its own
  /// refresh pulls take the normal remote path).
  bool Serving(MatrixId id) const;

  /// Counts one access per key toward the next classification refresh.
  /// No-op while serving is suspended (management traffic must not
  /// classify itself).
  void RecordAccess(MatrixId id, std::span<const uint64_t> keys);

  /// If `key` is hot, writes replica value + pending local delta into
  /// `dst` (cols floats) and returns true.
  bool ServePull(MatrixId id, uint64_t key, float* dst);

  /// If `key` is hot, accumulates `src` into the pending local delta and
  /// returns true (nothing crosses the wire until the next merge).
  bool AbsorbAdd(MatrixId id, uint64_t key, const float* src);

  /// Write-through hook for PushAssign: if `key` is hot, overwrite the
  /// replica value and drop the pending delta (the home shard was
  /// assigned the same row by the agent).
  void ApplyAssign(MatrixId id, uint64_t key, const float* src);

  /// Rows served / absorbed locally (read by bench_ablation_skew).
  uint64_t local_rows() const;

 private:
  friend class ReplicationManager;

  struct Tracked {
    MatrixMeta meta;
    bool serving = false;
    FlatHashMap<std::vector<float>> values;  ///< hot key -> replica row
    FlatHashMap<std::vector<float>> deltas;  ///< hot key -> pending adds
    FlatHashMap<uint64_t> counts;            ///< access counts this window
  };

  mutable std::mutex mu_;
  std::map<MatrixId, Tracked> tracked_;
  uint64_t local_rows_ = 0;
};

/// Driver-side coordinator: owns one ReplicaCache per executor, decides
/// the hot set, and schedules merges/broadcasts at sim-clock barriers
/// (call Merge()/Refresh() only from the driver with no executor tasks
/// in flight — the same contract as IterationBarrier).
class ReplicationManager {
 public:
  /// Installs a cache into every agent. `agents[e]` must be executor
  /// e's agent and outlive the manager.
  ReplicationManager(PsContext* ps, std::vector<PsAgent*> agents,
                     ReplicationOptions options = {});

  const ReplicationOptions& options() const { return options_; }

  /// Starts skew-aware management of a row-partitioned row matrix. The
  /// hot set starts empty (everything cold) until Refresh() or a seed.
  Status Track(const MatrixMeta& meta);

  /// Installs `keys` (deduplicated, capped at max_hot_keys) as the hot
  /// set and broadcasts their current home values to every executor.
  Status SeedHotKeys(MatrixId id, std::vector<uint64_t> keys);

  /// Classification refresh at a barrier: flush every executor's pending
  /// deltas home (so a demoted key loses nothing), aggregate the access
  /// counts in executor order, classify, reset the counting window, and
  /// broadcast the new hot set's values.
  Status Refresh();

  /// Merge at a barrier: flush pending deltas home and re-broadcast the
  /// (unchanged) hot set's refreshed values.
  Status Merge();

  /// Current hot set of `id`, ascending (empty when untracked).
  std::vector<uint64_t> HotKeys(MatrixId id) const;

  ReplicaCache* cache(int32_t executor) { return caches_[executor].get(); }

  uint64_t merges() const { return merges_; }
  uint64_t refreshes() const { return refreshes_; }

 private:
  /// Sends executor e's pending deltas of `meta` home over "ps.merge",
  /// one call per home server in ascending server order. Per-server
  /// all-or-nothing: a server's keys are cleared from the pending map
  /// only once its call succeeds, so a retry after a failed server
  /// recovers re-sends exactly the unmerged deltas.
  Status FlushDeltas(const MatrixMeta& meta, int32_t executor);

  /// Re-pulls `hot` from the home shards once per executor (serving
  /// suspended, so the pull is remote and its broadcast cost is charged
  /// to each executor) and installs the rows as the new replica values.
  Status Broadcast(const MatrixMeta& meta,
                   const std::vector<uint64_t>& hot);

  PsContext* ps_;
  std::vector<PsAgent*> agents_;
  ReplicationOptions options_;
  std::vector<std::unique_ptr<ReplicaCache>> caches_;
  std::map<MatrixId, MatrixMeta> tracked_;
  std::map<MatrixId, std::vector<uint64_t>> hot_;  ///< ascending
  uint64_t merges_ = 0;
  uint64_t refreshes_ = 0;
};

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_REPLICATION_H_
