// PS hot-key / skew profiling (the "skew" section of a run report).
//
// Parameter access in real graph workloads is heavily non-uniform (NuPS,
// 2PS): a handful of high-degree vertices absorb most pulls/pushes and a
// PS must see its own key-access distribution to manage it. Two sinks
// live here, both attached to the SimCluster like Metrics/Tracer:
//
//  * Per-shard key-access profiles. Each PsServer reports the keys of
//    every pull/push batch; per shard the profiler keeps exact pull/push
//    access totals (two relaxed atomic adds per request — always on) and
//    an approximate top-K hot-key table via the space-saving algorithm
//    (Metwally et al.), which is only fed when key profiling is enabled
//    (PSGRAPH_PROFILE_KEYS=1 or set_key_profiling) and can additionally
//    be sampled (PSGRAPH_PROFILE_KEYS_SAMPLE=N offers every Nth key) to
//    bound hot-loop overhead.
//
//  * Per-partition busy ticks from the dataflow engine: every compute /
//    disk / shuffle charge is also attributed to the partition that
//    caused it, so a run report can show the partition imbalance behind
//    an executor-level makespan.

#ifndef PSGRAPH_SIM_SKEW_H_
#define PSGRAPH_SIM_SKEW_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace psgraph::sim {

/// Space-saving heavy-hitter sketch: tracks at most `capacity` keys; when
/// a new key arrives at capacity, it evicts the current minimum and
/// inherits its count (recorded as the entry's error bound). Guarantees
/// that any key with true frequency > total/capacity is present.
class SpaceSavingCounter {
 public:
  explicit SpaceSavingCounter(size_t capacity) : capacity_(capacity) {}

  void Offer(uint64_t key, uint64_t weight = 1);

  struct Entry {
    uint64_t key = 0;
    uint64_t count = 0;  ///< estimated frequency (upper bound)
    uint64_t error = 0;  ///< overestimate bound inherited at eviction
  };

  /// Up to `k` entries, highest estimated count first; ties broken by
  /// ascending key so the output is deterministic.
  std::vector<Entry> TopK(size_t k) const;

  uint64_t total() const { return total_; }
  size_t capacity() const { return capacity_; }
  void Reset();

 private:
  size_t capacity_;
  uint64_t total_ = 0;
  std::map<uint64_t, Entry> entries_;  // key -> entry
};

/// One profiler per cluster (see file comment). Thread-safe: totals are
/// relaxed atomics, the sketches and partition map take a mutex.
class SkewProfiler {
 public:
  /// Hot keys kept per shard sketch; TopK reports at most kTopK of them.
  static constexpr size_t kSketchCapacity = 256;
  static constexpr size_t kTopK = 16;

  /// `num_servers` presizes the shard slots; shards and partitions grow
  /// on demand.
  explicit SkewProfiler(int32_t num_servers);

  bool key_profiling_enabled() const {
    return key_profiling_.load(std::memory_order_relaxed);
  }
  void set_key_profiling(bool on) {
    key_profiling_.store(on, std::memory_order_relaxed);
  }
  /// True when PSGRAPH_PROFILE_KEYS is set non-empty and not "0".
  static bool KeyProfilingByEnv();
  /// PSGRAPH_PROFILE_KEYS_SAMPLE (default 1 = every key).
  static uint64_t SamplePeriodFromEnv();

  /// Called by PsServer on every pull/push batch. The access totals are
  /// always counted; keys feed the shard's hot-key sketch only when key
  /// profiling is on (every sample_period-th key, deterministic
  /// per-shard stride).
  void RecordKeyAccess(int32_t server, bool is_pull,
                       std::span<const uint64_t> keys);

  /// Called by the dataflow engine for every charge it attributes to a
  /// partition.
  void RecordPartitionTicks(int32_t partition, int64_t ticks);

  struct ShardSnapshot {
    int32_t server = 0;
    uint64_t pull_keys = 0;
    uint64_t push_keys = 0;
    /// This shard's share of all key accesses across shards, in [0,1].
    double load_share = 0.0;
    /// Fraction of this shard's sketched accesses covered by the top-K
    /// entries below (1.0 when every access hit a top-K key).
    double topk_share = 0.0;
    std::vector<SpaceSavingCounter::Entry> hot_keys;
  };
  struct PartitionSnapshot {
    int32_t partition = 0;
    int64_t busy_ticks = 0;
  };
  struct Snapshot {
    bool key_profiling = false;
    uint64_t sample_period = 1;
    std::vector<ShardSnapshot> shards;        // ascending server index
    std::vector<PartitionSnapshot> partitions;  // ascending partition
    /// max/mean of per-partition busy ticks (1.0 = perfectly balanced,
    /// 0.0 = no partition charges recorded).
    double partition_imbalance = 0.0;
  };
  Snapshot Snap() const;

  void Reset();

 private:
  struct Shard {
    std::atomic<uint64_t> pull_keys{0};
    std::atomic<uint64_t> push_keys{0};
    std::mutex sketch_mu;
    SpaceSavingCounter sketch{kSketchCapacity};
    uint64_t sample_cursor = 0;  // guarded by sketch_mu
  };

  Shard& shard(int32_t server);

  std::atomic<bool> key_profiling_{false};
  uint64_t sample_period_ = 1;
  mutable std::mutex mu_;  // guards shards_ growth and partitions_
  std::vector<std::unique_ptr<Shard>> shards_;
  std::map<int32_t, int64_t> partition_ticks_;
};

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_SKEW_H_
