#include "sim/skew.h"

#include <algorithm>
#include <cstdlib>

#include "common/env.h"

namespace psgraph::sim {

void SpaceSavingCounter::Offer(uint64_t key, uint64_t weight) {
  total_ += weight;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.count += weight;
    return;
  }
  if (entries_.size() < capacity_) {
    entries_[key] = {key, weight, 0};
    return;
  }
  // Evict the minimum-count entry; the newcomer inherits its count as
  // the classic space-saving overestimate (error bound = evicted count).
  auto min_it = entries_.begin();
  for (auto e = entries_.begin(); e != entries_.end(); ++e) {
    if (e->second.count < min_it->second.count) min_it = e;
  }
  Entry replacement{key, min_it->second.count + weight,
                    min_it->second.count};
  entries_.erase(min_it);
  entries_[key] = replacement;
}

std::vector<SpaceSavingCounter::Entry> SpaceSavingCounter::TopK(
    size_t k) const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [key, e] : entries_) out.push_back(e);
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  if (out.size() > k) out.resize(k);
  return out;
}

void SpaceSavingCounter::Reset() {
  entries_.clear();
  total_ = 0;
}

SkewProfiler::SkewProfiler(int32_t num_servers) {
  key_profiling_.store(KeyProfilingByEnv(), std::memory_order_relaxed);
  sample_period_ = SamplePeriodFromEnv();
  shards_.reserve(static_cast<size_t>(std::max<int32_t>(num_servers, 0)));
  for (int32_t s = 0; s < num_servers; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool SkewProfiler::KeyProfilingByEnv() {
  return EnvFlag("PSGRAPH_PROFILE_KEYS", false);
}

uint64_t SkewProfiler::SamplePeriodFromEnv() {
  return EnvU64("PSGRAPH_PROFILE_KEYS_SAMPLE", 1, /*min_value=*/1);
}

SkewProfiler::Shard& SkewProfiler::shard(int32_t server) {
  if (server < 0) server = 0;
  std::lock_guard<std::mutex> lock(mu_);
  while (shards_.size() <= static_cast<size_t>(server)) {
    shards_.push_back(std::make_unique<Shard>());
  }
  return *shards_[server];
}

void SkewProfiler::RecordKeyAccess(int32_t server, bool is_pull,
                                   std::span<const uint64_t> keys) {
  Shard& s = shard(server);
  auto& counter = is_pull ? s.pull_keys : s.push_keys;
  counter.fetch_add(keys.size(), std::memory_order_relaxed);
  if (!key_profiling_enabled()) return;
  std::lock_guard<std::mutex> lock(s.sketch_mu);
  if (sample_period_ <= 1) {
    for (uint64_t key : keys) s.sketch.Offer(key);
    return;
  }
  // Deterministic per-shard stride across batch boundaries.
  for (uint64_t key : keys) {
    if (s.sample_cursor++ % sample_period_ == 0) s.sketch.Offer(key);
  }
}

void SkewProfiler::RecordPartitionTicks(int32_t partition, int64_t ticks) {
  if (ticks <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  partition_ticks_[partition] += ticks;
}

SkewProfiler::Snapshot SkewProfiler::Snap() const {
  Snapshot snap;
  snap.key_profiling = key_profiling_enabled();
  snap.sample_period = sample_period_;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total_accesses = 0;
  for (const auto& s : shards_) {
    total_accesses += s->pull_keys.load(std::memory_order_relaxed) +
                      s->push_keys.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    ShardSnapshot shard;
    shard.server = static_cast<int32_t>(i);
    shard.pull_keys = s.pull_keys.load(std::memory_order_relaxed);
    shard.push_keys = s.push_keys.load(std::memory_order_relaxed);
    shard.load_share =
        total_accesses == 0
            ? 0.0
            : static_cast<double>(shard.pull_keys + shard.push_keys) /
                  static_cast<double>(total_accesses);
    {
      std::lock_guard<std::mutex> sketch_lock(s.sketch_mu);
      shard.hot_keys = s.sketch.TopK(kTopK);
      uint64_t covered = 0;
      for (const auto& e : shard.hot_keys) covered += e.count;
      shard.topk_share =
          s.sketch.total() == 0
              ? 0.0
              : std::min(1.0, static_cast<double>(covered) /
                                  static_cast<double>(s.sketch.total()));
    }
    snap.shards.push_back(std::move(shard));
  }
  int64_t max_ticks = 0, sum_ticks = 0;
  for (const auto& [partition, ticks] : partition_ticks_) {
    snap.partitions.push_back({partition, ticks});
    max_ticks = std::max(max_ticks, ticks);
    sum_ticks += ticks;
  }
  if (!snap.partitions.empty() && sum_ticks > 0) {
    const double mean = static_cast<double>(sum_ticks) /
                        static_cast<double>(snap.partitions.size());
    snap.partition_imbalance = static_cast<double>(max_ticks) / mean;
  }
  return snap;
}

void SkewProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& s : shards_) {
    s->pull_keys.store(0, std::memory_order_relaxed);
    s->push_keys.store(0, std::memory_order_relaxed);
    std::lock_guard<std::mutex> sketch_lock(s->sketch_mu);
    s->sketch.Reset();
    s->sample_cursor = 0;
  }
  partition_ticks_.clear();
}

}  // namespace psgraph::sim
