#include "ps/replication.h"

#include <algorithm>
#include <cstring>

#include "ps/agent.h"
#include "ps/context.h"
#include "ps/partitioner.h"

namespace psgraph::ps {

// --- ReplicaCache ---

bool ReplicaCache::Serving(MatrixId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracked_.find(id);
  return it != tracked_.end() && it->second.serving;
}

void ReplicaCache::RecordAccess(MatrixId id,
                                std::span<const uint64_t> keys) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracked_.find(id);
  if (it == tracked_.end() || !it->second.serving) return;
  for (uint64_t key : keys) ++it->second.counts[key];
}

bool ReplicaCache::ServePull(MatrixId id, uint64_t key, float* dst) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracked_.find(id);
  if (it == tracked_.end() || !it->second.serving) return false;
  auto row = it->second.values.find(key);
  if (row == it->second.values.end()) return false;
  const uint32_t cols = it->second.meta.num_cols;
  std::memcpy(dst, row->second.data(), size_t{cols} * sizeof(float));
  auto delta = it->second.deltas.find(key);
  if (delta != it->second.deltas.end()) {
    const float* d = delta->second.data();
    for (uint32_t c = 0; c < cols; ++c) dst[c] += d[c];
  }
  ++local_rows_;
  return true;
}

bool ReplicaCache::AbsorbAdd(MatrixId id, uint64_t key, const float* src) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracked_.find(id);
  if (it == tracked_.end() || !it->second.serving) return false;
  if (!it->second.values.contains(key)) return false;
  const uint32_t cols = it->second.meta.num_cols;
  auto [delta, inserted] = it->second.deltas.try_emplace(key);
  if (inserted) delta->second.assign(cols, 0.0f);
  float* d = delta->second.data();
  for (uint32_t c = 0; c < cols; ++c) d[c] += src[c];
  ++local_rows_;
  return true;
}

void ReplicaCache::ApplyAssign(MatrixId id, uint64_t key,
                               const float* src) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tracked_.find(id);
  if (it == tracked_.end()) return;
  auto row = it->second.values.find(key);
  if (row == it->second.values.end()) return;
  const uint32_t cols = it->second.meta.num_cols;
  row->second.assign(src, src + cols);
  it->second.deltas.erase(key);
}

uint64_t ReplicaCache::local_rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  return local_rows_;
}

// --- ReplicationManager ---

ReplicationManager::ReplicationManager(PsContext* ps,
                                       std::vector<PsAgent*> agents,
                                       ReplicationOptions options)
    : ps_(ps), agents_(std::move(agents)), options_(options) {
  caches_.reserve(agents_.size());
  for (PsAgent* agent : agents_) {
    caches_.push_back(std::make_unique<ReplicaCache>());
    agent->set_replica_cache(caches_.back().get());
  }
}

Status ReplicationManager::Track(const MatrixMeta& meta) {
  if (meta.kind != StorageKind::kRows ||
      meta.layout != Layout::kRowPartitioned) {
    return Status::InvalidArgument(
        "replication: only row-partitioned row matrices have a single "
        "home shard per key (matrix '" + meta.name + "')");
  }
  if (tracked_.count(meta.id) > 0) {
    return Status::InvalidArgument("replication: matrix '" + meta.name +
                                   "' already tracked");
  }
  tracked_[meta.id] = meta;
  hot_[meta.id] = {};
  for (auto& cache : caches_) {
    std::lock_guard<std::mutex> lock(cache->mu_);
    ReplicaCache::Tracked& t = cache->tracked_[meta.id];
    t.meta = meta;
    t.serving = true;  // empty hot set: everything still goes remote
  }
  return Status::OK();
}

Status ReplicationManager::SeedHotKeys(MatrixId id,
                                       std::vector<uint64_t> keys) {
  auto it = tracked_.find(id);
  if (it == tracked_.end()) {
    return Status::NotFound("replication: matrix not tracked");
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  if (keys.size() > options_.max_hot_keys) {
    keys.resize(options_.max_hot_keys);
  }
  PSG_RETURN_NOT_OK(Broadcast(it->second, keys));
  hot_[id] = std::move(keys);
  return Status::OK();
}

Status ReplicationManager::Refresh() {
  for (auto& [id, meta] : tracked_) {
    // 1. Flush every executor's pending deltas home — a key about to be
    // demoted must not lose its accumulated updates.
    for (size_t e = 0; e < caches_.size(); ++e) {
      PSG_RETURN_NOT_OK(FlushDeltas(meta, static_cast<int32_t>(e)));
    }
    // 2. Aggregate this window's access counts. Per-executor counts are
    // exact and the sum is commutative, so the aggregate (and the hot
    // set below) is identical at any thread-pool parallelism.
    std::map<uint64_t, uint64_t> counts;
    for (auto& cache : caches_) {
      std::lock_guard<std::mutex> lock(cache->mu_);
      auto it = cache->tracked_.find(id);
      if (it == cache->tracked_.end()) continue;
      for (const auto& [key, n] : it->second.counts) counts[key] += n;
      it->second.counts.clear();
    }
    // 3. Classify: count >= hot_min_count, ranked by (count desc, key
    // asc), capped. std::map iteration gives ascending keys, and
    // stable_sort preserves that order among equal counts.
    std::vector<std::pair<uint64_t, uint64_t>> ranked;
    for (const auto& [key, n] : counts) {
      if (n >= options_.hot_min_count) ranked.push_back({key, n});
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) {
                       return a.second > b.second;
                     });
    if (ranked.size() > options_.max_hot_keys) {
      ranked.resize(options_.max_hot_keys);
    }
    std::vector<uint64_t> keys;
    keys.reserve(ranked.size());
    for (const auto& [key, n] : ranked) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    // 4. Install and broadcast.
    PSG_RETURN_NOT_OK(Broadcast(meta, keys));
    hot_[id] = std::move(keys);
  }
  ++refreshes_;
  return Status::OK();
}

Status ReplicationManager::Merge() {
  for (auto& [id, meta] : tracked_) {
    for (size_t e = 0; e < caches_.size(); ++e) {
      PSG_RETURN_NOT_OK(FlushDeltas(meta, static_cast<int32_t>(e)));
    }
    PSG_RETURN_NOT_OK(Broadcast(meta, hot_[id]));
  }
  ++merges_;
  // Merge runs at superstep barriers (a serial orchestration point), so
  // scraping up to the cluster makespan here is deterministic.
  sim::SimCluster* cl = ps_->cluster();
  cl->sampler().Poll(cl->clock().MakespanTicks());
  return Status::OK();
}

std::vector<uint64_t> ReplicationManager::HotKeys(MatrixId id) const {
  auto it = hot_.find(id);
  return it == hot_.end() ? std::vector<uint64_t>{} : it->second;
}

Status ReplicationManager::FlushDeltas(const MatrixMeta& meta,
                                       int32_t executor) {
  ReplicaCache* cache = caches_[executor].get();
  // Snapshot the pending deltas in ascending key order (FlatHashMap
  // iterates in slot order — not deterministic across capacities).
  std::vector<uint64_t> keys;
  std::vector<float> values;
  {
    std::lock_guard<std::mutex> lock(cache->mu_);
    auto it = cache->tracked_.find(meta.id);
    if (it == cache->tracked_.end() || it->second.deltas.empty()) {
      return Status::OK();
    }
    keys.reserve(it->second.deltas.size());
    for (const auto& [key, row] : it->second.deltas) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    values.reserve(keys.size() * meta.num_cols);
    for (uint64_t key : keys) {
      const std::vector<float>& row = it->second.deltas.at(key);
      values.insert(values.end(), row.begin(), row.end());
    }
  }
  // Group by home server; send per server in ascending order so a
  // mid-merge server failure leaves exactly the unsent servers' deltas
  // pending for the retry after recovery.
  const int32_t num_servers = ps_->num_servers();
  Partitioner part(meta.scheme, meta.num_rows, num_servers);
  const uint32_t cols = meta.num_cols;
  for (int32_t s = 0; s < num_servers; ++s) {
    std::vector<uint64_t> server_keys;
    std::vector<float> server_values;
    for (size_t i = 0; i < keys.size(); ++i) {
      if (part.PartitionOf(keys[i]) != s) continue;
      server_keys.push_back(keys[i]);
      server_values.insert(server_values.end(),
                           values.begin() + i * cols,
                           values.begin() + (i + 1) * cols);
    }
    if (server_keys.empty()) continue;
    PSG_RETURN_NOT_OK(
        agents_[executor]->MergeRows(meta, s, server_keys, server_values));
    std::lock_guard<std::mutex> lock(cache->mu_);
    auto it = cache->tracked_.find(meta.id);
    if (it != cache->tracked_.end()) {
      for (uint64_t key : server_keys) it->second.deltas.erase(key);
    }
  }
  return Status::OK();
}

Status ReplicationManager::Broadcast(const MatrixMeta& meta,
                                     const std::vector<uint64_t>& hot) {
  for (size_t e = 0; e < caches_.size(); ++e) {
    ReplicaCache* cache = caches_[e].get();
    {
      std::lock_guard<std::mutex> lock(cache->mu_);
      auto it = cache->tracked_.find(meta.id);
      if (it == cache->tracked_.end()) continue;
      // Suspend serving: the refresh pull below must take the remote
      // path (that round trip IS the replication broadcast cost, charged
      // to this executor), and must not feed the access counts.
      it->second.serving = false;
      it->second.values.clear();
      it->second.deltas.clear();
    }
    Status st = Status::OK();
    std::vector<float> rows;
    if (!hot.empty()) {
      auto pulled = agents_[e]->PullRows(meta, hot);
      st = pulled.status();
      if (st.ok()) rows = std::move(*pulled);
    }
    {
      std::lock_guard<std::mutex> lock(cache->mu_);
      auto it = cache->tracked_.find(meta.id);
      if (it != cache->tracked_.end()) {
        if (st.ok()) {
          const uint32_t cols = meta.num_cols;
          for (size_t i = 0; i < hot.size(); ++i) {
            auto [row, inserted] = it->second.values.try_emplace(hot[i]);
            row->second.assign(rows.begin() + i * cols,
                               rows.begin() + (i + 1) * cols);
          }
        }
        it->second.serving = true;  // cold-path serving resumes either way
      }
    }
    PSG_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

}  // namespace psgraph::ps
