#include "serving/shard.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "common/varint.h"
#include "common/wire.h"
#include "minitorch/ops.h"

namespace psgraph::serving {

namespace {

/// Composite LRU key: matrices per snapshot are few, row keys are
/// vertex ids well below 2^56.
uint64_t CacheKey(uint32_t matrix_ordinal, uint64_t key) {
  return (uint64_t{matrix_ordinal} << 56) | (key & ((uint64_t{1} << 56) - 1));
}

}  // namespace

ServingShard::ServingShard(int32_t shard_index, sim::SimCluster* cluster,
                           storage::Hdfs* hdfs, sim::NodeId node,
                           ShardOptions options)
    : shard_index_(shard_index),
      cluster_(cluster),
      hdfs_(hdfs),
      node_(node),
      options_(std::move(options)),
      hit_rate_gauge_name_("serving.shard" + std::to_string(shard_index) +
                           ".cache_hit_rate") {
  if (options_.feature_matrix.empty()) {
    options_.feature_matrix = options_.lookup_matrix;
  }
  if (options_.cache_rows == 0) options_.cache_rows = 1;
}

ServingShard::~ServingShard() {
  if (active_ != nullptr) {
    cluster_->memory().Release(node_, active_->image.blob_bytes);
  }
  if (standby_ != nullptr) {
    cluster_->memory().Release(node_, standby_->image.blob_bytes);
  }
}

Status ServingShard::Start(net::RpcFabric* fabric) {
  endpoint_ = std::make_shared<net::RpcEndpoint>();
  endpoint_->Register(
      "serve.load",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        int64_t version = 0;
        PSG_RETURN_NOT_OK(reader.Read(&version));
        PSG_RETURN_NOT_OK(Preload(version));
        return ByteBuffer();
      });
  endpoint_->Register(
      "serve.activate",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        int64_t version = 0;
        PSG_RETURN_NOT_OK(reader.Read(&version));
        PSG_RETURN_NOT_OK(Activate(version));
        return ByteBuffer();
      });
  endpoint_->Register(
      "serve.lookup",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        request_keys_.clear();
        PSG_RETURN_NOT_OK(GetDeltaList(&reader, &request_keys_));
        int64_t version = -1;
        std::vector<float> values;
        PSG_RETURN_NOT_OK(Lookup(request_keys_, &version, &values));
        ByteBuffer resp;
        resp.Write<int64_t>(version);
        WriteFloatBlock(&resp, values);
        return resp;
      });
  endpoint_->Register(
      "serve.infer",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        request_keys_.clear();
        PSG_RETURN_NOT_OK(GetDeltaList(&reader, &request_keys_));
        int64_t version = -1;
        std::vector<float> values;
        PSG_RETURN_NOT_OK(Infer(request_keys_, &version, &values));
        ByteBuffer resp;
        resp.Write<int64_t>(version);
        WriteFloatBlock(&resp, values);
        return resp;
      });
  endpoint_->Register(
      "serve.version",
      [this](const std::vector<uint8_t>&) -> Result<ByteBuffer> {
        ByteBuffer resp;
        resp.Write<int64_t>(active_version());
        return resp;
      });
  fabric->Bind(node_, endpoint_);
  return Status::OK();
}

Status ServingShard::Preload(int64_t version) {
  auto state = std::make_shared<VersionState>();
  PSG_ASSIGN_OR_RETURN(state->manifest,
                       ReadManifest(hdfs_, options_.root, version, node_));
  PSG_ASSIGN_OR_RETURN(
      state->image, LoadShardBlob(hdfs_, options_.root, state->manifest,
                                  shard_index_, node_));
  if (!options_.weight_matrix.empty()) {
    const LoadedMatrix* w = state->image.Find(options_.weight_matrix);
    if (w == nullptr) {
      return Status::NotFound("serving: snapshot v" +
                              std::to_string(version) +
                              " has no weight matrix '" +
                              options_.weight_matrix + "'");
    }
    const int64_t rows = static_cast<int64_t>(w->info.num_rows);
    const int64_t cols = static_cast<int64_t>(w->info.num_cols);
    std::vector<float> data(static_cast<size_t>(rows * cols),
                            w->info.init_value);
    for (const auto& [key, row] : w->rows) {
      if (key >= w->info.num_rows) continue;
      std::copy(row.begin(), row.end(),
                data.begin() + static_cast<int64_t>(key) * cols);
    }
    state->w1 = minitorch::Tensor::FromData(rows, cols, std::move(data));
  }
  if (standby_ != nullptr) {
    cluster_->memory().Release(node_, standby_->image.blob_bytes);
  }
  PSG_RETURN_NOT_OK(cluster_->memory().Allocate(
      node_, state->image.blob_bytes, "serving snapshot"));
  standby_ = std::move(state);
  return Status::OK();
}

Status ServingShard::Activate(int64_t version) {
  std::shared_ptr<VersionState> incoming;
  if (standby_ != nullptr && standby_->image.version == version) {
    incoming = std::move(standby_);
    standby_ = nullptr;
  } else if (active_ != nullptr && active_->image.version == version) {
    return Status::OK();  // already serving it
  } else {
    return Status::FailedPrecondition(
        "serving: shard " + std::to_string(shard_index_) +
        " asked to activate v" + std::to_string(version) +
        " which was never preloaded");
  }
  if (active_ != nullptr) {
    cluster_->memory().Release(node_, active_->image.blob_bytes);
  }
  active_ = std::move(incoming);
  // The cache indexed rows of the retired version.
  ResetCache();
  return Status::OK();
}

const std::vector<float>* ServingShard::CachedRow(
    const VersionState& state, const std::string& matrix,
    uint32_t matrix_ordinal, uint64_t key, uint64_t row_bytes) {
  const LoadedMatrix* m = state.image.Find(matrix);
  const std::vector<float>* row = nullptr;
  if (m != nullptr) {
    auto it = m->rows.find(key);
    if (it != m->rows.end()) row = &it->second;
  }
  // Every touch is a probe; the watchdog's burn-rate rule divides the
  // windowed miss delta by this windowed total.
  metrics().Add("serving.cache_probes", 1);
  const uint64_t ck = CacheKey(matrix_ordinal, key);
  auto res = resident_.find(ck);
  if (res != resident_.end()) {
    // Memory hit: one hash probe's worth of work.
    lru_.splice(lru_.begin(), lru_, res->second);
    ++cache_hits_;
    metrics().Add("serving.cache_hits", 1);
    Charge(cluster_->cost().ComputeTime(1));
    return row;
  }
  ++cache_misses_;
  metrics().Add("serving.cache_misses", 1);
  // Cold row: fetched from the shard's local snapshot copy.
  Charge(cluster_->cost().DiskReadTime(row == nullptr ? 0 : row_bytes));
  if (row != nullptr) {
    lru_.push_front(ck);
    resident_.emplace(ck, lru_.begin());
    if (lru_.size() > options_.cache_rows) {
      resident_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  return row;
}

void ServingShard::ResetCache() {
  lru_.clear();
  resident_.clear();
}

Status ServingShard::Lookup(std::span<const uint64_t> keys,
                            int64_t* version, std::vector<float>* out) {
  if (active_ == nullptr) {
    return Status::FailedPrecondition(
        "serving: shard " + std::to_string(shard_index_) +
        " has no active snapshot");
  }
  const VersionState& state = *active_;
  const LoadedMatrix* m = state.image.Find(options_.lookup_matrix);
  if (m == nullptr) {
    return Status::NotFound("serving: snapshot has no matrix '" +
                            options_.lookup_matrix + "'");
  }
  *version = state.image.version;
  const uint32_t cols = m->info.num_cols;
  out->reserve(out->size() + keys.size() * cols);
  for (uint64_t key : keys) {
    const std::vector<float>* row = CachedRow(
        state, options_.lookup_matrix, 0, key, m->info.RowBytes());
    if (row != nullptr) {
      out->insert(out->end(), row->begin(), row->end());
    } else {
      out->insert(out->end(), cols, m->info.init_value);
    }
  }
  UpdateHitRateGauge();
  return Status::OK();
}

Status ServingShard::Infer(std::span<const uint64_t> nodes,
                           int64_t* version, std::vector<float>* out) {
  if (active_ == nullptr) {
    return Status::FailedPrecondition(
        "serving: shard " + std::to_string(shard_index_) +
        " has no active snapshot");
  }
  if (options_.adjacency_matrix.empty() ||
      options_.weight_matrix.empty()) {
    return Status::FailedPrecondition(
        "serving: shard not configured for inference (adjacency/weight "
        "matrix unset)");
  }
  const VersionState& state = *active_;
  const LoadedMatrix* feats = state.image.Find(options_.feature_matrix);
  const LoadedMatrix* adj = state.image.Find(options_.adjacency_matrix);
  if (feats == nullptr || adj == nullptr) {
    return Status::NotFound("serving: snapshot missing feature or "
                            "adjacency matrix");
  }
  *version = state.image.version;
  const int64_t d = feats->info.num_cols;
  const uint64_t row_bytes = feats->info.RowBytes();

  // Gather node features and their neighbor lists; neighbor features are
  // deduplicated into one tensor indexed by segments.
  const int64_t n = static_cast<int64_t>(nodes.size());
  std::vector<float> x_data;
  x_data.reserve(static_cast<size_t>(n * d));
  auto segments = std::make_shared<minitorch::Segments>();
  segments->offsets.reserve(nodes.size() + 1);
  std::vector<uint64_t> nbr_ids;
  FlatHashMap<int64_t> nbr_index;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const uint64_t key = nodes[i];
    const std::vector<float>* row =
        CachedRow(state, options_.feature_matrix, 1, key, row_bytes);
    if (row != nullptr) {
      x_data.insert(x_data.end(), row->begin(), row->end());
    } else {
      x_data.insert(x_data.end(), static_cast<size_t>(d),
                    feats->info.init_value);
    }
    auto adj_it = adj->adjacency.find(key);
    if (adj_it != adj->adjacency.end()) {
      for (uint64_t nb : adj_it->second) {
        auto [it, inserted] =
            nbr_index.emplace(nb, static_cast<int64_t>(nbr_ids.size()));
        if (inserted) nbr_ids.push_back(nb);
        segments->indices.push_back(it->second);
      }
    }
    segments->EndSegment();
  }
  std::vector<float> nbr_data;
  nbr_data.reserve(nbr_ids.size() * static_cast<size_t>(d));
  for (uint64_t nb : nbr_ids) {
    const std::vector<float>* row =
        CachedRow(state, options_.feature_matrix, 1, nb, row_bytes);
    if (row != nullptr) {
      nbr_data.insert(nbr_data.end(), row->begin(), row->end());
    } else {
      nbr_data.insert(nbr_data.end(), static_cast<size_t>(d),
                      feats->info.init_value);
    }
  }

  using minitorch::Tensor;
  Tensor x = Tensor::FromData(n, d, std::move(x_data));
  Tensor nbrs =
      nbr_ids.empty()
          ? Tensor::Zeros(1, d)  // SegmentMean needs a non-empty source
          : Tensor::FromData(static_cast<int64_t>(nbr_ids.size()), d,
                             std::move(nbr_data));
  Tensor agg = minitorch::SegmentMean(nbrs, std::move(segments));
  Tensor h = minitorch::Relu(
      minitorch::Matmul(minitorch::ConcatCols(x, agg), state.w1));
  Tensor result = minitorch::RowL2Normalize(h);
  // Dense cost: the matmul dominates — [n x 2d] * [2d x out].
  const uint64_t flops = 2ull * static_cast<uint64_t>(n) *
                         static_cast<uint64_t>(2 * d) *
                         static_cast<uint64_t>(state.w1.cols());
  Charge(cluster_->cost().FlopsTime(flops));
  out->insert(out->end(), result.data().begin(), result.data().end());
  metrics().Add("serving.infer_nodes", nodes.size());
  UpdateHitRateGauge();
  return Status::OK();
}

void ServingShard::UpdateHitRateGauge() {
  const uint64_t probes = cache_hits_ + cache_misses_;
  if (probes == 0) return;
  metrics().SetGauge(hit_rate_gauge_name_,
                     static_cast<double>(cache_hits_) /
                         static_cast<double>(probes));
}

}  // namespace psgraph::serving
