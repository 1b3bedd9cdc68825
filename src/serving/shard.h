// One serving shard: a sim-node process that answers embedding lookups
// and GraphSage forward passes from a loaded snapshot version.
//
// Versioning: a shard holds an *active* version (serving traffic) and
// an optional *standby* version (preloaded by "serve.load" while the
// active one keeps serving). "serve.activate" flips standby to active
// under the shard's event loop — in-flight requests either ran entirely
// before or entirely after the flip, so no response mixes versions.
// Every response is stamped with the version it was served from; the
// router uses the stamp to prove the swap was not torn.
//
// Row cache: the loaded snapshot image lives on the shard's local disk
// (in the cost model's eyes); an LRU row cache of `cache_rows` rows
// decides which reads are memory hits (cheap compute charge) versus
// disk reads (seek + transfer charge). Cache state only changes under
// the endpoint's serial mutex, so hit sequences are deterministic at
// any thread-pool parallelism.

#ifndef PSGRAPH_SERVING_SHARD_H_
#define PSGRAPH_SERVING_SHARD_H_

#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/result.h"
#include "common/status.h"
#include "minitorch/tensor.h"
#include "net/rpc.h"
#include "serving/snapshot.h"
#include "sim/cluster.h"
#include "storage/hdfs.h"

namespace psgraph::serving {

struct ShardOptions {
  std::string root;             ///< snapshot root on HDFS
  std::string lookup_matrix;    ///< embeddings served by Lookup
  std::string feature_matrix;   ///< Infer input rows; empty = lookup_matrix
  std::string adjacency_matrix; ///< neighbor table; empty disables Infer
  std::string weight_matrix;    ///< replicated dense layer [2d x out]
  uint64_t cache_rows = 4096;   ///< LRU capacity in rows
};

class ServingShard {
 public:
  ServingShard(int32_t shard_index, sim::SimCluster* cluster,
               storage::Hdfs* hdfs, sim::NodeId node, ShardOptions options);
  ~ServingShard();

  /// Creates this shard's endpoint, registers the "serve.*" handlers and
  /// binds it on `fabric` (replacing whatever training-side endpoint the
  /// node had — the serving tier takes the node over after training).
  Status Start(net::RpcFabric* fabric);

  int32_t shard_index() const { return shard_index_; }
  sim::NodeId node() const { return node_; }
  int64_t active_version() const {
    return active_ == nullptr ? -1 : active_->image.version;
  }

  // --- direct API; the RPC handlers decode into these ---

  /// Reads the version's manifest and this shard's blob into standby.
  /// The active version keeps serving throughout.
  Status Preload(int64_t version);
  /// Flips the preloaded standby to active; the retiring version's
  /// memory is released and the row cache reset (its rows belonged to
  /// the old version). Fails if `version` was not preloaded.
  Status Activate(int64_t version);

  /// Appends `keys.size() * cols` floats to `out` (init rows for keys
  /// the snapshot never saw) and stamps the serving version.
  Status Lookup(std::span<const uint64_t> keys, int64_t* version,
                std::vector<float>* out);

  /// GraphSage mean-aggregate forward over the snapshotted neighbor
  /// table: h = L2Norm(Relu([x | mean(x_nbrs)] W1)). Appends one output
  /// row per node.
  Status Infer(std::span<const uint64_t> nodes, int64_t* version,
               std::vector<float>* out);

  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }

 private:
  struct VersionState {
    SnapshotManifest manifest;
    LoadedShard image;
    minitorch::Tensor w1;  ///< materialized replicated weights (Infer)
  };

  /// Touches (matrix, key) through the LRU cache, charging a memory hit
  /// or a local-disk read, and returns the stored row (nullptr when the
  /// snapshot has no row for the key — callers emit init values).
  const std::vector<float>* CachedRow(const VersionState& state,
                                      const std::string& matrix,
                                      uint32_t matrix_ordinal,
                                      uint64_t key, uint64_t row_bytes);
  void ResetCache();
  /// Publishes the cumulative hit rate as a per-shard gauge
  /// (`serving.shard<i>.cache_hit_rate`) — one SetGauge per served
  /// batch, name cached in the ctor to keep the hot path allocation-free.
  void UpdateHitRateGauge();

  Metrics& metrics() const { return cluster_->metrics(); }
  int64_t NowTicks() const { return cluster_->clock().NowTicks(node_); }
  void Charge(double seconds) { cluster_->clock().Advance(node_, seconds); }

  int32_t shard_index_;
  sim::SimCluster* cluster_;
  storage::Hdfs* hdfs_;
  sim::NodeId node_;
  ShardOptions options_;
  std::shared_ptr<net::RpcEndpoint> endpoint_;

  std::shared_ptr<VersionState> active_;
  std::shared_ptr<VersionState> standby_;

  /// LRU over (matrix ordinal << 56 | row key); the recency list holds
  /// the composite key, the index maps it to its list position. The
  /// index is a flat table — it sits on every row touch.
  std::list<uint64_t> lru_;
  FlatHashMap<std::list<uint64_t>::iterator> resident_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  const std::string hit_rate_gauge_name_;
  /// Decoded request keys, reused by every request (capacity persists);
  /// only touched under the endpoint's serial mutex.
  std::vector<uint64_t> request_keys_;
};

}  // namespace psgraph::serving

#endif  // PSGRAPH_SERVING_SHARD_H_
