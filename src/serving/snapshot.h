// Versioned model snapshots: the bridge from training to serving.
//
// The paper checkpoints PS partitions to HDFS (§III-B); serving needs a
// stronger artifact — an immutable, self-contained image of the trained
// matrices laid out by *serving* shard, not by PS server. A publisher
// run: (1) pulls every PS server's partition of the requested matrices
// over "ps.export" RPCs, (2) re-partitions rows and adjacency across the
// configured number of serving shards (hash placement, same
// ps::Partitioner the router uses), (3) writes one checksummed blob per
// shard plus a JSON manifest under <root>/v<N>/, and (4) commits the
// version by renaming a CURRENT pointer file — readers either see the
// old complete version or the new complete version, never a torn one.
//
// Feature rows referenced by a shard's adjacency but owned by another
// shard ("halo" rows, the ghost vertices of distributed GNN systems) are
// copied into the shard blob so a GraphSage forward pass never leaves
// the shard. Matrices marked replicated (small dense weights) go into
// every blob in full.

#ifndef PSGRAPH_SERVING_SNAPSHOT_H_
#define PSGRAPH_SERVING_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/flat_hash.h"
#include "common/quant.h"
#include "common/result.h"
#include "common/status.h"
#include "ps/context.h"
#include "storage/hdfs.h"

namespace psgraph::serving {

/// One matrix as recorded in a snapshot manifest.
struct SnapshotMatrixInfo {
  std::string name;
  ps::StorageKind kind = ps::StorageKind::kRows;
  uint64_t num_rows = 0;
  uint32_t num_cols = 1;
  float init_value = 0.0f;
  bool replicated = false;
  /// Max-abs round-trip error introduced by blob quantization across
  /// every emitted copy of this matrix's rows (0 when stored as fp32).
  double quant_max_abs_error = 0.0;

  uint64_t RowBytes() const { return uint64_t{num_cols} * sizeof(float); }
};

/// One shard blob as recorded in a snapshot manifest.
struct SnapshotShardInfo {
  std::string path;
  uint64_t bytes = 0;
  uint64_t checksum = 0;  ///< FNV-1a over the blob bytes
};

struct SnapshotManifest {
  int64_t version = 0;
  int32_t num_shards = 0;
  uint64_t key_space = 0;  ///< router/placement key space
  int64_t created_ticks = 0;
  /// Row codec of the sharded (non-replicated) matrices' blobs.
  QuantMode quant = QuantMode::kNone;
  /// What the same payload would have cost in the uncompressed v1 layout
  /// (8-byte keys, fp32 rows, 8-byte neighbor ids) — the denominator of
  /// the published compression ratio.
  uint64_t raw_bytes = 0;
  std::vector<SnapshotMatrixInfo> matrices;
  std::vector<SnapshotShardInfo> shards;
};

/// Path layout helpers (shared by publisher, loader and tests).
std::string SnapshotVersionDir(const std::string& root, int64_t version);
std::string SnapshotManifestPath(const std::string& root, int64_t version);
std::string SnapshotBlobPath(const std::string& root, int64_t version,
                             int32_t shard);
std::string SnapshotCurrentPath(const std::string& root);

/// What to export.
struct SnapshotMatrixSpec {
  std::string name;
  /// Replicated matrices are copied whole into every shard blob (dense
  /// layer weights); sharded ones are split by row key.
  bool replicated = false;
};

struct SnapshotOptions {
  std::string root;        ///< HDFS prefix, e.g. "serving/line"
  int32_t num_shards = 1;  ///< serving shards (not PS servers)
  /// Key space for shard placement; 0 derives max num_rows over the
  /// sharded matrices.
  uint64_t key_space = 0;
  /// Keep the newest N versions on retention sweeps; 0 keeps everything.
  /// The CURRENT version is never deleted.
  int32_t keep_versions = 0;
  /// Row codec for sharded matrices: "none" | "fp16" | "int8"; empty
  /// means "none". Replicated matrices always stay fp32. Unknown values
  /// fail Publish.
  std::string quant;
  std::vector<SnapshotMatrixSpec> matrices;
};

class SnapshotPublisher {
 public:
  /// Runs on the driver node of `ps`'s cluster.
  SnapshotPublisher(ps::PsContext* ps, SnapshotOptions options);

  /// Exports, writes and commits the next version (CURRENT + 1, or 1),
  /// then applies retention. Returns the committed manifest.
  Result<SnapshotManifest> Publish();

  /// Version the CURRENT pointer names; NotFound before first publish.
  Result<int64_t> CurrentVersion() const;

  /// Deletes versions beyond the newest keep_versions (never CURRENT's).
  /// Manifest goes first so a half-deleted version is never loadable.
  Status ApplyRetention();

 private:
  ps::PsContext* ps_;
  SnapshotOptions options_;
};

// --- loader side ---

/// In-memory image of one matrix inside one shard blob. Rows and
/// adjacency live in open-addressing tables (common/flat_hash.h): lookup
/// is the serving hot path and these maps are read-only once loaded.
struct LoadedMatrix {
  SnapshotMatrixInfo info;
  FlatHashMap<std::vector<float>> rows;
  FlatHashMap<std::vector<uint64_t>> adjacency;
};

/// In-memory image of one shard blob.
struct LoadedShard {
  int64_t version = 0;
  int32_t shard_index = 0;
  uint64_t blob_bytes = 0;
  std::map<std::string, LoadedMatrix> matrices;

  const LoadedMatrix* Find(const std::string& name) const {
    auto it = matrices.find(name);
    return it == matrices.end() ? nullptr : &it->second;
  }
};

/// Reads <root>/CURRENT; NotFound before first publish.
Result<int64_t> ReadCurrentVersion(storage::Hdfs* hdfs,
                                   const std::string& root,
                                   sim::NodeId node);

/// Reads and parses <root>/v<version>/MANIFEST.json.
Result<SnapshotManifest> ReadManifest(storage::Hdfs* hdfs,
                                      const std::string& root,
                                      int64_t version, sim::NodeId node);

/// Reads shard `shard`'s blob, verifies its checksum against the
/// manifest (failure names the shard and path), and decodes it.
Result<LoadedShard> LoadShardBlob(storage::Hdfs* hdfs,
                                  const std::string& root,
                                  const SnapshotManifest& manifest,
                                  int32_t shard, sim::NodeId node);

}  // namespace psgraph::serving

#endif  // PSGRAPH_SERVING_SNAPSHOT_H_
