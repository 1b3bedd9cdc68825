// PsServer: one parameter-server shard (paper §III-A).
//
// Stores row partitions of matrices/vectors and neighbor-table partitions,
// exposes pull/push/add operators plus user-defined server-side functions
// (psFunc), periodically checkpoints its partitions to HDFS, and restores
// them after a restart. One PsServer maps to one simulated cluster node;
// its allocations are charged against that node's memory budget.

#ifndef PSGRAPH_PS_SERVER_H_
#define PSGRAPH_PS_SERVER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/flat_hash.h"
#include "common/result.h"
#include "common/status.h"
#include "net/ps_wire.h"
#include "net/rpc.h"
#include "ps/matrix_meta.h"
#include "ps/row_store.h"
#include "sim/cluster.h"
#include "storage/hdfs.h"

namespace psgraph::ps {

/// Adjacency entry of a neighbor-table matrix.
struct NeighborEntry {
  std::vector<uint64_t> neighbors;
  std::vector<float> weights;  ///< empty when unweighted
};

/// Read-only CSR image of a neighbor shard (paper §III-A lists CSR among
/// the PS data structures): after the load phase a shard can be frozen,
/// dropping the per-entry hash-map overhead.
struct CsrStore {
  std::vector<uint64_t> keys;      ///< sorted vertex ids
  std::vector<uint64_t> offsets;   ///< size keys.size() + 1
  std::vector<uint64_t> neighbors;
  std::vector<float> weights;      ///< empty when unweighted

  uint64_t ByteSize() const {
    return keys.size() * 8 + offsets.size() * 8 + neighbors.size() * 8 +
           weights.size() * 4;
  }
};

/// Server-local state of one matrix.
struct MatrixShard {
  MatrixMeta meta;
  /// Width of rows actually stored here: full row for row-partitioned
  /// matrices, the column slice for column-partitioned ones.
  uint32_t slice_cols = 0;
  uint32_t col_begin = 0;  ///< first column of the slice
  /// slice_cols-wide rows in one flat array over the server's key window
  /// (ps/row_store.h), iterated in ascending key order. Rows move when
  /// the array grows — never hold a row pointer across a write to the
  /// same shard.
  RowStore rows;
  /// Open-addressing adjacency store (common/flat_hash.h); entries
  /// relocate on rehash.
  FlatHashMap<NeighborEntry> neighbors;
  /// Present after FreezeNeighbors(); served in preference to the map.
  std::optional<CsrStore> csr;
  uint64_t charged_bytes = 0;  ///< what this shard holds per the accountant

  /// Returns the stored row's slice_cols floats, or nullptr if never
  /// pushed.
  float* FindRow(uint64_t key) { return rows.Find(key); }
  const float* FindRow(uint64_t key) const { return rows.Find(key); }
};

class PsServer;

/// A user-defined server-side function. Receives the server (so it can
/// touch several matrices, e.g. "add deltas into ranks then reset") and
/// the argument payload; returns a response payload that the agent merges
/// across servers.
using PsFunc =
    std::function<Result<ByteBuffer>(PsServer&, ByteReader&)>;

/// Process-wide psFunc registry. Register in static initializers or setup
/// code; lookups are by name.
class PsFuncRegistry {
 public:
  static PsFuncRegistry& Global();
  void Register(const std::string& name, PsFunc fn);
  Result<PsFunc> Find(const std::string& name) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, PsFunc> funcs_;
};

/// Registers the built-in psFuncs (pagerank advance, init fills, row
/// count, sum of squares, partial dot, LINE update, Adam, AdaGrad).
/// Idempotent; called by PsContext.
void RegisterBuiltinPsFuncs();

class PsServer {
 public:
  /// `hdfs` may be null for a server that never checkpoints.
  PsServer(int32_t server_index, int32_t num_servers,
           sim::SimCluster* cluster, storage::Hdfs* hdfs);

  /// Batched row writes for server-side functions. A psFunc that writes
  /// rows one at a time opens a batch and calls Add/Assign per row: each
  /// applies exactly like a one-key PushAdd/PushAssign — same compute
  /// ticks, memory charged at the same point (so MemoryLimitExceeded
  /// stops at the same row, after charging that row's compute), same
  /// float order — but the clock advance, the ps.rows_pushed counter
  /// and the per-row ps.push.service_ticks samples are recorded once,
  /// when the batch is destroyed. A batch
  /// lives inside one psFunc call, under the endpoint's serial lock, so
  /// nothing else moves this shard's clock between its rows.
  class RowBatch {
   public:
    explicit RowBatch(PsServer* server) : server_(server) {}
    ~RowBatch();
    RowBatch(const RowBatch&) = delete;
    RowBatch& operator=(const RowBatch&) = delete;

    /// One-key PushAdd(id, {key}, row).
    Status Add(MatrixId id, uint64_t key, std::span<const float> row) {
      return Write(id, key, row, /*add=*/true);
    }
    /// One-key PushAssign(id, {key}, row).
    Status Assign(MatrixId id, uint64_t key, std::span<const float> row) {
      return Write(id, key, row, /*add=*/false);
    }

   private:
    Status Write(MatrixId id, uint64_t key, std::span<const float> row,
                 bool add);

    PsServer* server_;
    MatrixId cached_id_ = -1;  ///< last resolved matrix (shards are stable)
    MatrixShard* cached_shard_ = nullptr;
    /// Compute ticks of one row of width row_ticks_cols_, computed once
    /// per width.
    size_t row_ticks_cols_ = ~size_t{0};
    int64_t row_ticks_ = 0;
    int64_t ticks_ = 0;                 ///< deferred compute charge
    uint64_t rows_ = 0;                 ///< rows applied
    /// ps.push.service_ticks samples, run-length encoded (value, count).
    std::vector<std::pair<uint64_t, uint64_t>> service_runs_;
  };

  int32_t server_index() const { return server_index_; }
  int32_t num_servers() const { return num_servers_; }
  sim::NodeId node() const { return node_; }

  /// Binds all "ps.*" RPC handlers for this server on `endpoint`.
  void RegisterHandlers(net::RpcEndpoint* endpoint);

  // --- direct (in-process) API; the RPC handlers decode into these ---

  Status InitMatrix(const MatrixMeta& meta);
  Status DropMatrix(MatrixId id);

  /// Pulls `keys` rows; appends slice_cols floats per key to `out`
  /// (init_value-filled for rows never pushed).
  Status PullRows(MatrixId id, std::span<const uint64_t> keys,
                  std::vector<float>* out);

  /// values holds keys.size() * slice_cols floats.
  Status PushAdd(MatrixId id, std::span<const uint64_t> keys,
                 std::span<const float> values);
  Status PushAssign(MatrixId id, std::span<const uint64_t> keys,
                    std::span<const float> values);

  /// Applies one executor's accumulated replica deltas ("ps.merge",
  /// ps/replication.h). Same add semantics as PushAdd — kept as its own
  /// method so merge traffic is separately traced/metered and does not
  /// count as pushed rows (merges are management traffic, not workload
  /// access).
  Status MergeRows(MatrixId id, std::span<const uint64_t> keys,
                   std::span<const float> deltas);

  Status PushNeighbors(MatrixId id, std::span<const uint64_t> keys,
                       std::span<const NeighborEntry> entries);

  /// Applies one epoch's edge deltas to a neighbor shard: INSERT appends
  /// `insert_dst[i]` to `insert_src[i]`'s adjacency (weight appended iff
  /// `insert_weights` is non-empty — it must then match insert_src's
  /// size); DELETE removes `delete_dst[i]` from `delete_src[i]`'s list.
  /// Fails loudly — naming the edge — on a duplicate INSERT, a DELETE of
  /// an edge or source vertex that does not exist, or a frozen (CSR)
  /// shard. All or nothing: the ops apply in order to copies of the
  /// lists they touch, and the copies replace the stored lists only
  /// once every op has succeeded and the batch's insert bytes are
  /// charged, in one allocation. A failed batch leaves the adjacency,
  /// the shard's charges and the server clock unchanged.
  Status MutateNeighbors(MatrixId id,
                         std::span<const uint64_t> insert_src,
                         std::span<const uint64_t> insert_dst,
                         std::span<const float> insert_weights,
                         std::span<const uint64_t> delete_src,
                         std::span<const uint64_t> delete_dst);

  /// Converts a neighbor shard's hash map into a compact read-only CSR
  /// image and releases the map (further pushes are rejected). Reduces
  /// resident memory by the per-entry overhead; pulls are unchanged.
  Status FreezeNeighbors(MatrixId id);
  /// Serves "ps.pull_nbrs": appends each key's adjacency to `out` as
  /// [delta list of neighbors][float block of weights] (both empty for
  /// an unknown vertex; weights empty when unweighted), encoded straight
  /// from the hash map or the frozen CSR image into one exactly sized
  /// region.
  Status PullNeighbors(MatrixId id, std::span<const uint64_t> keys,
                       ByteBuffer* out);

  Result<ByteBuffer> CallFunc(const std::string& name,
                              std::span<const uint8_t> args);

  /// Writes every shard to `<prefix>/server_<index>` on HDFS; rows go
  /// out in ascending key order.
  Status Checkpoint(const std::string& prefix);
  /// Replaces all state from a checkpoint written by Checkpoint(). The
  /// whole file is parsed and validated first: a row whose width is not
  /// the shard's slice, a repeated row or neighbor key, or a CSR image
  /// whose offsets, keys or weights could not be indexed fails with a
  /// Status naming the byte offset, and leaves the server, its charges
  /// included, as it was.
  Status Restore(const std::string& prefix);

  /// Serializes this server's partition of matrix `id` for snapshot
  /// export (serving/snapshot.h): column-slice bounds, rows in ascending
  /// key order, then adjacency entries sorted by key (read from the
  /// frozen CSR when present). Sorting makes the bytes a function of
  /// shard *state*, not hash-map iteration order. Charged as a full scan
  /// of the shard.
  Status ExportMatrix(MatrixId id, ByteBuffer* out);

  /// Accessor for psFuncs.
  Result<MatrixShard*> GetShard(MatrixId id);

  /// Total bytes this server accounts for (diagnostics).
  uint64_t charged_bytes() const;

 private:
  /// An empty shard of `meta`, sized to this server's key window or
  /// column slice.
  MatrixShard NewShard(const MatrixMeta& meta) const;
  Status AlreadyHeld(MatrixId id) const;
  Status ChargeMemory(uint64_t bytes, const char* what);
  void ReleaseMemory(uint64_t bytes);
  void ChargeCompute(uint64_t ops);
  /// The row-apply loop shared by PushAdd, PushAssign, MergeRows and
  /// RowBatch. All or nothing: the batch's new rows are charged in one
  /// call before any row is materialized, so a batch that does not fit
  /// leaves the shard and its charges as they were. Then one offset
  /// lookup per key and accumulate (`add`) or copy over the contiguous
  /// value slab. Charges no compute; callers charge it first.
  Status ApplyRows(MatrixShard* shard, std::span<const uint64_t> keys,
                   std::span<const float> values, bool add);
  static uint64_t EntryBytes(const NeighborEntry& e);

  /// Observability sinks: the cluster's registries.
  Metrics& metrics() const { return cluster_->metrics(); }
  Tracer& tracer() const { return cluster_->tracer(); }
  /// Shard-clock reading for span stamps and service-time brackets.
  int64_t NowTicks() const { return cluster_->clock().NowTicks(node_); }

  int32_t server_index_;
  int32_t num_servers_;
  sim::SimCluster* cluster_;
  sim::NodeId node_;
  storage::Hdfs* hdfs_;
  std::map<MatrixId, MatrixShard> shards_;
  uint64_t total_charged_ = 0;
  /// Decode scratch for the RPC handlers (server_rpc.cc), one per
  /// request shape that carries lists: each request is decoded over the
  /// last one, keeping the vectors' capacity. Valid under the endpoint's
  /// serial mutex.
  net::KeysRequest keys_request_;
  net::RowsRequest rows_request_;
  net::NeighborsRequest<NeighborEntry> nbrs_request_;
  net::MutateRequest mutate_request_;
  /// Reusable pull response staging (capacity persists across requests).
  std::vector<float> pull_scratch_;
  /// ApplyRows' new keys of one batch, under the same mutex.
  std::vector<uint64_t> new_keys_;
};

/// Computes the column slice [begin, end) server `s` of `n` owns for a
/// column-partitioned matrix with `cols` columns (contiguous range split).
std::pair<uint32_t, uint32_t> ColumnSliceOf(uint32_t cols, int32_t s,
                                            int32_t n);

/// Serialization of MatrixMeta (wire + checkpoint format).
void SerializeMeta(ByteBuffer& buf, const MatrixMeta& meta);
Status DeserializeMeta(ByteReader& reader, MatrixMeta* meta);

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_SERVER_H_
