// PsAgent: the per-executor client of the parameter server (paper §III-C
// "PS agent"). Resolves which server owns each key via the PSContext
// partition layout, batches requests per server, issues RPCs, and
// reassembles responses in input order.

#ifndef PSGRAPH_PS_AGENT_H_
#define PSGRAPH_PS_AGENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"
#include "common/trace.h"
#include "graph/types.h"
#include "ps/context.h"

namespace psgraph::ps {

class ReplicaCache;

/// One streamed edge delta (the GraphStreamingCC INSERT/DELETE shape):
/// INSERT appends `dst` to `src`'s adjacency list, DELETE removes it.
struct EdgeMutation {
  uint64_t src = 0;
  uint64_t dst = 0;
  float weight = 1.0f;  ///< used only on weighted tables
  bool insert = true;
};

/// Adjacency of a pulled key batch, flat: every key's neighbor ids and
/// weights sit in two arrays in the order the server responses were
/// decoded, and one range per requested key (request order) points into
/// them, so nothing is scattered or copied twice. An unknown key gets
/// empty spans; its weights are empty when the table is unweighted.
class NeighborBlock {
 public:
  explicit NeighborBlock(size_t num_keys = 0) : ranges_(num_keys) {}

  size_t size() const { return ranges_.size(); }
  std::span<const uint64_t> neighbors(size_t i) const {
    const Range& r = ranges_[i];
    return {ids_.data() + r.ids_begin, r.ids_end - r.ids_begin};
  }
  std::span<const float> weights(size_t i) const {
    const Range& r = ranges_[i];
    return {weights_.data() + r.weights_begin,
            r.weights_end - r.weights_begin};
  }

  /// Decodes one server's "ps.pull_nbrs" response, which holds the lists
  /// of the keys at positions `key_index` of this block, in that order.
  /// Fails loud — naming the byte offset — on a truncated or corrupt
  /// response and on bytes left over after its last key.
  Status DecodeResponse(const std::vector<uint8_t>& response,
                        std::span<const uint32_t> key_index);

  /// Appends `other`'s keys after this block's (chunked pulls).
  void Append(const NeighborBlock& other);

 private:
  struct Range {
    size_t ids_begin = 0, ids_end = 0;
    size_t weights_begin = 0, weights_end = 0;
  };
  std::vector<uint64_t> ids_;
  std::vector<float> weights_;
  std::vector<Range> ranges_;
};

class PsAgent {
 public:
  /// `executor_node` is the sim node the agent runs on (RPC cost is
  /// charged between it and the servers).
  PsAgent(PsContext* context, sim::NodeId executor_node)
      : ctx_(context), node_(executor_node) {}

  sim::NodeId node() const { return node_; }

  /// Installs this executor's hot-key replica cache (owned by the
  /// ReplicationManager; nullptr detaches). When set, pulls/pushes of a
  /// tracked matrix consult it first and only cold keys cross the wire.
  void set_replica_cache(ReplicaCache* cache) { replicas_ = cache; }
  ReplicaCache* replica_cache() const { return replicas_; }

  /// Pulls rows of a row-partitioned matrix; the result holds
  /// keys.size() * num_cols floats in key order (init values for rows
  /// never pushed).
  Result<std::vector<float>> PullRows(const MatrixMeta& meta,
                                      const std::vector<uint64_t>& keys);

  /// values must hold keys.size() * num_cols floats (full rows).
  Status PushAdd(const MatrixMeta& meta, const std::vector<uint64_t>& keys,
                 const std::vector<float>& values);
  Status PushAssign(const MatrixMeta& meta,
                    const std::vector<uint64_t>& keys,
                    const std::vector<float>& values);

  /// Pushes neighbor tables (bulk load after the groupBy step).
  Status PushNeighbors(const MatrixMeta& meta,
                       const std::vector<graph::NeighborList>& tables);

  /// Applies one epoch batch of edge deltas to the neighbor shards via
  /// "ps.mutate". A batch must not carry the same (src, dst) edge twice
  /// (the stream MutationLog dedupes per epoch); the servers apply all
  /// inserts before all deletes in (src, dst) order, so the resulting
  /// adjacency is a function of the batch set, not its arrival order.
  /// Errors (duplicate INSERT, DELETE of a nonexistent edge, frozen
  /// shard) surface loudly from the owning server.
  Status MutateNeighbors(const MatrixMeta& meta,
                         const std::vector<EdgeMutation>& mutations,
                         bool weighted = false);
  /// Pulls adjacency for `keys`: block.neighbors(i) / weights(i) belong
  /// to keys[i] (empty for unknown).
  Result<NeighborBlock> PullNeighbors(const MatrixMeta& meta,
                                      const std::vector<uint64_t>& keys);

  /// Freezes the neighbor shards of `meta` into compact CSR images on
  /// every server (read-only afterwards).
  Status FreezeNeighbors(const MatrixMeta& meta);

  /// Calls a psFunc on one server.
  Result<std::vector<uint8_t>> CallFunc(int32_t server,
                                        const std::string& name,
                                        const ByteBuffer& args);
  /// Calls a psFunc on every server; responses in server order.
  Result<std::vector<std::vector<uint8_t>>> CallFuncAll(
      const std::string& name, const ByteBuffer& args);

  /// Sums the "[double]" responses of a psFunc across servers (e.g.
  /// pagerank.advance, sumsq).
  Result<double> CallFuncSum(const std::string& name,
                             const ByteBuffer& args);

  /// Full dot products a.row(i) . b.row(j) for column-partitioned
  /// matrices: every server computes its partial over its column slice
  /// and the agent merges (paper §IV-D).
  Result<std::vector<double>> DotProducts(
      const MatrixMeta& a, const MatrixMeta& b,
      const std::vector<std::pair<uint64_t, uint64_t>>& pairs);

  /// Sends accumulated replica deltas for keys homed on `server` over
  /// "ps.merge". `keys` must be ascending and owned by that server;
  /// `deltas` holds keys.size() * num_cols floats.
  Status MergeRows(const MatrixMeta& meta, int32_t server,
                   const std::vector<uint64_t>& keys,
                   const std::vector<float>& deltas);

 private:
  /// Observability sinks of the owning context's cluster.
  Metrics& metrics() const { return ctx_->cluster()->metrics(); }
  Tracer& tracer() const { return ctx_->cluster()->tracer(); }
  /// Executor-clock reading bracketing an end-to-end agent operation:
  /// CallParallel advances the caller clock to the slowest call's
  /// completion, so Now - t0 is the simulated round-trip latency.
  int64_t NowTicks() const { return ctx_->cluster()->clock().NowTicks(node_); }

  Result<std::vector<uint8_t>> Call(int32_t server,
                                    const std::string& method,
                                    const ByteBuffer& req);
  Status Push(const MatrixMeta& meta, const std::vector<uint64_t>& keys,
              const std::vector<float>& values, bool add);
  /// Column-partitioned pull: fetches each server's slice and
  /// concatenates them into full rows in key order.
  Result<std::vector<float>> PullRowsColumnPartitioned(
      const MatrixMeta& meta, const std::vector<uint64_t>& keys);
  /// The pre-replication row pull: every key crosses the wire.
  Result<std::vector<float>> PullRowsRemote(
      const MatrixMeta& meta, const std::vector<uint64_t>& keys);
  /// The pre-replication push: every row crosses the wire.
  Status PushRemote(const MatrixMeta& meta,
                    const std::vector<uint64_t>& keys,
                    const std::vector<float>& values, bool add);
  /// Groups keys by owning server: returns per-server (key index, key)
  /// lists so responses can be scattered back.
  std::vector<std::vector<uint32_t>> GroupKeysByServer(
      const MatrixMeta& meta, const std::vector<uint64_t>& keys) const;

  PsContext* ctx_;
  sim::NodeId node_;
  ReplicaCache* replicas_ = nullptr;  ///< not owned; see set_replica_cache
};

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_AGENT_H_
