#include "ps/agent.h"

#include <algorithm>
#include <span>

#include "common/varint.h"
#include "common/wire.h"
#include "net/ps_wire.h"
#include "ps/partitioner.h"
#include "ps/replication.h"

namespace psgraph::ps {

namespace {
using ParallelCall = net::RpcFabric::ParallelCall;

/// Bytes the v1 fixed-width framing would have used for a key batch:
/// [i32 matrix id][u64 count][count * u64 keys].
uint64_t RawKeyFramingBytes(size_t num_keys) {
  return 4 + 8 + 8 * static_cast<uint64_t>(num_keys);
}

/// Bytes the v1 framing would have used for a float vector:
/// [u64 count][count * fp32].
uint64_t RawFloatFramingBytes(size_t num_floats) {
  return 8 + 4 * static_cast<uint64_t>(num_floats);
}
}

Result<std::vector<uint8_t>> PsAgent::Call(int32_t server,
                                           const std::string& method,
                                           const ByteBuffer& req) {
  return ctx_->fabric()->Call(node_, ctx_->ServerNode(server), method, req);
}

std::vector<std::vector<uint32_t>> PsAgent::GroupKeysByServer(
    const MatrixMeta& meta, const std::vector<uint64_t>& keys) const {
  // Sort-and-sweep grouping: one hoisted partitioner (not one per key), a
  // counting pass to pre-size each bucket exactly, then each server's
  // index list is ordered by (key, arrival index). Sorted per-server
  // requests let the server walk its frozen CSR monotonically instead of
  // restarting the binary search per key; the index tie-break keeps
  // duplicate keys in arrival order (the permutation a stable sort by key
  // gives), so the float-add order of push_add is unchanged. Sorting
  // contiguous (key, index) pairs avoids the indirect compare, and a
  // server whose keys already arrive ascending is not sorted at all.
  const int32_t num_servers = ctx_->num_servers();
  Partitioner part(meta.scheme, meta.num_rows, num_servers);
  std::vector<uint32_t> server_of(keys.size());
  std::vector<uint32_t> counts(num_servers, 0);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    uint32_t s = static_cast<uint32_t>(part.PartitionOf(keys[i]));
    server_of[i] = s;
    ++counts[s];
  }
  std::vector<std::vector<uint32_t>> by_server(num_servers);
  for (int32_t s = 0; s < num_servers; ++s) by_server[s].reserve(counts[s]);
  std::vector<uint8_t> ascending(num_servers, 1);
  for (uint32_t i = 0; i < keys.size(); ++i) {
    std::vector<uint32_t>& idxs = by_server[server_of[i]];
    if (!idxs.empty() && keys[idxs.back()] > keys[i]) {
      ascending[server_of[i]] = 0;
    }
    idxs.push_back(i);
  }
  std::vector<std::pair<uint64_t, uint32_t>> order;
  for (int32_t s = 0; s < num_servers; ++s) {
    if (ascending[s]) continue;
    std::vector<uint32_t>& idxs = by_server[s];
    order.clear();
    order.reserve(idxs.size());
    for (uint32_t i : idxs) order.emplace_back(keys[i], i);
    std::sort(order.begin(), order.end());
    for (size_t j = 0; j < idxs.size(); ++j) idxs[j] = order[j].second;
  }
  return by_server;
}

Result<std::vector<float>> PsAgent::PullRows(
    const MatrixMeta& meta, const std::vector<uint64_t>& keys) {
  if (meta.layout == Layout::kColumnPartitioned) {
    return PullRowsColumnPartitioned(meta, keys);
  }
  if (replicas_ == nullptr || !replicas_->Serving(meta.id)) {
    return PullRowsRemote(meta, keys);
  }
  // Skew-aware path: hot keys served from the executor-local replica
  // (plus this executor's own pending deltas), only the cold tail
  // crosses the wire. Output slots are scattered back by original index
  // so the caller sees the exact key-order contract of the remote path.
  replicas_->RecordAccess(meta.id, keys);
  const uint32_t cols = meta.num_cols;
  std::vector<float> out(keys.size() * cols, 0.0f);
  std::vector<uint64_t> cold_keys;
  std::vector<uint32_t> cold_idx;
  for (uint32_t i = 0; i < keys.size(); ++i) {
    if (!replicas_->ServePull(meta.id, keys[i],
                              out.data() + uint64_t{i} * cols)) {
      cold_keys.push_back(keys[i]);
      cold_idx.push_back(i);
    }
  }
  if (cold_keys.empty()) return out;
  PSG_ASSIGN_OR_RETURN(auto cold, PullRowsRemote(meta, cold_keys));
  for (size_t j = 0; j < cold_idx.size(); ++j) {
    std::copy(cold.begin() + j * cols, cold.begin() + (j + 1) * cols,
              out.begin() + uint64_t{cold_idx[j]} * cols);
  }
  return out;
}

Result<std::vector<float>> PsAgent::PullRowsRemote(
    const MatrixMeta& meta, const std::vector<uint64_t>& keys) {
  const uint32_t cols = meta.num_cols;
  std::vector<float> out(keys.size() * cols, 0.0f);
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.pull", node_, t0,
                  [this] { return NowTicks(); });
  auto by_server = GroupKeysByServer(meta, keys);

  std::vector<ParallelCall> calls;
  std::vector<int32_t> call_server;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    if (by_server[s].empty()) continue;
    std::vector<uint64_t> server_keys;
    server_keys.reserve(by_server[s].size());
    for (uint32_t idx : by_server[s]) server_keys.push_back(keys[idx]);
    ByteBuffer req;
    net::EncodeKeysRequest(meta.id, server_keys, &req);
    metrics().Add("wire.pull.req_bytes", req.size());
    metrics().Add("wire.pull.req_raw_bytes",
                  RawKeyFramingBytes(server_keys.size()));
    calls.push_back({ctx_->ServerNode(s), "ps.pull", std::move(req)});
    call_server.push_back(s);
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  metrics().Observe("agent.pull.latency_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  for (size_t c = 0; c < responses.size(); ++c) {
    int32_t s = call_server[c];
    ByteReader reader(responses[c]);
    std::vector<float> values;
    PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &values));
    metrics().Add("wire.pull.resp_bytes", responses[c].size());
    metrics().Add("wire.pull.resp_raw_bytes",
                  RawFloatFramingBytes(values.size()));
    if (values.size() != by_server[s].size() * cols) {
      return Status::Internal("pull: short response from server " +
                              std::to_string(s));
    }
    for (size_t j = 0; j < by_server[s].size(); ++j) {
      std::copy(values.begin() + j * cols, values.begin() + (j + 1) * cols,
                out.begin() + uint64_t{by_server[s][j]} * cols);
    }
  }
  return out;
}

Result<std::vector<float>> PsAgent::PullRowsColumnPartitioned(
    const MatrixMeta& meta, const std::vector<uint64_t>& keys) {
  const uint32_t cols = meta.num_cols;
  std::vector<float> out(keys.size() * cols, 0.0f);
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.pull", node_, t0,
                  [this] { return NowTicks(); });
  ByteBuffer req;
  net::EncodeKeysRequest(meta.id, keys, &req);

  std::vector<ParallelCall> calls;
  std::vector<int32_t> call_server;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    auto [begin, end] = ColumnSliceOf(cols, s, ctx_->num_servers());
    if (begin == end) continue;
    // The full key list is replicated to every slice holder, so each
    // call pays (and each raw-equivalent counts) the whole list.
    metrics().Add("wire.pull.req_bytes", req.size());
    metrics().Add("wire.pull.req_raw_bytes", RawKeyFramingBytes(keys.size()));
    calls.push_back({ctx_->ServerNode(s), "ps.pull", req});
    call_server.push_back(s);
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  metrics().Observe("agent.pull.latency_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  for (size_t c = 0; c < responses.size(); ++c) {
    int32_t s = call_server[c];
    auto [begin, end] = ColumnSliceOf(cols, s, ctx_->num_servers());
    ByteReader reader(responses[c]);
    std::vector<float> values;
    PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &values));
    metrics().Add("wire.pull.resp_bytes", responses[c].size());
    metrics().Add("wire.pull.resp_raw_bytes",
                  RawFloatFramingBytes(values.size()));
    const uint32_t width = end - begin;
    if (values.size() != keys.size() * width) {
      return Status::Internal("column pull: short response");
    }
    for (size_t i = 0; i < keys.size(); ++i) {
      std::copy(values.begin() + i * width,
                values.begin() + (i + 1) * width,
                out.begin() + i * cols + begin);
    }
  }
  return out;
}

Status PsAgent::Push(const MatrixMeta& meta,
                     const std::vector<uint64_t>& keys,
                     const std::vector<float>& values, bool add) {
  const uint32_t cols = meta.num_cols;
  if (values.size() != keys.size() * cols) {
    return Status::InvalidArgument("push: values size mismatch");
  }
  if (replicas_ == nullptr || !replicas_->Serving(meta.id) ||
      meta.layout == Layout::kColumnPartitioned) {
    return PushRemote(meta, keys, values, add);
  }
  replicas_->RecordAccess(meta.id, keys);
  if (add) {
    // Hot adds accumulate into the local delta row (merged home at the
    // next barrier); only the cold tail crosses the wire.
    std::vector<uint64_t> cold_keys;
    std::vector<float> cold_values;
    for (uint32_t i = 0; i < keys.size(); ++i) {
      const float* row = values.data() + uint64_t{i} * cols;
      if (!replicas_->AbsorbAdd(meta.id, keys[i], row)) {
        cold_keys.push_back(keys[i]);
        cold_values.insert(cold_values.end(), row, row + cols);
      }
    }
    if (cold_keys.empty()) return Status::OK();
    return PushRemote(meta, cold_keys, cold_values, /*add=*/true);
  }
  // Assign writes through: the home shard gets the row now (assign is
  // not commutative, so it cannot sit in a delta), and the replica is
  // overwritten so subsequent hot pulls see it.
  PSG_RETURN_NOT_OK(PushRemote(meta, keys, values, /*add=*/false));
  for (uint32_t i = 0; i < keys.size(); ++i) {
    replicas_->ApplyAssign(meta.id, keys[i],
                           values.data() + uint64_t{i} * cols);
  }
  return Status::OK();
}

Status PsAgent::PushRemote(const MatrixMeta& meta,
                           const std::vector<uint64_t>& keys,
                           const std::vector<float>& values, bool add) {
  const uint32_t cols = meta.num_cols;
  const char* method = add ? "ps.push_add" : "ps.push_assign";
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.push", node_, t0,
                  [this] { return NowTicks(); });
  std::vector<ParallelCall> calls;
  if (meta.layout == Layout::kColumnPartitioned) {
    if (!add) {
      return Status::NotImplemented(
          "push_assign on column-partitioned matrices");
    }
    for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
      auto [begin, end] = ColumnSliceOf(cols, s, ctx_->num_servers());
      if (begin == end) continue;
      const uint32_t width = end - begin;
      std::vector<float> slice(keys.size() * width);
      for (size_t i = 0; i < keys.size(); ++i) {
        std::copy(values.begin() + i * cols + begin,
                  values.begin() + i * cols + end,
                  slice.begin() + i * width);
      }
      ByteBuffer req;
      net::EncodeRowsRequest(meta.id, keys, slice, &req);
      metrics().Add("wire.push.req_bytes", req.size());
      metrics().Add("wire.push.req_raw_bytes",
                    RawKeyFramingBytes(keys.size()) +
                        RawFloatFramingBytes(slice.size()));
      calls.push_back({ctx_->ServerNode(s), method, std::move(req)});
    }
  } else {
    auto by_server = GroupKeysByServer(meta, keys);
    for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
      if (by_server[s].empty()) continue;
      std::vector<uint64_t> server_keys;
      std::vector<float> server_values;
      server_keys.reserve(by_server[s].size());
      server_values.reserve(by_server[s].size() * cols);
      for (uint32_t idx : by_server[s]) {
        server_keys.push_back(keys[idx]);
        server_values.insert(server_values.end(),
                             values.begin() + uint64_t{idx} * cols,
                             values.begin() + uint64_t{idx + 1} * cols);
      }
      ByteBuffer req;
      net::EncodeRowsRequest(meta.id, server_keys, server_values, &req);
      metrics().Add("wire.push.req_bytes", req.size());
      metrics().Add("wire.push.req_raw_bytes",
                    RawKeyFramingBytes(server_keys.size()) +
                        RawFloatFramingBytes(server_values.size()));
      calls.push_back({ctx_->ServerNode(s), method, std::move(req)});
    }
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  metrics().Observe("agent.push.latency_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  (void)responses;
  return Status::OK();
}

Status PsAgent::PushAdd(const MatrixMeta& meta,
                        const std::vector<uint64_t>& keys,
                        const std::vector<float>& values) {
  return Push(meta, keys, values, /*add=*/true);
}

Status PsAgent::PushAssign(const MatrixMeta& meta,
                           const std::vector<uint64_t>& keys,
                           const std::vector<float>& values) {
  return Push(meta, keys, values, /*add=*/false);
}

Status PsAgent::PushNeighbors(
    const MatrixMeta& meta,
    const std::vector<graph::NeighborList>& tables) {
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.push_nbrs", node_, t0,
                  [this] { return NowTicks(); });
  std::vector<std::vector<uint32_t>> by_server(ctx_->num_servers());
  Partitioner part(meta.scheme, meta.num_rows, ctx_->num_servers());
  for (uint32_t i = 0; i < tables.size(); ++i) {
    by_server[part.PartitionOf(tables[i].vertex)].push_back(i);
  }
  std::vector<ParallelCall> calls;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    if (by_server[s].empty()) continue;
    ByteBuffer req;
    net::EncodeNeighborsRequest(meta.id, tables, by_server[s], &req);
    calls.push_back({ctx_->ServerNode(s), "ps.push_nbrs", std::move(req)});
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  (void)responses;
  return Status::OK();
}

Status PsAgent::MutateNeighbors(const MatrixMeta& meta,
                                const std::vector<EdgeMutation>& mutations,
                                bool weighted) {
  if (mutations.empty()) return Status::OK();
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.mutate", node_, t0,
                  [this] { return NowTicks(); });
  // Group by the server owning each mutation's SOURCE vertex (adjacency
  // is row-partitioned by src, like push_nbrs/pull_nbrs).
  Partitioner part(meta.scheme, meta.num_rows, ctx_->num_servers());
  std::vector<std::vector<uint32_t>> by_server(ctx_->num_servers());
  for (uint32_t i = 0; i < mutations.size(); ++i) {
    by_server[part.PartitionOf(mutations[i].src)].push_back(i);
  }
  std::vector<ParallelCall> calls;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    if (by_server[s].empty()) continue;
    // Apply order must be a function of the batch *set*: split by op
    // kind and sort each side by (src, dst). Legal because an epoch
    // batch never carries the same edge twice.
    net::MutateRequest wire_req;
    wire_req.matrix = meta.id;
    std::vector<uint32_t> ins = by_server[s], del;
    ins.erase(std::remove_if(ins.begin(), ins.end(),
                             [&](uint32_t i) {
                               return !mutations[i].insert;
                             }),
              ins.end());
    for (uint32_t i : by_server[s]) {
      if (!mutations[i].insert) del.push_back(i);
    }
    auto by_edge = [&](uint32_t a, uint32_t b) {
      return mutations[a].src != mutations[b].src
                 ? mutations[a].src < mutations[b].src
                 : mutations[a].dst < mutations[b].dst;
    };
    std::sort(ins.begin(), ins.end(), by_edge);
    std::sort(del.begin(), del.end(), by_edge);
    for (uint32_t i : ins) {
      wire_req.insert_src.push_back(mutations[i].src);
      wire_req.insert_dst.push_back(mutations[i].dst);
      if (weighted) wire_req.insert_weights.push_back(mutations[i].weight);
    }
    for (uint32_t i : del) {
      wire_req.delete_src.push_back(mutations[i].src);
      wire_req.delete_dst.push_back(mutations[i].dst);
    }
    ByteBuffer req;
    net::EncodeMutateRequest(wire_req, &req);
    calls.push_back({ctx_->ServerNode(s), "ps.mutate", std::move(req)});
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  (void)responses;
  return Status::OK();
}

Status PsAgent::FreezeNeighbors(const MatrixMeta& meta) {
  std::vector<ParallelCall> calls;
  calls.reserve(ctx_->num_servers());
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    ByteBuffer req;
    net::EncodeMatrixRequest(meta.id, &req);
    calls.push_back({ctx_->ServerNode(s), "ps.freeze_nbrs",
                     std::move(req)});
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  (void)responses;
  return Status::OK();
}

Status NeighborBlock::DecodeResponse(const std::vector<uint8_t>& response,
                                     std::span<const uint32_t> key_index) {
  ByteReader reader(response);
  for (uint32_t idx : key_index) {
    Range& r = ranges_[idx];
    r.ids_begin = ids_.size();
    PSG_RETURN_NOT_OK(GetDeltaList(&reader, &ids_));
    r.ids_end = ids_.size();
    r.weights_begin = weights_.size();
    PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &weights_));
    r.weights_end = weights_.size();
  }
  if (reader.remaining() != 0) {
    return Status::InvalidArgument(
        "pull_nbrs: " + std::to_string(reader.remaining()) +
        " bytes left over at offset " + std::to_string(reader.position()) +
        " after the last of " + std::to_string(key_index.size()) + " keys");
  }
  return Status::OK();
}

void NeighborBlock::Append(const NeighborBlock& other) {
  const size_t ids_base = ids_.size();
  const size_t weights_base = weights_.size();
  ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
  weights_.insert(weights_.end(), other.weights_.begin(),
                  other.weights_.end());
  for (Range r : other.ranges_) {
    r.ids_begin += ids_base;
    r.ids_end += ids_base;
    r.weights_begin += weights_base;
    r.weights_end += weights_base;
    ranges_.push_back(r);
  }
}

Result<NeighborBlock> PsAgent::PullNeighbors(
    const MatrixMeta& meta, const std::vector<uint64_t>& keys) {
  NeighborBlock out(keys.size());
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.pull_nbrs", node_, t0,
                  [this] { return NowTicks(); });
  auto by_server = GroupKeysByServer(meta, keys);
  std::vector<ParallelCall> calls;
  std::vector<int32_t> call_server;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    if (by_server[s].empty()) continue;
    std::vector<uint64_t> server_keys;
    server_keys.reserve(by_server[s].size());
    for (uint32_t idx : by_server[s]) server_keys.push_back(keys[idx]);
    ByteBuffer req;
    net::EncodeKeysRequest(meta.id, server_keys, &req);
    calls.push_back({ctx_->ServerNode(s), "ps.pull_nbrs", std::move(req)});
    call_server.push_back(s);
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  for (size_t c = 0; c < responses.size(); ++c) {
    PSG_RETURN_NOT_OK(
        out.DecodeResponse(responses[c], by_server[call_server[c]]));
  }
  return out;
}

Result<std::vector<uint8_t>> PsAgent::CallFunc(int32_t server,
                                               const std::string& name,
                                               const ByteBuffer& args) {
  ByteBuffer req;
  net::EncodeFuncRequest(name, args.data(), &req);
  return Call(server, "ps.func", req);
}

Result<std::vector<std::vector<uint8_t>>> PsAgent::CallFuncAll(
    const std::string& name, const ByteBuffer& args) {
  ByteBuffer req;
  net::EncodeFuncRequest(name, args.data(), &req);
  std::vector<ParallelCall> calls;
  calls.reserve(ctx_->num_servers());
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    calls.push_back({ctx_->ServerNode(s), "ps.func", req});
  }
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.func", node_, t0,
                  [this] { return NowTicks(); });
  auto responses = ctx_->fabric()->CallParallel(node_, std::move(calls));
  return responses;
}

Result<double> PsAgent::CallFuncSum(const std::string& name,
                                    const ByteBuffer& args) {
  PSG_ASSIGN_OR_RETURN(auto responses, CallFuncAll(name, args));
  double sum = 0.0;
  for (const auto& resp : responses) {
    ByteReader reader(resp.data(), resp.size());
    double v = 0.0;
    PSG_RETURN_NOT_OK(reader.Read(&v));
    sum += v;
  }
  return sum;
}

Result<std::vector<double>> PsAgent::DotProducts(
    const MatrixMeta& a, const MatrixMeta& b,
    const std::vector<std::pair<uint64_t, uint64_t>>& pairs) {
  std::vector<uint64_t> flat;
  flat.reserve(pairs.size() * 2);
  for (const auto& [i, j] : pairs) {
    flat.push_back(i);
    flat.push_back(j);
  }
  ByteBuffer args;
  args.Write<MatrixId>(a.id);
  args.Write<MatrixId>(b.id);
  PutDeltaList(&args, flat);
  ByteBuffer req;
  net::EncodeFuncRequest("dot.partial", args.data(), &req);
  // Raw-equivalent: the same request with the pair list in the v1
  // fixed-width vector framing instead of the delta list.
  const uint64_t req_raw = req.size() -
                           DeltaListSize(flat.data(), flat.size()) + 8 +
                           8 * static_cast<uint64_t>(flat.size());

  std::vector<ParallelCall> calls;
  for (int32_t s = 0; s < ctx_->num_servers(); ++s) {
    auto [begin, end] = ColumnSliceOf(a.num_cols, s, ctx_->num_servers());
    if (begin == end) continue;
    metrics().Add("wire.func.req_bytes", req.size());
    metrics().Add("wire.func.req_raw_bytes", req_raw);
    calls.push_back({ctx_->ServerNode(s), "ps.func", req});
  }
  PSG_ASSIGN_OR_RETURN(auto responses,
                       ctx_->fabric()->CallParallel(node_, std::move(calls)));
  std::vector<double> dots(pairs.size(), 0.0);
  for (const auto& resp : responses) {
    ByteReader reader(resp.data(), resp.size());
    std::vector<double> partial;
    PSG_RETURN_NOT_OK(reader.ReadVector(&partial));
    if (partial.size() != dots.size()) {
      return Status::Internal("dot.partial: size mismatch");
    }
    for (size_t p = 0; p < dots.size(); ++p) dots[p] += partial[p];
  }
  return dots;
}

Status PsAgent::MergeRows(const MatrixMeta& meta, int32_t server,
                          const std::vector<uint64_t>& keys,
                          const std::vector<float>& deltas) {
  if (deltas.size() != keys.size() * meta.num_cols) {
    return Status::InvalidArgument("merge: deltas size mismatch");
  }
  if (keys.empty()) return Status::OK();
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "agent.merge", node_, t0,
                  [this] { return NowTicks(); });
  ByteBuffer req;
  net::EncodeRowsRequest(meta.id, keys, deltas, &req);
  PSG_ASSIGN_OR_RETURN(auto resp, Call(server, "ps.merge", req));
  (void)resp;
  return Status::OK();
}

}  // namespace psgraph::ps
