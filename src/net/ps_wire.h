// Wire framing of every "ps.*" request (wire format v2).
//
// Each request shape has exactly one encode/decode pair here, shared by
// every method that sends the same bytes:
//
//   shape                                        methods
//   [matrix]                                     ps.freeze_nbrs, ps.export
//   [matrix][keys]                               ps.pull, ps.pull_nbrs
//   [matrix][keys][values]                       ps.push_add, ps.push_assign,
//                                                ps.merge
//   [matrix][keys][per key: neighbors, weights]  ps.push_nbrs
//   [matrix][insert src, dst, weights]
//           [delete src, dst]                    ps.mutate
//   [name][args]                                 ps.func
//
// ps/agent.cc and serving/snapshot.cc encode; each handler in
// ps/server_rpc.cc decodes into its server's reused request struct and
// then calls the matching PsServer method. Key lists use the delta-varint
// framing (common/varint.h), value payloads the float-block framing
// (common/wire.h), and the matrix id is a raw i32.
//
// A decoder clears its output struct first, keeping the vectors'
// capacity so a warm server decodes without allocating, and returns a
// Status naming the byte offset on truncated or corrupt input. Every
// decoded count is checked against the bytes left before anything is
// sized from it, so no decoded vector holds more elements than the input
// has bytes.

#ifndef PSGRAPH_NET_PS_WIRE_H_
#define PSGRAPH_NET_PS_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"
#include "common/varint.h"
#include "common/wire.h"

namespace psgraph::net {

// --- [matrix] ---------------------------------------------------------

inline void EncodeMatrixRequest(int32_t matrix, ByteBuffer* out) {
  out->Write<int32_t>(matrix);
}

inline Status DecodeMatrixRequest(std::span<const uint8_t> bytes,
                                  int32_t* matrix) {
  ByteReader reader(bytes.data(), bytes.size());
  return reader.Read(matrix);
}

// --- [matrix][keys] ---------------------------------------------------

struct KeysRequest {
  int32_t matrix = -1;
  std::vector<uint64_t> keys;
};

inline void EncodeKeysRequest(int32_t matrix, std::span<const uint64_t> keys,
                              ByteBuffer* out) {
  out->Write<int32_t>(matrix);
  PutDeltaList(out, keys.data(), keys.size());
}

inline Status DecodeKeysRequest(std::span<const uint8_t> bytes,
                                KeysRequest* req) {
  ByteReader reader(bytes.data(), bytes.size());
  req->keys.clear();
  PSG_RETURN_NOT_OK(reader.Read(&req->matrix));
  return GetDeltaList(&reader, &req->keys);
}

// --- [matrix][keys][values] -------------------------------------------

/// Rows to add, assign or merge: keys.size() * width floats, width being
/// the receiving shard's row (or column-slice) width. A replica merge
/// sends its keys strictly ascending, so the apply order, and with it
/// the float accumulation, is a function of state, not thread schedule.
struct RowsRequest {
  int32_t matrix = -1;
  std::vector<uint64_t> keys;
  std::vector<float> values;
};

inline void EncodeRowsRequest(int32_t matrix, std::span<const uint64_t> keys,
                              std::span<const float> values,
                              ByteBuffer* out) {
  out->Write<int32_t>(matrix);
  PutDeltaList(out, keys.data(), keys.size());
  WriteFloatBlock(out, values.data(), values.size());
}

inline Status DecodeRowsRequest(std::span<const uint8_t> bytes,
                                RowsRequest* req) {
  ByteReader reader(bytes.data(), bytes.size());
  req->keys.clear();
  req->values.clear();
  PSG_RETURN_NOT_OK(reader.Read(&req->matrix));
  PSG_RETURN_NOT_OK(GetDeltaList(&reader, &req->keys));
  return ReadFloatBlock(&reader, &req->values);
}

// --- [matrix][keys][per key: neighbors, weights] ----------------------

/// Adjacency lists to append ("ps.push_nbrs"). `Entry` is any
/// {neighbors, weights} pair of vectors (ps::NeighborEntry on the
/// server); weights are empty for an unweighted list.
template <typename Entry>
struct NeighborsRequest {
  int32_t matrix = -1;
  std::vector<uint64_t> keys;
  std::vector<Entry> entries;  ///< one per key
};

/// Encodes `tables[i]` for each i in `index`, in that order. A table is
/// anything with `vertex`, `neighbors` and `weights` (graph::NeighborList).
template <typename Table>
void EncodeNeighborsRequest(int32_t matrix, const std::vector<Table>& tables,
                            std::span<const uint32_t> index,
                            ByteBuffer* out) {
  std::vector<uint64_t> keys;
  keys.reserve(index.size());
  for (uint32_t i : index) keys.push_back(tables[i].vertex);
  out->Write<int32_t>(matrix);
  PutDeltaList(out, keys);
  for (uint32_t i : index) {
    PutDeltaList(out, tables[i].neighbors);
    WriteFloatBlock(out, tables[i].weights);
  }
}

template <typename Entry>
Status DecodeNeighborsRequest(std::span<const uint8_t> bytes,
                              NeighborsRequest<Entry>* req) {
  ByteReader reader(bytes.data(), bytes.size());
  req->keys.clear();
  req->entries.clear();
  PSG_RETURN_NOT_OK(reader.Read(&req->matrix));
  PSG_RETURN_NOT_OK(GetDeltaList(&reader, &req->keys));
  req->entries.resize(req->keys.size());
  for (Entry& entry : req->entries) {
    PSG_RETURN_NOT_OK(GetDeltaList(&reader, &entry.neighbors));
    PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &entry.weights));
  }
  return Status::OK();
}

// --- ps.mutate --------------------------------------------------------

/// One epoch batch of edge deltas for the source vertices a server
/// homes ("ps.mutate"). Within one request every (src, dst) pair
/// appears at most once — the stream MutationLog dedupes per epoch —
/// so inserts and deletes commute and the handler applies all inserts
/// first, then all deletes. Source lists are ascending per op kind
/// (the agent groups and sorts), dst lists ride the same zigzag delta
/// framing which tolerates the non-monotone values.
struct MutateRequest {
  int32_t matrix = -1;
  std::vector<uint64_t> insert_src;
  std::vector<uint64_t> insert_dst;
  std::vector<float> insert_weights;  ///< empty for unweighted tables
  std::vector<uint64_t> delete_src;
  std::vector<uint64_t> delete_dst;
};

inline void EncodeMutateRequest(const MutateRequest& req, ByteBuffer* out) {
  out->Write<int32_t>(req.matrix);
  PutDeltaList(out, req.insert_src);
  PutDeltaList(out, req.insert_dst);
  WriteFloatBlock(out, req.insert_weights);
  PutDeltaList(out, req.delete_src);
  PutDeltaList(out, req.delete_dst);
}

inline Status DecodeMutateRequest(std::span<const uint8_t> bytes,
                                  MutateRequest* req) {
  ByteReader reader(bytes.data(), bytes.size());
  req->insert_src.clear();
  req->insert_dst.clear();
  req->insert_weights.clear();
  req->delete_src.clear();
  req->delete_dst.clear();
  PSG_RETURN_NOT_OK(reader.Read(&req->matrix));
  PSG_RETURN_NOT_OK(GetDeltaList(&reader, &req->insert_src));
  PSG_RETURN_NOT_OK(GetDeltaList(&reader, &req->insert_dst));
  PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &req->insert_weights));
  PSG_RETURN_NOT_OK(GetDeltaList(&reader, &req->delete_src));
  return GetDeltaList(&reader, &req->delete_dst);
}

// --- [name][args] -----------------------------------------------------

/// A psFunc call: the registered name, then the function's own argument
/// bytes, which it parses itself (ps/psfuncs_builtin.cc).
struct FuncRequest {
  std::string name;
  std::span<const uint8_t> args;  ///< views the decoded request's bytes
};

inline void EncodeFuncRequest(const std::string& name,
                              std::span<const uint8_t> args,
                              ByteBuffer* out) {
  out->WriteString(name);
  out->WriteRaw(args.data(), args.size());
}

/// `req->args` points into `bytes`, which must outlive its use.
inline Status DecodeFuncRequest(std::span<const uint8_t> bytes,
                                FuncRequest* req) {
  ByteReader reader(bytes.data(), bytes.size());
  req->name.clear();
  req->args = {};
  PSG_RETURN_NOT_OK(reader.ReadString(&req->name));
  req->args = bytes.subspan(reader.position());
  return Status::OK();
}

}  // namespace psgraph::net

#endif  // PSGRAPH_NET_PS_WIRE_H_
