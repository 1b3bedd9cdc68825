// Typed wire framing for the replica-merge and mutation PS messages
// (wire format v2).
//
// "ps.merge" carries one executor's accumulated replica deltas back to a
// key's home shard; "ps.mutate" carries one epoch's edge deltas to the
// shard that homes their source vertices.
//
// The structs live in net/ (not ps/) because they define what crosses the
// fabric: ps/agent.cc and ps/replication.cc encode them, ps/server_rpc.cc
// decodes them, and both sides must agree byte-for-byte. Key lists reuse
// the delta-varint framing and value payloads the float-block framing
// from PR 6, so the wire meters stay comparable across methods.

#ifndef PSGRAPH_NET_PS_WIRE_H_
#define PSGRAPH_NET_PS_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"
#include "common/varint.h"
#include "common/wire.h"

namespace psgraph::net {

/// One executor's pending replica deltas for the keys a server homes.
/// Keys are strictly ascending (the merge scheduler flushes in sorted
/// order so the apply order — and therefore float accumulation — is a
/// function of state, not of thread schedule).
struct MergeRequest {
  int32_t matrix = -1;
  std::vector<uint64_t> keys;
  std::vector<float> deltas;  ///< keys.size() * cols floats
};

inline void EncodeMergeRequest(const MergeRequest& req, ByteBuffer* out) {
  out->Write<int32_t>(req.matrix);
  PutDeltaList(out, req.keys);
  WriteFloatBlock(out, req.deltas);
}

template <typename KeyContainer, typename FloatContainer>
Status DecodeMergeRequest(ByteReader* reader, int32_t* matrix,
                          KeyContainer* keys, FloatContainer* deltas) {
  PSG_RETURN_NOT_OK(reader->Read(matrix));
  PSG_RETURN_NOT_OK(GetDeltaList(reader, keys));
  return ReadFloatBlock(reader, deltas);
}

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

template <typename KeyContainer, typename FloatContainer>
Status DecodeMutateRequest(ByteReader* reader, int32_t* matrix,
                           KeyContainer* insert_src,
                           KeyContainer* insert_dst,
                           FloatContainer* insert_weights,
                           KeyContainer* delete_src,
                           KeyContainer* delete_dst) {
  PSG_RETURN_NOT_OK(reader->Read(matrix));
  PSG_RETURN_NOT_OK(GetDeltaList(reader, insert_src));
  PSG_RETURN_NOT_OK(GetDeltaList(reader, insert_dst));
  PSG_RETURN_NOT_OK(ReadFloatBlock(reader, insert_weights));
  PSG_RETURN_NOT_OK(GetDeltaList(reader, delete_src));
  return GetDeltaList(reader, delete_dst);
}

}  // namespace psgraph::net

#endif  // PSGRAPH_NET_PS_WIRE_H_
