// Compact wire blocks shared by the PS RPC format and snapshot blobs.
//
// A "float block" is [varint count][count * fp32 raw bytes]: the varint
// length costs 1-2 bytes instead of the fixed 8-byte vector prefix, and
// the payload stays a straight memcpy. Decoding goes through memcpy
// rather than pointer reinterpretation because wire offsets are not
// float-aligned after varint framing (UBSan-clean by construction).
//
// Key lists use the delta framing in common/varint.h (PutDeltaList).

#ifndef PSGRAPH_COMMON_WIRE_H_
#define PSGRAPH_COMMON_WIRE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"
#include "common/varint.h"

namespace psgraph {

/// Encoded size of WriteFloatBlock(n floats).
inline size_t FloatBlockSize(size_t n) {
  return Varint64Size(n) + n * sizeof(float);
}

inline void WriteFloatBlock(ByteBuffer* buf, const float* data, size_t n) {
  uint8_t* p = EncodeVarint64(buf->Append(FloatBlockSize(n)), n);
  if (n > 0) std::memcpy(p, data, n * sizeof(float));
}

inline void WriteFloatBlock(ByteBuffer* buf, const std::vector<float>& v) {
  WriteFloatBlock(buf, v.data(), v.size());
}

/// Reads a WriteFloatBlock payload, appending the floats to `out` (any
/// vector-like float container).
template <typename Container>
Status ReadFloatBlock(ByteReader* reader, Container* out) {
  const size_t start = reader->position();
  uint64_t n = 0;
  PSG_RETURN_NOT_OK(GetVarint64(reader, &n));
  if (n > reader->remaining() / sizeof(float)) {
    return Status::OutOfRange(
        "float block: count " + std::to_string(n) + " at offset " +
        std::to_string(start) + " exceeds remaining " +
        std::to_string(reader->remaining()) + " bytes");
  }
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(n));
  return reader->ReadRaw(out->data() + base,
                         static_cast<size_t>(n) * sizeof(float));
}

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_WIRE_H_
