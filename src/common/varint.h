// LEB128 varints and delta-encoded integer lists: the compact framing
// used by the PS RPC wire format and serving snapshot blobs.
//
// Key batches and neighbor tables dominate payload bytes at PSGraph
// scale; both arrive (nearly) sorted, so "varint(first) + zigzag varint
// deltas" shrinks an 8-byte key to 1-2 bytes in the common case while
// still round-tripping arbitrary (unsorted, duplicate) lists losslessly.
// Decoding is bounds-checked and fail-loud: a truncated or overlong
// varint returns a Status naming the byte offset, never garbage. Lists
// encode into one exactly sized region and decode in one pass over the
// reader's raw bytes, so neither side pays a call or a Status per value.

#ifndef PSGRAPH_COMMON_VARINT_H_
#define PSGRAPH_COMMON_VARINT_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace psgraph {

/// Longest LEB128 encoding of a uint64_t (10 * 7 bits >= 64 bits).
inline constexpr size_t kMaxVarint64Bytes = 10;

/// Number of bytes PutVarint64 would write for `v`.
inline size_t Varint64Size(uint64_t v) {
  return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7;
}

/// Writes `v` as a LEB128 varint (1..10 bytes, little-endian 7-bit
/// groups, high bit = continuation) at `p`, which must have room for
/// Varint64Size(v) bytes, and returns the byte after it.
inline uint8_t* EncodeVarint64(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Appends `v` as a LEB128 varint.
inline void PutVarint64(ByteBuffer* buf, uint64_t v) {
  EncodeVarint64(buf->Append(Varint64Size(v)), v);
}

namespace varint_internal {

enum class DecodeError : uint8_t { kNone, kTruncated, kOverflow };

/// Decodes one varint from [*p, end) and advances *p past it; on error
/// *p is left where it was. The end check is inline, so a bulk decoder
/// pays no Status per value.
inline DecodeError Decode(const uint8_t** p, const uint8_t* end,
                          uint64_t* out) {
  const uint8_t* q = *p;
  if (q != end && *q < 0x80) {  // one-byte fast path
    *out = *q;
    *p = q + 1;
    return DecodeError::kNone;
  }
  uint64_t value = 0;
  for (size_t i = 0;; ++i, ++q) {
    if (q == end) return DecodeError::kTruncated;
    const uint8_t byte = *q;
    // The 10th byte may only contribute the final bit (64 = 9*7 + 1), so
    // it never continues: an 11-byte encoding fails here too.
    if (i == kMaxVarint64Bytes - 1 && byte > 0x01) {
      return DecodeError::kOverflow;
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      *out = value;
      *p = q + 1;
      return DecodeError::kNone;
    }
  }
}

/// The Status for a failed Decode of the varint starting at `offset`.
[[gnu::cold]] inline Status DecodeStatus(DecodeError err, size_t offset) {
  if (err == DecodeError::kTruncated) {
    return Status::OutOfRange("varint: truncated at offset " +
                              std::to_string(offset));
  }
  return Status::InvalidArgument("varint: overflow at offset " +
                                 std::to_string(offset));
}

}  // namespace varint_internal

/// Reads one LEB128 varint. Errors name the offset of the varint's first
/// byte: truncation (buffer ends mid-varint) and overlong/overflowing
/// encodings (more than 10 bytes, or bit 64+ set) are both rejected.
inline Status GetVarint64(ByteReader* reader, uint64_t* out) {
  using varint_internal::DecodeError;
  const uint8_t* p = reader->cursor();
  const DecodeError err = varint_internal::Decode(&p, reader->end(), out);
  if (err != DecodeError::kNone) {
    return varint_internal::DecodeStatus(err, reader->position());
  }
  reader->Skip(static_cast<size_t>(p - reader->cursor()));
  return Status::OK();
}

/// Maps signed deltas onto small unsigned varints (0,-1,1,-2,... ->
/// 0,1,2,3,...).
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Encoded size of PutDeltaList(values) without writing it.
inline size_t DeltaListSize(const uint64_t* values, size_t count) {
  size_t bytes = Varint64Size(count);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    bytes += (i == 0)
                 ? Varint64Size(values[0])
                 : Varint64Size(
                       ZigZagEncode(static_cast<int64_t>(values[i] - prev)));
    prev = values[i];
  }
  return bytes;
}

/// Appends `values` as [varint count][varint first][zigzag varint deltas].
/// Deltas are signed, so unsorted or duplicate-bearing lists round-trip
/// exactly; sorted lists (the PS batch common case) compress best. The
/// list is sized exactly first and encoded into one region.
inline void PutDeltaList(ByteBuffer* buf, const uint64_t* values,
                         size_t count) {
  uint8_t* p =
      EncodeVarint64(buf->Append(DeltaListSize(values, count)), count);
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    p = EncodeVarint64(
        p, (i == 0) ? values[0]
                    : ZigZagEncode(static_cast<int64_t>(values[i] - prev)));
    prev = values[i];
  }
}

inline void PutDeltaList(ByteBuffer* buf, const std::vector<uint64_t>& v) {
  PutDeltaList(buf, v.data(), v.size());
}

/// Reads a PutDeltaList payload, appending the decoded values to `out`
/// (any vector-like container of uint64_t with resize/data/size). The
/// values decode in one pass over the reader's bytes; on error `out`
/// keeps the values decoded before the failing varint.
template <typename Container>
Status GetDeltaList(ByteReader* reader, Container* out) {
  using varint_internal::DecodeError;
  const size_t start = reader->position();
  uint64_t count = 0;
  PSG_RETURN_NOT_OK(GetVarint64(reader, &count));
  // Each value takes at least one encoded byte: a count the buffer cannot
  // possibly hold is corruption, not a huge allocation request.
  if (count > reader->remaining()) {
    return Status::OutOfRange(
        "delta list: count " + std::to_string(count) + " at offset " +
        std::to_string(start) + " exceeds remaining " +
        std::to_string(reader->remaining()) + " bytes");
  }
  const size_t base = out->size();
  out->resize(base + static_cast<size_t>(count));
  uint64_t* dst = out->data() + base;
  const uint8_t* const begin = reader->cursor();
  const uint8_t* const end = reader->end();
  const uint8_t* p = begin;
  uint64_t prev = 0;
  for (size_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    const DecodeError err = varint_internal::Decode(&p, end, &raw);
    if (err != DecodeError::kNone) {
      out->resize(base + i);
      return varint_internal::DecodeStatus(
          err, reader->position() + static_cast<size_t>(p - begin));
    }
    prev = (i == 0) ? raw : prev + static_cast<uint64_t>(ZigZagDecode(raw));
    dst[i] = prev;
  }
  reader->Skip(static_cast<size_t>(p - begin));
  return Status::OK();
}

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_VARINT_H_
