// Embedding-row quantization for serving snapshot blobs.
//
// Snapshot blobs ship full fp32 embedding tables to every serving
// shard; at PSGraph scale the blob bytes — not the lookup compute — set
// the publish and preload cost. Two lossy codecs shrink them, chosen by
// SnapshotOptions::quant (serving/snapshot.h):
//
//   fp16  IEEE 754 half precision, round-to-nearest-even. 2x smaller,
//         ~1e-3 relative error on unit-scale embeddings.
//   int8  per-row max-abs scaling: q = round(v * 127 / max|row|),
//         decoded as q * scale. 4x smaller (plus one fp32 scale per
//         row), error bounded by scale/2.
//
// Quantization is accounted, never silent: encoders report the exact
// max-abs round-trip error so the snapshot manifest can carry it per
// matrix, and decoding a mode the blob was not written with fails the
// checksum/format checks upstream.

#ifndef PSGRAPH_COMMON_QUANT_H_
#define PSGRAPH_COMMON_QUANT_H_

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/result.h"
#include "common/status.h"

namespace psgraph {

enum class QuantMode : uint8_t {
  kNone = 0,  ///< raw fp32 rows
  kFp16 = 1,
  kInt8 = 2,
};

inline const char* QuantModeName(QuantMode mode) {
  switch (mode) {
    case QuantMode::kNone: return "none";
    case QuantMode::kFp16: return "fp16";
    case QuantMode::kInt8: return "int8";
  }
  return "unknown";
}

/// Parses a knob/manifest value ("none"/"fp16"/"int8"); anything else is
/// an InvalidArgument naming the value, per the fail-loud env convention.
inline Result<QuantMode> ParseQuantMode(const std::string& s) {
  if (s.empty() || s == "none") return QuantMode::kNone;
  if (s == "fp16") return QuantMode::kFp16;
  if (s == "int8") return QuantMode::kInt8;
  return Status::InvalidArgument("unknown quantization mode '" + s +
                                 "' (want none|fp16|int8)");
}

/// fp32 -> IEEE half, round-to-nearest-even; overflow saturates to inf.
inline uint16_t Fp16FromFloat(float f) {
  uint32_t x;
  std::memcpy(&x, &f, sizeof(x));
  const uint32_t sign = (x >> 16) & 0x8000u;
  const uint32_t mant = x & 0x007fffffu;
  const int32_t exp8 = static_cast<int32_t>((x >> 23) & 0xffu);
  if (exp8 == 0xff) {  // inf / nan
    return static_cast<uint16_t>(sign | 0x7c00u | (mant != 0 ? 0x200u : 0u));
  }
  const int32_t exp5 = exp8 - 127 + 15;
  if (exp5 >= 0x1f) return static_cast<uint16_t>(sign | 0x7c00u);  // -> inf
  if (exp5 <= 0) {
    if (exp5 < -10) return static_cast<uint16_t>(sign);  // -> +/-0
    // Subnormal half: shift the (implicit-1) mantissa into place.
    const uint32_t full = mant | 0x00800000u;
    const uint32_t shift = static_cast<uint32_t>(14 - exp5);
    uint32_t half = full >> shift;
    const uint32_t rem = full & ((1u << shift) - 1);
    const uint32_t halfway = 1u << (shift - 1);
    if (rem > halfway || (rem == halfway && (half & 1))) ++half;
    return static_cast<uint16_t>(sign | half);
  }
  uint32_t half = (static_cast<uint32_t>(exp5) << 10) | (mant >> 13);
  const uint32_t rem = mant & 0x1fffu;
  // Round to nearest even; a carry here correctly bumps the exponent.
  if (rem > 0x1000u || (rem == 0x1000u && (half & 1))) ++half;
  return static_cast<uint16_t>(sign | half);
}

inline float Fp16ToFloat(uint16_t h) {
  const uint32_t sign = static_cast<uint32_t>(h & 0x8000u) << 16;
  const uint32_t exp5 = (h >> 10) & 0x1fu;
  uint32_t mant = h & 0x3ffu;
  uint32_t x;
  if (exp5 == 0) {
    if (mant == 0) {
      x = sign;
    } else {
      int shift = 0;
      do {
        mant <<= 1;
        ++shift;
      } while ((mant & 0x400u) == 0);
      mant &= 0x3ffu;
      x = sign | (static_cast<uint32_t>(127 - 15 - shift + 1) << 23) |
          (mant << 13);
    }
  } else if (exp5 == 0x1f) {
    x = sign | 0x7f800000u | (mant << 13);
  } else {
    x = sign | ((exp5 - 15 + 127) << 23) | (mant << 13);
  }
  float f;
  std::memcpy(&f, &x, sizeof(f));
  return f;
}

/// Appends one embedding row in `mode`'s wire encoding:
///   none: cols * fp32 (raw little-endian)
///   fp16: cols * uint16
///   int8: fp32 scale + cols * int8
/// Returns the row's max-abs round-trip error (0.0 for kNone).
inline double QuantizeRowAppend(QuantMode mode, const float* row, size_t cols,
                                ByteBuffer* out) {
  switch (mode) {
    case QuantMode::kNone:
      out->WriteRaw(row, cols * sizeof(float));
      return 0.0;
    case QuantMode::kFp16: {
      double max_err = 0.0;
      for (size_t i = 0; i < cols; ++i) {
        uint16_t h = Fp16FromFloat(row[i]);
        out->Write<uint16_t>(h);
        max_err = std::max(
            max_err, std::fabs(static_cast<double>(Fp16ToFloat(h)) - row[i]));
      }
      return max_err;
    }
    case QuantMode::kInt8: {
      float max_abs = 0.0f;
      for (size_t i = 0; i < cols; ++i) {
        max_abs = std::max(max_abs, std::fabs(row[i]));
      }
      const float scale = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
      out->Write<float>(scale);
      double max_err = 0.0;
      for (size_t i = 0; i < cols; ++i) {
        int32_t q = scale > 0.0f
                        ? static_cast<int32_t>(std::lrintf(row[i] / scale))
                        : 0;
        q = std::min(127, std::max(-127, q));
        out->Write<int8_t>(static_cast<int8_t>(q));
        // Measured on the float the decoder returns, not the exact
        // product, so the reported error bounds every served value.
        const float decoded = static_cast<float>(q) * scale;
        max_err = std::max(max_err,
                           std::fabs(static_cast<double>(decoded) - row[i]));
      }
      return max_err;
    }
  }
  return 0.0;
}

/// Bytes QuantizeRowAppend writes for one row of `cols` floats.
inline size_t QuantizedRowBytes(QuantMode mode, size_t cols) {
  switch (mode) {
    case QuantMode::kNone: return cols * sizeof(float);
    case QuantMode::kFp16: return cols * sizeof(uint16_t);
    case QuantMode::kInt8: return sizeof(float) + cols;
  }
  return 0;
}

/// Reads one QuantizeRowAppend row back, appending `cols` floats to `out`.
inline Status DequantizeRowAppend(QuantMode mode, ByteReader* reader,
                                  size_t cols, std::vector<float>* out) {
  switch (mode) {
    case QuantMode::kNone: {
      size_t off = out->size();
      out->resize(off + cols);
      return reader->ReadRaw(out->data() + off, cols * sizeof(float));
    }
    case QuantMode::kFp16: {
      for (size_t i = 0; i < cols; ++i) {
        uint16_t h = 0;
        PSG_RETURN_NOT_OK(reader->Read(&h));
        out->push_back(Fp16ToFloat(h));
      }
      return Status::OK();
    }
    case QuantMode::kInt8: {
      float scale = 0.0f;
      PSG_RETURN_NOT_OK(reader->Read(&scale));
      for (size_t i = 0; i < cols; ++i) {
        int8_t q = 0;
        PSG_RETURN_NOT_OK(reader->Read(&q));
        out->push_back(static_cast<float>(q) * scale);
      }
      return Status::OK();
    }
  }
  return Status::InvalidArgument("DequantizeRowAppend: bad mode");
}

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_QUANT_H_
