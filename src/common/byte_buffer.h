// ByteBuffer: the wire format for everything that crosses a simulated node
// boundary (RPC payloads, shuffle blocks, checkpoints).
//
// Fixed-width little-endian primitives plus length-prefixed strings and
// POD vectors. Reads are bounds-checked and fail loudly: a truncated or
// corrupt buffer returns a Status naming the byte offset where decoding
// stopped (aligning with the common/env.h fail-loud convention), never
// garbage and never a crash.

#ifndef PSGRAPH_COMMON_BYTE_BUFFER_H_
#define PSGRAPH_COMMON_BYTE_BUFFER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace psgraph {

/// Append-only serialization buffer.
class ByteBuffer {
 public:
  ByteBuffer() = default;
  explicit ByteBuffer(std::vector<uint8_t> bytes) : data_(std::move(bytes)) {}

  const std::vector<uint8_t>& data() const { return data_; }
  std::vector<uint8_t>&& TakeData() { return std::move(data_); }
  size_t size() const { return data_.size(); }
  void Reserve(size_t n) { data_.reserve(n); }
  void Clear() { data_.clear(); }

  template <typename T>
  void Write(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    size_t off = data_.size();
    data_.resize(off + sizeof(T));
    std::memcpy(data_.data() + off, &v, sizeof(T));
  }

  void WriteString(const std::string& s) {
    Write<uint64_t>(s.size());
    size_t off = data_.size();
    data_.resize(off + s.size());
    std::memcpy(data_.data() + off, s.data(), s.size());
  }

  /// Writes a length-prefixed vector of trivially copyable elements.
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write<uint64_t>(v.size());
    size_t bytes = v.size() * sizeof(T);
    size_t off = data_.size();
    data_.resize(off + bytes);
    if (bytes > 0) std::memcpy(data_.data() + off, v.data(), bytes);
  }

  void WriteRaw(const void* src, size_t n) {
    if (n > 0) std::memcpy(Append(n), src, n);
  }

  /// Grows the buffer by `n` bytes and returns the start of the new
  /// region, for encoders that know their exact size up front and fill
  /// it in place (common/varint.h). The pointer is valid until the next
  /// write.
  uint8_t* Append(size_t n) {
    const size_t off = data_.size();
    data_.resize(off + n);
    return data_.data() + off;
  }

 private:
  std::vector<uint8_t> data_;
};

/// Bounds-checked reader over a byte span produced by ByteBuffer.
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}
  explicit ByteReader(const ByteBuffer& buf) : ByteReader(buf.data()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }

  /// Raw cursor and end of the unread bytes, for bulk decoders that scan
  /// [cursor(), end()) themselves and then Skip() what they consumed.
  const uint8_t* cursor() const { return data_ + pos_; }
  const uint8_t* end() const { return data_ + size_; }
  /// Advances past `n` bytes the caller has already decoded from
  /// cursor(); `n` must not exceed remaining().
  void Skip(size_t n) { pos_ += n; }

  template <typename T>
  Status Read(T* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (remaining() < sizeof(T)) {
      return Truncated("primitive", sizeof(T));
    }
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status ReadString(std::string* out) {
    const size_t start = pos_;
    uint64_t n = 0;
    PSG_RETURN_NOT_OK(Read(&n));
    if (remaining() < n) {
      pos_ = start;
      return Truncated("string body", n);
    }
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return Status::OK();
  }

  /// Copies `n` raw bytes into `dst`.
  Status ReadRaw(void* dst, size_t n) {
    if (remaining() < n) {
      return Truncated("raw bytes", n);
    }
    if (n > 0) std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  template <typename T>
  Status ReadVector(std::vector<T>* out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const size_t start = pos_;
    uint64_t n = 0;
    PSG_RETURN_NOT_OK(Read(&n));
    // Divide instead of multiplying: `n * sizeof(T)` could wrap for a
    // corrupt length and sail past the bounds check.
    if (n > remaining() / sizeof(T)) {
      pos_ = start;
      return Status::OutOfRange(
          "ByteReader: vector of " + std::to_string(n) + " x " +
          std::to_string(sizeof(T)) + "B at offset " + std::to_string(start) +
          " exceeds remaining " + std::to_string(size_ - pos_) + " bytes");
    }
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return Status::OK();
  }

 private:
  Status Truncated(const char* what, uint64_t need) const {
    return Status::OutOfRange(
        "ByteReader: truncated " + std::string(what) + " at offset " +
        std::to_string(pos_) + ": need " + std::to_string(need) +
        " bytes, have " + std::to_string(remaining()));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_BYTE_BUFFER_H_
