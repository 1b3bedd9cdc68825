// Element encoding and JVM-equivalent sizing for dataflow records.
//
// Two concerns live here because they must agree:
//  * EncodedSize/EncodeElem/DecodeElem define the record format of
//    shuffle blocks (what crosses executor boundaries).
//  * JvmBytesOf estimates what the element would occupy on a Spark
//    executor's JVM heap (object headers, boxed records). The memory
//    accountant charges these estimates, which is how the simulation
//    reproduces GraphX's OOM behaviour at scaled-down budgets.
//
// Record format, with no tags and no alignment: a fixed-width value is
// its sizeof(T) raw bytes; a string or vector is a u64 element count
// followed by its elements (a vector of trivially copyable elements as
// one raw run); a pair is its first, then its second. A shuffle record
// is its key followed by its value.
//
// The encoder writes through a pointer into a buffer its caller sized
// with EncodedSize. The decoder reads [p, end) and returns where the
// value ended, or nullptr when the bytes do not hold it whole: one
// bounds compare per fixed-width field, and every count is checked
// against the bytes left before anything is sized by it, so no
// allocation can exceed a constant multiple of the input's length.
//
// Supported element types: trivially copyable structs, std::string,
// std::pair and std::vector of supported types (recursively). Graph
// pipelines model neighbor tables as pair<VertexId, vector<VertexId>>,
// matching the paper's (src, Array[dst]) items.

#ifndef PSGRAPH_DATAFLOW_ELEMENT_TRAITS_H_
#define PSGRAPH_DATAFLOW_ELEMENT_TRAITS_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/status.h"

namespace psgraph::dataflow {

/// JVM object header + reference overhead used for heap estimates.
inline constexpr uint64_t kJvmObjectHeader = 16;
/// Array header (length + header) in the JVM model.
inline constexpr uint64_t kJvmArrayHeader = 16;
/// Hash-map entry overhead (entry object + table slot amortized).
inline constexpr uint64_t kJvmHashEntryOverhead = 40;

namespace detail {
template <typename T>
struct IsPair : std::false_type {};
template <typename A, typename B>
struct IsPair<std::pair<A, B>> : std::true_type {};

template <typename T>
struct IsVector : std::false_type {};
template <typename T>
struct IsVector<std::vector<T>> : std::true_type {};

/// Fewest bytes any encoding of T takes: the count of a string or
/// vector, the whole value otherwise. A count of elements each at least
/// this wide that claims more than the bytes left is corrupt.
template <typename T>
constexpr uint64_t MinEncodedSize() {
  if constexpr (std::is_same_v<T, std::string> || IsVector<T>::value) {
    return sizeof(uint64_t);
  } else if constexpr (IsPair<T>::value) {
    return MinEncodedSize<typename T::first_type>() +
           MinEncodedSize<typename T::second_type>();
  } else {
    return sizeof(T);
  }
}

/// Reads the element count at `p` and checks that that many elements of
/// `E` fit in [count end, end). Returns the first element's start, or
/// nullptr.
template <typename E>
const uint8_t* DecodeCount(const uint8_t* p, const uint8_t* end,
                           uint64_t* n) {
  if (static_cast<size_t>(end - p) < sizeof(uint64_t)) return nullptr;
  std::memcpy(n, p, sizeof(uint64_t));
  p += sizeof(uint64_t);
  // Divide instead of multiplying: `*n * size` could wrap for a corrupt
  // count and pass the check.
  if (*n > static_cast<uint64_t>(end - p) / MinEncodedSize<E>()) {
    return nullptr;
  }
  return p;
}
}  // namespace detail

template <typename T>
uint64_t JvmBytesOf(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return kJvmArrayHeader + v.size();
  } else if constexpr (detail::IsPair<T>::value) {
    return kJvmObjectHeader + JvmBytesOf(v.first) + JvmBytesOf(v.second);
  } else if constexpr (detail::IsVector<T>::value) {
    using E = typename T::value_type;
    if constexpr (std::is_trivially_copyable_v<E>) {
      return kJvmArrayHeader + v.size() * sizeof(E);
    } else {
      uint64_t total = kJvmArrayHeader + v.size() * 8;  // reference slots
      for (const auto& e : v) total += JvmBytesOf(e);
      return total;
    }
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unsupported dataflow element type");
    return kJvmObjectHeader + sizeof(T);
  }
}

/// Bytes EncodeElem writes for `v`.
template <typename T>
uint64_t EncodedSize(const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    return sizeof(uint64_t) + v.size();
  } else if constexpr (detail::IsPair<T>::value) {
    return EncodedSize(v.first) + EncodedSize(v.second);
  } else if constexpr (detail::IsVector<T>::value) {
    using E = typename T::value_type;
    if constexpr (std::is_trivially_copyable_v<E>) {
      return sizeof(uint64_t) + v.size() * sizeof(E);
    } else {
      uint64_t total = sizeof(uint64_t);
      for (const auto& e : v) total += EncodedSize(e);
      return total;
    }
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unsupported dataflow element type");
    return sizeof(T);
  }
}

/// Writes `v` at `dst`, which must have EncodedSize(v) bytes of room, and
/// returns the end of what it wrote.
template <typename T>
uint8_t* EncodeElem(uint8_t* dst, const T& v) {
  if constexpr (std::is_same_v<T, std::string> ||
                detail::IsVector<T>::value) {
    const uint64_t n = v.size();
    std::memcpy(dst, &n, sizeof(n));
    dst += sizeof(n);
    using E = typename T::value_type;
    if constexpr (std::is_trivially_copyable_v<E>) {
      // Guarded: an empty container's data() may be null.
      if (n > 0) std::memcpy(dst, v.data(), n * sizeof(E));
      return dst + n * sizeof(E);
    } else {
      for (const auto& e : v) dst = EncodeElem(dst, e);
      return dst;
    }
  } else if constexpr (detail::IsPair<T>::value) {
    return EncodeElem(EncodeElem(dst, v.first), v.second);
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unsupported dataflow element type");
    std::memcpy(dst, &v, sizeof(T));
    return dst + sizeof(T);
  }
}

/// Decodes one `T` from [p, end) into `*out` and returns where it ended,
/// or nullptr when the bytes do not hold it whole (`*out` is then
/// partly written).
template <typename T>
const uint8_t* DecodeElem(const uint8_t* p, const uint8_t* end, T* out) {
  if constexpr (std::is_same_v<T, std::string> ||
                detail::IsVector<T>::value) {
    using E = typename T::value_type;
    uint64_t n = 0;
    p = detail::DecodeCount<E>(p, end, &n);
    if (p == nullptr) return nullptr;
    out->resize(n);
    if constexpr (std::is_trivially_copyable_v<E>) {
      if (n > 0) std::memcpy(out->data(), p, n * sizeof(E));
      return p + n * sizeof(E);
    } else {
      for (E& e : *out) {
        p = DecodeElem(p, end, &e);
        if (p == nullptr) return nullptr;
      }
      return p;
    }
  } else if constexpr (detail::IsPair<T>::value) {
    p = DecodeElem(p, end, &out->first);
    return p == nullptr ? nullptr : DecodeElem(p, end, &out->second);
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unsupported dataflow element type");
    if (static_cast<size_t>(end - p) < sizeof(T)) return nullptr;
    std::memcpy(out, p, sizeof(T));
    return p + sizeof(T);
  }
}

namespace detail {
/// DeserializeElem's failure, out of line so that its callers stay small.
Status TruncatedRecord(const ByteReader& reader);
}  // namespace detail

/// Decodes one element at the reader's position and moves past it. An
/// element the bytes left do not hold whole fails with OutOfRange naming
/// its offset, and the position stays where it was.
template <typename T>
Status DeserializeElem(ByteReader& reader, T* out) {
  const uint8_t* next = DecodeElem(reader.cursor(), reader.end(), out);
  if (next == nullptr) return detail::TruncatedRecord(reader);
  reader.Skip(static_cast<size_t>(next - reader.cursor()));
  return Status::OK();
}

}  // namespace psgraph::dataflow

#endif  // PSGRAPH_DATAFLOW_ELEMENT_TRAITS_H_
