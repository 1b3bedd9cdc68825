// Element serialization and JVM-equivalent sizing for dataflow records.
//
// Two concerns live here because they must agree:
//  * SerializeElem/DeserializeElem define the wire format of shuffle
//    blocks (what crosses executor boundaries).
//  * JvmBytesOf estimates what the element would occupy on a Spark
//    executor's JVM heap (object headers, boxed records). The memory
//    accountant charges these estimates, which is how the simulation
//    reproduces GraphX's OOM behaviour at scaled-down budgets.
//
// Supported element types: trivially copyable structs, std::string,
// std::pair and std::vector of supported types (recursively). Graph
// pipelines model neighbor tables as pair<VertexId, vector<VertexId>>,
// matching the paper's (src, Array[dst]) items.

#ifndef PSGRAPH_DATAFLOW_ELEMENT_TRAITS_H_
#define PSGRAPH_DATAFLOW_ELEMENT_TRAITS_H_

#include <cstdint>
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
}  // namespace detail

template <typename T>
uint64_t JvmBytesOf(const T& v);

template <typename T>
void SerializeElem(ByteBuffer& buf, const T& v);

template <typename T>
Status DeserializeElem(ByteReader& reader, T* out);

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

template <typename T>
void SerializeElem(ByteBuffer& buf, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    buf.WriteString(v);
  } else if constexpr (detail::IsPair<T>::value) {
    SerializeElem(buf, v.first);
    SerializeElem(buf, v.second);
  } else if constexpr (detail::IsVector<T>::value) {
    using E = typename T::value_type;
    if constexpr (std::is_trivially_copyable_v<E>) {
      buf.WriteVector(v);
    } else {
      buf.Write<uint64_t>(v.size());
      for (const auto& e : v) SerializeElem(buf, e);
    }
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unsupported dataflow element type");
    buf.Write(v);
  }
}

template <typename T>
Status DeserializeElem(ByteReader& reader, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    return reader.ReadString(out);
  } else if constexpr (detail::IsPair<T>::value) {
    PSG_RETURN_NOT_OK(DeserializeElem(reader, &out->first));
    return DeserializeElem(reader, &out->second);
  } else if constexpr (detail::IsVector<T>::value) {
    using E = typename T::value_type;
    if constexpr (std::is_trivially_copyable_v<E>) {
      return reader.ReadVector(out);
    } else {
      uint64_t n = 0;
      PSG_RETURN_NOT_OK(reader.Read(&n));
      out->clear();
      out->reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        E e;
        PSG_RETURN_NOT_OK(DeserializeElem(reader, &e));
        out->push_back(std::move(e));
      }
      return Status::OK();
    }
  } else {
    static_assert(std::is_trivially_copyable_v<T>,
                  "unsupported dataflow element type");
    return reader.Read(out);
  }
}

}  // namespace psgraph::dataflow

#endif  // PSGRAPH_DATAFLOW_ELEMENT_TRAITS_H_
