// Key -> partition -> server placement (paper §III-A "Data partitioning").
//
// Vectors and matrices are partitioned by row (or column, for LINE's
// embedding layout) index; vertex data and neighbor tables by vertex
// index. Three schemes are implemented, as in the paper: hash, range and
// hash-range (contiguous chunks scattered by hash — the hybrid-range
// strategy of Ghandeharizadeh & DeWitt).

#ifndef PSGRAPH_PS_PARTITIONER_H_
#define PSGRAPH_PS_PARTITIONER_H_

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/hash.h"

namespace psgraph::ps {

enum class PartitionScheme : uint8_t {
  kHash = 0,
  kRange = 1,
  kHashRange = 2,
};

/// Stateless mapping from a 64-bit key to one of `num_partitions`
/// partitions; partition i is served by server (i % num_servers). The
/// one owner of the range formula: partition p of a range scheme holds
/// keys [p * w, (p + 1) * w) for w = ceil(key_space / num_partitions),
/// and the last partition also every key beyond the key space.
class Partitioner {
 public:
  Partitioner() = default;
  Partitioner(PartitionScheme scheme, uint64_t key_space,
              int32_t num_partitions, uint64_t range_chunk = 4096)
      : scheme_(scheme),
        key_space_(key_space),
        num_partitions_(num_partitions <= 0 ? 1 : num_partitions),
        range_chunk_(range_chunk == 0 ? 1 : range_chunk) {
    // An empty key space splits like a one-key space.
    const uint64_t keys = std::max<uint64_t>(key_space, 1);
    const uint64_t p = static_cast<uint64_t>(num_partitions_);
    range_width_ = keys / p + (keys % p != 0 ? 1 : 0);
  }

  int32_t PartitionOf(uint64_t key) const {
    switch (scheme_) {
      case PartitionScheme::kHash:
        return static_cast<int32_t>(Hash64(key) % num_partitions_);
      case PartitionScheme::kRange: {
        uint64_t p = key / range_width_;
        return static_cast<int32_t>(
            p >= static_cast<uint64_t>(num_partitions_)
                ? num_partitions_ - 1
                : p);
      }
      case PartitionScheme::kHashRange:
        return static_cast<int32_t>(Hash64(key / range_chunk_) %
                                    num_partitions_);
    }
    return 0;
  }

  /// The smallest key range [begin, end) inside [0, key_space) that holds
  /// every key of the key space partition `p` owns: its own block under
  /// the range scheme, and the whole key space under the hash schemes,
  /// which scatter a partition's keys over all of it.
  std::pair<uint64_t, uint64_t> KeyWindow(int32_t p) const {
    if (scheme_ != PartitionScheme::kRange) return {0, key_space_};
    if (p < 0 || p >= num_partitions_) return {0, 0};
    const uint64_t begin = BlockStart(p);
    const uint64_t end =
        p == num_partitions_ - 1 ? key_space_ : BlockStart(p + 1);
    return {begin, end};
  }

 private:
  /// First key of range partition `p`, clamped to the key space.
  uint64_t BlockStart(int32_t p) const {
    const uint64_t p64 = static_cast<uint64_t>(p);
    if (p64 != 0 && range_width_ > key_space_ / p64) return key_space_;
    return std::min(p64 * range_width_, key_space_);
  }

  PartitionScheme scheme_ = PartitionScheme::kHash;
  uint64_t key_space_ = 0;
  int32_t num_partitions_ = 1;
  uint64_t range_chunk_ = 4096;
  uint64_t range_width_ = 1;  ///< keys per range partition
};

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_PARTITIONER_H_
