// Dense per-executor accumulator for delta-PageRank sweeps, and the
// sort-or-scan rule every dense vertex set shares.
//
// A sweep adds each source's contribution into every out-neighbor and
// then ships the sums, sorted by vertex id, to the PS. A hash map per
// executor pays a probe and a node per destination; this keeps a dense
// buffer over the vertex-id space plus the list of ids touched since the
// last drain. Drain lists the touched ids in ascending order by the rule
// below and resets the buffer by walking them, so an incremental
// frontier costs its own size, not |V|.
//
// Sums are bit-identical to `map[id] += v` in the same Add order: every
// slot starts at zero and receives the same additions. An id that is
// touched but sums to zero is still drained, like a map entry would be.

#ifndef PSGRAPH_GRAPH_DENSE_ACCUMULATOR_H_
#define PSGRAPH_GRAPH_DENSE_ACCUMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace psgraph::graph {

/// A set that touched fewer than 1/kDenseScanDivisor of its id space
/// sorts its touched list; a denser one is cheaper to list by scanning
/// its flags in id order (a sequential pass beats an n log n sort once
/// the set covers a fair share of the ids).
inline constexpr uint64_t kDenseScanDivisor = 16;

/// Puts `touched` — the distinct ids whose slot in `flags` is nonzero,
/// in any order — into ascending order, by sorting it or by rewriting it
/// from a scan of `flags`, whichever the density rule picks. Both give
/// the same ids.
template <typename Flags>
void SortTouched(const Flags& flags, std::vector<uint64_t>* touched) {
  if (touched->size() * kDenseScanDivisor < flags.size()) {
    std::sort(touched->begin(), touched->end());
    return;
  }
  size_t n = 0;
  for (uint64_t id = 0; n < touched->size(); ++id) {
    if (flags[id]) (*touched)[n++] = id;
  }
}

template <typename V>
class DenseAccumulator {
 public:
  /// `num_ids` presizes the buffer; larger ids grow it on demand.
  explicit DenseAccumulator(uint64_t num_ids = 0)
      : sums_(num_ids, V{}), touched_flag_(num_ids, 0) {}

  void Add(uint64_t id, V value) {
    if (id >= sums_.size()) Grow(id);
    if (!touched_flag_[id]) {
      touched_flag_[id] = 1;
      touched_.push_back(id);
    }
    sums_[id] += value;
  }

  /// Distinct ids added since the last drain.
  size_t size() const { return touched_.size(); }
  bool empty() const { return touched_.empty(); }

  /// Appends every touched id in ascending order to `ids` and its sum to
  /// `sums`, then resets exactly those slots.
  void Drain(std::vector<uint64_t>* ids, std::vector<V>* sums) {
    SortTouched(touched_flag_, &touched_);
    ids->reserve(ids->size() + touched_.size());
    sums->reserve(sums->size() + touched_.size());
    for (uint64_t id : touched_) {
      ids->push_back(id);
      sums->push_back(sums_[id]);
    }
    Clear();
  }

  /// Discards the pending sums (e.g. after an aborted sweep).
  void Clear() {
    for (uint64_t id : touched_) {
      sums_[id] = V{};
      touched_flag_[id] = 0;
    }
    touched_.clear();
  }

 private:
  void Grow(uint64_t id) {
    const size_t n = std::max<size_t>(id + 1, sums_.size() * 2);
    sums_.resize(n, V{});
    touched_flag_.resize(n, 0);
  }

  std::vector<V> sums_;
  std::vector<uint8_t> touched_flag_;
  std::vector<uint64_t> touched_;
};

}  // namespace psgraph::graph

#endif  // PSGRAPH_GRAPH_DENSE_ACCUMULATOR_H_
