// Dense per-executor accumulator for delta-PageRank sweeps.
//
// A sweep adds each source's contribution into every out-neighbor and
// then ships the sums, sorted by vertex id, to the PS. A hash map per
// executor pays a probe and a node per destination; this keeps a dense
// buffer over the vertex-id space plus the list of ids touched since the
// last drain. Drain sorts only the touched list and resets the buffer by
// walking it, so an incremental frontier costs its own size, not |V|.
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
    std::sort(touched_.begin(), touched_.end());
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
