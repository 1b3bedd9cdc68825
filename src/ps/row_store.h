// RowStore: one PS shard's float rows in one flat array addressed by key
// offset.
//
// The paper keeps PageRank's rank and delta vectors on the PS as vectors
// "sized to the maximal index of vertex" (§IV-A), and GraphX stores each
// vertex partition's attributes in one flat array plus a bitmask. A
// shard's rows do the same: row `key` sits at
// `(key - first_key) * cols` in one contiguous float array, and one bit
// per slot marks a materialized row. A pull, push or psFunc touching a
// row is an offset and a bit test — no hash probe, no pointer chase, no
// allocation per row.
//
// The store is built for a key window (the keys its server owns under
// the matrix's partitioner, ps/partitioner.h) and allocates the whole
// window once, on the first materialized row; slots never touched cost
// address space only. A key outside the allocated slots is still
// accepted: the array grows to cover it, at least doubling, and every
// row moves. So a pointer or span into the store is invalidated by any
// Insert into the same store — materialize every row you touch before
// taking references (ps/psfuncs_builtin.cc).
//
// Iteration visits materialized rows in ascending key order, as
// (key, std::span<float>) pairs.

#ifndef PSGRAPH_PS_ROW_STORE_H_
#define PSGRAPH_PS_ROW_STORE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>

#include "common/result.h"
#include "common/status.h"

namespace psgraph::ps {

class RowStore {
 public:
  RowStore() = default;
  /// A store of `cols`-wide rows, pre-sized to keys [window_begin,
  /// window_end) on its first materialized row.
  RowStore(uint64_t window_begin, uint64_t window_end, uint32_t cols)
      : window_begin_(window_begin),
        window_end_(std::max(window_begin, window_end)),
        cols_(cols) {}

  uint32_t cols() const { return cols_; }
  /// Number of materialized rows.
  size_t size() const { return size_; }
  /// The key window the store was built for.
  uint64_t window_begin() const { return window_begin_; }
  uint64_t window_end() const { return window_end_; }

  /// The row of `key`, or nullptr if it was never materialized. A
  /// materialized zero-width row is non-null too.
  float* Find(uint64_t key) {
    const uint64_t slot = key - first_key_;
    if (slot >= num_slots_ || !Test(slot)) return nullptr;
    return data_.get() + slot * cols_;
  }
  const float* Find(uint64_t key) const {
    return const_cast<RowStore*>(this)->Find(key);
  }

  /// Materializes `key`'s row, which must not be materialized yet, and
  /// returns its `cols()` floats uninitialized. Fails with OutOfRange,
  /// leaving the store unchanged, when the array cannot grow to cover
  /// `key`.
  Result<float*> Insert(uint64_t key) {
    if (key - first_key_ >= num_slots_) PSG_RETURN_NOT_OK(Grow(key));
    const uint64_t slot = key - first_key_;
    bits_[slot / 64] |= uint64_t{1} << (slot % 64);
    ++size_;
    return data_.get() + slot * cols_;
  }

  /// Grows the array so that no Insert of a key in [lo, hi] can fail.
  /// Fails with OutOfRange when it cannot; the rows stay as they were
  /// either way.
  Status Cover(uint64_t lo, uint64_t hi) {
    if (lo - first_key_ >= num_slots_) PSG_RETURN_NOT_OK(Grow(lo));
    if (hi - first_key_ >= num_slots_) PSG_RETURN_NOT_OK(Grow(hi));
    return Status::OK();
  }

  /// Ascending-key iteration over materialized rows.
  template <bool kConst>
  class Iterator {
   public:
    using Store = std::conditional_t<kConst, const RowStore, RowStore>;
    using Float = std::conditional_t<kConst, const float, float>;
    using value_type = std::pair<uint64_t, std::span<Float>>;

    Iterator(Store* store, uint64_t slot) : store_(store), slot_(slot) {}
    value_type operator*() const {
      return {store_->first_key_ + slot_,
              {store_->data_.get() + slot_ * store_->cols_, store_->cols_}};
    }
    Iterator& operator++() {
      slot_ = store_->NextSlot(slot_ + 1);
      return *this;
    }
    bool operator==(const Iterator& other) const {
      return slot_ == other.slot_;
    }

   private:
    Store* store_;
    uint64_t slot_;
  };

  Iterator<false> begin() { return {this, NextSlot(0)}; }
  Iterator<false> end() { return {this, num_slots_}; }
  Iterator<true> begin() const { return {this, NextSlot(0)}; }
  Iterator<true> end() const { return {this, num_slots_}; }

 private:
  struct FreeDeleter {
    void operator()(void* p) const { std::free(p); }
  };

  bool Test(uint64_t slot) const {
    return (bits_[slot / 64] >> (slot % 64)) & 1;
  }

  /// First materialized slot at or after `slot`, or num_slots_.
  uint64_t NextSlot(uint64_t slot) const {
    if (slot >= num_slots_) return num_slots_;
    uint64_t w = slot / 64;
    uint64_t word = bits_[w] & (~uint64_t{0} << (slot % 64));
    const uint64_t words = (num_slots_ + 63) / 64;
    while (word == 0) {
      if (++w == words) return num_slots_;
      word = bits_[w];
    }
    return w * 64 + static_cast<uint64_t>(std::countr_zero(word));
  }

  /// Allocates the window on the first row, or grows the array to cover
  /// `key`; rows keep their keys and move to their new offsets. A window
  /// too large to allocate (a huge, sparsely used key space) starts from
  /// the first key alone instead.
  Status Grow(uint64_t key) {
    const bool first = data_ == nullptr;
    const auto range = first
                           ? Extend(window_begin_, window_end_, key)
                           : Extend(first_key_, first_key_ + num_slots_, key);
    if (Reallocate(range, key) ||
        (first && Reallocate(Extend(key, key, key), key))) {
      return Status::OK();
    }
    return OutOfReach(key);
  }

  /// [begin, end) grown to hold `key`, at least doubling on the side it
  /// grows; saturates at the top of the key space.
  static std::pair<uint64_t, uint64_t> Extend(uint64_t begin, uint64_t end,
                                              uint64_t key) {
    const uint64_t width = end - begin;
    if (key < begin) begin = std::min(key, begin - std::min(begin, width));
    if (key >= end) {
      end = std::max(key, end + std::min(width, ~uint64_t{0} - end));
      if (end == key && key != ~uint64_t{0}) ++end;
    }
    return {begin, end};
  }

  /// Moves the store onto slots [range.first, range.second), which must
  /// hold every materialized key; false if `key` is not inside or the
  /// memory cannot be had.
  bool Reallocate(std::pair<uint64_t, uint64_t> range, uint64_t key) {
    const auto [begin, end] = range;
    const uint64_t slots = end - begin;
    const uint64_t row_bytes = uint64_t{cols_} * sizeof(float);
    if (key < begin || key >= end ||
        (row_bytes != 0 && slots > kMaxBytes / row_bytes) ||
        slots > kMaxBytes / sizeof(uint64_t) * 64) {
      return false;
    }
    // One float at least, so a zero-width row still has a non-null slot.
    std::unique_ptr<float[], FreeDeleter> data(static_cast<float*>(
        std::malloc(std::max<uint64_t>(slots * row_bytes, sizeof(float)))));
    std::unique_ptr<uint64_t[], FreeDeleter> bits(static_cast<uint64_t*>(
        std::calloc((slots + 63) / 64, sizeof(uint64_t))));
    if (data == nullptr || bits == nullptr) return false;
    // Re-place every materialized row and its bit at its new offset.
    const uint64_t shift = first_key_ - begin;
    for (uint64_t s = NextSlot(0); s < num_slots_; s = NextSlot(s + 1)) {
      const uint64_t t = s + shift;
      bits[t / 64] |= uint64_t{1} << (t % 64);
      if (row_bytes != 0) {
        std::memcpy(data.get() + t * cols_, data_.get() + s * cols_,
                    row_bytes);
      }
    }
    data_ = std::move(data);
    bits_ = std::move(bits);
    first_key_ = begin;
    num_slots_ = slots;
    return true;
  }

  Status OutOfReach(uint64_t key) const {
    return Status::OutOfRange(
        "row store: cannot allocate rows of " + std::to_string(cols_) +
        " floats from the window [" + std::to_string(window_begin_) + ", " +
        std::to_string(window_end_) + ") out to key " + std::to_string(key));
  }

  /// Largest single allocation the store attempts (2^46 bytes); beyond
  /// it a key is reported out of reach instead of asking malloc.
  static constexpr uint64_t kMaxBytes = uint64_t{1} << 46;

  uint64_t window_begin_ = 0;
  uint64_t window_end_ = 0;
  uint32_t cols_ = 0;
  uint64_t first_key_ = 0;  ///< key of slot 0
  uint64_t num_slots_ = 0;  ///< 0 until the first row is materialized
  size_t size_ = 0;
  std::unique_ptr<float[], FreeDeleter> data_;
  std::unique_ptr<uint64_t[], FreeDeleter> bits_;  ///< one bit per slot
};

}  // namespace psgraph::ps

#endif  // PSGRAPH_PS_ROW_STORE_H_
