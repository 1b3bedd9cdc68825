// Dataset<T>: the RDD abstraction of the mini-Spark engine.
//
// A Dataset is a lazy, partitioned, immutable collection with lineage:
// computing a partition re-derives it from its parents, so losing a cached
// partition (executor failure) is recovered by recomputation — Spark's
// fault-tolerance model. Narrow transforms (map/filter/flatMap) stay on
// the owning executor; wide transforms (groupByKey/reduceByKey/coGroup)
// run a real hash shuffle: map-side serialization to per-reducer blocks
// (charged as disk writes), reduce-side fetches (disk read + network) and
// hash-table builds (charged against the executor memory budget — the
// source of GraphX's OOM behaviour).
//
// Actions evaluate partitions concurrently: one pool task per executor,
// each walking its own partitions (p % num_executors == e) in ascending
// order, so every executor clock sees a single ordered charge stream and
// simulated makespans are identical at any parallelism. Results are
// assembled in partition order regardless of completion order.
//
// Before an action runs its partitions it walks its lineage
// (Node::PrepareStages) and writes every shuffle map stage not yet
// written, parents first, each as its own full-width stage — the order
// in which Spark's scheduler submits parent stages. A shuffle's blocks
// belong to its ShuffleWriter and are freed with it.

#ifndef PSGRAPH_DATAFLOW_DATASET_H_
#define PSGRAPH_DATAFLOW_DATASET_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "dataflow/context.h"
#include "dataflow/element_traits.h"

namespace psgraph::dataflow {

/// Hash used to route keys to reduce partitions. All shuffle participants
/// must agree on it.
template <typename K>
uint64_t KeyHash(const K& k) {
  if constexpr (std::is_integral_v<K>) {
    return Hash64(static_cast<uint64_t>(k));
  } else if constexpr (std::is_same_v<K, std::string>) {
    return HashBytes(k);
  } else if constexpr (detail::IsPair<K>::value) {
    return HashCombine(KeyHash(k.first), KeyHash(k.second));
  } else {
    static_assert(std::is_integral_v<K>, "unsupported key type");
    return 0;
  }
}

/// Hash functor for internal shuffle hash tables (std::hash has no
/// specialization for pairs).
template <typename K>
struct KeyHasher {
  size_t operator()(const K& k) const {
    return static_cast<size_t>(KeyHash(k));
  }
};

/// Engine core shared by all actions and the shuffle map stage: runs
/// fn(p) for every partition in [0, n). One stream per executor walks
/// that executor's partitions in ascending order — pool tasks at global
/// parallelism > 1, inline in executor order at 1 — so all
/// simulated-clock and memory charges for one executor come from one
/// thread in a fixed order, which is what makes makespans bit-identical
/// at any parallelism. A failing partition aborts only its own
/// executor's stream; the error with the lowest partition index is
/// returned.
inline Status RunPartitioned(DataflowContext* ctx, int32_t n,
                             const std::function<Status(int32_t)>& fn) {
  sim::SimCluster* cluster = ctx->cluster();
  auto run_one = [&](int32_t p) -> Status {
    const sim::NodeId exec = ctx->ExecutorOf(p);
    const int64_t t0 = cluster->clock().NowTicks(exec);
    ScopedSpan span(&cluster->tracer(), "dataflow.partition", exec, t0,
                    [&] { return cluster->clock().NowTicks(exec); });
    return fn(p);
  };
  const int32_t num_tasks = ctx->num_executors();
  std::vector<Status> errors(num_tasks, Status::OK());
  std::vector<int32_t> error_at(num_tasks, INT32_MAX);
  GlobalThreadPool().ParallelForBounded(
      static_cast<size_t>(num_tasks), GlobalParallelism() - 1,
      [&](size_t e) {
        for (int32_t p = static_cast<int32_t>(e); p < n; p += num_tasks) {
          Status st = run_one(p);
          if (!st.ok()) {
            errors[e] = std::move(st);
            error_at[e] = p;
            return;
          }
        }
      });
  int32_t first = -1;
  for (int32_t e = 0; e < num_tasks; ++e) {
    if (error_at[e] != INT32_MAX &&
        (first < 0 || error_at[e] < error_at[first])) {
      first = e;
    }
  }
  return first < 0 ? Status::OK() : errors[first];
}

namespace detail {

/// Base of the lineage DAG. Compute(p) derives partition p from scratch
/// (or from caches further up the chain).
template <typename T>
class Node {
 public:
  Node(DataflowContext* ctx, int32_t num_partitions)
      : ctx_(ctx), num_partitions_(num_partitions) {}
  virtual ~Node() = default;

  virtual Result<std::vector<T>> Compute(int32_t partition) = 0;

  /// Stage walk, post-order: writes every upstream shuffle map stage not
  /// yet written, parents first and left before right. Actions call it
  /// on their own thread before running their partitions.
  virtual Status PrepareStages() = 0;

  /// Borrowing read of a partition: a cache shares its stored partition
  /// instead of copying it; any other node computes a fresh one. Charges
  /// exactly what Compute(partition) charges.
  virtual Result<std::shared_ptr<const std::vector<T>>> Borrow(
      int32_t partition) {
    PSG_ASSIGN_OR_RETURN(std::vector<T> data, Compute(partition));
    return std::make_shared<const std::vector<T>>(std::move(data));
  }

  DataflowContext* ctx() const { return ctx_; }
  int32_t num_partitions() const { return num_partitions_; }

 protected:
  DataflowContext* ctx_;
  int32_t num_partitions_;
};

template <typename T>
class SourceNode final : public Node<T> {
 public:
  SourceNode(DataflowContext* ctx, std::vector<std::vector<T>> parts)
      : Node<T>(ctx, static_cast<int32_t>(parts.size())),
        parts_(std::move(parts)) {}

  Result<std::vector<T>> Compute(int32_t p) override {
    this->ctx_->ChargeCompute(p, parts_[p].size());
    return parts_[p];
  }
  Status PrepareStages() override { return Status::OK(); }

 private:
  std::vector<std::vector<T>> parts_;
};

template <typename T, typename U, typename F>
class MapNode final : public Node<U> {
 public:
  MapNode(std::shared_ptr<Node<T>> parent, F fn)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  Result<std::vector<U>> Compute(int32_t p) override {
    PSG_ASSIGN_OR_RETURN(std::vector<T> in, parent_->Compute(p));
    this->ctx_->ChargeCompute(p, in.size());
    std::vector<U> out;
    out.reserve(in.size());
    for (auto& v : in) out.push_back(fn_(v));
    return out;
  }
  Status PrepareStages() override { return parent_->PrepareStages(); }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

template <typename T, typename F>
class FilterNode final : public Node<T> {
 public:
  FilterNode(std::shared_ptr<Node<T>> parent, F fn)
      : Node<T>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  Result<std::vector<T>> Compute(int32_t p) override {
    PSG_ASSIGN_OR_RETURN(std::vector<T> in, parent_->Compute(p));
    this->ctx_->ChargeCompute(p, in.size());
    std::vector<T> out;
    for (auto& v : in) {
      if (fn_(v)) out.push_back(std::move(v));
    }
    return out;
  }
  Status PrepareStages() override { return parent_->PrepareStages(); }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

template <typename T, typename U, typename F>
class FlatMapNode final : public Node<U> {
 public:
  FlatMapNode(std::shared_ptr<Node<T>> parent, F fn)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  Result<std::vector<U>> Compute(int32_t p) override {
    PSG_ASSIGN_OR_RETURN(std::vector<T> in, parent_->Compute(p));
    std::vector<U> out;
    for (auto& v : in) {
      std::vector<U> sub = fn_(v);
      for (auto& s : sub) out.push_back(std::move(s));
    }
    this->ctx_->ChargeCompute(p, in.size() + out.size());
    return out;
  }
  Status PrepareStages() override { return parent_->PrepareStages(); }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

template <typename T, typename U, typename F>
class MapPartitionsNode final : public Node<U> {
 public:
  MapPartitionsNode(std::shared_ptr<Node<T>> parent, F fn)
      : Node<U>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        fn_(std::move(fn)) {}

  Result<std::vector<U>> Compute(int32_t p) override {
    PSG_ASSIGN_OR_RETURN(std::vector<T> in, parent_->Compute(p));
    this->ctx_->ChargeCompute(p, in.size());
    return fn_(p, std::move(in));  // F -> Result<std::vector<U>>
  }
  Status PrepareStages() override { return parent_->PrepareStages(); }

 private:
  std::shared_ptr<Node<T>> parent_;
  F fn_;
};

template <typename T>
class UnionNode final : public Node<T> {
 public:
  UnionNode(std::shared_ptr<Node<T>> a, std::shared_ptr<Node<T>> b)
      : Node<T>(a->ctx(), a->num_partitions() + b->num_partitions()),
        a_(std::move(a)),
        b_(std::move(b)) {}

  Result<std::vector<T>> Compute(int32_t p) override {
    if (p < a_->num_partitions()) return a_->Compute(p);
    return b_->Compute(p - a_->num_partitions());
  }
  Status PrepareStages() override {
    PSG_RETURN_NOT_OK(a_->PrepareStages());
    return b_->PrepareStages();
  }

 private:
  std::shared_ptr<Node<T>> a_;
  std::shared_ptr<Node<T>> b_;
};

/// Materializes parent partitions once per executor epoch; a killed
/// executor's cache entries become stale and are recomputed via lineage.
/// Each partition is held behind a shared pointer to const, so borrowed
/// reads share it and a borrower keeps its copy alive past an eviction.
template <typename T>
class CacheNode final : public Node<T> {
 public:
  explicit CacheNode(std::shared_ptr<Node<T>> parent)
      : Node<T>(parent->ctx(), parent->num_partitions()),
        parent_(std::move(parent)),
        slots_(this->num_partitions_) {}

  Result<std::vector<T>> Compute(int32_t p) override {
    PSG_ASSIGN_OR_RETURN(auto data, Borrow(p));
    return *data;
  }

  Result<std::shared_ptr<const std::vector<T>>> Borrow(
      int32_t p) override {
    // Per-slot lock: partitions on different executors materialize
    // concurrently; two computations of the same partition serialize so
    // the memory budget is charged once. Lock order follows the lineage
    // DAG (slot p, then parent caches' slot p), so no cycles.
    Slot& slot = slots_[p];
    std::lock_guard<std::mutex> lock(slot.mu);
    uint64_t epoch = this->ctx_->ExecutorEpoch(this->ctx_->ExecutorOf(p));
    if (slot.data != nullptr && slot.epoch == epoch) return slot.data;
    // A stale entry is from before the executor died. The simulated
    // ledger was wiped with the container, so just drop the bytes.
    slot.data.reset();
    PSG_ASSIGN_OR_RETURN(std::vector<T> data, parent_->Compute(p));
    uint64_t bytes = JvmBytesOf(data);
    PSG_RETURN_NOT_OK(
        this->ctx_->AllocatePartitionMemory(p, bytes, "rdd cache"));
    slot.data = std::make_shared<const std::vector<T>>(std::move(data));
    slot.epoch = epoch;
    slot.charged = bytes;
    return slot.data;
  }

  /// Nothing upstream is needed while every slot is current.
  Status PrepareStages() override {
    for (int32_t p = 0; p < this->num_partitions_; ++p) {
      if (!Current(p)) return parent_->PrepareStages();
    }
    return Status::OK();
  }

  /// Drops all cached partitions (Spark unpersist), releasing memory.
  void Unpersist() {
    for (int32_t p = 0; p < this->num_partitions_; ++p) {
      Slot& slot = slots_[p];
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.data != nullptr) {
        uint64_t epoch =
            this->ctx_->ExecutorEpoch(this->ctx_->ExecutorOf(p));
        if (slot.epoch == epoch) {
          this->ctx_->ReleasePartitionMemory(p, slot.charged);
        }
        slot.data.reset();
      }
    }
  }

 private:
  bool Current(int32_t p) {
    Slot& slot = slots_[p];
    std::lock_guard<std::mutex> lock(slot.mu);
    return slot.data != nullptr &&
           slot.epoch ==
               this->ctx_->ExecutorEpoch(this->ctx_->ExecutorOf(p));
  }

  struct Slot {
    std::mutex mu;
    std::shared_ptr<const std::vector<T>> data;
    uint64_t epoch = 0;
    uint64_t charged = 0;
  };
  std::shared_ptr<Node<T>> parent_;
  // Sized once at construction; never resized (Slot holds a mutex).
  std::vector<Slot> slots_;
};

/// Runs the map side of a shuffle once: partitions parent records by key
/// hash into per-reducer blocks, which it owns (they are freed with it).
/// `Combine` is an optional map-side combiner (nullptr -> none).
template <typename K, typename V>
class ShuffleWriter {
 public:
  using Combiner = std::function<V(const V&, const V&)>;

  ShuffleWriter(DataflowContext* ctx,
                std::shared_ptr<Node<std::pair<K, V>>> parent,
                int32_t num_reducers, Combiner combiner)
      : ctx_(ctx),
        parent_(std::move(parent)),
        num_reducers_(num_reducers),
        combiner_(std::move(combiner)) {}

  int32_t num_map_partitions() const { return parent_->num_partitions(); }

  /// Map partition m's block for reduce partition r. Valid once
  /// EnsureWritten() returned OK: its once-guard orders every map task's
  /// write before the read.
  const std::vector<uint8_t>& block(int32_t m, int32_t r) const {
    return blocks_[static_cast<size_t>(m) * num_reducers_ + r];
  }

  /// The stage walk's step for this shuffle: returns at once when the
  /// map side is written, else walks the parent and then writes it.
  Status Prepare() {
    if (!written_.load(std::memory_order_acquire)) {
      PSG_RETURN_NOT_OK(parent_->PrepareStages());
    }
    return EnsureWritten();
  }

  /// The one place a map stage is written. Idempotent and thread-safe:
  /// the first caller runs the whole map stage (a reduce task that gets
  /// here lazily blocks the others on the once-guard until it finishes);
  /// every caller shares the resulting status.
  Status EnsureWritten() {
    std::call_once(once_, [&] {
      map_status_ = WriteAll();
      written_.store(true, std::memory_order_release);
    });
    return map_status_;
  }

 private:
  Status WriteAll() {
    const int32_t num_maps = parent_->num_partitions();
    blocks_.resize(static_cast<size_t>(num_maps) * num_reducers_);
    PSG_RETURN_NOT_OK(RunPartitioned(
        ctx_, num_maps, [&](int32_t m) { return WriteMapPartition(m); }));
    ctx_->StageBarrier();  // shuffle map side ends a stage
    // Fetch accounting, hoisted out of the reduce tasks: charging a
    // fetch couples the reduce executor's clock to the map executor's
    // ("data cannot arrive before it was sent"), which would be racy and
    // order-dependent when reducers run concurrently. One deterministic
    // pass charges every block's disk read and map->reduce transfer
    // here; reducers then deserialize without touching foreign clocks.
    // Consequence: a reduce partition recomputed through lineage does
    // not pay the fetch again — the ledger treats the shuffle files as
    // already delivered.
    for (int32_t r = 0; r < num_reducers_; ++r) {
      for (int32_t m = 0; m < num_maps; ++m) {
        const uint64_t bytes = block(m, r).size();
        ctx_->ChargeDiskRead(m, bytes);
        ctx_->ChargeTransfer(m, r, bytes);
      }
    }
    return Status::OK();
  }

  Status WriteMapPartition(int32_t m) {
    // Borrow: a cached parent partition is read in place, not copied.
    PSG_ASSIGN_OR_RETURN(auto in, parent_->Borrow(m));
    ctx_->ChargeCompute(m, in->size());
    if (!combiner_) {
      EncodeBlocks(m, *in);
      return Status::OK();
    }
    // Map-side combine: build a per-partition hash map first (this is
    // what Spark's reduceByKey does; it costs memory but shrinks IO).
    std::unordered_map<K, V, KeyHasher<K>> combined;
    combined.reserve(in->size());
    for (auto& [k, v] : *in) {
      auto [it, inserted] = combined.emplace(k, v);
      if (!inserted) it->second = combiner_(it->second, v);
    }
    const uint64_t transient =
        combined.size() * (kJvmHashEntryOverhead + sizeof(K) + sizeof(V));
    PSG_RETURN_NOT_OK(ctx_->AllocatePartitionMemory(
        m, transient, "shuffle map-side combine"));
    EncodeBlocks(m, combined);
    ctx_->ReleasePartitionMemory(m, transient);
    return Status::OK();
  }

  /// Writes map task m's blocks from `records`, a range of (key, value)
  /// pairs. One pass routes each record and sums each reducer's bytes;
  /// then every block is sized once and the records are encoded straight
  /// into it, each block in `records` order.
  template <typename Records>
  void EncodeBlocks(int32_t m, const Records& records) {
    std::vector<uint32_t> route;
    route.reserve(records.size());
    std::vector<uint64_t> bytes(num_reducers_, 0);
    for (const auto& [k, v] : records) {
      const auto r = static_cast<uint32_t>(KeyHash(k) % num_reducers_);
      route.push_back(r);
      bytes[r] += EncodedSize(k) + EncodedSize(v);
    }
    std::vector<uint8_t*> cursor(num_reducers_);
    uint64_t total_bytes = 0;
    for (int32_t r = 0; r < num_reducers_; ++r) {
      std::vector<uint8_t>& block =
          blocks_[static_cast<size_t>(m) * num_reducers_ + r];
      block.resize(bytes[r]);
      cursor[r] = block.data();
      total_bytes += bytes[r];
    }
    const uint32_t* r = route.data();
    for (const auto& [k, v] : records) {
      uint8_t*& dst = cursor[*r++];
      dst = EncodeElem(EncodeElem(dst, k), v);
    }
    // Spark consolidates a map task's output into one file (plus an
    // index), so the write pays a single seek for all buckets.
    ctx_->ChargeDiskWrite(m, total_bytes);
  }

  DataflowContext* ctx_;
  std::shared_ptr<Node<std::pair<K, V>>> parent_;
  int32_t num_reducers_;
  Combiner combiner_;
  // Row m (num_reducers_ blocks) is filled only by map task m.
  std::vector<std::vector<uint8_t>> blocks_;
  std::once_flag once_;
  std::atomic<bool> written_{false};
  Status map_status_;  // written inside the once-guard, read after it
};

/// Fetches and decodes all blocks for reduce partition `r`, calling
/// `sink(key, value)` per record, in map-partition then block order,
/// until the sink returns an error. Pure data movement: disk-read and
/// transfer time were already charged by the writer's deterministic
/// fetch-accounting pass (see ShuffleWriter::WriteAll).
template <typename K, typename V, typename Sink>
Status FetchShuffleBlocks(const ShuffleWriter<K, V>& writer, int32_t r,
                          Sink&& sink) {
  std::pair<K, V> record;
  for (int32_t m = 0; m < writer.num_map_partitions(); ++m) {
    ByteReader reader(writer.block(m, r));
    while (reader.remaining() > 0) {
      Status st = DeserializeElem(reader, &record);
      if (!st.ok()) {
        return Status::OutOfRange("shuffle block " + std::to_string(m) +
                                  "->" + std::to_string(r) + ": " +
                                  st.message());
      }
      PSG_RETURN_NOT_OK(
          sink(std::move(record.first), std::move(record.second)));
    }
  }
  return Status::OK();
}

template <typename K, typename V>
class GroupByKeyNode final : public Node<std::pair<K, std::vector<V>>> {
 public:
  GroupByKeyNode(std::shared_ptr<Node<std::pair<K, V>>> parent,
                 int32_t num_reducers)
      : Node<std::pair<K, std::vector<V>>>(parent->ctx(), num_reducers),
        writer_(parent->ctx(), parent, num_reducers, nullptr) {}

  Result<std::vector<std::pair<K, std::vector<V>>>> Compute(
      int32_t r) override {
    PSG_RETURN_NOT_OK(writer_.EnsureWritten());
    auto* ctx = this->ctx_;
    std::unordered_map<K, std::vector<V>, KeyHasher<K>> groups;
    RecordCharges memory(ctx, r, "groupByKey hash table");
    Status fetch = FetchShuffleBlocks(writer_, r, [&](K k, V v) {
      auto [it, inserted] = groups.try_emplace(std::move(k));
      PSG_RETURN_NOT_OK(memory.Add(
          JvmBytesOf(v) + (inserted ? kJvmHashEntryOverhead : 0)));
      it->second.push_back(std::move(v));
      return Status::OK();
    });
    if (!fetch.ok()) {
      memory.Release();
      return fetch;
    }
    ctx->ChargeCompute(r, groups.size());
    std::vector<std::pair<K, std::vector<V>>> out;
    out.reserve(groups.size());
    for (auto& [k, vs] : groups) out.emplace_back(k, std::move(vs));
    memory.Release();
    return out;
  }
  Status PrepareStages() override { return writer_.Prepare(); }

 private:
  ShuffleWriter<K, V> writer_;
};

template <typename K, typename V>
class ReduceByKeyNode final : public Node<std::pair<K, V>> {
 public:
  using Combiner = std::function<V(const V&, const V&)>;

  ReduceByKeyNode(std::shared_ptr<Node<std::pair<K, V>>> parent,
                  int32_t num_reducers, Combiner combiner)
      : Node<std::pair<K, V>>(parent->ctx(), num_reducers),
        combiner_(combiner),
        writer_(parent->ctx(), parent, num_reducers, combiner) {}

  Result<std::vector<std::pair<K, V>>> Compute(int32_t r) override {
    PSG_RETURN_NOT_OK(writer_.EnsureWritten());
    auto* ctx = this->ctx_;
    std::unordered_map<K, V, KeyHasher<K>> agg;
    RecordCharges memory(ctx, r, "reduceByKey hash table");
    Status fetch = FetchShuffleBlocks(writer_, r, [&](K k, V v) {
      auto it = agg.find(k);
      if (it != agg.end()) {
        it->second = combiner_(it->second, v);
        return Status::OK();
      }
      PSG_RETURN_NOT_OK(memory.Add(kJvmHashEntryOverhead + JvmBytesOf(v)));
      agg.emplace(std::move(k), std::move(v));
      return Status::OK();
    });
    if (!fetch.ok()) {
      memory.Release();
      return fetch;
    }
    ctx->ChargeCompute(r, agg.size());
    std::vector<std::pair<K, V>> out(agg.begin(), agg.end());
    memory.Release();
    return out;
  }
  Status PrepareStages() override { return writer_.Prepare(); }

 private:
  Combiner combiner_;
  ShuffleWriter<K, V> writer_;
};

template <typename K, typename V, typename W>
class CoGroupNode final
    : public Node<std::pair<K, std::pair<std::vector<V>, std::vector<W>>>> {
 public:
  using Out = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;

  CoGroupNode(std::shared_ptr<Node<std::pair<K, V>>> left,
              std::shared_ptr<Node<std::pair<K, W>>> right,
              int32_t num_reducers)
      : Node<Out>(left->ctx(), num_reducers),
        left_writer_(left->ctx(), left, num_reducers, nullptr),
        right_writer_(left->ctx(), right, num_reducers, nullptr) {}

  Result<std::vector<Out>> Compute(int32_t r) override {
    PSG_RETURN_NOT_OK(left_writer_.EnsureWritten());
    PSG_RETURN_NOT_OK(right_writer_.EnsureWritten());
    auto* ctx = this->ctx_;
    std::unordered_map<K, std::pair<std::vector<V>, std::vector<W>>,
                       KeyHasher<K>>
        groups;
    RecordCharges memory(ctx, r, "coGroup hash table");
    Status fetch = FetchShuffleBlocks(left_writer_, r, [&](K k, V v) {
      auto [it, inserted] = groups.try_emplace(std::move(k));
      PSG_RETURN_NOT_OK(memory.Add(
          JvmBytesOf(v) + (inserted ? kJvmHashEntryOverhead : 0)));
      it->second.first.push_back(std::move(v));
      return Status::OK();
    });
    if (fetch.ok()) {
      fetch = FetchShuffleBlocks(right_writer_, r, [&](K k, W w) {
        auto [it, inserted] = groups.try_emplace(std::move(k));
        PSG_RETURN_NOT_OK(memory.Add(
            JvmBytesOf(w) + (inserted ? kJvmHashEntryOverhead : 0)));
        it->second.second.push_back(std::move(w));
        return Status::OK();
      });
    }
    if (!fetch.ok()) {
      memory.Release();
      return fetch;
    }
    ctx->ChargeCompute(r, groups.size());
    std::vector<Out> out;
    out.reserve(groups.size());
    for (auto& [k, vw] : groups) out.emplace_back(k, std::move(vw));
    memory.Release();
    return out;
  }
  Status PrepareStages() override {
    PSG_RETURN_NOT_OK(left_writer_.Prepare());
    return right_writer_.Prepare();
  }

 private:
  ShuffleWriter<K, V> left_writer_;
  ShuffleWriter<K, W> right_writer_;
};

}  // namespace detail

template <typename T>
struct PairTraits {
  static constexpr bool is_pair = false;
};
template <typename K, typename V>
struct PairTraits<std::pair<K, V>> {
  static constexpr bool is_pair = true;
  using Key = K;
  using Value = V;
};

/// User-facing handle (cheap to copy; shares the lineage node).
template <typename T>
class Dataset {
 public:
  Dataset(DataflowContext* ctx, std::shared_ptr<detail::Node<T>> node)
      : ctx_(ctx), node_(std::move(node)) {}

  /// Distributes `data` across `num_partitions` partitions round-robin —
  /// the "load from HDFS into an RDD" step.
  static Dataset FromVector(DataflowContext* ctx, std::vector<T> data,
                            int32_t num_partitions) {
    if (num_partitions <= 0) num_partitions = ctx->num_executors();
    std::vector<std::vector<T>> parts(num_partitions);
    for (auto& p : parts) p.reserve(data.size() / num_partitions + 1);
    for (size_t i = 0; i < data.size(); ++i) {
      parts[i % num_partitions].push_back(std::move(data[i]));
    }
    return Dataset(
        ctx, std::make_shared<detail::SourceNode<T>>(ctx, std::move(parts)));
  }

  /// Builds from explicit pre-split partitions (custom partitioners).
  static Dataset FromPartitions(DataflowContext* ctx,
                                std::vector<std::vector<T>> parts) {
    return Dataset(
        ctx, std::make_shared<detail::SourceNode<T>>(ctx, std::move(parts)));
  }

  DataflowContext* context() const { return ctx_; }
  int32_t num_partitions() const { return node_->num_partitions(); }
  std::shared_ptr<detail::Node<T>> node() const { return node_; }

  template <typename F, typename U = std::invoke_result_t<F, T&>>
  Dataset<U> Map(F fn) const {
    return Dataset<U>(
        ctx_, std::make_shared<detail::MapNode<T, U, F>>(node_, std::move(fn)));
  }

  template <typename F>
  Dataset<T> Filter(F fn) const {
    return Dataset<T>(
        ctx_, std::make_shared<detail::FilterNode<T, F>>(node_, std::move(fn)));
  }

  template <typename F,
            typename U = typename std::invoke_result_t<F, T&>::value_type>
  Dataset<U> FlatMap(F fn) const {
    return Dataset<U>(
        ctx_,
        std::make_shared<detail::FlatMapNode<T, U, F>>(node_, std::move(fn)));
  }

  /// F: (int32_t partition, std::vector<T>&&) -> Result<std::vector<U>>.
  template <typename F,
            typename U = typename std::invoke_result_t<
                F, int32_t, std::vector<T>&&>::value_type::value_type>
  Dataset<U> MapPartitionsWithIndex(F fn) const {
    return Dataset<U>(ctx_,
                      std::make_shared<detail::MapPartitionsNode<T, U, F>>(
                          node_, std::move(fn)));
  }

  Dataset<T> Union(const Dataset<T>& other) const {
    return Dataset<T>(
        ctx_, std::make_shared<detail::UnionNode<T>>(node_, other.node_));
  }

  /// Marks this dataset persisted in executor memory. Returns the cached
  /// handle; keep it and reuse it to benefit from the cache.
  Dataset<T> Cache() const {
    return Dataset<T>(ctx_, std::make_shared<detail::CacheNode<T>>(node_));
  }

  /// Drops materialized partitions if this dataset is a Cache() handle
  /// (Spark unpersist). Returns false when there is nothing to drop.
  bool Unpersist() const {
    auto cache = std::dynamic_pointer_cast<detail::CacheNode<T>>(node_);
    if (!cache) return false;
    cache->Unpersist();
    return true;
  }

  // ----- wide (shuffle) transformations; require T == pair<K, V> -----

  template <typename P = PairTraits<T>>
  Dataset<std::pair<typename P::Key, std::vector<typename P::Value>>>
  GroupByKey(int32_t num_reducers = 0) const {
    static_assert(P::is_pair, "GroupByKey requires Dataset<pair<K,V>>");
    if (num_reducers <= 0) num_reducers = node_->num_partitions();
    using K = typename P::Key;
    using V = typename P::Value;
    return {ctx_,
            std::make_shared<detail::GroupByKeyNode<K, V>>(node_,
                                                           num_reducers)};
  }

  template <typename F, typename P = PairTraits<T>>
  Dataset<T> ReduceByKey(F combiner, int32_t num_reducers = 0) const {
    static_assert(P::is_pair, "ReduceByKey requires Dataset<pair<K,V>>");
    if (num_reducers <= 0) num_reducers = node_->num_partitions();
    using K = typename P::Key;
    using V = typename P::Value;
    return {ctx_, std::make_shared<detail::ReduceByKeyNode<K, V>>(
                      node_, num_reducers,
                      typename detail::ReduceByKeyNode<K, V>::Combiner(
                          std::move(combiner)))};
  }

  template <typename W, typename P = PairTraits<T>>
  Dataset<std::pair<typename P::Key,
                    std::pair<std::vector<typename P::Value>,
                              std::vector<W>>>>
  CoGroup(const Dataset<std::pair<typename P::Key, W>>& other,
          int32_t num_reducers = 0) const {
    static_assert(P::is_pair, "CoGroup requires Dataset<pair<K,V>>");
    if (num_reducers <= 0) num_reducers = node_->num_partitions();
    using K = typename P::Key;
    using V = typename P::Value;
    return {ctx_, std::make_shared<detail::CoGroupNode<K, V, W>>(
                      node_, other.node(), num_reducers)};
  }

  /// Inner join via coGroup + flatMap (CoGroupedRDD, like Spark).
  template <typename W, typename P = PairTraits<T>>
  Dataset<std::pair<typename P::Key, std::pair<typename P::Value, W>>>
  Join(const Dataset<std::pair<typename P::Key, W>>& other,
       int32_t num_reducers = 0) const {
    using K = typename P::Key;
    using V = typename P::Value;
    using Grouped = std::pair<K, std::pair<std::vector<V>, std::vector<W>>>;
    using Out = std::pair<K, std::pair<V, W>>;
    return CoGroup<W>(other, num_reducers)
        .FlatMap([](Grouped& g) {
          std::vector<Out> out;
          out.reserve(g.second.first.size() * g.second.second.size());
          for (const V& v : g.second.first) {
            for (const W& w : g.second.second) {
              out.push_back({g.first, {v, w}});
            }
          }
          return out;
        });
  }

  /// Distinct keys of a pair dataset (helper for vertex-id extraction).
  template <typename P = PairTraits<T>>
  Dataset<typename P::Key> DistinctKeys(int32_t num_reducers = 0) const {
    static_assert(P::is_pair, "DistinctKeys requires Dataset<pair<K,V>>");
    using K = typename P::Key;
    using V = typename P::Value;
    return ReduceByKey([](const V& a, const V&) { return a; }, num_reducers)
        .Map([](std::pair<K, V>& kv) { return kv.first; });
  }

  // ----- actions -----

  /// Computes one partition (engines that pin work per executor use this).
  Result<std::vector<T>> ComputePartition(int32_t p) const {
    return node_->Compute(p);
  }

  /// Borrowing read of one partition: on a Cache() handle it shares the
  /// cached storage instead of copying it (valid for as long as the
  /// caller holds it, even past Unpersist or an executor kill); on any
  /// other dataset it computes the partition like ComputePartition.
  Result<std::shared_ptr<const std::vector<T>>> BorrowPartition(
      int32_t p) const {
    return node_->Borrow(p);
  }

  /// Materializes every partition on the driver, in partition order.
  Result<std::vector<T>> Collect() const {
    std::vector<std::vector<T>> parts(node_->num_partitions());
    PSG_RETURN_NOT_OK(RunAction([&](int32_t p) -> Status {
      auto part = node_->Compute(p);
      if (!part.ok()) return part.status();
      parts[p] = std::move(*part);
      return Status::OK();
    }));
    size_t total = 0;
    for (const auto& part : parts) total += part.size();
    std::vector<T> all;
    all.reserve(total);
    for (auto& part : parts) {
      for (auto& v : part) all.push_back(std::move(v));
    }
    return all;
  }

  Result<uint64_t> Count() const {
    std::vector<uint64_t> sizes(node_->num_partitions(), 0);
    PSG_RETURN_NOT_OK(RunAction([&](int32_t p) -> Status {
      auto part = node_->Borrow(p);
      if (!part.ok()) return part.status();
      sizes[p] = (*part)->size();
      return Status::OK();
    }));
    uint64_t n = 0;
    for (uint64_t s : sizes) n += s;
    return n;
  }

  /// Evaluates all partitions for side effects / materialization.
  Status Evaluate() const {
    return RunAction([&](int32_t p) { return node_->Borrow(p).status(); });
  }

 private:
  /// Every action's core: the stage walk writes the upstream map stages,
  /// then fn(p) runs for every partition, then the stage barrier.
  Status RunAction(const std::function<Status(int32_t)>& fn) const {
    PSG_RETURN_NOT_OK(node_->PrepareStages());
    PSG_RETURN_NOT_OK(RunPartitioned(ctx_, node_->num_partitions(), fn));
    ctx_->StageBarrier();
    return Status::OK();
  }

  DataflowContext* ctx_;
  std::shared_ptr<detail::Node<T>> node_;
};

}  // namespace psgraph::dataflow

#endif  // PSGRAPH_DATAFLOW_DATASET_H_
