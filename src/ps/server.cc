#include "ps/server.h"

#include <algorithm>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/varint.h"
#include "common/wire.h"
#include "ps/partitioner.h"

namespace psgraph::ps {

namespace {
constexpr uint64_t kHashEntryOverhead = 48;
constexpr uint32_t kCheckpointMagic = 0x50534350;  // "PSCP"

/// Why PullNeighbors and ExportMatrix could not index `csr` safely, or
/// empty when they can: offsets must be keys + 1 non-decreasing values
/// from 0 to the neighbor count, keys strictly ascending (the lookups
/// binary-search them), and weights absent or one per neighbor.
std::string CsrDefect(const CsrStore& csr) {
  const auto str = [](uint64_t v) { return std::to_string(v); };
  if (csr.offsets.size() != csr.keys.size() + 1) {
    return "has " + str(csr.offsets.size()) + " offsets for " +
           str(csr.keys.size()) + " keys";
  }
  if (csr.offsets.front() != 0) {
    return "starts its offsets at " + str(csr.offsets.front());
  }
  for (size_t i = 1; i < csr.offsets.size(); ++i) {
    if (csr.offsets[i] < csr.offsets[i - 1]) {
      return "has decreasing offsets at index " + str(i);
    }
  }
  if (csr.offsets.back() != csr.neighbors.size()) {
    return "ends its offsets at " + str(csr.offsets.back()) + ", not at its " +
           str(csr.neighbors.size()) + " neighbors";
  }
  for (size_t i = 1; i < csr.keys.size(); ++i) {
    if (csr.keys[i] <= csr.keys[i - 1]) {
      return "has keys out of order at index " + str(i);
    }
  }
  if (!csr.weights.empty() && csr.weights.size() != csr.neighbors.size()) {
    return "has " + str(csr.weights.size()) + " weights for " +
           str(csr.neighbors.size()) + " neighbors";
  }
  return "";
}
}  // namespace

std::pair<uint32_t, uint32_t> ColumnSliceOf(uint32_t cols, int32_t s,
                                            int32_t n) {
  uint32_t width = (cols + n - 1) / n;
  uint32_t begin = std::min<uint32_t>(cols, width * s);
  uint32_t end = std::min<uint32_t>(cols, begin + width);
  return {begin, end};
}

void SerializeMeta(ByteBuffer& buf, const MatrixMeta& meta) {
  buf.Write<int32_t>(meta.id);
  buf.WriteString(meta.name);
  buf.Write<uint64_t>(meta.num_rows);
  buf.Write<uint32_t>(meta.num_cols);
  buf.Write<uint8_t>(static_cast<uint8_t>(meta.kind));
  buf.Write<uint8_t>(static_cast<uint8_t>(meta.layout));
  buf.Write<uint8_t>(static_cast<uint8_t>(meta.scheme));
  buf.Write<float>(meta.init_value);
}

Status DeserializeMeta(ByteReader& reader, MatrixMeta* meta) {
  PSG_RETURN_NOT_OK(reader.Read(&meta->id));
  PSG_RETURN_NOT_OK(reader.ReadString(&meta->name));
  PSG_RETURN_NOT_OK(reader.Read(&meta->num_rows));
  PSG_RETURN_NOT_OK(reader.Read(&meta->num_cols));
  uint8_t kind = 0, layout = 0, scheme = 0;
  PSG_RETURN_NOT_OK(reader.Read(&kind));
  PSG_RETURN_NOT_OK(reader.Read(&layout));
  PSG_RETURN_NOT_OK(reader.Read(&scheme));
  meta->kind = static_cast<StorageKind>(kind);
  meta->layout = static_cast<Layout>(layout);
  meta->scheme = static_cast<PartitionScheme>(scheme);
  return reader.Read(&meta->init_value);
}

PsFuncRegistry& PsFuncRegistry::Global() {
  static PsFuncRegistry instance;
  return instance;
}

void PsFuncRegistry::Register(const std::string& name, PsFunc fn) {
  std::lock_guard<std::mutex> lock(mu_);
  funcs_[name] = std::move(fn);
}

Result<PsFunc> PsFuncRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = funcs_.find(name);
  if (it == funcs_.end()) {
    return Status::NotFound("psFunc '" + name + "' is not registered");
  }
  return it->second;
}

PsServer::PsServer(int32_t server_index, int32_t num_servers,
                   sim::SimCluster* cluster, storage::Hdfs* hdfs)
    : server_index_(server_index),
      num_servers_(num_servers),
      cluster_(cluster),
      node_(cluster->config().server(server_index)),
      hdfs_(hdfs) {}

Status PsServer::ChargeMemory(uint64_t bytes, const char* what) {
  PSG_RETURN_NOT_OK(cluster_->memory().Allocate(node_, bytes, what));
  total_charged_ += bytes;
  return Status::OK();
}

void PsServer::ReleaseMemory(uint64_t bytes) {
  cluster_->memory().Release(node_, bytes);
  total_charged_ -= std::min(total_charged_, bytes);
}

void PsServer::ChargeCompute(uint64_t ops) {
  cluster_->clock().Advance(node_, cluster_->cost().ComputeTime(ops));
}

uint64_t PsServer::EntryBytes(const NeighborEntry& e) {
  return kHashEntryOverhead + e.neighbors.size() * sizeof(uint64_t) +
         e.weights.size() * sizeof(float);
}

uint64_t PsServer::charged_bytes() const { return total_charged_; }

Status PsServer::InitMatrix(const MatrixMeta& meta) {
  if (shards_.count(meta.id) > 0) return AlreadyHeld(meta.id);
  shards_.emplace(meta.id, NewShard(meta));
  return Status::OK();
}

Status PsServer::AlreadyHeld(MatrixId id) const {
  return Status::AlreadyExists("matrix " + std::to_string(id) +
                               " already on server " +
                               std::to_string(server_index_));
}

MatrixShard PsServer::NewShard(const MatrixMeta& meta) const {
  MatrixShard shard;
  shard.meta = meta;
  // A column-partitioned server holds a slice of every row; a
  // row-partitioned one the keys of its partition (one per server).
  std::pair<uint64_t, uint64_t> window{0, meta.num_rows};
  if (meta.layout == Layout::kColumnPartitioned) {
    auto [begin, end] =
        ColumnSliceOf(meta.num_cols, server_index_, num_servers_);
    shard.col_begin = begin;
    shard.slice_cols = end - begin;
  } else {
    shard.col_begin = 0;
    shard.slice_cols = meta.num_cols;
    window = Partitioner(meta.scheme, meta.num_rows, num_servers_)
                 .KeyWindow(server_index_);
  }
  shard.rows = RowStore(window.first, window.second, shard.slice_cols);
  return shard;
}

Status PsServer::DropMatrix(MatrixId id) {
  auto it = shards_.find(id);
  if (it == shards_.end()) {
    return Status::NotFound("matrix " + std::to_string(id));
  }
  ReleaseMemory(it->second.charged_bytes);
  shards_.erase(it);
  return Status::OK();
}

Result<MatrixShard*> PsServer::GetShard(MatrixId id) {
  auto it = shards_.find(id);
  if (it == shards_.end()) {
    return Status::NotFound("matrix " + std::to_string(id) +
                            " not on server " +
                            std::to_string(server_index_));
  }
  return &it->second;
}

Status PsServer::PullRows(MatrixId id, std::span<const uint64_t> keys,
                          std::vector<float>* out) {
  // Service-time bracket: the shard's clock only moves for this
  // request while we hold its endpoint's serial lock (or run
  // single-threaded), so the delta is exactly this pull's busy time.
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.pull", node_, t0,
                  [this] { return NowTicks(); });
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  const uint32_t cols = shard->slice_cols;
  ChargeCompute(keys.size() * cols / 8 + keys.size());
  // Contiguous pre-sized response buffer: one resize, then a single pass
  // that copies each stored row (or fills init_value) into place —
  // no per-key reallocation/insert bookkeeping on the pull hot path.
  const size_t base = out->size();
  out->resize(base + keys.size() * cols);
  float* dst = out->data() + base;
  for (uint64_t key : keys) {
    const float* row = shard->FindRow(key);
    if (row != nullptr) {
      std::copy_n(row, cols, dst);
    } else {
      std::fill_n(dst, cols, shard->meta.init_value);
    }
    dst += cols;
  }
  metrics().Add("ps.rows_pulled", keys.size());
  metrics().Observe("ps.pull.service_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  return Status::OK();
}

Status PsServer::PushAdd(MatrixId id, std::span<const uint64_t> keys,
                         std::span<const float> values) {
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.push_add", node_, t0,
                  [this] { return NowTicks(); });
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  if (values.size() != keys.size() * shard->slice_cols) {
    return Status::InvalidArgument(
        "push_add: values size " + std::to_string(values.size()) +
        " != keys*cols " + std::to_string(keys.size() * shard->slice_cols));
  }
  ChargeCompute(values.size() / 4 + keys.size());
  PSG_RETURN_NOT_OK(ApplyRows(shard, keys, values, /*add=*/true));
  metrics().Add("ps.rows_pushed", keys.size());
  metrics().Observe("ps.push.service_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  return Status::OK();
}

Status PsServer::ApplyRows(MatrixShard* shard,
                           std::span<const uint64_t> keys,
                           std::span<const float> values, bool add) {
  const uint32_t cols = shard->slice_cols;
  // A materialized row is still charged what a hash-map entry cost.
  const uint64_t row_bytes =
      kHashEntryOverhead + uint64_t{cols} * sizeof(float);
  // All or nothing: the batch's new rows (a repeated key once) must fit
  // the store and the budget before any row is applied, and are charged
  // in one call. Usage and peak end where one charge per row left them.
  new_keys_.clear();
  for (uint64_t key : keys) {
    if (shard->rows.Find(key) == nullptr) new_keys_.push_back(key);
  }
  if (!new_keys_.empty()) {
    std::sort(new_keys_.begin(), new_keys_.end());
    new_keys_.erase(std::unique(new_keys_.begin(), new_keys_.end()),
                    new_keys_.end());
    PSG_RETURN_NOT_OK(shard->rows.Cover(new_keys_.front(), new_keys_.back()));
    const uint64_t bytes = new_keys_.size() * row_bytes;
    PSG_RETURN_NOT_OK(ChargeMemory(bytes, "ps row"));
    shard->charged_bytes += bytes;
  }
  // Single-pass apply: one offset lookup per key and a tight
  // accumulate/copy over the contiguous value slab.
  const float* src = values.data();
  for (size_t i = 0; i < keys.size(); ++i, src += cols) {
    float* dst = shard->rows.Find(keys[i]);
    if (dst == nullptr) {
      PSG_ASSIGN_OR_RETURN(dst, shard->rows.Insert(keys[i]));
      if (add) std::fill_n(dst, cols, shard->meta.init_value);
    }
    if (add) {
      for (uint32_t c = 0; c < cols; ++c) dst[c] += src[c];
    } else {
      // copy_n, not memcpy: cols can be 0 for an empty column slice, and
      // values.data() is null then.
      std::copy_n(src, cols, dst);
    }
  }
  return Status::OK();
}

PsServer::RowBatch::~RowBatch() {
  PsServer& s = *server_;
  if (ticks_ > 0) s.cluster_->clock().AdvanceTicks(s.node_, ticks_);
  if (rows_ == 0) return;
  s.metrics().Add("ps.rows_pushed", rows_);
  Histogram& service = s.metrics().GetHistogram("ps.push.service_ticks");
  for (const auto& [ticks, n] : service_runs_) service.RecordN(ticks, n);
}

Status PsServer::RowBatch::Write(MatrixId id, uint64_t key,
                                 std::span<const float> row, bool add) {
  if (cached_shard_ == nullptr || id != cached_id_) {
    PSG_ASSIGN_OR_RETURN(cached_shard_, server_->GetShard(id));
    cached_id_ = id;
  }
  MatrixShard* shard = cached_shard_;
  if (row.size() != shard->slice_cols) {
    return Status::InvalidArgument(
        std::string(add ? "push_add" : "push_assign") + ": values size " +
        std::to_string(row.size()) + " != keys*cols " +
        std::to_string(shard->slice_cols));
  }
  // The one-key call charges ChargeCompute(values.size() / 4 + 1) before
  // applying, and its service bracket measures exactly that charge.
  if (row.size() != row_ticks_cols_) {
    row_ticks_cols_ = row.size();
    row_ticks_ = sim::SimClock::TicksOf(
        server_->cluster_->cost().ComputeTime(row.size() / 4 + 1));
  }
  ticks_ += row_ticks_;
  PSG_RETURN_NOT_OK(server_->ApplyRows(shard, {&key, 1}, row, add));
  ++rows_;
  const uint64_t sample = static_cast<uint64_t>(row_ticks_);
  if (!service_runs_.empty() && service_runs_.back().first == sample) {
    ++service_runs_.back().second;
  } else {
    service_runs_.emplace_back(sample, 1);
  }
  return Status::OK();
}

Status PsServer::MergeRows(MatrixId id, std::span<const uint64_t> keys,
                           std::span<const float> deltas) {
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.merge", node_, t0,
                  [this] { return NowTicks(); });
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  if (deltas.size() != keys.size() * shard->slice_cols) {
    return Status::InvalidArgument(
        "merge: deltas size " + std::to_string(deltas.size()) +
        " != keys*cols " +
        std::to_string(keys.size() * shard->slice_cols));
  }
  ChargeCompute(deltas.size() / 4 + keys.size());
  PSG_RETURN_NOT_OK(ApplyRows(shard, keys, deltas, /*add=*/true));
  return Status::OK();
}

Status PsServer::PushAssign(MatrixId id, std::span<const uint64_t> keys,
                            std::span<const float> values) {
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.push_assign", node_, t0,
                  [this] { return NowTicks(); });
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  if (values.size() != keys.size() * shard->slice_cols) {
    return Status::InvalidArgument("push_assign: bad values size");
  }
  ChargeCompute(values.size() / 4 + keys.size());
  PSG_RETURN_NOT_OK(ApplyRows(shard, keys, values, /*add=*/false));
  metrics().Add("ps.rows_pushed", keys.size());
  metrics().Observe("ps.push.service_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  return Status::OK();
}

Status PsServer::PushNeighbors(MatrixId id,
                               std::span<const uint64_t> keys,
                               std::span<const NeighborEntry> entries) {
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  if (shard->csr.has_value()) {
    return Status::FailedPrecondition(
        "push_neighbors: shard is frozen to CSR");
  }
  if (keys.size() != entries.size()) {
    return Status::InvalidArgument("push_neighbors: keys/entries mismatch");
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    uint64_t bytes = EntryBytes(entries[i]);
    auto it = shard->neighbors.find(keys[i]);
    if (it != shard->neighbors.end()) {
      // Merge (the same vertex can arrive from several executors when the
      // input is edge-partitioned).
      NeighborEntry& dst = it->second;
      uint64_t extra =
          entries[i].neighbors.size() * sizeof(uint64_t) +
          entries[i].weights.size() * sizeof(float);
      PSG_RETURN_NOT_OK(ChargeMemory(extra, "ps neighbor table"));
      shard->charged_bytes += extra;
      dst.neighbors.insert(dst.neighbors.end(),
                           entries[i].neighbors.begin(),
                           entries[i].neighbors.end());
      dst.weights.insert(dst.weights.end(), entries[i].weights.begin(),
                         entries[i].weights.end());
    } else {
      PSG_RETURN_NOT_OK(ChargeMemory(bytes, "ps neighbor table"));
      shard->charged_bytes += bytes;
      shard->neighbors.emplace(keys[i], entries[i]);
    }
  }
  ChargeCompute(keys.size());
  return Status::OK();
}

Status PsServer::MutateNeighbors(MatrixId id,
                                 std::span<const uint64_t> insert_src,
                                 std::span<const uint64_t> insert_dst,
                                 std::span<const float> insert_weights,
                                 std::span<const uint64_t> delete_src,
                                 std::span<const uint64_t> delete_dst) {
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.mutate", node_, t0,
                  [this] { return NowTicks(); });
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  if (shard->csr.has_value()) {
    return Status::FailedPrecondition("mutate: shard is frozen to CSR");
  }
  if (insert_src.size() != insert_dst.size() ||
      delete_src.size() != delete_dst.size() ||
      (!insert_weights.empty() &&
       insert_weights.size() != insert_src.size())) {
    return Status::InvalidArgument("mutate: op list size mismatch");
  }
  const bool weighted = !insert_weights.empty();
  uint64_t ops = insert_src.size() + delete_src.size();

  // The batch applies to copies of the lists it touches, and its insert
  // bytes are charged in one allocation before the copies replace the
  // stored lists: a bad edge or an exhausted budget leaves the shard,
  // its charges and the clock as they were. Inserts first, deletes
  // second — legal because an epoch batch never carries the same
  // (src, dst) twice (see net::MutateRequest).
  std::map<uint64_t, NeighborEntry> staged;
  uint64_t insert_bytes = 0;
  uint64_t released = 0;
  for (size_t i = 0; i < insert_src.size(); ++i) {
    const uint64_t src = insert_src[i];
    const uint64_t dst = insert_dst[i];
    auto [it, fresh] = staged.try_emplace(src);
    if (fresh) {
      auto stored = shard->neighbors.find(src);
      if (stored == shard->neighbors.end()) {
        insert_bytes += kHashEntryOverhead;
      } else {
        it->second = stored->second;
      }
    }
    NeighborEntry& entry = it->second;
    ops += entry.neighbors.size();  // duplicate scan below
    if (std::find(entry.neighbors.begin(), entry.neighbors.end(), dst) !=
        entry.neighbors.end()) {
      return Status::InvalidArgument(
          "mutate: duplicate INSERT of edge " + std::to_string(src) +
          " -> " + std::to_string(dst));
    }
    insert_bytes += sizeof(uint64_t) + (weighted ? sizeof(float) : 0);
    entry.neighbors.push_back(dst);
    if (weighted) entry.weights.push_back(insert_weights[i]);
  }

  for (size_t i = 0; i < delete_src.size(); ++i) {
    const uint64_t src = delete_src[i];
    const uint64_t dst = delete_dst[i];
    auto it = staged.find(src);
    if (it == staged.end()) {
      auto stored = shard->neighbors.find(src);
      if (stored == shard->neighbors.end()) {
        return Status::NotFound(
            "mutate: DELETE of edge " + std::to_string(src) + " -> " +
            std::to_string(dst) + ": source vertex has no adjacency");
      }
      it = staged.emplace(src, stored->second).first;
    }
    NeighborEntry& entry = it->second;
    auto pos =
        std::find(entry.neighbors.begin(), entry.neighbors.end(), dst);
    if (pos == entry.neighbors.end()) {
      return Status::NotFound("mutate: DELETE of nonexistent edge " +
                              std::to_string(src) + " -> " +
                              std::to_string(dst));
    }
    ops += entry.neighbors.size();  // the scan above
    const size_t idx =
        static_cast<size_t>(pos - entry.neighbors.begin());
    // Order-preserving erase: adjacency order is part of the
    // deterministic state (CSR freeze, samplers iterate it).
    entry.neighbors.erase(pos);
    released += sizeof(uint64_t);
    if (!entry.weights.empty()) {
      entry.weights.erase(entry.weights.begin() +
                          static_cast<ptrdiff_t>(idx));
      released += sizeof(float);
    }
  }

  PSG_RETURN_NOT_OK(ChargeMemory(insert_bytes, "ps neighbor table"));
  shard->charged_bytes += insert_bytes;
  ReleaseMemory(released);
  shard->charged_bytes -= std::min(shard->charged_bytes, released);
  // A vertex whose last edge is deleted keeps its (empty) entry: degree
  // 0 is a real state, and re-insertion stays cheap.
  for (auto& [src, entry] : staged) {
    shard->neighbors.try_emplace(src).first->second = std::move(entry);
  }
  ChargeCompute(ops);
  metrics().Add("ps.edges_inserted", insert_src.size());
  metrics().Add("ps.edges_deleted", delete_src.size());
  metrics().Observe("ps.mutate.service_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  return Status::OK();
}

Status PsServer::PullNeighbors(MatrixId id,
                               std::span<const uint64_t> keys,
                               ByteBuffer* out) {
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.pull_nbrs", node_, t0,
                  [this] { return NowTicks(); });
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  ChargeCompute(keys.size());
  // Resolve every key to its stored lists once (empty for an unknown
  // vertex), size the response exactly, then encode each list straight
  // from the store: no per-key copy and one buffer allocation.
  struct Lists {
    std::span<const uint64_t> neighbors;
    std::span<const float> weights;
  };
  std::vector<Lists> lists;
  lists.reserve(keys.size());
  if (shard->csr.has_value()) {
    const CsrStore& csr = *shard->csr;
    // The agent sends each server's keys sorted (GroupKeysByServer), so
    // the binary search sweeps forward from the previous hit instead of
    // restarting over the whole key array — near-linear for a sorted
    // batch. An out-of-order key (direct callers) just resets the sweep.
    auto hint = csr.keys.begin();
    uint64_t prev_key = 0;
    for (uint64_t key : keys) {
      if (key < prev_key) hint = csr.keys.begin();
      prev_key = key;
      auto it = std::lower_bound(hint, csr.keys.end(), key);
      hint = it;
      if (it == csr.keys.end() || *it != key) {
        lists.push_back({});
        continue;
      }
      const size_t i = static_cast<size_t>(it - csr.keys.begin());
      const size_t begin = csr.offsets[i];
      const size_t n = csr.offsets[i + 1] - begin;
      Lists l{{csr.neighbors.data() + begin, n}, {}};
      if (!csr.weights.empty()) l.weights = {csr.weights.data() + begin, n};
      lists.push_back(l);
    }
  } else {
    for (uint64_t key : keys) {
      auto it = shard->neighbors.find(key);
      if (it == shard->neighbors.end()) {
        lists.push_back({});
      } else {
        lists.push_back({it->second.neighbors, it->second.weights});
      }
    }
  }
  size_t bytes = out->size();
  for (const Lists& l : lists) {
    bytes += DeltaListSize(l.neighbors.data(), l.neighbors.size()) +
             FloatBlockSize(l.weights.size());
  }
  out->Reserve(bytes);
  for (const Lists& l : lists) {
    PutDeltaList(out, l.neighbors.data(), l.neighbors.size());
    WriteFloatBlock(out, l.weights.data(), l.weights.size());
  }
  metrics().Add("ps.neighbor_entries_pulled", keys.size());
  return Status::OK();
}

Status PsServer::FreezeNeighbors(MatrixId id) {
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, GetShard(id));
  if (shard->csr.has_value()) return Status::OK();  // idempotent

  CsrStore csr;
  csr.keys.reserve(shard->neighbors.size());
  for (const auto& [key, entry] : shard->neighbors) {
    csr.keys.push_back(key);
  }
  std::sort(csr.keys.begin(), csr.keys.end());
  csr.offsets.reserve(csr.keys.size() + 1);
  csr.offsets.push_back(0);
  bool weighted = false;
  for (const auto& [_, entry] : shard->neighbors) {
    if (!entry.weights.empty()) weighted = true;
  }
  for (uint64_t key : csr.keys) {
    const NeighborEntry& entry = shard->neighbors.at(key);
    csr.neighbors.insert(csr.neighbors.end(), entry.neighbors.begin(),
                         entry.neighbors.end());
    if (weighted) {
      csr.weights.insert(csr.weights.end(), entry.weights.begin(),
                         entry.weights.end());
      csr.weights.resize(csr.neighbors.size(), 1.0f);  // pad unweighted
    }
    csr.offsets.push_back(csr.neighbors.size());
  }

  // Swap the accounting: charge the CSR image, release the hash map.
  uint64_t old_bytes = 0;
  for (const auto& [_, entry] : shard->neighbors) {
    old_bytes += EntryBytes(entry);
  }
  uint64_t new_bytes = csr.ByteSize();
  PSG_RETURN_NOT_OK(ChargeMemory(new_bytes, "ps csr freeze"));
  shard->charged_bytes += new_bytes;
  ReleaseMemory(old_bytes);
  shard->charged_bytes -= std::min(shard->charged_bytes, old_bytes);
  shard->neighbors.clear();
  shard->csr = std::move(csr);
  ChargeCompute(shard->csr->neighbors.size() / 8 +
                shard->csr->keys.size());
  return Status::OK();
}

Result<ByteBuffer> PsServer::CallFunc(const std::string& name,
                                      std::span<const uint8_t> args) {
  PSG_ASSIGN_OR_RETURN(PsFunc fn, PsFuncRegistry::Global().Find(name));
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.func." + name, node_, t0,
                  [this] { return NowTicks(); });
  ByteReader reader(args.data(), args.size());
  auto result = fn(*this, reader);
  metrics().Observe("ps.func.service_ticks",
                    static_cast<uint64_t>(NowTicks() - t0));
  return result;
}

Status PsServer::Checkpoint(const std::string& prefix) {
  if (hdfs_ == nullptr) {
    return Status::FailedPrecondition("server has no HDFS attached");
  }
  // Rows dominate a checkpoint: size the buffer for them once, with
  // slack for the magic, the counts and each shard's meta.
  ByteBuffer buf;
  uint64_t row_bytes = 0;
  for (const auto& [id, shard] : shards_) {
    row_bytes += shard.rows.size() *
                 (2 * sizeof(uint64_t) + shard.slice_cols * sizeof(float));
  }
  buf.Reserve(row_bytes + 64 * shards_.size() + 12);
  buf.Write<uint32_t>(kCheckpointMagic);
  buf.Write<uint64_t>(shards_.size());
  for (const auto& [id, shard] : shards_) {
    SerializeMeta(buf, shard.meta);
    buf.Write<uint64_t>(shard.rows.size());
    // Each row as [key:u64][count:u64][floats]: Write(key) +
    // WriteVector(row).
    for (const auto [key, row] : shard.rows) {
      buf.Write<uint64_t>(key);
      buf.Write<uint64_t>(row.size());
      buf.WriteRaw(row.data(), row.size() * sizeof(float));
    }
    buf.Write<uint64_t>(shard.neighbors.size());
    for (const auto& [key, entry] : shard.neighbors) {
      buf.Write<uint64_t>(key);
      buf.WriteVector(entry.neighbors);
      buf.WriteVector(entry.weights);
    }
    buf.Write<uint8_t>(shard.csr.has_value() ? 1 : 0);
    if (shard.csr.has_value()) {
      buf.WriteVector(shard.csr->keys);
      buf.WriteVector(shard.csr->offsets);
      buf.WriteVector(shard.csr->neighbors);
      buf.WriteVector(shard.csr->weights);
    }
  }
  const uint64_t bytes = buf.size();
  const int64_t save_t0 = NowTicks();
  Status st = hdfs_->Write(
      prefix + "/server_" + std::to_string(server_index_),
      std::move(buf).TakeData(), node_);
  if (st.ok()) {
    // Checkpoint I/O is fault-tolerance overhead, not training compute.
    cluster_->cost_ledger().Record(node_, sim::CostCategory::kRecovery,
                                   NowTicks() - save_t0);
    cluster_->events().Record(sim::JournalEventType::kCheckpointSave,
                              node_, NowTicks(),
                              static_cast<int64_t>(bytes));
  }
  return st;
}

Status PsServer::ExportMatrix(MatrixId id, ByteBuffer* out) {
  auto it = shards_.find(id);
  if (it == shards_.end()) {
    return Status::NotFound("export: no matrix " + std::to_string(id) +
                            " on server " + std::to_string(server_index_));
  }
  const MatrixShard& shard = it->second;
  const int64_t t0 = NowTicks();
  ScopedSpan span(&tracer(), "ps.export", node_, t0,
                  [this] { return NowTicks(); });

  // Wire format v2: sorted keys go out as one delta-encoded varint list,
  // rows as raw fp32 (width = slice_cols, implied), adjacency as
  // delta-encoded neighbor lists + a float block of weights. Sorting
  // both makes the bytes state-deterministic and makes the key deltas
  // small.
  out->Write<uint32_t>(shard.col_begin);
  out->Write<uint32_t>(shard.slice_cols);

  std::vector<uint64_t> keys;
  keys.reserve(shard.rows.size());
  for (const auto [key, row] : shard.rows) keys.push_back(key);
  PutDeltaList(out, keys);
  for (const auto [key, row] : shard.rows) {
    out->WriteRaw(row.data(), row.size() * sizeof(float));
  }

  if (shard.csr.has_value()) {
    const CsrStore& csr = *shard.csr;
    PutDeltaList(out, csr.keys);
    for (size_t i = 0; i < csr.keys.size(); ++i) {
      const uint64_t begin = csr.offsets[i];
      const uint64_t end = csr.offsets[i + 1];
      PutDeltaList(out, csr.neighbors.data() + begin, end - begin);
      const uint64_t nw = csr.weights.empty() ? 0 : end - begin;
      WriteFloatBlock(out, csr.weights.empty() ? nullptr
                                               : csr.weights.data() + begin,
                      nw);
    }
  } else {
    keys.clear();
    keys.reserve(shard.neighbors.size());
    for (const auto& [key, entry] : shard.neighbors) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    PutDeltaList(out, keys);
    for (uint64_t key : keys) {
      const NeighborEntry& entry = shard.neighbors.at(key);
      PutDeltaList(out, entry.neighbors);
      WriteFloatBlock(out, entry.weights);
    }
  }

  ChargeCompute(out->size());
  return Status::OK();
}

Status PsServer::Restore(const std::string& prefix) {
  if (hdfs_ == nullptr) {
    return Status::FailedPrecondition("server has no HDFS attached");
  }
  const int64_t restore_t0 = NowTicks();
  PSG_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      hdfs_->Read(prefix + "/server_" + std::to_string(server_index_),
                  node_));
  // Parse and validate the whole checkpoint into fresh shards; the
  // server's state and memory change only once all of it checks out.
  const std::string corrupt_file = "corrupt checkpoint for server " +
                                   std::to_string(server_index_);
  std::map<MatrixId, MatrixShard> restored;
  ByteReader reader(bytes);
  uint32_t magic = 0;
  PSG_RETURN_NOT_OK(reader.Read(&magic));
  if (magic != kCheckpointMagic) return Status::IoError(corrupt_file);
  uint64_t num_matrices = 0;
  PSG_RETURN_NOT_OK(reader.Read(&num_matrices));
  for (uint64_t m = 0; m < num_matrices; ++m) {
    MatrixMeta meta;
    PSG_RETURN_NOT_OK(DeserializeMeta(reader, &meta));
    if (restored.count(meta.id) > 0) return AlreadyHeld(meta.id);
    MatrixShard& shard =
        restored.emplace(meta.id, NewShard(meta)).first->second;
    const std::string matrix = " of matrix " + std::to_string(meta.id);
    uint64_t num_rows = 0;
    PSG_RETURN_NOT_OK(reader.Read(&num_rows));
    const uint32_t cols = shard.slice_cols;
    const uint64_t row_bytes =
        kHashEntryOverhead + uint64_t{cols} * sizeof(float);
    for (uint64_t i = 0; i < num_rows; ++i) {
      // Each row is [key:u64][count:u64][count floats]; the count must be
      // the slice width and the key new, or PullRows/ApplyRows would
      // step past the row.
      const size_t offset = reader.position();
      uint64_t key = 0, count = 0;
      PSG_RETURN_NOT_OK(reader.Read(&key));
      PSG_RETURN_NOT_OK(reader.Read(&count));
      auto corrupt = [&](const std::string& what) {
        return Status::IoError(corrupt_file + ": row " +
                               std::to_string(key) + matrix + " at offset " +
                               std::to_string(offset) + " " + what);
      };
      if (count != cols) {
        return corrupt("holds " + std::to_string(count) +
                       " floats, the slice is " + std::to_string(cols) +
                       " wide");
      }
      if (shard.rows.Find(key) != nullptr) {
        return corrupt("repeats an earlier key");
      }
      const size_t floats_bytes = size_t{cols} * sizeof(float);
      if (reader.remaining() < floats_bytes) return corrupt("is truncated");
      PSG_ASSIGN_OR_RETURN(float* row, shard.rows.Insert(key));
      shard.charged_bytes += row_bytes;
      PSG_RETURN_NOT_OK(reader.ReadRaw(row, floats_bytes));
    }
    uint64_t num_entries = 0;
    PSG_RETURN_NOT_OK(reader.Read(&num_entries));
    for (uint64_t i = 0; i < num_entries; ++i) {
      const size_t offset = reader.position();
      uint64_t key = 0;
      NeighborEntry entry;
      PSG_RETURN_NOT_OK(reader.Read(&key));
      PSG_RETURN_NOT_OK(reader.ReadVector(&entry.neighbors));
      PSG_RETURN_NOT_OK(reader.ReadVector(&entry.weights));
      const uint64_t entry_bytes = EntryBytes(entry);
      if (!shard.neighbors.emplace(key, std::move(entry)).second) {
        return Status::IoError(corrupt_file + ": neighbor list " +
                               std::to_string(key) + matrix + " at offset " +
                               std::to_string(offset) +
                               " repeats an earlier key");
      }
      shard.charged_bytes += entry_bytes;
    }
    uint8_t has_csr = 0;
    PSG_RETURN_NOT_OK(reader.Read(&has_csr));
    if (has_csr != 0) {
      const size_t offset = reader.position();
      CsrStore csr;
      PSG_RETURN_NOT_OK(reader.ReadVector(&csr.keys));
      PSG_RETURN_NOT_OK(reader.ReadVector(&csr.offsets));
      PSG_RETURN_NOT_OK(reader.ReadVector(&csr.neighbors));
      PSG_RETURN_NOT_OK(reader.ReadVector(&csr.weights));
      const std::string defect = CsrDefect(csr);
      if (!defect.empty()) {
        return Status::IoError(corrupt_file + ": CSR image" + matrix +
                               " at offset " + std::to_string(offset) + " " +
                               defect);
      }
      shard.charged_bytes += csr.ByteSize();
      shard.csr = std::move(csr);
    }
  }
  // Charge only the difference: usage and peak end where releasing the
  // old state and charging the new one would leave them, and a
  // checkpoint that does not fit leaves the server as it was.
  uint64_t old_bytes = 0, new_bytes = 0;
  for (const auto& [id, shard] : shards_) old_bytes += shard.charged_bytes;
  for (const auto& [id, shard] : restored) new_bytes += shard.charged_bytes;
  if (new_bytes > old_bytes) {
    PSG_RETURN_NOT_OK(ChargeMemory(new_bytes - old_bytes, "ps restore"));
  } else {
    ReleaseMemory(old_bytes - new_bytes);
  }
  shards_ = std::move(restored);
  // Everything since the HDFS read began (I/O + deserialization) is
  // recovery time, not training compute.
  cluster_->cost_ledger().Record(node_, sim::CostCategory::kRecovery,
                                 NowTicks() - restore_t0);
  cluster_->events().Record(sim::JournalEventType::kCheckpointRestore, node_,
                            NowTicks(), static_cast<int64_t>(bytes.size()));
  return Status::OK();
}

}  // namespace psgraph::ps
