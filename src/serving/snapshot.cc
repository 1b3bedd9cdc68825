#include "serving/snapshot.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "common/varint.h"
#include "common/wire.h"
#include "net/ps_wire.h"
#include "net/rpc.h"
#include "ps/partitioner.h"

namespace psgraph::serving {

namespace {

constexpr uint32_t kBlobMagic = 0x5053534E;  // "PSSN"
/// Bumped to 2 with the delta-key / quantized-row layout. The publisher
/// and loader ship together, so the loader only accepts its own version.
constexpr uint8_t kBlobFormatVersion = 2;

/// Checksums render through the shared hex helpers in common/hash.h so
/// every text format spells a 64-bit hash the same way.
Result<uint64_t> ChecksumFromHex(const std::string& hex) {
  uint64_t value = 0;
  if (!HashFromHex(hex, &value)) {
    return Status::IoError("snapshot manifest: bad checksum '" + hex + "'");
  }
  return value;
}

const char* KindName(ps::StorageKind kind) {
  return kind == ps::StorageKind::kNeighbors ? "neighbors" : "rows";
}

Result<const JsonValue*> Field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr) {
    return Status::IoError(std::string("snapshot manifest: missing '") +
                           key + "'");
  }
  return v;
}

/// Driver-side merge image of one matrix across PS servers. std::map so
/// blob emission is key-ordered without a separate sort.
struct MergedMatrix {
  SnapshotMatrixInfo info;
  std::map<uint64_t, std::vector<float>> rows;
  std::map<uint64_t, std::vector<uint64_t>> adjacency;
};

}  // namespace

std::string SnapshotVersionDir(const std::string& root, int64_t version) {
  return root + "/v" + std::to_string(version);
}

std::string SnapshotManifestPath(const std::string& root, int64_t version) {
  return SnapshotVersionDir(root, version) + "/MANIFEST.json";
}

std::string SnapshotBlobPath(const std::string& root, int64_t version,
                             int32_t shard) {
  return SnapshotVersionDir(root, version) + "/shard_" +
         std::to_string(shard) + ".blob";
}

std::string SnapshotCurrentPath(const std::string& root) {
  return root + "/CURRENT";
}

SnapshotPublisher::SnapshotPublisher(ps::PsContext* ps,
                                     SnapshotOptions options)
    : ps_(ps), options_(std::move(options)) {}

Result<int64_t> SnapshotPublisher::CurrentVersion() const {
  return ReadCurrentVersion(ps_->hdfs(), options_.root,
                            ps_->cluster()->config().driver());
}

Result<SnapshotManifest> SnapshotPublisher::Publish() {
  sim::SimCluster* cluster = ps_->cluster();
  const sim::NodeId driver = cluster->config().driver();
  const int64_t t0 = cluster->clock().NowTicks(driver);
  ScopedSpan span(&cluster->tracer(), "snapshot.publish", driver, t0,
                  [cluster, driver] {
                    return cluster->clock().NowTicks(driver);
                  });

  int64_t version = 1;
  {
    Result<int64_t> current = CurrentVersion();
    if (current.ok()) {
      version = current.value() + 1;
    } else if (!current.status().IsNotFound()) {
      return current.status();
    }
  }

  // Resolve the row codec before any RPC work so a bad option fails
  // fast.
  PSG_ASSIGN_OR_RETURN(const QuantMode quant, ParseQuantMode(options_.quant));

  // 1. Pull every PS server's partition of each requested matrix.
  std::vector<MergedMatrix> merged;
  merged.reserve(options_.matrices.size());
  for (const SnapshotMatrixSpec& spec : options_.matrices) {
    PSG_ASSIGN_OR_RETURN(ps::MatrixMeta meta, ps_->GetMatrix(spec.name));
    MergedMatrix m;
    m.info.name = meta.name;
    m.info.kind = meta.kind;
    m.info.num_rows = meta.num_rows;
    m.info.num_cols = meta.num_cols;
    m.info.init_value = meta.init_value;
    m.info.replicated = spec.replicated;

    std::vector<net::RpcFabric::ParallelCall> calls;
    calls.reserve(ps_->num_servers());
    for (int32_t s = 0; s < ps_->num_servers(); ++s) {
      ByteBuffer req;
      net::EncodeMatrixRequest(meta.id, &req);
      calls.push_back({ps_->ServerNode(s), "ps.export", std::move(req)});
    }
    PSG_ASSIGN_OR_RETURN(
        std::vector<std::vector<uint8_t>> responses,
        ps_->fabric()->CallParallel(driver, std::move(calls)));

    uint64_t merged_bytes = 0;
    for (const std::vector<uint8_t>& resp : responses) {
      merged_bytes += resp.size();
      ByteReader reader(resp.data(), resp.size());
      uint32_t col_begin = 0;
      uint32_t slice_cols = 0;
      PSG_RETURN_NOT_OK(reader.Read(&col_begin));
      PSG_RETURN_NOT_OK(reader.Read(&slice_cols));
      std::vector<uint64_t> row_keys;
      PSG_RETURN_NOT_OK(GetDeltaList(&reader, &row_keys));
      // The rows are row_keys.size() x slice_cols raw floats. Divide
      // rather than multiply so a corrupt width cannot wrap past the
      // bound, and check before sizing anything from it.
      if (!row_keys.empty() &&
          slice_cols > reader.remaining() / sizeof(float) / row_keys.size()) {
        return Status::OutOfRange(
            "ps.export: " + std::to_string(row_keys.size()) + " rows x " +
            std::to_string(slice_cols) + " floats at offset " +
            std::to_string(reader.position()) + " exceed remaining " +
            std::to_string(reader.remaining()) + " bytes");
      }
      std::vector<float> slice(row_keys.empty() ? 0 : slice_cols);
      for (uint64_t key : row_keys) {
        PSG_RETURN_NOT_OK(reader.ReadRaw(
            slice.data(), size_t{slice_cols} * sizeof(float)));
        std::vector<float>& row = m.rows[key];
        if (row.empty()) {
          row.assign(meta.num_cols, meta.init_value);
        }
        for (uint32_t c = 0; c < slice_cols; ++c) {
          if (col_begin + c < row.size()) row[col_begin + c] = slice[c];
        }
      }
      std::vector<uint64_t> adj_keys;
      PSG_RETURN_NOT_OK(GetDeltaList(&reader, &adj_keys));
      for (uint64_t key : adj_keys) {
        std::vector<uint64_t> neighbors;
        std::vector<float> weights;
        PSG_RETURN_NOT_OK(GetDeltaList(&reader, &neighbors));
        PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &weights));
        m.adjacency[key] = std::move(neighbors);
      }
    }
    cluster->clock().Advance(
        driver, cluster->cost().ComputeTime(merged_bytes / sizeof(float)));
    merged.push_back(std::move(m));
  }

  // 2. Shard placement. Key space defaults to the widest sharded matrix.
  uint64_t key_space = options_.key_space;
  if (key_space == 0) {
    for (const MergedMatrix& m : merged) {
      if (!m.info.replicated) {
        key_space = std::max(key_space, m.info.num_rows);
      }
    }
    if (key_space == 0) key_space = 1;
  }
  const int32_t num_shards = std::max(options_.num_shards, 1);
  ps::Partitioner part(ps::PartitionScheme::kHash, key_space, num_shards);

  // Halo keys per shard: feature rows referenced by shard-local
  // adjacency but placed on another shard.
  std::vector<std::set<uint64_t>> halo(num_shards);
  for (const MergedMatrix& m : merged) {
    if (m.info.replicated) continue;
    for (const auto& [key, neighbors] : m.adjacency) {
      const int32_t owner = part.PartitionOf(key);
      for (uint64_t nb : neighbors) {
        if (part.PartitionOf(nb) != owner) halo[owner].insert(nb);
      }
    }
  }

  // 3. One blob per serving shard.
  SnapshotManifest manifest;
  manifest.version = version;
  manifest.num_shards = num_shards;
  manifest.key_space = key_space;
  manifest.created_ticks = cluster->clock().NowTicks(driver);
  manifest.quant = quant;
  for (const MergedMatrix& m : merged) manifest.matrices.push_back(m.info);

  storage::Hdfs* hdfs = ps_->hdfs();
  for (int32_t shard = 0; shard < num_shards; ++shard) {
    ByteBuffer blob;
    blob.Write<uint32_t>(kBlobMagic);
    blob.Write<uint8_t>(kBlobFormatVersion);
    blob.Write<uint8_t>(static_cast<uint8_t>(quant));
    blob.Write<int64_t>(version);
    blob.Write<uint32_t>(static_cast<uint32_t>(shard));
    blob.Write<uint64_t>(merged.size());
    for (size_t mi = 0; mi < merged.size(); ++mi) {
      const MergedMatrix& m = merged[mi];
      // Replicated matrices (small dense weights) always stay fp32;
      // quantization targets the big sharded embedding tables.
      const QuantMode row_quant =
          m.info.replicated ? QuantMode::kNone : quant;
      blob.WriteString(m.info.name);
      blob.Write<uint8_t>(static_cast<uint8_t>(m.info.kind));
      blob.Write<uint8_t>(m.info.replicated ? 1 : 0);
      blob.Write<uint64_t>(m.info.num_rows);
      blob.Write<uint32_t>(m.info.num_cols);
      blob.Write<float>(m.info.init_value);
      blob.Write<uint8_t>(static_cast<uint8_t>(row_quant));

      // m.rows is a std::map, so this sweep yields key-sorted entries —
      // exactly what the delta list wants.
      std::vector<uint64_t> row_keys;
      std::vector<const std::vector<float>*> rows;
      for (const auto& [key, row] : m.rows) {
        const bool owned =
            m.info.replicated || part.PartitionOf(key) == shard;
        if (owned || halo[shard].count(key) > 0) {
          row_keys.push_back(key);
          rows.push_back(&row);
        }
      }
      PutDeltaList(&blob, row_keys);
      for (const std::vector<float>* row : rows) {
        manifest.raw_bytes += 8 + row->size() * sizeof(float);
        manifest.matrices[mi].quant_max_abs_error =
            std::max(manifest.matrices[mi].quant_max_abs_error,
                     QuantizeRowAppend(row_quant, row->data(), row->size(),
                                       &blob));
      }

      std::vector<uint64_t> adj_keys;
      for (const auto& [key, neighbors] : m.adjacency) {
        (void)neighbors;
        if (m.info.replicated || part.PartitionOf(key) == shard) {
          adj_keys.push_back(key);
        }
      }
      PutDeltaList(&blob, adj_keys);
      for (uint64_t key : adj_keys) {
        const std::vector<uint64_t>& neighbors = m.adjacency.at(key);
        manifest.raw_bytes += 8 + neighbors.size() * 8;
        PutDeltaList(&blob, neighbors);
      }
    }

    SnapshotShardInfo info;
    info.path = SnapshotBlobPath(options_.root, version, shard);
    info.bytes = blob.size();
    info.checksum = HashBytes(blob.data().data(), blob.size());
    PSG_RETURN_NOT_OK(
        hdfs->Write(info.path, std::move(blob).TakeData(), driver));
    cluster->metrics().Add("serving.snapshot_bytes", info.bytes);
    manifest.shards.push_back(std::move(info));
  }

  // 4. Commit: manifest then CURRENT, both via write-temp + rename so a
  // reader never sees a half-written pointer.
  JsonValue doc = JsonValue::Object();
  doc.Set("format", "psgraph.snapshot");
  doc.Set("version", manifest.version);
  doc.Set("num_shards", static_cast<int64_t>(manifest.num_shards));
  doc.Set("key_space", manifest.key_space);
  doc.Set("created_ticks", manifest.created_ticks);
  doc.Set("quant", QuantModeName(manifest.quant));
  doc.Set("raw_bytes", manifest.raw_bytes);
  JsonValue matrices = JsonValue::Array();
  for (const SnapshotMatrixInfo& info : manifest.matrices) {
    JsonValue m = JsonValue::Object();
    m.Set("name", info.name);
    m.Set("kind", KindName(info.kind));
    m.Set("num_rows", info.num_rows);
    m.Set("num_cols", static_cast<int64_t>(info.num_cols));
    m.Set("init_value", static_cast<double>(info.init_value));
    m.Set("replicated", info.replicated);
    m.Set("quant_max_abs_error", info.quant_max_abs_error);
    matrices.Append(std::move(m));
  }
  doc.Set("matrices", std::move(matrices));
  JsonValue shards = JsonValue::Array();
  for (const SnapshotShardInfo& info : manifest.shards) {
    JsonValue s = JsonValue::Object();
    s.Set("path", info.path);
    s.Set("bytes", info.bytes);
    s.Set("checksum", HashToHex(info.checksum));
    shards.Append(std::move(s));
  }
  doc.Set("shards", std::move(shards));

  const std::string manifest_path =
      SnapshotManifestPath(options_.root, version);
  PSG_RETURN_NOT_OK(
      hdfs->WriteString(manifest_path + ".tmp", doc.Dump(2), driver));
  PSG_RETURN_NOT_OK(hdfs->Rename(manifest_path + ".tmp", manifest_path));
  const std::string current = SnapshotCurrentPath(options_.root);
  PSG_RETURN_NOT_OK(hdfs->WriteString(current + ".tmp",
                                      std::to_string(version), driver));
  PSG_RETURN_NOT_OK(hdfs->Rename(current + ".tmp", current));
  cluster->metrics().Add("serving.snapshots_published", 1);
  PSG_LOG(Info) << "snapshot: published " << options_.root << " v"
                << version << " (" << num_shards << " shards)";

  PSG_RETURN_NOT_OK(ApplyRetention());
  return manifest;
}

Status SnapshotPublisher::ApplyRetention() {
  if (options_.keep_versions <= 0) return Status::OK();
  storage::Hdfs* hdfs = ps_->hdfs();
  const sim::NodeId driver = ps_->cluster()->config().driver();

  int64_t current = -1;
  {
    Result<int64_t> cur = CurrentVersion();
    if (cur.ok()) current = cur.value();
  }

  // Parse "<root>/v<N>/..." paths into the set of on-store versions.
  const std::string prefix = options_.root + "/v";
  std::set<int64_t> versions;
  for (const std::string& path : hdfs->List(prefix, driver)) {
    size_t pos = prefix.size();
    int64_t v = 0;
    bool any = false;
    while (pos < path.size() && path[pos] >= '0' && path[pos] <= '9') {
      v = v * 10 + (path[pos] - '0');
      ++pos;
      any = true;
    }
    if (any && pos < path.size() && path[pos] == '/') versions.insert(v);
  }

  std::vector<int64_t> ordered(versions.rbegin(), versions.rend());
  for (size_t i = 0; i < ordered.size(); ++i) {
    const int64_t v = ordered[i];
    if (i < static_cast<size_t>(options_.keep_versions)) continue;
    if (v == current) continue;
    // Manifest first: once it is gone the version cannot be loaded, so
    // a sweep interrupted mid-version never leaves a loadable torso.
    const std::string manifest_path =
        SnapshotManifestPath(options_.root, v);
    if (hdfs->Exists(manifest_path)) {
      PSG_RETURN_NOT_OK(hdfs->Delete(manifest_path, driver));
    }
    for (const std::string& path :
         hdfs->List(SnapshotVersionDir(options_.root, v) + "/", driver)) {
      PSG_RETURN_NOT_OK(hdfs->Delete(path, driver));
    }
    ps_->cluster()->metrics().Add("serving.snapshots_retired", 1);
    PSG_LOG(Info) << "snapshot: retired " << options_.root << " v" << v;
  }
  return Status::OK();
}

Result<int64_t> ReadCurrentVersion(storage::Hdfs* hdfs,
                                   const std::string& root,
                                   sim::NodeId node) {
  PSG_ASSIGN_OR_RETURN(std::string text,
                       hdfs->ReadString(SnapshotCurrentPath(root), node));
  int64_t version = 0;
  bool any = false;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return Status::IoError("snapshot: corrupt CURRENT pointer '" + text +
                             "' under " + root);
    }
    version = version * 10 + (c - '0');
    any = true;
  }
  if (!any) {
    return Status::IoError("snapshot: empty CURRENT pointer under " + root);
  }
  return version;
}

Result<SnapshotManifest> ReadManifest(storage::Hdfs* hdfs,
                                      const std::string& root,
                                      int64_t version, sim::NodeId node) {
  PSG_ASSIGN_OR_RETURN(
      std::string text,
      hdfs->ReadString(SnapshotManifestPath(root, version), node));
  PSG_ASSIGN_OR_RETURN(JsonValue doc, JsonValue::Parse(text));
  const JsonValue* format = doc.Find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != "psgraph.snapshot") {
    return Status::IoError("snapshot: bad manifest format under " + root);
  }
  SnapshotManifest manifest;
  PSG_ASSIGN_OR_RETURN(const JsonValue* version_v, Field(doc, "version"));
  manifest.version = version_v->as_int();
  PSG_ASSIGN_OR_RETURN(const JsonValue* num_shards_v,
                       Field(doc, "num_shards"));
  manifest.num_shards = static_cast<int32_t>(num_shards_v->as_int());
  PSG_ASSIGN_OR_RETURN(const JsonValue* key_space_v,
                       Field(doc, "key_space"));
  manifest.key_space = static_cast<uint64_t>(key_space_v->as_int());
  PSG_ASSIGN_OR_RETURN(const JsonValue* created_v,
                       Field(doc, "created_ticks"));
  manifest.created_ticks = created_v->as_int();
  PSG_ASSIGN_OR_RETURN(const JsonValue* quant_v, Field(doc, "quant"));
  PSG_ASSIGN_OR_RETURN(manifest.quant,
                       ParseQuantMode(quant_v->as_string()));
  PSG_ASSIGN_OR_RETURN(const JsonValue* raw_v, Field(doc, "raw_bytes"));
  manifest.raw_bytes = static_cast<uint64_t>(raw_v->as_int());
  PSG_ASSIGN_OR_RETURN(const JsonValue* matrices, Field(doc, "matrices"));
  if (!matrices->is_array()) {
    return Status::IoError("snapshot: manifest missing matrices");
  }
  for (size_t i = 0; i < matrices->size(); ++i) {
    const JsonValue& m = matrices->at(i);
    SnapshotMatrixInfo info;
    PSG_ASSIGN_OR_RETURN(const JsonValue* name_v, Field(m, "name"));
    info.name = name_v->as_string();
    PSG_ASSIGN_OR_RETURN(const JsonValue* kind_v, Field(m, "kind"));
    info.kind = kind_v->as_string() == "neighbors"
                    ? ps::StorageKind::kNeighbors
                    : ps::StorageKind::kRows;
    PSG_ASSIGN_OR_RETURN(const JsonValue* rows_v, Field(m, "num_rows"));
    info.num_rows = static_cast<uint64_t>(rows_v->as_int());
    PSG_ASSIGN_OR_RETURN(const JsonValue* cols_v, Field(m, "num_cols"));
    info.num_cols = static_cast<uint32_t>(cols_v->as_int());
    PSG_ASSIGN_OR_RETURN(const JsonValue* init_v, Field(m, "init_value"));
    info.init_value = static_cast<float>(init_v->as_double());
    PSG_ASSIGN_OR_RETURN(const JsonValue* repl_v, Field(m, "replicated"));
    info.replicated = repl_v->as_bool();
    PSG_ASSIGN_OR_RETURN(const JsonValue* err_v,
                         Field(m, "quant_max_abs_error"));
    info.quant_max_abs_error = err_v->as_double();
    manifest.matrices.push_back(std::move(info));
  }
  PSG_ASSIGN_OR_RETURN(const JsonValue* shards, Field(doc, "shards"));
  if (!shards->is_array()) {
    return Status::IoError("snapshot: manifest missing shards");
  }
  for (size_t i = 0; i < shards->size(); ++i) {
    const JsonValue& s = shards->at(i);
    SnapshotShardInfo info;
    PSG_ASSIGN_OR_RETURN(const JsonValue* path_v, Field(s, "path"));
    info.path = path_v->as_string();
    PSG_ASSIGN_OR_RETURN(const JsonValue* bytes_v, Field(s, "bytes"));
    info.bytes = static_cast<uint64_t>(bytes_v->as_int());
    PSG_ASSIGN_OR_RETURN(const JsonValue* sum_v, Field(s, "checksum"));
    PSG_ASSIGN_OR_RETURN(info.checksum,
                         ChecksumFromHex(sum_v->as_string()));
    manifest.shards.push_back(std::move(info));
  }
  if (manifest.shards.size() !=
      static_cast<size_t>(manifest.num_shards)) {
    return Status::IoError("snapshot: manifest shard count mismatch");
  }
  return manifest;
}

Result<LoadedShard> LoadShardBlob(storage::Hdfs* hdfs,
                                  const std::string& root,
                                  const SnapshotManifest& manifest,
                                  int32_t shard, sim::NodeId node) {
  (void)root;
  if (shard < 0 || shard >= manifest.num_shards) {
    return Status::InvalidArgument("snapshot: no shard " +
                                   std::to_string(shard));
  }
  const SnapshotShardInfo& info =
      manifest.shards[static_cast<size_t>(shard)];
  PSG_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                       hdfs->Read(info.path, node));
  const uint64_t checksum = HashBytes(bytes.data(), bytes.size());
  if (bytes.size() != info.bytes || checksum != info.checksum) {
    return Status::IoError(
        "snapshot checksum mismatch for shard_" + std::to_string(shard) +
        " (" + info.path + "): expected " + HashToHex(info.checksum) +
        "/" + std::to_string(info.bytes) + "B, got " +
        HashToHex(checksum) + "/" + std::to_string(bytes.size()) + "B");
  }

  ByteReader reader(bytes);
  uint32_t magic = 0;
  PSG_RETURN_NOT_OK(reader.Read(&magic));
  if (magic != kBlobMagic) {
    return Status::IoError("snapshot: bad blob magic in " + info.path);
  }
  uint8_t format = 0;
  uint8_t blob_quant = 0;
  PSG_RETURN_NOT_OK(reader.Read(&format));
  PSG_RETURN_NOT_OK(reader.Read(&blob_quant));
  if (format != kBlobFormatVersion) {
    return Status::IoError("snapshot: blob format v" +
                           std::to_string(format) + " in " + info.path +
                           " (loader speaks v" +
                           std::to_string(kBlobFormatVersion) + ")");
  }
  LoadedShard loaded;
  loaded.blob_bytes = bytes.size();
  PSG_RETURN_NOT_OK(reader.Read(&loaded.version));
  uint32_t shard_index = 0;
  PSG_RETURN_NOT_OK(reader.Read(&shard_index));
  loaded.shard_index = static_cast<int32_t>(shard_index);
  if (loaded.version != manifest.version ||
      loaded.shard_index != shard ||
      static_cast<QuantMode>(blob_quant) != manifest.quant) {
    return Status::IoError("snapshot: blob/manifest mismatch in " +
                           info.path);
  }
  uint64_t num_matrices = 0;
  PSG_RETURN_NOT_OK(reader.Read(&num_matrices));
  for (uint64_t i = 0; i < num_matrices; ++i) {
    LoadedMatrix m;
    PSG_RETURN_NOT_OK(reader.ReadString(&m.info.name));
    uint8_t kind = 0;
    uint8_t replicated = 0;
    uint8_t row_quant = 0;
    PSG_RETURN_NOT_OK(reader.Read(&kind));
    PSG_RETURN_NOT_OK(reader.Read(&replicated));
    PSG_RETURN_NOT_OK(reader.Read(&m.info.num_rows));
    PSG_RETURN_NOT_OK(reader.Read(&m.info.num_cols));
    PSG_RETURN_NOT_OK(reader.Read(&m.info.init_value));
    PSG_RETURN_NOT_OK(reader.Read(&row_quant));
    m.info.kind = static_cast<ps::StorageKind>(kind);
    m.info.replicated = replicated != 0;
    const QuantMode mode = static_cast<QuantMode>(row_quant);
    const size_t cols = m.info.num_cols;

    std::vector<uint64_t> row_keys;
    PSG_RETURN_NOT_OK(GetDeltaList(&reader, &row_keys));
    m.rows.reserve(row_keys.size());
    for (uint64_t key : row_keys) {
      std::vector<float> row;
      row.reserve(cols);
      PSG_RETURN_NOT_OK(DequantizeRowAppend(mode, &reader, cols, &row));
      m.rows.emplace(key, std::move(row));
    }

    std::vector<uint64_t> adj_keys;
    PSG_RETURN_NOT_OK(GetDeltaList(&reader, &adj_keys));
    m.adjacency.reserve(adj_keys.size());
    for (uint64_t key : adj_keys) {
      std::vector<uint64_t> neighbors;
      PSG_RETURN_NOT_OK(GetDeltaList(&reader, &neighbors));
      m.adjacency.emplace(key, std::move(neighbors));
    }
    std::string name = m.info.name;
    loaded.matrices.emplace(std::move(name), std::move(m));
  }
  return loaded;
}

}  // namespace psgraph::serving
