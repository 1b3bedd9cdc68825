#include "core/graph_io.h"

#include <charconv>
#include <cstdio>

#include "common/byte_buffer.h"

namespace psgraph::core {

namespace {
constexpr uint32_t kEmbeddingMagic = 0x50534542;  // "PSEB"
}

Status SaveVertexDoubles(storage::Hdfs& hdfs, const std::string& path,
                         const std::vector<double>& values,
                         sim::NodeId node) {
  std::string text;
  text.reserve(values.size() * 24);
  char line[64];
  for (size_t v = 0; v < values.size(); ++v) {
    int n = std::snprintf(line, sizeof(line), "%zu %.10g\n", v, values[v]);
    text.append(line, n);
  }
  return hdfs.WriteString(path, text, node);
}

Status SaveVertexLabels(storage::Hdfs& hdfs, const std::string& path,
                        const std::vector<uint64_t>& labels,
                        sim::NodeId node) {
  std::string text;
  text.reserve(labels.size() * 16);
  char line[64];
  for (size_t v = 0; v < labels.size(); ++v) {
    int n = std::snprintf(line, sizeof(line), "%zu %llu\n", v,
                          (unsigned long long)labels[v]);
    text.append(line, n);
  }
  return hdfs.WriteString(path, text, node);
}

Result<std::vector<double>> LoadVertexDoubles(storage::Hdfs& hdfs,
                                              const std::string& path,
                                              sim::NodeId node) {
  PSG_ASSIGN_OR_RETURN(std::string text, hdfs.ReadString(path, node));
  std::vector<double> values;
  const char* p = text.data();
  const char* end = p + text.size();
  while (p < end) {
    uint64_t id = 0;
    auto r1 = std::from_chars(p, end, id);
    if (r1.ec != std::errc()) {
      return Status::InvalidArgument("vertex-value file " + path +
                                     ": bad id");
    }
    p = r1.ptr;
    while (p < end && *p == ' ') ++p;
    double v = 0.0;
    auto r2 = std::from_chars(p, end, v);
    if (r2.ec != std::errc()) {
      return Status::InvalidArgument("vertex-value file " + path +
                                     ": bad value");
    }
    p = r2.ptr;
    while (p < end && (*p == '\n' || *p == '\r')) ++p;
    if (values.size() <= id) values.resize(id + 1, 0.0);
    values[id] = v;
  }
  return values;
}

Status SaveEmbeddings(storage::Hdfs& hdfs, const std::string& path,
                      const std::vector<float>& embeddings,
                      uint64_t num_vertices, int dim, sim::NodeId node) {
  if (embeddings.size() != num_vertices * static_cast<uint64_t>(dim)) {
    return Status::InvalidArgument("embedding size mismatch");
  }
  ByteBuffer buf;
  buf.Write<uint32_t>(kEmbeddingMagic);
  buf.Write<uint64_t>(num_vertices);
  buf.Write<int32_t>(dim);
  buf.WriteVector(embeddings);
  return hdfs.Write(path, std::move(buf).TakeData(), node);
}

Result<LoadedEmbeddings> LoadEmbeddings(storage::Hdfs& hdfs,
                                        const std::string& path,
                                        sim::NodeId node) {
  PSG_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, hdfs.Read(path, node));
  ByteReader reader(bytes);
  uint32_t magic = 0;
  PSG_RETURN_NOT_OK(reader.Read(&magic));
  if (magic != kEmbeddingMagic) {
    return Status::InvalidArgument("not an embedding file: " + path);
  }
  LoadedEmbeddings out;
  PSG_RETURN_NOT_OK(reader.Read(&out.num_vertices));
  int32_t dim = 0;
  PSG_RETURN_NOT_OK(reader.Read(&dim));
  out.dim = dim;
  PSG_RETURN_NOT_OK(reader.ReadVector(&out.values));
  if (out.values.size() != out.num_vertices * static_cast<uint64_t>(dim)) {
    return Status::IoError("embedding file " + path + " truncated");
  }
  return out;
}

}  // namespace psgraph::core
