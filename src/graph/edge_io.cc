#include "graph/edge_io.h"

#include <charconv>
#include <cstdio>

#include "common/byte_buffer.h"

namespace psgraph::graph {

namespace {
constexpr uint32_t kBinaryMagic = 0x50534745;  // "PSGE"
}

Status WriteEdgesText(storage::Hdfs& hdfs, const std::string& path,
                      const EdgeList& edges, sim::NodeId node) {
  std::string text;
  text.reserve(edges.size() * 16);
  char line[96];
  for (const Edge& e : edges) {
    int n;
    if (e.weight == 1.0f) {
      n = std::snprintf(line, sizeof(line), "%llu %llu\n",
                        (unsigned long long)e.src,
                        (unsigned long long)e.dst);
    } else {
      n = std::snprintf(line, sizeof(line), "%llu %llu %g\n",
                        (unsigned long long)e.src,
                        (unsigned long long)e.dst, (double)e.weight);
    }
    text.append(line, n);
  }
  return hdfs.WriteString(path, text, node);
}

Result<EdgeList> ReadEdgesText(storage::Hdfs& hdfs, const std::string& path,
                               sim::NodeId node) {
  PSG_ASSIGN_OR_RETURN(std::string text, hdfs.ReadString(path, node));
  EdgeList edges;
  const char* p = text.data();
  const char* end = p + text.size();
  size_t line_no = 0;
  while (p < end) {
    ++line_no;
    const char* eol = p;
    while (eol < end && *eol != '\n') ++eol;
    // Trim and skip comments/blanks.
    const char* q = p;
    while (q < eol && (*q == ' ' || *q == '\t')) ++q;
    if (q == eol || *q == '#') {
      p = eol + 1;
      continue;
    }
    Edge e;
    auto parse_u64 = [&](VertexId* out) -> bool {
      while (q < eol && (*q == ' ' || *q == '\t')) ++q;
      auto [next, ec] = std::from_chars(q, eol, *out);
      if (ec != std::errc() || next == q) return false;
      q = next;
      return true;
    };
    if (!parse_u64(&e.src) || !parse_u64(&e.dst)) {
      return Status::InvalidArgument("edge file " + path + " line " +
                                     std::to_string(line_no) +
                                     ": expected 'src dst [weight]'");
    }
    while (q < eol && (*q == ' ' || *q == '\t')) ++q;
    if (q < eol) {
      double w;
      auto [next, ec] = std::from_chars(q, eol, w);
      if (ec != std::errc()) {
        return Status::InvalidArgument("edge file " + path + " line " +
                                       std::to_string(line_no) +
                                       ": bad weight");
      }
      q = next;
      e.weight = static_cast<float>(w);
    }
    edges.push_back(e);
    p = eol + 1;
  }
  return edges;
}

Status WriteEdgesBinary(storage::Hdfs& hdfs, const std::string& path,
                        const EdgeList& edges, sim::NodeId node) {
  ByteBuffer buf;
  buf.Reserve(edges.size() * sizeof(Edge) + 16);
  buf.Write<uint32_t>(kBinaryMagic);
  buf.WriteVector(edges);
  return hdfs.Write(path, std::move(buf).TakeData(), node);
}

Result<EdgeList> ReadEdgesBinary(storage::Hdfs& hdfs,
                                 const std::string& path,
                                 sim::NodeId node) {
  PSG_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, hdfs.Read(path, node));
  ByteReader reader(bytes);
  uint32_t magic = 0;
  PSG_RETURN_NOT_OK(reader.Read(&magic));
  if (magic != kBinaryMagic) {
    return Status::InvalidArgument("not a binary edge file: " + path);
  }
  EdgeList edges;
  PSG_RETURN_NOT_OK(reader.ReadVector(&edges));
  return edges;
}

}  // namespace psgraph::graph
