#include "graph/partition.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"

namespace psgraph::graph {

std::vector<EdgeList> PartitionEdges(const EdgeList& edges,
                                     int32_t num_parts,
                                     PartitionStrategy strategy) {
  auto part_of = [&](size_t i) -> size_t {
    switch (strategy) {
      case PartitionStrategy::kVertexPartition:
        return Hash64(edges[i].src) % num_parts;
      case PartitionStrategy::kEdgePartition:
        break;
    }
    return i % num_parts;
  };
  // Count first, so every part is allocated once at its exact size.
  std::vector<size_t> sizes(num_parts, 0);
  for (size_t i = 0; i < edges.size(); ++i) ++sizes[part_of(i)];
  std::vector<EdgeList> parts(num_parts);
  for (int32_t p = 0; p < num_parts; ++p) parts[p].reserve(sizes[p]);
  for (size_t i = 0; i < edges.size(); ++i) {
    parts[part_of(i)].push_back(edges[i]);
  }
  return parts;
}

std::vector<NeighborList> GroupBysrc(const EdgeList& edges) {
  std::unordered_map<VertexId, NeighborList> groups;
  groups.reserve(edges.size() / 4 + 1);
  bool weighted = false;
  for (const Edge& e : edges) {
    if (e.weight != 1.0f) weighted = true;
  }
  for (const Edge& e : edges) {
    NeighborList& nl = groups[e.src];
    nl.vertex = e.src;
    nl.neighbors.push_back(e.dst);
    if (weighted) nl.weights.push_back(e.weight);
  }
  std::vector<NeighborList> out;
  out.reserve(groups.size());
  for (auto& [_, nl] : groups) out.push_back(std::move(nl));
  std::sort(out.begin(), out.end(),
            [](const NeighborList& a, const NeighborList& b) {
              return a.vertex < b.vertex;
            });
  return out;
}

PartitionStats ComputePartitionStats(const std::vector<EdgeList>& parts) {
  PartitionStats stats;
  stats.min_partition_edges = UINT64_MAX;
  std::unordered_map<VertexId, uint32_t> appearances;
  for (const EdgeList& part : parts) {
    stats.max_partition_edges =
        std::max(stats.max_partition_edges, (uint64_t)part.size());
    stats.min_partition_edges =
        std::min(stats.min_partition_edges, (uint64_t)part.size());
    std::unordered_set<VertexId> local_srcs;
    for (const Edge& e : part) local_srcs.insert(e.src);
    for (VertexId v : local_srcs) appearances[v]++;
  }
  if (parts.empty() || appearances.empty()) {
    stats.min_partition_edges = 0;
    return stats;
  }
  uint64_t total = 0;
  for (const auto& [_, cnt] : appearances) total += cnt;
  stats.avg_src_replication =
      static_cast<double>(total) / appearances.size();
  return stats;
}

}  // namespace psgraph::graph
