#include "core/graph_loader.h"

#include "graph/edge_io.h"

namespace psgraph::core {

Result<dataflow::Dataset<graph::Edge>> LoadEdges(
    PsGraphContext& ctx, const std::string& hdfs_path,
    graph::PartitionStrategy strategy) {
  // Each executor reads its split of the file; we read once driver-side
  // (no charge) and charge every executor its proportional share, which
  // is what a real split read costs.
  PSG_ASSIGN_OR_RETURN(graph::EdgeList all,
                       graph::ReadEdgesBinary(ctx.hdfs(), hdfs_path, -1));
  PSG_ASSIGN_OR_RETURN(uint64_t file_bytes,
                       ctx.hdfs().FileSize(hdfs_path));
  const int32_t num_executors = ctx.num_executors();
  uint64_t share = file_bytes / num_executors + 1;
  for (int32_t e = 0; e < num_executors; ++e) {
    double t = ctx.cluster().cost().DiskReadTime(share) +
               ctx.cluster().cost().NetworkTime(share);
    ctx.cluster().clock().Advance(ctx.cluster().config().executor(e), t);
  }

  std::vector<graph::EdgeList> parts =
      graph::PartitionEdges(all, num_executors, strategy);
  return dataflow::Dataset<graph::Edge>::FromPartitions(&ctx.dataflow(),
                                                        std::move(parts));
}

Result<dataflow::Dataset<graph::Edge>> StageAndLoadEdges(
    PsGraphContext& ctx, const graph::EdgeList& edges,
    const std::string& hdfs_path, graph::PartitionStrategy strategy) {
  PSG_RETURN_NOT_OK(
      graph::WriteEdgesBinary(ctx.hdfs(), hdfs_path, edges, -1));
  return LoadEdges(ctx, hdfs_path, strategy);
}

dataflow::Dataset<NeighborPair> ToNeighborTables(
    const dataflow::Dataset<graph::Edge>& edges) {
  return edges
      .Map([](const graph::Edge& e) {
        return std::pair<graph::VertexId, graph::VertexId>(e.src, e.dst);
      })
      .GroupByKey();
}

dataflow::Dataset<WeightedNeighborPair> ToWeightedNeighborTables(
    const dataflow::Dataset<graph::Edge>& edges) {
  using DstW = std::pair<graph::VertexId, float>;
  return edges
      .Map([](const graph::Edge& e) {
        return std::pair<graph::VertexId, DstW>(e.src, {e.dst, e.weight});
      })
      .GroupByKey()
      .Map([](std::pair<graph::VertexId, std::vector<DstW>>& kv) {
        WeightedNeighborPair out;
        out.first = kv.first;
        out.second.first.reserve(kv.second.size());
        out.second.second.reserve(kv.second.size());
        for (const DstW& dw : kv.second) {
          out.second.first.push_back(dw.first);
          out.second.second.push_back(dw.second);
        }
        return out;
      });
}

}  // namespace psgraph::core
