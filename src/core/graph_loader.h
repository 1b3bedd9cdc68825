// GraphIO/GraphOps of the paper's programming interface (§III-D): load an
// edge dataset from HDFS into an RDD and transform it to neighbor tables
// with the groupBy operator.

#ifndef PSGRAPH_CORE_GRAPH_LOADER_H_
#define PSGRAPH_CORE_GRAPH_LOADER_H_

#include <string>
#include <utility>
#include <vector>

#include "core/psgraph_context.h"
#include "dataflow/dataset.h"
#include "graph/partition.h"
#include "graph/types.h"

namespace psgraph::core {

/// (src, Array[dst]) — the paper's neighbor-table RDD item.
using NeighborPair =
    std::pair<graph::VertexId, std::vector<graph::VertexId>>;
/// (src, (Array[dst], Array[weight])) for weighted graphs (§IV-C).
using WeightedNeighborPair =
    std::pair<graph::VertexId,
              std::pair<std::vector<graph::VertexId>, std::vector<float>>>;

/// Loads a binary edge file from HDFS into an edge RDD with one partition
/// per executor. Each executor is charged the IO for its split.
Result<dataflow::Dataset<graph::Edge>> LoadEdges(
    PsGraphContext& ctx, const std::string& hdfs_path,
    graph::PartitionStrategy strategy =
        graph::PartitionStrategy::kEdgePartition);

/// Convenience for benches/tests: stage an in-memory edge list "on HDFS"
/// and load it back through the normal path.
Result<dataflow::Dataset<graph::Edge>> StageAndLoadEdges(
    PsGraphContext& ctx, const graph::EdgeList& edges,
    const std::string& hdfs_path,
    graph::PartitionStrategy strategy =
        graph::PartitionStrategy::kEdgePartition);

/// The groupBy transformation: edge partitioning -> vertex partitioning
/// (one real shuffle, like the paper's step 1).
dataflow::Dataset<NeighborPair> ToNeighborTables(
    const dataflow::Dataset<graph::Edge>& edges);

dataflow::Dataset<WeightedNeighborPair> ToWeightedNeighborTables(
    const dataflow::Dataset<graph::Edge>& edges);

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_GRAPH_LOADER_H_
