// GraphSage on PSGraph (paper §IV-E, Fig. 5).
//
// The PS holds three models: the vertex features X and the neighbor
// table A (partitioned by vertex index) and the layer weights W
// (row-partitioned, with Adam state as companion matrices updated by the
// "adam.apply" psFunc). Every training step an executor pulls the current
// weights, samples 2-hop neighborhoods of a mini-batch, pulls the needed
// features, runs forward/backward in the embedded C++ tensor runtime
// (minitorch, standing in for PyTorch), and pushes the gradients to the
// PS where the optimizer applies them.

#ifndef PSGRAPH_CORE_GRAPHSAGE_H_
#define PSGRAPH_CORE_GRAPHSAGE_H_

#include <cstdint>
#include <vector>

#include "core/psgraph_context.h"
#include "core/sage_model.h"
#include "graph/generators.h"
#include "ps/master.h"

namespace psgraph::core {

struct GraphSageOptions {
  int hidden_dim = 64;
  /// Mean (default) or max-pooling neighborhood aggregation.
  SageAggregator aggregator = SageAggregator::kMean;
  int fanout1 = 10;  ///< sampled neighbors for the output layer
  int fanout2 = 5;   ///< sampled neighbors for the hidden layer
  int epochs = 5;
  int batch_size = 64;
  float learning_rate = 0.01f;
  double train_fraction = 0.7;
  uint64_t seed = 7;
  /// Apply Adam on the servers via psFunc (paper: "we implement more
  /// advanced gradient descent optimizers on PS, such as AdaGrad and
  /// Adam"). false = plain SGD pushed as deltas.
  bool optimizer_on_ps = true;
  ps::RecoveryMode recovery = ps::RecoveryMode::kPartial;
};

struct GraphSageResult {
  int epochs = 0;
  double final_train_loss = 0.0;
  double test_accuracy = 0.0;
  /// Simulated cluster seconds spent loading + pushing features,
  /// adjacency and initial weights (the Table I "preprocessing" column).
  double preprocess_sim_seconds = 0.0;
  /// Simulated seconds per training epoch.
  std::vector<double> epoch_sim_seconds;

  double AvgEpochSimSeconds() const {
    if (epoch_sim_seconds.empty()) return 0.0;
    double s = 0.0;
    for (double v : epoch_sim_seconds) s += v;
    return s / static_cast<double>(epoch_sim_seconds.size());
  }
};

/// Trains supervised node classification on `g` (features + labels).
Result<GraphSageResult> GraphSage(PsGraphContext& ctx,
                                  const graph::LabeledGraph& g,
                                  const GraphSageOptions& opts = {});

}  // namespace psgraph::core

#endif  // PSGRAPH_CORE_GRAPHSAGE_H_
