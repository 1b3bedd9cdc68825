#include "sim/memory_accountant.h"

#include <algorithm>

namespace psgraph::sim {

Status MemoryAccountant::Allocate(int32_t node, uint64_t bytes,
                                  const char* what) {
  NodeState& n = nodes_[node];
  std::lock_guard<std::mutex> lock(n.mu);
  if (n.usage + bytes > n.budget) {
    return Status::MemoryLimitExceeded(
        "node " + std::to_string(node) + ": " + what + " needs " +
        std::to_string(bytes) + " B, used " + std::to_string(n.usage) +
        " of " + std::to_string(n.budget) + " B");
  }
  n.usage += bytes;
  n.peak = std::max(n.peak, n.usage);
  return Status::OK();
}

void MemoryAccountant::Release(int32_t node, uint64_t bytes) {
  NodeState& n = nodes_[node];
  std::lock_guard<std::mutex> lock(n.mu);
  n.usage -= std::min(n.usage, bytes);
}

void MemoryAccountant::ReleaseAll(int32_t node) {
  NodeState& n = nodes_[node];
  std::lock_guard<std::mutex> lock(n.mu);
  n.usage = 0;
}

uint64_t MemoryAccountant::Usage(int32_t node) const {
  const NodeState& n = nodes_[node];
  std::lock_guard<std::mutex> lock(n.mu);
  return n.usage;
}

uint64_t MemoryAccountant::Peak(int32_t node) const {
  const NodeState& n = nodes_[node];
  std::lock_guard<std::mutex> lock(n.mu);
  return n.peak;
}

uint64_t MemoryAccountant::Budget(int32_t node) const {
  // Set once in the constructor and never written again.
  return nodes_[node].budget;
}

uint64_t MemoryAccountant::Headroom(int32_t node) const {
  const NodeState& n = nodes_[node];
  std::lock_guard<std::mutex> lock(n.mu);
  return n.budget - n.usage;
}

uint64_t MemoryAccountant::MaxPeak() const {
  uint64_t m = 0;
  for (int32_t node = 0; node < num_nodes(); ++node) {
    m = std::max(m, Peak(node));
  }
  return m;
}

}  // namespace psgraph::sim
