// Shared per-vertex decision math used by BOTH the GraphX baseline and
// the PSGraph implementations, so Fig. 6's runtime comparison compares
// execution engines, not algorithm variants.

#ifndef PSGRAPH_GRAPH_ALGO_MATH_H_
#define PSGRAPH_GRAPH_ALGO_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace psgraph::graph {

/// H-index of `vals` capped at `cap`: the largest h <= cap such that at
/// least h entries are >= h. Iterating v.core <- H(neighbor cores)
/// converges to the exact core numbers (Lü et al. 2016). Sorts `vals`.
inline uint32_t HIndexCapped(std::vector<uint32_t>& vals, uint32_t cap) {
  std::sort(vals.begin(), vals.end(), std::greater<uint32_t>());
  uint32_t h = 0;
  for (size_t i = 0; i < vals.size(); ++i) {
    if (vals[i] >= i + 1) {
      h = static_cast<uint32_t>(i + 1);
    } else {
      break;
    }
  }
  return std::min(h, cap);
}

/// Louvain candidate move: community -> (weight from the vertex into it,
/// the community's Sigma_tot).
using LouvainCandidate = std::pair<uint64_t, std::pair<float, float>>;

/// Standard Louvain gain comparison (Blondel et al. 2008): returns the
/// community with the best modularity gain for a vertex with weighted
/// degree `k_v` currently in `own` (whose Sigma_tot is `tot_own`), given
/// candidate neighboring communities. Ties break toward the smaller
/// community id; the vertex stays unless a strict improvement exists.
inline uint64_t LouvainChooseCommunity(
    uint64_t own, float k_v, float tot_own, double m,
    const std::vector<LouvainCandidate>& candidates) {
  double w_own = 0.0;
  for (const LouvainCandidate& c : candidates) {
    if (c.first == own) w_own += c.second.first;
  }
  double best_gain =
      w_own - (static_cast<double>(tot_own) - k_v) * k_v / (2.0 * m);
  uint64_t best = own;
  for (const LouvainCandidate& c : candidates) {
    if (c.first == own) continue;
    double gain = static_cast<double>(c.second.first) -
                  static_cast<double>(c.second.second) * k_v / (2.0 * m);
    if (gain > best_gain + 1e-12 ||
        (std::fabs(gain - best_gain) <= 1e-12 && c.first < best)) {
      best = c.first;
      best_gain = gain;
    }
  }
  return best;
}

}  // namespace psgraph::graph

#endif  // PSGRAPH_GRAPH_ALGO_MATH_H_
