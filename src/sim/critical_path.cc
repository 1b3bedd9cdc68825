#include "sim/critical_path.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "sim/cluster.h"

namespace psgraph::sim {

namespace {

std::string RoleName(const ClusterConfig& cfg, int32_t node) {
  return cfg.is_executor(node) ? "executor"
         : cfg.is_server(node) ? "server"
                               : "driver";
}

/// Ticks of a span name that survive shrinking to `factor`. llround of
/// an int64-in-double product is exact for every tick count a bench
/// reaches (< 2^53) and monotone in both arguments.
int64_t KeptTicks(int64_t ticks, double factor) {
  return std::llround(static_cast<double>(ticks) * factor);
}

/// Per-name attribution of span ticks to nodes, restricted to names
/// whose per-node totals are scheduling-independent.
struct NameAttr {
  std::map<int32_t, int64_t> node_ticks;
  int64_t total_ticks = 0;
  uint64_t count = 0;
};

std::map<std::string, NameAttr> CollectSpanAttr(SimCluster* cluster) {
  std::map<std::string, NameAttr> attr;
  for (const auto& [key, stats] : cluster->tracer().NodeSummary()) {
    const auto& [name, node] = key;
    if (!SpanTicksDeterministicPerNode(name)) continue;
    NameAttr& a = attr[name];
    a.node_ticks[node] += stats.total_ticks;
    a.total_ticks += stats.total_ticks;
    a.count += stats.count;
  }
  return attr;
}

/// max_n(clock[n] - (1-factor) * attr[n]), clamped at 0. Nested spans
/// can overlap, so a node's attribution may exceed its clock — the
/// clamp keeps the projection a (still monotone) lower bound.
int64_t Project(const std::vector<int64_t>& clocks, const NameAttr& attr,
                double factor) {
  int64_t best = 0;
  for (size_t n = 0; n < clocks.size(); ++n) {
    int64_t projected = clocks[n];
    auto it = attr.node_ticks.find(static_cast<int32_t>(n));
    if (it != attr.node_ticks.end()) {
      projected -= it->second - KeptTicks(it->second, factor);
    }
    best = std::max(best, projected);
  }
  return best;
}

void AppendSegment(CriticalPathReport* r, const ClusterConfig& cfg,
                   int32_t node, int64_t begin, int64_t end,
                   const char* gate) {
  if (end <= begin) return;
  if (!r->path.empty() && r->path.back().node == node) {
    r->path.back().end_ticks = end;
    r->path.back().gate = gate;
    return;
  }
  CriticalPathReport::Segment seg;
  seg.node = node;
  seg.role = RoleName(cfg, node);
  seg.begin_ticks = begin;
  seg.end_ticks = end;
  seg.gate = gate;
  r->path.push_back(std::move(seg));
}

}  // namespace

bool SpanTicksDeterministicPerNode(const std::string& name) {
  // A partition span can absorb a whole shuffle map stage when an
  // engine's own task reaches the shuffle lazily, in whichever task gets
  // there first — WHICH node pays is a scheduling accident even though
  // the cluster-wide total is not.
  return name != "dataflow.partition";
}

int64_t ProjectedMakespanTicks(SimCluster* cluster, const std::string& name,
                               double factor) {
  const int32_t num_nodes = cluster->config().num_nodes();
  std::vector<int64_t> clocks(num_nodes);
  for (int32_t n = 0; n < num_nodes; ++n) {
    clocks[n] = cluster->clock().NowTicks(n);
  }
  const auto attr = CollectSpanAttr(cluster);
  auto it = attr.find(name);
  if (it == attr.end()) return Project(clocks, NameAttr{}, factor);
  return Project(clocks, it->second, factor);
}

CriticalPathReport AnalyzeCriticalPath(SimCluster* cluster) {
  CriticalPathReport r;
  r.valid = true;
  const ClusterConfig& cfg = cluster->config();
  SimClock& clock = cluster->clock();
  const int32_t num_nodes = cfg.num_nodes();

  std::vector<int64_t> clocks(num_nodes);
  for (int32_t n = 0; n < num_nodes; ++n) clocks[n] = clock.NowTicks(n);
  r.makespan_ticks = *std::max_element(clocks.begin(), clocks.end());

  // Critical node: last finisher; among ties the one that waited least
  // at barriers (it was doing work, not being dragged along), then the
  // lowest id.
  int64_t best_wait = -1;
  for (int32_t n = 0; n < num_nodes; ++n) {
    if (clocks[n] != r.makespan_ticks) continue;
    const int64_t wait = clock.BarrierWaitTicks(n);
    if (best_wait < 0 || wait < best_wait) {
      r.critical_node = n;
      best_wait = wait;
    }
  }
  r.critical_role = RoleName(cfg, r.critical_node);

  // Category attribution with exact conservation: ledger + barrier
  // waits, compute as the residual. The residual is emitted as-is —
  // if a subsystem ever over-records, compute goes negative and the
  // validator rejects the report instead of hiding the bug.
  const auto ledger = cluster->cost_ledger().NodeTicks(r.critical_node);
  int64_t attributed = 0;
  for (int c = 1; c < kNumCostCategories; ++c) {
    const int64_t ticks =
        c == static_cast<int>(CostCategory::kBarrierSkew)
            ? clock.BarrierWaitTicks(r.critical_node)
            : ledger[static_cast<size_t>(c)];
    r.categories[static_cast<size_t>(c)] = ticks;
    attributed += ticks;
  }
  r.categories[static_cast<size_t>(CostCategory::kCompute)] =
      r.makespan_ticks - attributed;

  // Path segments: tile [0, makespan] with the intervals between
  // consecutive barrier fences, each owned by its gating node, the
  // tail by the critical node. Consecutive same-owner intervals merge.
  if (r.makespan_ticks > 0) {
    int64_t prev = 0;
    if (clock.fences_dropped() == 0) {
      for (const ClockFence& f : clock.Fences()) {
        const int64_t t = std::min(f.ticks, r.makespan_ticks);
        if (t <= prev) continue;
        AppendSegment(&r, cfg, f.gating_node, prev, t, "barrier");
        prev = t;
      }
    }
    AppendSegment(&r, cfg, r.critical_node, prev, r.makespan_ticks,
                  "makespan");
  }

  // Top span names by ticks on the critical node, plus the what-if
  // table over them. Empty when tracing was off — the sections above
  // never depend on the tracer.
  const auto attr = CollectSpanAttr(cluster);
  std::vector<std::pair<std::string, int64_t>> ranked;
  for (const auto& [name, a] : attr) {
    auto it = a.node_ticks.find(r.critical_node);
    if (it == a.node_ticks.end() || it->second <= 0) continue;
    ranked.emplace_back(name, it->second);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  if (ranked.size() > 5) ranked.resize(5);
  for (const auto& [name, crit_ticks] : ranked) {
    const NameAttr& a = attr.at(name);
    r.top_spans.push_back({name, crit_ticks, a.total_ticks, a.count});
    for (const double factor : kWhatIfFactors) {
      CriticalPathReport::WhatIf w;
      w.name = name;
      w.factor = factor;
      w.projected_makespan_ticks = Project(clocks, a, factor);
      w.speedup = w.projected_makespan_ticks > 0
                      ? static_cast<double>(r.makespan_ticks) /
                            static_cast<double>(w.projected_makespan_ticks)
                      : 1.0;
      r.what_if.push_back(std::move(w));
    }
  }
  return r;
}

std::vector<uint64_t> LongestSpanPath(
    const std::vector<TraceSpan>& spans,
    const std::vector<std::pair<uint64_t, uint64_t>>& extra_edges) {
  const size_t n = spans.size();
  if (n == 0) return {};
  std::map<uint64_t, size_t> index;
  for (size_t i = 0; i < n; ++i) index[spans[i].id] = i;

  std::vector<std::vector<size_t>> preds(n);
  auto add_edge = [&](uint64_t from, uint64_t to) {
    auto a = index.find(from);
    auto b = index.find(to);
    if (a == index.end() || b == index.end()) return;
    // A dependency cannot start after its dependent does.
    if (spans[a->second].begin_ticks > spans[b->second].begin_ticks) return;
    preds[b->second].push_back(a->second);
  };
  for (const TraceSpan& s : spans) {
    if (s.parent != 0) add_edge(s.parent, s.id);
  }
  for (const auto& [from, to] : extra_edges) add_edge(from, to);

  // DP in (begin_ticks, id) order; every valid edge points forward in
  // that order except begin-tick ties with a larger-id predecessor,
  // which the processed[] guard simply ignores.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (spans[a].begin_ticks != spans[b].begin_ticks) {
      return spans[a].begin_ticks < spans[b].begin_ticks;
    }
    return spans[a].id < spans[b].id;
  });
  std::vector<int64_t> best(n, 0);
  std::vector<size_t> choice(n, n);  // n = no predecessor
  std::vector<bool> processed(n, false);
  for (const size_t i : order) {
    const int64_t dur =
        std::max<int64_t>(0, spans[i].end_ticks - spans[i].begin_ticks);
    best[i] = dur;
    for (const size_t p : preds[i]) {
      if (!processed[p]) continue;
      const int64_t cand = best[p] + dur;
      if (cand > best[i] ||
          (cand == best[i] && choice[i] != n &&
           spans[p].id < spans[choice[i]].id)) {
        best[i] = cand;
        choice[i] = p;
      }
    }
    processed[i] = true;
  }

  // The path ends at the run's last-finishing span (ties: lowest id).
  size_t endpoint = 0;
  for (size_t i = 1; i < n; ++i) {
    if (spans[i].end_ticks > spans[endpoint].end_ticks ||
        (spans[i].end_ticks == spans[endpoint].end_ticks &&
         spans[i].id < spans[endpoint].id)) {
      endpoint = i;
    }
  }
  std::vector<uint64_t> path;
  for (size_t i = endpoint; i != n; i = choice[i]) {
    path.push_back(spans[i].id);
    if (choice[i] == n) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace psgraph::sim
