// Shared helpers for the reproduction benches.
//
// Every bench prints, per experiment cell: the paper's reported number,
// our measured wall-clock on the scaled-down dataset, and the simulated
// cluster time extrapolated to the paper's scale (simulated makespan x
// dataset scale factor). Absolute numbers are not expected to match the
// paper (our substrate is a simulator); the *shape* — who wins, by what
// factor, where OOM happens — is the reproduction target.

#ifndef PSGRAPH_BENCH_BENCH_UTIL_H_
#define PSGRAPH_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"  // EnvU64, which reads the benches' PSG_* scale knobs
#include "common/rpc_telemetry.h"
#include "common/trace_export.h"
#include "sim/report.h"

namespace psgraph::bench {

inline std::string FormatDuration(double seconds) {
  char buf[64];
  if (seconds < 0) return "n/a";
  if (seconds < 60) {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  } else if (seconds < 3600) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f h", seconds / 3600);
  }
  return buf;
}

inline std::string FormatBytes(double bytes) {
  char buf[64];
  if (bytes < (1 << 20)) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", bytes / 1024);
  } else if (bytes < (1ull << 30)) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", bytes / (1 << 20));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GB", bytes / (1ull << 30));
  }
  return buf;
}

/// Payload bytes of every RPC an RpcTelemetry metered since its last
/// Reset(), in each direction.
struct RpcBytes {
  uint64_t sent = 0;      ///< caller -> callee
  uint64_t received = 0;  ///< callee -> caller
  uint64_t total() const { return sent + received; }
};

inline RpcBytes SumRpcBytes(const RpcTelemetry& telemetry) {
  RpcBytes bytes;
  for (const RpcTelemetry::MethodStat& m : telemetry.Snapshot()) {
    bytes.sent += m.request_bytes;
    bytes.received += m.response_bytes;
  }
  return bytes;
}

struct CellResult {
  bool oom = false;
  double sim_seconds = 0.0;   ///< simulated makespan on the mini dataset
  double wall_seconds = 0.0;  ///< real time on this machine
  std::string detail;
};

/// Prints one table row: paper value vs reproduction.
inline void PrintRow(const char* system, const char* workload,
                     const char* paper_value, const CellResult& cell,
                     double paper_scale) {
  std::string repro =
      cell.oom ? "OOM"
               : FormatDuration(cell.sim_seconds * paper_scale);
  std::printf("%-10s %-28s paper=%-8s repro(sim)=%-10s wall=%-9s %s\n",
              system, workload, paper_value, repro.c_str(),
              FormatDuration(cell.wall_seconds).c_str(),
              cell.detail.c_str());
}

/// JSON form of one PrintRow cell, for the "bench" payload of a run
/// report.
inline JsonValue CellToJson(const char* system, const char* workload,
                            const char* paper_value,
                            const CellResult& cell, double paper_scale) {
  JsonValue row = JsonValue::Object();
  row.Set("system", system);
  row.Set("workload", workload);
  row.Set("paper", paper_value);
  row.Set("oom", cell.oom);
  row.Set("sim_seconds", cell.sim_seconds);
  row.Set("sim_seconds_paper_scale", cell.sim_seconds * paper_scale);
  row.Set("wall_seconds", cell.wall_seconds);
  return row;
}

/// Accumulates one bench's machine-readable run report (the versioned
/// schema in sim/report.h). Capture() snapshots a cluster's counters,
/// histograms, span summaries and per-node simulated clocks — call it on
/// a representative context before tearing the context down (the last
/// capture wins; the bench payload survives captures). Set() entries
/// carry the bench's own table under "bench". Write() emits
/// BENCH_<name>.json into the working directory, which
/// scripts/check_bench_regression.py diffs against its baseline in CI.
class BenchReport {
 public:
  explicit BenchReport(const std::string& name) { report_.name = name; }

  /// Snapshots `cluster`'s observability sinks and clocks into the
  /// report, replacing any earlier capture (except convergence series,
  /// which accumulate across captures — multi-cell benches tear one
  /// cluster down per cell, and `series_prefix` keeps their series
  /// apart).
  void Capture(sim::SimCluster* cluster,
               const std::string& series_prefix = "") {
    JsonValue payload = std::move(report_.bench);
    // Close out the telemetry series at the final makespan so even a
    // run shorter than one sample interval reports at least one point.
    cluster->sampler().ForceSample(cluster->clock().MakespanTicks());
    report_ = sim::CollectRunReport(report_.name, cluster);
    report_.bench = std::move(payload);
    for (auto& [name, series] : report_.convergence) {
      const std::string key =
          series_prefix.empty() ? name : series_prefix + "/" + name;
      convergence_acc_[key] = std::move(series);
    }
    report_.convergence = convergence_acc_;
    // Keep the raw spans of the captured cluster for Write()'s optional
    // Chrome-trace export (the report itself only carries summaries),
    // plus the journal events so the export can mark kills/restores as
    // instant events on the timeline.
    trace_spans_ = cluster->tracer().Snapshot();
    trace_dropped_ = cluster->tracer().dropped();
    trace_events_ = cluster->events().Snapshot();
    trace_config_ = cluster->config();
  }

  /// Adds one entry to the bench-specific payload.
  void Set(const std::string& key, JsonValue value) {
    report_.bench.Set(key, std::move(value));
  }

  const sim::RunReport& report() const { return report_; }

  /// Writes BENCH_<name>.json, or exits the bench non-zero when the
  /// report fails schema validation or cannot be written. When
  /// PSGRAPH_TRACE_OUT is set, also exports the last captured cluster's
  /// spans as a Chrome-trace/Perfetto JSON (open in chrome://tracing or
  /// ui.perfetto.dev; validate with scripts/trace_summary.py).
  void Write() {
    const std::string path = "BENCH_" + report_.name + ".json";
    Status st = sim::WriteRunReport(report_, path);
    if (!st.ok()) {
      std::fprintf(stderr, "bench report: %s\n", st.ToString().c_str());
      std::exit(EXIT_FAILURE);
    }
    std::printf("wrote %s\n", path.c_str());
    PrintCriticalPath();
    const std::string trace_path = TraceOutPathFromEnv();
    if (trace_path.empty()) return;
    TraceExportOptions options;
    options.spans_dropped = trace_dropped_;
    for (const sim::WatchdogRule& r : report_.alert_rules) {
      options.alert_rules.push_back(r.name);
    }
    options.instants.reserve(trace_events_.size());
    for (const sim::JournalEvent& e : trace_events_) {
      // Alert transitions carry the rule index in `value`; name the
      // marker after the rule so the Perfetto timeline (and
      // trace_summary.py --alerts) reads "alert_fire:<rule>".
      if (e.type == sim::JournalEventType::kAlertFire ||
          e.type == sim::JournalEventType::kAlertClear) {
        const auto rule = static_cast<size_t>(e.value);
        const std::string rule_name =
            rule < report_.alert_rules.size()
                ? report_.alert_rules[rule].name
                : "rule" + std::to_string(e.value);
        options.instants.push_back(
            {std::string(sim::JournalEventTypeName(e.type)) + ":" +
                 rule_name,
             e.node, e.ticks});
        continue;
      }
      options.instants.push_back(
          {sim::JournalEventTypeName(e.type), e.node, e.ticks});
    }
    options.process_name = [config = trace_config_](int32_t node)
        -> std::string {
      if (config.is_executor(node)) {
        return "executor " + std::to_string(node);
      }
      if (config.is_server(node)) {
        return "server " + std::to_string(node - config.num_executors);
      }
      if (node == config.driver()) return "driver";
      return node < 0 ? "(unbound)" : "node " + std::to_string(node);
    };
    if (trace_dropped_ > 0) {
      std::fprintf(stderr,
                   "trace export: %llu spans dropped at the cap — raise "
                   "PSGRAPH_TRACE_MAX_SPANS for a complete timeline\n",
                   static_cast<unsigned long long>(trace_dropped_));
    }
    st = WriteChromeTrace(trace_spans_, options, trace_path);
    if (!st.ok()) {
      std::fprintf(stderr, "trace export: %s\n", st.ToString().c_str());
      return;
    }
    std::printf("wrote %s (%zu spans)\n", trace_path.c_str(),
                trace_spans_.size());
  }

 private:
  /// One-line makespan attribution, so "why was this run slow" is in
  /// the bench log itself, not only in the JSON.
  void PrintCriticalPath() const {
    const sim::CriticalPathReport& cp = report_.critical_path;
    if (cp.makespan_ticks <= 0) return;
    std::string breakdown;
    for (int c = 0; c < sim::kNumCostCategories; ++c) {
      const int64_t ticks = cp.categories[static_cast<size_t>(c)];
      if (ticks == 0) continue;
      char part[96];
      std::snprintf(part, sizeof(part), "%s%s %.1f%%",
                    breakdown.empty() ? "" : ", ",
                    sim::kCostCategoryNames[c],
                    100.0 * static_cast<double>(ticks) /
                        static_cast<double>(cp.makespan_ticks));
      breakdown += part;
    }
    std::printf("critical path: %s %d — %s\n", cp.critical_role.c_str(),
                cp.critical_node, breakdown.c_str());
  }

  sim::RunReport report_;
  std::map<std::string, sim::ConvergenceLog::Series> convergence_acc_;
  std::vector<TraceSpan> trace_spans_;
  std::vector<sim::JournalEvent> trace_events_;
  uint64_t trace_dropped_ = 0;
  sim::ClusterConfig trace_config_;
};

}  // namespace psgraph::bench

#endif  // PSGRAPH_BENCH_BENCH_UTIL_H_
