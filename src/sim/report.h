// Run reports: what a bench (or test) records about one run.
//
// RunReport is the machine-readable record behind every
// BENCH_<name>.json: a versioned schema carrying counters, gauges,
// latency histograms (p50/p95/p99/max), span summaries and per-node
// simulated clock makespans. ValidateRunReportJson is the one schema
// check, and WriteRunReport runs it on every report it writes.
// scripts/check_bench_regression.py diffs the simulated quantities of
// a fresh report against the committed baselines (their projections
// onto the gated leaves) in CI; only sim-derived fields gate (wall
// clock varies by host, simulated ticks must not).

#ifndef PSGRAPH_SIM_REPORT_H_
#define PSGRAPH_SIM_REPORT_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rpc_telemetry.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "sim/cluster.h"
#include "sim/convergence.h"
#include "sim/critical_path.h"
#include "sim/event_journal.h"
#include "sim/watchdog.h"

namespace psgraph::sim {

/// The versioned JSON run-report schema. Version history:
///   1 — initial: counters/gauges/histograms/spans/cluster/bench.
///   2 — flight recorder: "skew" (per-shard key-access profile +
///       per-partition busy-tick imbalance) and "convergence"
///       (per-iteration algorithm telemetry) sections.
///   3 — wire-level telemetry: "rpc" (per-(method, callee) call/byte/
///       busy/wait/error counters) and "events" (control-plane journal:
///       per-type counts, failure timeline, recovery summary) sections;
///       per-node mem_usage_bytes/mem_peak_bytes/mem_budget_bytes in
///       cluster.nodes.
///   4 — online serving: "serving" section (request/cache/batch/swap
///       counters with hit rate and mean batch occupancy, plus the
///       request-latency histogram) and a p999 quantile on every
///       histogram (tail latency is the serving SLO, p99 is too coarse
///       for it).
///   5 — continuous telemetry: "timeseries" (the sampler's ring-buffer
///       series over simulated time — interval, compaction count, and
///       one value array per series; all-zero series omitted) and
///       "alerts" (the watchdog's declared rules plus its fire/clear
///       episode timeline) sections.
///   6 — critical path: "critical_path" section (deterministic makespan
///       attribution over the fixed cost-category taxonomy, straggler
///       path segments from the clock's barrier fence log, top
///       critical-node spans and their what-if speedup table); the
///       conservation invariant — categories sum exactly to
///       cluster.makespan_ticks — is enforced by the validator, and
///       WriteRunReport refuses to emit a report that violates it.
///       spans_dropped now also counts spans that still folded into
///       the summaries after their detail was capped.
///   7 — dynamic graphs: two new cost categories in the fixed taxonomy
///       ("stream.apply" for ps.mutate neighbor-table applies,
///       "stream.retrain" for RPC waits inside an incremental-recompute
///       phase) — category arrays grow from 7 to 9 entries — and an
///       optional "freshness" bench-payload section (per-mutation-rate
///       staleness quantiles from bench_freshness).
///   8 — the "skew" and "serving" sections are gone. Nothing read
///       either: per-server load stays in "rpc" (calls, bytes and busy
///       ticks by callee), and every serving number stays in
///       "counters" and "histograms" under serving.*.
inline constexpr const char* kRunReportSchema = "psgraph.run_report";
inline constexpr int kRunReportSchemaVersion = 8;

struct RunReport {
  std::string name;  ///< bench/run identifier ("micro", "parallel", ...)

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  std::map<std::string, Tracer::SpanStats> spans;
  uint64_t spans_dropped = 0;

  /// Per-node simulated busy time.
  struct NodeStat {
    int32_t node = 0;
    std::string role;  // "executor" | "server" | "driver"
    int64_t busy_ticks = 0;
    double busy_seconds = 0.0;
    /// Per-node memory ledger at capture time (schema v3): memory skew
    /// is visible per node, not just the cluster-wide peak.
    uint64_t mem_usage_bytes = 0;
    uint64_t mem_peak_bytes = 0;
    uint64_t mem_budget_bytes = 0;
  };
  int32_t num_executors = 0;
  int32_t num_servers = 0;
  std::vector<NodeStat> nodes;
  int64_t makespan_ticks = 0;
  double makespan_seconds = 0.0;

  /// Per-iteration algorithm telemetry (the "convergence" section).
  std::map<std::string, ConvergenceLog::Series> convergence;
  uint64_t convergence_rejected = 0;

  /// Wire-level RPC telemetry (the "rpc" section, schema v3): one entry
  /// per (method, callee node), in deterministic order.
  std::vector<RpcTelemetry::MethodStat> rpc;
  /// Control-plane journal (the "events" section, schema v3): per-type
  /// counts, the failure-path events only (empty for clean runs), and
  /// the derived recovery summary.
  std::map<std::string, uint64_t> event_counts;
  std::vector<JournalEvent> failure_events;
  EventJournal::RecoverySummary recovery;
  uint64_t events_dropped = 0;

  /// Makespan attribution (the "critical_path" section, schema v6):
  /// category breakdown with exact conservation, straggler path
  /// segments, top spans and what-if projections.
  CriticalPathReport critical_path;

  /// Continuous-telemetry series (the "timeseries" section, schema v5):
  /// whatever the cluster's sampler recorded over the run — empty
  /// (0 points) when sampling was disabled.
  TimeSeriesSnapshot timeseries;
  /// SLO watchdog state (the "alerts" section, schema v5): declared
  /// rules and the fire/clear episode timeline.
  std::vector<WatchdogRule> alert_rules;
  std::vector<AlertFiring> alert_firings;

  /// Free-form bench-specific payload, emitted under "bench".
  JsonValue bench = JsonValue::Object();
};

/// Snapshots every telemetry sink of `cluster` plus its per-node
/// clocks and memory.
RunReport CollectRunReport(const std::string& name, SimCluster* cluster);

/// Schema serialization: Parse(RunReportToJson(r).Dump()) validates.
JsonValue RunReportToJson(const RunReport& report);

/// Checks that a parsed document is a structurally valid run report
/// (schema marker + version, the required sections with the right
/// shapes, and the bench-payload kernel and freshness rules). The only
/// schema check: WriteRunReport runs it on every report it writes.
Status ValidateRunReportJson(const JsonValue& doc);

/// Serializes and writes `report` to `path` (pretty-printed).
Status WriteRunReport(const RunReport& report, const std::string& path);

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_REPORT_H_
