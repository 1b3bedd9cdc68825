#include "sim/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace psgraph::sim {

RunReport CollectRunReport(const std::string& name, SimCluster* cluster) {
  RunReport report;
  report.name = name;
  report.counters = cluster->metrics().CounterSnapshot();
  report.gauges = cluster->metrics().GaugeSnapshot();
  report.histograms = cluster->metrics().HistogramSnapshots();
  report.spans = cluster->tracer().Summary();
  report.spans_dropped = cluster->tracer().dropped();
  report.convergence = cluster->convergence().Snapshot();
  report.convergence_rejected = cluster->convergence().rejected();
  report.rpc = cluster->rpc_telemetry().Snapshot();
  report.timeseries = cluster->sampler().store().Snapshot();
  report.alert_rules = cluster->watchdog().rules();
  report.alert_firings = cluster->watchdog().firings();
  const std::vector<JournalEvent> events = cluster->events().Snapshot();
  report.event_counts = cluster->events().Counts();
  for (const JournalEvent& e : events) {
    if (EventJournal::IsFailureEvent(e)) report.failure_events.push_back(e);
  }
  report.recovery = EventJournal::SummarizeRecovery(events);
  report.events_dropped = cluster->events().dropped();
  const ClusterConfig& cfg = cluster->config();
  report.num_executors = cfg.num_executors;
  report.num_servers = cfg.num_servers;
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    RunReport::NodeStat stat;
    stat.node = n;
    stat.role = cfg.is_executor(n)   ? "executor"
                : cfg.is_server(n)   ? "server"
                                     : "driver";
    stat.busy_ticks = cluster->clock().NowTicks(n);
    stat.busy_seconds = SimClock::SecondsOf(stat.busy_ticks);
    stat.mem_usage_bytes = cluster->memory().Usage(n);
    stat.mem_peak_bytes = cluster->memory().Peak(n);
    stat.mem_budget_bytes = cluster->memory().Budget(n);
    report.nodes.push_back(std::move(stat));
    report.makespan_ticks =
        std::max(report.makespan_ticks, report.nodes.back().busy_ticks);
  }
  report.makespan_seconds = SimClock::SecondsOf(report.makespan_ticks);
  report.critical_path = AnalyzeCriticalPath(cluster);
  return report;
}

namespace {

JsonValue HistogramToJson(const HistogramSnapshot& h) {
  JsonValue obj = JsonValue::Object();
  obj.Set("count", h.count);
  obj.Set("sum", h.sum);
  obj.Set("min", h.min);
  obj.Set("max", h.max);
  obj.Set("mean", h.mean());
  const HistogramPercentiles q = h.Percentiles();
  obj.Set("p50", q.p50);
  obj.Set("p95", q.p95);
  obj.Set("p99", q.p99);
  obj.Set("p999", q.p999);
  // Sparse [bucket_index, count] pairs: enough to rebuild the full
  // distribution, without 400 zeros per histogram.
  JsonValue buckets = JsonValue::Array();
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    JsonValue pair = JsonValue::Array();
    pair.Append(static_cast<uint64_t>(i));
    pair.Append(h.buckets[i]);
    buckets.Append(std::move(pair));
  }
  obj.Set("buckets", std::move(buckets));
  return obj;
}

}  // namespace

JsonValue RunReportToJson(const RunReport& report) {
  JsonValue doc = JsonValue::Object();
  doc.Set("schema", kRunReportSchema);
  doc.Set("schema_version", kRunReportSchemaVersion);
  doc.Set("name", report.name);

  JsonValue counters = JsonValue::Object();
  for (const auto& [k, v] : report.counters) counters.Set(k, v);
  doc.Set("counters", std::move(counters));

  JsonValue gauges = JsonValue::Object();
  for (const auto& [k, v] : report.gauges) gauges.Set(k, v);
  doc.Set("gauges", std::move(gauges));

  JsonValue hists = JsonValue::Object();
  for (const auto& [k, v] : report.histograms) {
    hists.Set(k, HistogramToJson(v));
  }
  doc.Set("histograms", std::move(hists));

  JsonValue spans = JsonValue::Object();
  for (const auto& [k, v] : report.spans) {
    JsonValue s = JsonValue::Object();
    s.Set("count", v.count);
    s.Set("total_ticks", v.total_ticks);
    s.Set("max_ticks", v.max_ticks);
    spans.Set(k, std::move(s));
  }
  doc.Set("spans", std::move(spans));
  doc.Set("spans_dropped", report.spans_dropped);

  JsonValue cluster = JsonValue::Object();
  cluster.Set("num_executors", static_cast<int64_t>(report.num_executors));
  cluster.Set("num_servers", static_cast<int64_t>(report.num_servers));
  cluster.Set("makespan_ticks", report.makespan_ticks);
  cluster.Set("makespan_seconds", report.makespan_seconds);
  JsonValue nodes = JsonValue::Array();
  for (const auto& n : report.nodes) {
    JsonValue node = JsonValue::Object();
    node.Set("node", static_cast<int64_t>(n.node));
    node.Set("role", n.role);
    node.Set("busy_ticks", n.busy_ticks);
    node.Set("busy_seconds", n.busy_seconds);
    node.Set("mem_usage_bytes", n.mem_usage_bytes);
    node.Set("mem_peak_bytes", n.mem_peak_bytes);
    node.Set("mem_budget_bytes", n.mem_budget_bytes);
    nodes.Append(std::move(node));
  }
  cluster.Set("nodes", std::move(nodes));
  doc.Set("cluster", std::move(cluster));

  const CriticalPathReport& cp = report.critical_path;
  JsonValue section = JsonValue::Object();
  section.Set("critical_node", static_cast<int64_t>(cp.critical_node));
  section.Set("critical_role", cp.critical_role);
  section.Set("makespan_ticks", cp.makespan_ticks);
  JsonValue categories = JsonValue::Object();
  for (int c = 0; c < kNumCostCategories; ++c) {
    categories.Set(kCostCategoryNames[c],
                   cp.categories[static_cast<size_t>(c)]);
  }
  section.Set("categories", std::move(categories));
  JsonValue path = JsonValue::Array();
  for (const auto& seg : cp.path) {
    JsonValue s = JsonValue::Object();
    s.Set("node", static_cast<int64_t>(seg.node));
    s.Set("role", seg.role);
    s.Set("begin_ticks", seg.begin_ticks);
    s.Set("end_ticks", seg.end_ticks);
    s.Set("ticks", seg.end_ticks - seg.begin_ticks);
    s.Set("gate", seg.gate);
    path.Append(std::move(s));
  }
  section.Set("path", std::move(path));
  JsonValue top_spans = JsonValue::Array();
  for (const auto& span : cp.top_spans) {
    JsonValue s = JsonValue::Object();
    s.Set("name", span.name);
    s.Set("critical_node_ticks", span.critical_node_ticks);
    s.Set("total_ticks", span.total_ticks);
    s.Set("count", span.count);
    top_spans.Append(std::move(s));
  }
  section.Set("top_spans", std::move(top_spans));
  JsonValue what_if = JsonValue::Array();
  for (const auto& w : cp.what_if) {
    JsonValue entry = JsonValue::Object();
    entry.Set("name", w.name);
    entry.Set("factor", w.factor);
    entry.Set("projected_makespan_ticks", w.projected_makespan_ticks);
    entry.Set("speedup", w.speedup);
    what_if.Append(std::move(entry));
  }
  section.Set("what_if", std::move(what_if));
  doc.Set("critical_path", std::move(section));

  JsonValue convergence = JsonValue::Object();
  JsonValue series = JsonValue::Object();
  for (const auto& [name, points] : report.convergence) {
    JsonValue list = JsonValue::Array();
    for (const auto& p : points) {
      JsonValue point = JsonValue::Array();
      point.Append(p.iteration);
      point.Append(p.value);
      list.Append(std::move(point));
    }
    series.Set(name, std::move(list));
  }
  convergence.Set("series", std::move(series));
  convergence.Set("rejected_points", report.convergence_rejected);
  doc.Set("convergence", std::move(convergence));

  JsonValue rpc = JsonValue::Object();
  JsonValue methods = JsonValue::Array();
  for (const auto& m : report.rpc) {
    JsonValue entry = JsonValue::Object();
    entry.Set("method", m.method);
    entry.Set("node", static_cast<int64_t>(m.node));
    entry.Set("calls", m.calls);
    entry.Set("request_bytes", m.request_bytes);
    entry.Set("response_bytes", m.response_bytes);
    entry.Set("callee_busy_ticks", m.callee_busy_ticks);
    entry.Set("caller_wait_ticks", m.caller_wait_ticks);
    entry.Set("errors_unavailable", m.errors_unavailable);
    entry.Set("errors_handler", m.errors_handler);
    methods.Append(std::move(entry));
  }
  rpc.Set("methods", std::move(methods));
  doc.Set("rpc", std::move(rpc));

  JsonValue events = JsonValue::Object();
  JsonValue counts = JsonValue::Object();
  for (const auto& [type, count] : report.event_counts) {
    counts.Set(type, count);
  }
  events.Set("counts", std::move(counts));
  JsonValue failures = JsonValue::Array();
  for (const JournalEvent& e : report.failure_events) {
    JsonValue ev = JsonValue::Object();
    ev.Set("type", JournalEventTypeName(e.type));
    ev.Set("node", static_cast<int64_t>(e.node));
    ev.Set("iteration", e.iteration);
    ev.Set("ticks", e.ticks);
    ev.Set("value", e.value);
    failures.Append(std::move(ev));
  }
  events.Set("failures", std::move(failures));
  JsonValue recovery = JsonValue::Object();
  recovery.Set("episodes", report.recovery.episodes);
  recovery.Set("total_ticks", report.recovery.total_ticks);
  recovery.Set("max_ticks", report.recovery.max_ticks);
  events.Set("recovery", std::move(recovery));
  events.Set("dropped", report.events_dropped);
  doc.Set("events", std::move(events));

  JsonValue timeseries = JsonValue::Object();
  timeseries.Set("base_interval_ticks",
                 report.timeseries.base_interval_ticks);
  timeseries.Set("interval_ticks", report.timeseries.interval_ticks);
  timeseries.Set("compactions",
                 static_cast<uint64_t>(report.timeseries.compactions));
  timeseries.Set("points", static_cast<uint64_t>(report.timeseries.points));
  JsonValue ts_series = JsonValue::Object();
  for (const auto& [sname, values] : report.timeseries.series) {
    // All-zero series carry no information (most counters never move in
    // a given bench) — dropping them keeps 100+ series reports small.
    const bool all_zero =
        std::all_of(values.begin(), values.end(),
                    [](double v) { return v == 0.0; });
    if (all_zero) continue;
    JsonValue list = JsonValue::Array();
    for (double v : values) {
      // Counters and tick quantiles are integral: emit them as integers
      // so the arrays don't balloon with %.17g float renderings.
      const auto as_int = static_cast<int64_t>(v);
      if (static_cast<double>(as_int) == v && std::abs(v) <= 9.0e15) {
        list.Append(as_int);
      } else {
        list.Append(v);
      }
    }
    ts_series.Set(sname, std::move(list));
  }
  timeseries.Set("series", std::move(ts_series));
  doc.Set("timeseries", std::move(timeseries));

  JsonValue alerts = JsonValue::Object();
  JsonValue rules = JsonValue::Array();
  for (const WatchdogRule& r : report.alert_rules) {
    JsonValue rule = JsonValue::Object();
    rule.Set("name", r.name);
    rule.Set("form", WatchdogRuleFormName(r.form));
    rule.Set("series", r.series);
    rule.Set("threshold", r.threshold);
    rule.Set("fire_above", r.fire_above);
    rule.Set("window", r.window);
    rule.Set("bad_series", r.bad_series);
    rule.Set("total_series", r.total_series);
    rule.Set("error_budget", r.error_budget);
    rule.Set("burn_threshold", r.burn_threshold);
    rules.Append(std::move(rule));
  }
  alerts.Set("rules", std::move(rules));
  JsonValue firings = JsonValue::Array();
  for (const AlertFiring& f : report.alert_firings) {
    JsonValue firing = JsonValue::Object();
    firing.Set("rule", f.rule);
    firing.Set("rule_name", f.rule < report.alert_rules.size()
                                ? report.alert_rules[f.rule].name
                                : std::string("?"));
    firing.Set("fire_ticks", f.fire_ticks);
    firing.Set("clear_ticks", f.clear_ticks);
    firing.Set("value", f.value);
    firings.Append(std::move(firing));
  }
  alerts.Set("firings", std::move(firings));
  doc.Set("alerts", std::move(alerts));

  doc.Set("bench", report.bench);
  return doc;
}

namespace {

Status Expect(bool ok, const std::string& what) {
  if (ok) return Status::OK();
  return Status::InvalidArgument("run report schema: " + what);
}

}  // namespace

Status ValidateRunReportJson(const JsonValue& doc) {
  PSG_RETURN_NOT_OK(Expect(doc.is_object(), "document must be an object"));
  const JsonValue* schema = doc.Find("schema");
  PSG_RETURN_NOT_OK(Expect(
      schema != nullptr && schema->is_string() &&
          schema->as_string() == kRunReportSchema,
      std::string("'schema' must be \"") + kRunReportSchema + "\""));
  const JsonValue* version = doc.Find("schema_version");
  PSG_RETURN_NOT_OK(Expect(
      version != nullptr && version->is_number() &&
          version->as_int() == kRunReportSchemaVersion,
      "'schema_version' must be " +
          std::to_string(kRunReportSchemaVersion)));
  const JsonValue* name = doc.Find("name");
  PSG_RETURN_NOT_OK(Expect(name != nullptr && name->is_string() &&
                               !name->as_string().empty(),
                           "'name' must be a non-empty string"));
  for (const char* section : {"counters", "gauges", "histograms", "spans"}) {
    const JsonValue* v = doc.Find(section);
    PSG_RETURN_NOT_OK(Expect(v != nullptr && v->is_object(),
                             std::string("'") + section +
                                 "' must be an object"));
  }
  const JsonValue* hists = doc.Find("histograms");
  for (const auto& [hname, h] : hists->members()) {
    PSG_RETURN_NOT_OK(
        Expect(h.is_object(), "histogram '" + hname + "' must be object"));
    for (const char* field : {"count", "sum", "min", "max", "mean", "p50",
                              "p95", "p99", "p999"}) {
      const JsonValue* f = h.Find(field);
      PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                               "histogram '" + hname + "' needs numeric '" +
                                   field + "'"));
    }
    const JsonValue* buckets = h.Find("buckets");
    PSG_RETURN_NOT_OK(Expect(buckets != nullptr && buckets->is_array(),
                             "histogram '" + hname + "' needs 'buckets'"));
  }
  const JsonValue* cluster = doc.Find("cluster");
  PSG_RETURN_NOT_OK(Expect(cluster != nullptr && cluster->is_object(),
                           "'cluster' must be an object"));
  for (const char* field :
       {"num_executors", "num_servers", "makespan_ticks",
        "makespan_seconds"}) {
    const JsonValue* f = cluster->Find(field);
    PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                             std::string("'cluster.") + field +
                                 "' must be numeric"));
  }
  const JsonValue* nodes = cluster->Find("nodes");
  PSG_RETURN_NOT_OK(Expect(nodes != nullptr && nodes->is_array() &&
                               nodes->size() > 0,
                           "'cluster.nodes' must be a non-empty array"));
  for (const JsonValue& node : nodes->elements()) {
    const JsonValue* role = node.Find("role");
    const JsonValue* busy = node.Find("busy_ticks");
    PSG_RETURN_NOT_OK(Expect(
        node.is_object() && role != nullptr && role->is_string() &&
            busy != nullptr && busy->is_number(),
        "every cluster node needs 'role' and 'busy_ticks'"));
    for (const char* field : {"node", "mem_usage_bytes", "mem_peak_bytes",
                              "mem_budget_bytes"}) {
      const JsonValue* f = node.Find(field);
      PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                               std::string("every cluster node needs "
                                           "numeric '") +
                                   field + "'"));
    }
  }
  const JsonValue* critical = doc.Find("critical_path");
  PSG_RETURN_NOT_OK(Expect(critical != nullptr && critical->is_object(),
                           "'critical_path' must be an object"));
  {
    for (const char* field : {"critical_node", "makespan_ticks"}) {
      const JsonValue* f = critical->Find(field);
      PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                               std::string("'critical_path.") + field +
                                   "' must be numeric"));
    }
    const JsonValue* role = critical->Find("critical_role");
    PSG_RETURN_NOT_OK(Expect(role != nullptr && role->is_string() &&
                                 !role->as_string().empty(),
                             "'critical_path.critical_role' must be a "
                             "non-empty string"));
    const int64_t makespan = critical->Find("makespan_ticks")->as_int();
    PSG_RETURN_NOT_OK(Expect(
        makespan == cluster->Find("makespan_ticks")->as_int(),
        "'critical_path.makespan_ticks' must equal "
        "'cluster.makespan_ticks'"));
    // The conservation invariant: exactly the schema's categories,
    // each non-negative, summing EXACTLY to the makespan. A negative
    // category means a ledger double-charge; a sum mismatch means a
    // clock advance escaped attribution. Either way the report lies
    // about where the time went, so it is rejected.
    const JsonValue* categories = critical->Find("categories");
    PSG_RETURN_NOT_OK(Expect(
        categories != nullptr && categories->is_object() &&
            categories->size() ==
                static_cast<size_t>(kNumCostCategories),
        "'critical_path.categories' must be an object with exactly " +
            std::to_string(kNumCostCategories) + " categories"));
    int64_t category_sum = 0;
    for (int c = 0; c < kNumCostCategories; ++c) {
      const JsonValue* f = categories->Find(kCostCategoryNames[c]);
      PSG_RETURN_NOT_OK(
          Expect(f != nullptr && f->is_number(),
                 std::string("'critical_path.categories.") +
                     kCostCategoryNames[c] + "' must be numeric"));
      PSG_RETURN_NOT_OK(
          Expect(f->as_int() >= 0,
                 std::string("'critical_path.categories.") +
                     kCostCategoryNames[c] +
                     "' is negative — attribution over-counted"));
      category_sum += f->as_int();
    }
    PSG_RETURN_NOT_OK(Expect(
        category_sum == makespan,
        "critical-path conservation violated: categories sum to " +
            std::to_string(category_sum) + " but makespan_ticks is " +
            std::to_string(makespan)));
    // Path segments must tile [0, makespan] contiguously in time order.
    const JsonValue* path = critical->Find("path");
    PSG_RETURN_NOT_OK(Expect(path != nullptr && path->is_array(),
                             "'critical_path.path' must be an array"));
    PSG_RETURN_NOT_OK(Expect(makespan == 0 || path->size() > 0,
                             "'critical_path.path' must be non-empty for a "
                             "non-zero makespan"));
    int64_t prev_end = 0;
    for (const JsonValue& seg : path->elements()) {
      PSG_RETURN_NOT_OK(
          Expect(seg.is_object(), "path segment must be an object"));
      for (const char* field :
           {"node", "begin_ticks", "end_ticks", "ticks"}) {
        const JsonValue* f = seg.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                                 std::string("path segment needs numeric "
                                             "'") +
                                     field + "'"));
      }
      for (const char* field : {"role", "gate"}) {
        const JsonValue* f = seg.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_string() &&
                                     !f->as_string().empty(),
                                 std::string("path segment needs a "
                                             "non-empty '") +
                                     field + "' string"));
      }
      const int64_t begin = seg.Find("begin_ticks")->as_int();
      const int64_t end = seg.Find("end_ticks")->as_int();
      PSG_RETURN_NOT_OK(Expect(begin == prev_end,
                               "path segments must be contiguous from 0"));
      PSG_RETURN_NOT_OK(
          Expect(end > begin, "path segments must be time-ordered"));
      PSG_RETURN_NOT_OK(Expect(seg.Find("ticks")->as_int() == end - begin,
                               "path segment 'ticks' must equal "
                               "end_ticks - begin_ticks"));
      prev_end = end;
    }
    PSG_RETURN_NOT_OK(Expect(path->size() == 0 || prev_end == makespan,
                             "path segments must end at makespan_ticks"));
    const JsonValue* top_spans = critical->Find("top_spans");
    PSG_RETURN_NOT_OK(Expect(top_spans != nullptr && top_spans->is_array(),
                             "'critical_path.top_spans' must be an array"));
    for (const JsonValue& span : top_spans->elements()) {
      const JsonValue* sname = span.Find("name");
      PSG_RETURN_NOT_OK(Expect(span.is_object() && sname != nullptr &&
                                   sname->is_string() &&
                                   !sname->as_string().empty(),
                               "top_spans entry needs a non-empty 'name'"));
      for (const char* field :
           {"critical_node_ticks", "total_ticks", "count"}) {
        const JsonValue* f = span.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                                 std::string("top_spans entry needs "
                                             "numeric '") +
                                     field + "'"));
      }
    }
    const JsonValue* what_if = critical->Find("what_if");
    PSG_RETURN_NOT_OK(Expect(what_if != nullptr && what_if->is_array(),
                             "'critical_path.what_if' must be an array"));
    for (const JsonValue& w : what_if->elements()) {
      const JsonValue* wname = w.Find("name");
      PSG_RETURN_NOT_OK(Expect(w.is_object() && wname != nullptr &&
                                   wname->is_string(),
                               "what_if entry needs a 'name'"));
      for (const char* field :
           {"factor", "projected_makespan_ticks", "speedup"}) {
        const JsonValue* f = w.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                                 std::string("what_if entry needs numeric "
                                             "'") +
                                     field + "'"));
      }
      PSG_RETURN_NOT_OK(
          Expect(w.Find("projected_makespan_ticks")->as_int() <= makespan,
                 "what_if projection cannot exceed the makespan"));
    }
  }
  const JsonValue* convergence = doc.Find("convergence");
  PSG_RETURN_NOT_OK(Expect(convergence != nullptr &&
                               convergence->is_object(),
                           "'convergence' must be an object"));
  {
    const JsonValue* series = convergence->Find("series");
    PSG_RETURN_NOT_OK(Expect(series != nullptr && series->is_object(),
                             "'convergence.series' must be an object"));
    for (const auto& [sname, points] : series->members()) {
      PSG_RETURN_NOT_OK(Expect(points.is_array(),
                               "convergence series '" + sname +
                                   "' must be an array"));
      int64_t last_iter = INT64_MIN;
      for (const JsonValue& p : points.elements()) {
        PSG_RETURN_NOT_OK(Expect(
            p.is_array() && p.size() == 2 && p.at(0).is_number() &&
                p.at(1).is_number(),
            "convergence series '" + sname +
                "' points must be [iteration, value] pairs"));
        PSG_RETURN_NOT_OK(Expect(p.at(0).as_int() > last_iter,
                                 "convergence series '" + sname +
                                     "' iterations must increase"));
        last_iter = p.at(0).as_int();
      }
    }
    const JsonValue* rejected = convergence->Find("rejected_points");
    PSG_RETURN_NOT_OK(Expect(rejected != nullptr && rejected->is_number(),
                             "'convergence.rejected_points' must be "
                             "numeric"));
  }
  const JsonValue* rpc = doc.Find("rpc");
  PSG_RETURN_NOT_OK(Expect(rpc != nullptr && rpc->is_object(),
                           "'rpc' must be an object"));
  {
    const JsonValue* methods = rpc->Find("methods");
    PSG_RETURN_NOT_OK(Expect(methods != nullptr && methods->is_array(),
                             "'rpc.methods' must be an array"));
    for (const JsonValue& m : methods->elements()) {
      PSG_RETURN_NOT_OK(
          Expect(m.is_object(), "rpc method entry must be an object"));
      const JsonValue* method = m.Find("method");
      PSG_RETURN_NOT_OK(Expect(method != nullptr && method->is_string() &&
                                   !method->as_string().empty(),
                               "rpc entry needs a non-empty 'method'"));
      for (const char* field :
           {"node", "calls", "request_bytes", "response_bytes",
            "callee_busy_ticks", "caller_wait_ticks", "errors_unavailable",
            "errors_handler"}) {
        const JsonValue* f = m.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                                 std::string("rpc entry needs numeric '") +
                                     field + "'"));
      }
    }
  }
  const JsonValue* events = doc.Find("events");
  PSG_RETURN_NOT_OK(Expect(events != nullptr && events->is_object(),
                           "'events' must be an object"));
  {
    const JsonValue* counts = events->Find("counts");
    PSG_RETURN_NOT_OK(Expect(counts != nullptr && counts->is_object(),
                             "'events.counts' must be an object"));
    for (const auto& [type, count] : counts->members()) {
      PSG_RETURN_NOT_OK(Expect(count.is_number(),
                               "events count '" + type +
                                   "' must be numeric"));
    }
    const JsonValue* failures = events->Find("failures");
    PSG_RETURN_NOT_OK(Expect(failures != nullptr && failures->is_array(),
                             "'events.failures' must be an array"));
    for (const JsonValue& ev : failures->elements()) {
      PSG_RETURN_NOT_OK(
          Expect(ev.is_object(), "failure event must be an object"));
      const JsonValue* type = ev.Find("type");
      PSG_RETURN_NOT_OK(Expect(type != nullptr && type->is_string() &&
                                   !type->as_string().empty(),
                               "failure event needs a 'type' string"));
      for (const char* field : {"node", "iteration", "ticks", "value"}) {
        const JsonValue* f = ev.Find(field);
        PSG_RETURN_NOT_OK(
            Expect(f != nullptr && f->is_number(),
                   std::string("failure event needs numeric '") + field +
                       "'"));
      }
    }
    const JsonValue* recovery = events->Find("recovery");
    PSG_RETURN_NOT_OK(Expect(recovery != nullptr && recovery->is_object(),
                             "'events.recovery' must be an object"));
    for (const char* field : {"episodes", "total_ticks", "max_ticks"}) {
      const JsonValue* f = recovery->Find(field);
      PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                               std::string("'events.recovery.") + field +
                                   "' must be numeric"));
    }
    const JsonValue* dropped = events->Find("dropped");
    PSG_RETURN_NOT_OK(Expect(dropped != nullptr && dropped->is_number(),
                             "'events.dropped' must be numeric"));
  }
  const JsonValue* timeseries = doc.Find("timeseries");
  PSG_RETURN_NOT_OK(Expect(timeseries != nullptr && timeseries->is_object(),
                           "'timeseries' must be an object"));
  {
    for (const char* field : {"base_interval_ticks", "interval_ticks",
                              "compactions", "points"}) {
      const JsonValue* f = timeseries->Find(field);
      PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                               std::string("'timeseries.") + field +
                                   "' must be numeric"));
    }
    const JsonValue* series = timeseries->Find("series");
    PSG_RETURN_NOT_OK(Expect(series != nullptr && series->is_object(),
                             "'timeseries.series' must be an object"));
    const int64_t points = timeseries->Find("points")->as_int();
    for (const auto& [sname, values] : series->members()) {
      PSG_RETURN_NOT_OK(Expect(
          values.is_array() &&
              values.size() == static_cast<size_t>(points),
          "timeseries series '" + sname + "' must be an array of " +
              std::to_string(points) + " points"));
      for (const JsonValue& v : values.elements()) {
        PSG_RETURN_NOT_OK(Expect(v.is_number(),
                                 "timeseries series '" + sname +
                                     "' values must be numeric"));
      }
    }
  }
  const JsonValue* alerts = doc.Find("alerts");
  PSG_RETURN_NOT_OK(Expect(alerts != nullptr && alerts->is_object(),
                           "'alerts' must be an object"));
  {
    const JsonValue* rules = alerts->Find("rules");
    PSG_RETURN_NOT_OK(Expect(rules != nullptr && rules->is_array(),
                             "'alerts.rules' must be an array"));
    for (const JsonValue& rule : rules->elements()) {
      PSG_RETURN_NOT_OK(
          Expect(rule.is_object(), "alert rule must be an object"));
      for (const char* field : {"name", "form"}) {
        const JsonValue* f = rule.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_string() &&
                                     !f->as_string().empty(),
                                 std::string("alert rule needs a non-empty "
                                             "'") +
                                     field + "' string"));
      }
      for (const char* field : {"threshold", "window", "error_budget",
                                "burn_threshold"}) {
        const JsonValue* f = rule.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                                 std::string("alert rule needs numeric '") +
                                     field + "'"));
      }
    }
    const JsonValue* firings = alerts->Find("firings");
    PSG_RETURN_NOT_OK(Expect(firings != nullptr && firings->is_array(),
                             "'alerts.firings' must be an array"));
    for (const JsonValue& firing : firings->elements()) {
      PSG_RETURN_NOT_OK(
          Expect(firing.is_object(), "alert firing must be an object"));
      for (const char* field :
           {"rule", "fire_ticks", "clear_ticks", "value"}) {
        const JsonValue* f = firing.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                                 std::string("alert firing needs numeric "
                                             "'") +
                                     field + "'"));
      }
      const JsonValue* rule_name = firing.Find("rule_name");
      PSG_RETURN_NOT_OK(Expect(rule_name != nullptr &&
                                   rule_name->is_string(),
                               "alert firing needs a 'rule_name' string"));
      const int64_t rule_index = firing.Find("rule")->as_int();
      PSG_RETURN_NOT_OK(Expect(
          rule_index >= 0 &&
              static_cast<size_t>(rule_index) < rules->size(),
          "alert firing 'rule' must index into 'alerts.rules'"));
    }
  }
  const JsonValue* bench = doc.Find("bench");
  PSG_RETURN_NOT_OK(Expect(bench != nullptr,
                           "'bench' must be present (bench payload)"));
  // Kernel tables: an entry without a unit label cannot be gated.
  if (const JsonValue* kernels = bench->Find("kernels")) {
    PSG_RETURN_NOT_OK(Expect(kernels->is_object(),
                             "'bench.kernels' must be an object"));
    for (const auto& [kname, entry] : kernels->members()) {
      const JsonValue* value = entry.Find("value");
      const JsonValue* unit = entry.Find("unit");
      PSG_RETURN_NOT_OK(Expect(
          value != nullptr && value->is_number() && unit != nullptr &&
              unit->is_string() &&
              (unit->as_string() == "ticks" || unit->as_string() == "bytes"),
          "bench kernel '" + kname +
              "' must be {value: number, unit: \"ticks\"|\"bytes\"}"));
    }
  }
  // Freshness tables: every rate cell (a payload member carrying
  // staleness_p50_sim_ticks) reports gateable staleness and never tore
  // a read.
  if (const JsonValue* freshness = bench->Find("freshness")) {
    PSG_RETURN_NOT_OK(Expect(freshness->is_object(),
                             "'bench.freshness' must be an object"));
    size_t cells = 0;
    for (const auto& [cname, cell] : bench->members()) {
      if (cell.Find("staleness_p50_sim_ticks") == nullptr) continue;
      ++cells;
      for (const char* field :
           {"staleness_p50_sim_ticks", "staleness_p99_sim_ticks",
            "touched_fraction_max", "rank_rel_l1_err"}) {
        const JsonValue* f = cell.Find(field);
        PSG_RETURN_NOT_OK(Expect(f != nullptr && f->is_number(),
                                 "freshness cell '" + cname +
                                     "' needs numeric '" + field + "'"));
      }
      const JsonValue* torn = cell.Find("torn_requests");
      PSG_RETURN_NOT_OK(Expect(
          torn != nullptr && torn->is_number() && torn->as_double() == 0.0,
          "freshness cell '" + cname + "' must have torn_requests == 0"));
    }
    PSG_RETURN_NOT_OK(Expect(cells > 0,
                             "'bench.freshness' needs at least one cell "
                             "with 'staleness_p50_sim_ticks'"));
  }
  return Status::OK();
}

Status WriteRunReport(const RunReport& report, const std::string& path) {
  JsonValue doc = RunReportToJson(report);
  // Hard gate, not a warning: a report whose critical-path attribution
  // fails conservation (or any other schema invariant) is rejected
  // instead of written — CI must never diff against a lying profile.
  PSG_RETURN_NOT_OK(ValidateRunReportJson(doc));
  const std::string text = doc.Dump(/*indent=*/2);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed_ok = std::fclose(f) == 0;
  if (written != text.size() || !closed_ok) {
    return Status::IoError("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace psgraph::sim
