#include "common/trace.h"

#include <algorithm>
#include <cstdlib>

#include "common/env.h"

namespace psgraph {

namespace {

struct OpenSpan {
  const Tracer* tracer;
  uint64_t id;
};

// Innermost-open-span stack per thread. Entries carry the tracer they
// belong to so independent tracers (one per PsGraphContext) nesting on
// the same thread do not see each other's spans as parents.
thread_local std::vector<OpenSpan> t_open_spans;

uint64_t CurrentParent(const Tracer* tracer) {
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->tracer == tracer) return it->id;
  }
  return 0;
}

}  // namespace

uint64_t Tracer::Begin(const std::string& name, int32_t node,
                       int64_t begin_ticks) {
  return Begin(name, node, begin_ticks, /*parent=*/0);
}

uint64_t Tracer::CurrentSpanId() const { return CurrentParent(this); }

uint64_t Tracer::Begin(const std::string& name, int32_t node,
                       int64_t begin_ticks, uint64_t parent) {
  if (!enabled()) return 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (spans_.size() >= max_spans_) {
    // Detail is dropped at the cap, but the span must still count:
    // hand out a synthetic id so End() can fold it into the summaries.
    // Over-cap spans are deliberately NOT pushed onto the open-span
    // stack — parent attribution of kept spans matches the pre-cap
    // export exactly.
    const uint64_t id = kOverflowIdBit | ++next_overflow_id_;
    overflow_open_.emplace(id, OverflowSpan{name, node, begin_ticks});
    lock.unlock();
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return id;
  }
  TraceSpan span;
  span.id = spans_.size() + 1;
  span.parent = parent != 0 ? parent : CurrentParent(this);
  span.name = name;
  span.node = node;
  span.begin_ticks = begin_ticks;
  span.end_ticks = begin_ticks;
  spans_.push_back(span);
  lock.unlock();
  t_open_spans.push_back({this, span.id});
  return span.id;
}

void Tracer::End(uint64_t id, int64_t end_ticks) {
  if (id == 0) return;
  if ((id & kOverflowIdBit) != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = overflow_open_.find(id);
    if (it == overflow_open_.end()) return;
    FoldLocked(it->second.name, it->second.node,
               end_ticks - it->second.begin_ticks);
    overflow_open_.erase(it);
    return;
  }
  // Pop this tracer's innermost matching entry (spans close LIFO per
  // thread; an out-of-order close only affects parent attribution of
  // later spans, never correctness of the record itself).
  for (auto it = t_open_spans.rbegin(); it != t_open_spans.rend(); ++it) {
    if (it->tracer == this && it->id == id) {
      t_open_spans.erase(std::next(it).base());
      break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (id > spans_.size()) return;
  TraceSpan& span = spans_[id - 1];
  span.end_ticks = end_ticks;
  FoldLocked(span.name, span.node, end_ticks - span.begin_ticks);
}

void Tracer::FoldLocked(const std::string& name, int32_t node,
                        int64_t dur) {
  dur = std::max<int64_t>(0, dur);
  SpanStats& stats = summary_[name];
  stats.count++;
  stats.total_ticks += dur;
  stats.max_ticks = std::max(stats.max_ticks, dur);
  SpanStats& node_stats = node_summary_[{name, node}];
  node_stats.count++;
  node_stats.total_ticks += dur;
  node_stats.max_ticks = std::max(node_stats.max_ticks, dur);
}

std::vector<TraceSpan> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, Tracer::SpanStats> Tracer::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return summary_;
}

std::map<std::pair<std::string, int32_t>, Tracer::SpanStats>
Tracer::NodeSummary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_summary_;
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
  summary_.clear();
  node_summary_.clear();
  overflow_open_.clear();
  next_overflow_id_ = 0;
  dropped_.store(0, std::memory_order_relaxed);
}

size_t Tracer::MaxSpansFromEnv() {
  // 0 (or unset) keeps the built-in cap.
  const uint64_t n = EnvU64("PSGRAPH_TRACE_MAX_SPANS", 0);
  return n == 0 ? kMaxSpans : static_cast<size_t>(n);
}

bool Tracer::EnabledByEnv() { return EnvFlag("PSGRAPH_TRACE", false); }

}  // namespace psgraph
