// Lightweight structured tracing over the simulated clocks.
//
// A TraceSpan is one named interval on one logical node, stamped with
// sim-clock ticks (common/ cannot depend on sim/, so callers pass the
// tick readings). Spans nest: Begin() links the new span to the
// innermost span previously begun by the same thread on the same
// tracer, so a PS pull handled inside an RPC dispatch inside a
// partition task forms a parent chain.
//
// Tracing is off by default (Begin() is one relaxed atomic load). Each
// SimCluster enables its tracer when the PSGRAPH_TRACE environment
// variable is set to a non-empty, non-"0" value. Span *summaries*
// (count/total/max per name) feed the JSON run report; full span detail
// is capped at kMaxSpans to bound memory, with a dropped-span counter
// kept honest.

#ifndef PSGRAPH_COMMON_TRACE_H_
#define PSGRAPH_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace psgraph {

struct TraceSpan {
  uint64_t id = 0;      ///< 1-based; 0 means "no span"
  uint64_t parent = 0;  ///< id of the enclosing span, 0 at the root
  std::string name;
  int32_t node = -1;  ///< sim node the span ran on, -1 if not node-bound
  int64_t begin_ticks = 0;
  int64_t end_ticks = 0;
};

class Tracer {
 public:
  /// Default cap on full span detail kept in memory; spans past the cap
  /// drop their detail (counted in dropped(), absent from Snapshot())
  /// but still fold into the per-name summaries, so report stats stay
  /// honest on long runs. Every Tracer initializes its cap from
  /// PSGRAPH_TRACE_MAX_SPANS when that is set (long multi-iteration
  /// runs overflow 64k spans and would otherwise silently truncate
  /// their exported timeline).
  static constexpr size_t kMaxSpans = 1 << 16;

  /// High bit marks ids of over-cap spans: they are tracked only in a
  /// (name, node, begin) side table until End() folds them into the
  /// summaries — never exported and never parents of kept spans.
  static constexpr uint64_t kOverflowIdBit = uint64_t{1} << 63;

  Tracer() : max_spans_(MaxSpansFromEnv()) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  size_t max_spans() const { return max_spans_; }
  void set_max_spans(size_t cap) { max_spans_ = cap; }
  /// PSGRAPH_TRACE_MAX_SPANS, or kMaxSpans when unset or zero; a
  /// garbage value aborts (EnvU64).
  static size_t MaxSpansFromEnv();

  /// Opens a span; returns its id (0 when disabled or at capacity —
  /// End() ignores id 0). The parent is the calling thread's innermost
  /// open span on this tracer.
  uint64_t Begin(const std::string& name, int32_t node,
                 int64_t begin_ticks);
  /// Begin() with an explicit parent span id — causal propagation across
  /// threads: the RPC fabric captures the caller's open span and passes
  /// it here so a handler span dispatched on a pool thread still links
  /// to the agent-side span (and across the node boundary in the
  /// exported trace). `parent` 0 falls back to the thread-local chain,
  /// which keeps the strictly sequential path byte-identical.
  uint64_t Begin(const std::string& name, int32_t node,
                 int64_t begin_ticks, uint64_t parent);

  /// The calling thread's innermost open span on this tracer (0 when
  /// none) — what a subsequent Begin() on this thread would use as its
  /// parent. Capture it before handing work to another thread.
  uint64_t CurrentSpanId() const;
  /// Closes the span and folds it into the per-name summary.
  void End(uint64_t id, int64_t end_ticks);

  struct SpanStats {
    uint64_t count = 0;
    int64_t total_ticks = 0;
    int64_t max_ticks = 0;
  };

  std::vector<TraceSpan> Snapshot() const;
  /// Per-name aggregate over all *closed* spans, including spans whose
  /// detail was dropped at the cap.
  std::map<std::string, SpanStats> Summary() const;
  /// Per-(name, node) aggregate over all closed spans — the
  /// critical-path analyzer's what-if input. count and total_ticks are
  /// scheduling-independent; max_ticks is not (see sim/critical_path).
  std::map<std::pair<std::string, int32_t>, SpanStats> NodeSummary() const;
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  void Reset();

  /// True when the PSGRAPH_TRACE environment variable asks for tracing.
  static bool EnabledByEnv();

 private:
  struct OverflowSpan {
    std::string name;
    int32_t node = -1;
    int64_t begin_ticks = 0;
  };

  void FoldLocked(const std::string& name, int32_t node, int64_t dur);

  std::atomic<bool> enabled_{false};
  size_t max_spans_;
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::map<std::string, SpanStats> summary_;
  std::map<std::pair<std::string, int32_t>, SpanStats> node_summary_;
  std::map<uint64_t, OverflowSpan> overflow_open_;
  uint64_t next_overflow_id_ = 0;
};

/// RAII span: opens on construction, closes with the tick value read
/// from `end_fn` at destruction. `tracer` may be null (no-op).
template <typename EndFn>
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int32_t node,
             int64_t begin_ticks, EndFn end_fn)
      : tracer_(tracer), end_fn_(std::move(end_fn)) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      id_ = tracer_->Begin(name, node, begin_ticks);
    }
  }
  /// Variant with an explicit parent span id (see Tracer::Begin).
  ScopedSpan(Tracer* tracer, const std::string& name, int32_t node,
             int64_t begin_ticks, uint64_t parent, EndFn end_fn)
      : tracer_(tracer), end_fn_(std::move(end_fn)) {
    if (tracer_ != nullptr && tracer_->enabled()) {
      id_ = tracer_->Begin(name, node, begin_ticks, parent);
    }
  }
  ~ScopedSpan() {
    if (id_ != 0) tracer_->End(id_, end_fn_());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  EndFn end_fn_;
  uint64_t id_ = 0;
};

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_TRACE_H_
