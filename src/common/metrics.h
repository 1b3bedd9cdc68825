// Observability primitives: named monotonic counters (bytes shuffled,
// RPCs issued, records processed), gauges (last-set values such as the
// engine parallelism), and log-scale latency histograms with quantile
// estimation. Benches snapshot a Metrics registry into the JSON run
// report (sim/report.h); CI diffs those reports against committed
// baselines.

#ifndef PSGRAPH_COMMON_METRICS_H_
#define PSGRAPH_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace psgraph {

/// The quantiles every consumer of a histogram wants (report
/// serialization, the time-series sampler, the SLO watchdog), computed
/// in one bucket walk by HistogramSnapshot::Percentiles().
struct HistogramPercentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

/// Point-in-time copy of one histogram, with quantile estimation.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;  ///< exact; 0 when empty
  uint64_t max = 0;  ///< exact; 0 when empty
  /// Per-bucket counts (see Histogram for the bucket layout). Sized
  /// Histogram::kNumBuckets; trailing zeros may be trimmed.
  std::vector<uint64_t> buckets;

  double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / count;
  }
  /// Value below which a fraction `q` in [0,1] of samples fall,
  /// linearly interpolated inside the containing bucket. Clamped to
  /// [min, max] so single-sample and overflow-bucket estimates stay
  /// sane. 0 when empty.
  double Quantile(double q) const;
  /// p50/p95/p99/p999 in a single pass over the buckets; each value is
  /// exactly what the corresponding Quantile() call would return.
  HistogramPercentiles Percentiles() const;
};

/// Thread-safe (lock-free) latency/size histogram over uint64 values.
///
/// Bucket layout is log-linear like HdrHistogram: values below
/// kSubBuckets are exact, above that each power-of-two octave is split
/// into kSubBuckets linear sub-buckets, giving a fixed relative error
/// of at most 1/kSubBuckets across the full uint64 range (the last
/// bucket is the overflow bucket for values >= 2^63). Recording is a
/// few relaxed atomic adds, so hot paths (PS pull/push, RPC dispatch)
/// can record unconditionally.
class Histogram {
 public:
  static constexpr uint64_t kSubBucketBits = 3;  // 8 sub-buckets/octave
  static constexpr uint64_t kSubBuckets = 1ull << kSubBucketBits;
  static constexpr size_t kNumBuckets =
      (64 - kSubBucketBits + 1) * kSubBuckets;

  /// Index of the bucket containing `v`.
  static size_t BucketOf(uint64_t v);
  /// Smallest value mapping to bucket `i` (inclusive lower bound).
  static uint64_t BucketLowerBound(size_t i);
  /// Exclusive upper bound of bucket `i` (UINT64_MAX for the last).
  static uint64_t BucketUpperBound(size_t i);

  void Record(uint64_t value);
  /// Records `n` samples of `value` at once: the same state as `n`
  /// Record(value) calls, for callers that batch per-row bookkeeping.
  void RecordN(uint64_t value, uint64_t n);

  HistogramSnapshot Snapshot() const;
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Zeroes all state. Not atomic with respect to concurrent Record()
  /// calls; callers quiesce recording first (benches reset between
  /// cells, tests between cases).
  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// A registry of named counters, gauges and histograms. Thread-safe.
///
/// Every SimCluster owns one, and every component reports into its
/// cluster's; there is no process-wide registry, so two clusters in one
/// process cannot cross-contaminate.
class Metrics {
 public:
  // -- Counters (monotonic) --
  void Add(const std::string& name, uint64_t delta);
  uint64_t Get(const std::string& name) const;
  /// Bulk read of all counters. The returned map iterates in stable
  /// sorted-by-name order — consumers that serialize or scrape it (run
  /// report, time-series sampler) can rely on that ordering being
  /// identical across runs and parallelism levels.
  std::map<std::string, uint64_t> CounterSnapshot() const;

  // -- Gauges (last-set value) --
  void SetGauge(const std::string& name, double value);
  /// 0.0 when the gauge was never set.
  double GetGauge(const std::string& name) const;
  /// Bulk read of all gauges, in the same stable sorted-by-name order
  /// as CounterSnapshot().
  std::map<std::string, double> GaugeSnapshot() const;

  // -- Histograms --
  /// Returns the named histogram, creating it on first use. The
  /// reference stays valid for the lifetime of the registry (Reset()
  /// zeroes histograms in place, it never destroys them).
  Histogram& GetHistogram(const std::string& name);
  /// Convenience: GetHistogram(name).Record(value).
  void Observe(const std::string& name, uint64_t value);
  /// Snapshot of every histogram with at least one sample.
  std::map<std::string, HistogramSnapshot> HistogramSnapshots() const;

  /// Clears counters and gauges, zeroes histograms in place.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, double> gauges_;
  // unique_ptr so GetHistogram references survive map rebalancing.
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_METRICS_H_
