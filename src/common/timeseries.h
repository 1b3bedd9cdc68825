// Continuous telemetry: fixed-interval time-series scraped from the
// metrics registry on the *simulated* clock.
//
// Every terminal snapshot in the run report answers "how much, in
// total"; the sampler answers "when". A MetricsSampler is polled from
// the single-threaded orchestration points of a run (BSP/stage
// barriers, the serving router's event loop, replication merges,
// failure handling) and appends one point per crossed scrape boundary
// to a TimeSeriesStore. Boundaries live at k * interval for k = 1.. on
// the simulated clock, so the series grid — and therefore every curve —
// is bit-identical at any thread parallelism (the same reason the
// makespans are: integer tick math at deterministic program points).
//
// The store is fixed-capacity: when it fills, it compacts by keeping
// the second point of every adjacent pair and doubling the interval,
// which is *exactly* the series that scraping at the doubled interval
// would have produced (each kept point sits on the coarser grid). Long
// runs therefore degrade resolution, never memory.
//
// Scraped per point, all into one flat name -> value map:
//   counter.<name>        every Metrics counter
//   gauge.<name>          every Metrics gauge
//   hist.<name>.p50/.p99/.p999   percentile curves per histogram
//   rpc.total.*, rpc.<method>.bytes   RpcTelemetry byte/call totals
//   <source name>         registered callbacks (memory watermarks, ...)
// A series first seen at point k is zero-backfilled for points 1..k-1
// (counters and gauges default to zero before first touch); a series
// absent from a later scrape (registry reset) records zero.
//
// The scrape interval and capacity are MetricsSampler::Options; a
// SimCluster's sampler scrapes once per simulated millisecond into 256
// points (capacity is rounded up to even).

#ifndef PSGRAPH_COMMON_TIMESERIES_H_
#define PSGRAPH_COMMON_TIMESERIES_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rpc_telemetry.h"

namespace psgraph {

/// Point-in-time copy of a TimeSeriesStore (the "timeseries" section of
/// the run report). All series have exactly `points` values; point i
/// (0-based) was scraped at simulated tick (i + 1) * interval_ticks.
struct TimeSeriesSnapshot {
  int64_t base_interval_ticks = 0;  ///< configured scrape interval
  int64_t interval_ticks = 0;       ///< current (base * 2^compactions)
  uint64_t compactions = 0;
  uint64_t points = 0;
  std::map<std::string, std::vector<double>> series;
};

/// Aligned, fixed-capacity ring of scrape points. Not thread-safe; the
/// owning MetricsSampler serializes access.
class TimeSeriesStore {
 public:
  TimeSeriesStore() : TimeSeriesStore(1, 4) {}
  /// `capacity` is rounded up to an even value >= 4 so compaction
  /// always halves cleanly.
  TimeSeriesStore(int64_t base_interval_ticks, size_t capacity);

  /// Simulated tick of the next scrape boundary: (points + 1) * interval.
  int64_t NextBoundaryTicks() const {
    return (static_cast<int64_t>(points_) + 1) * interval_ticks_;
  }

  /// Appends one point to every series (zero for names missing from
  /// `values`, zero-backfill for names never seen before), then
  /// compacts when the capacity is reached: keep the second point of
  /// each pair, halve the count, double the interval.
  void Append(const std::map<std::string, double>& values);

  uint64_t points() const { return points_; }
  int64_t interval_ticks() const { return interval_ticks_; }
  int64_t base_interval_ticks() const { return base_interval_ticks_; }
  uint64_t compactions() const { return compactions_; }
  size_t capacity() const { return capacity_; }

  /// The full value vector of one series (nullptr when never seen).
  const std::vector<double>* Series(const std::string& name) const;
  /// Last scraped value of `name`; 0.0 when missing or empty.
  double Latest(const std::string& name) const;

  TimeSeriesSnapshot Snapshot() const;

  void Reset();

 private:
  int64_t base_interval_ticks_;
  int64_t interval_ticks_;
  size_t capacity_;
  uint64_t points_ = 0;
  uint64_t compactions_ = 0;
  std::map<std::string, std::vector<double>> series_;
};

/// Scrapes a Metrics registry (plus RPC telemetry and registered
/// sources) into a TimeSeriesStore at a fixed simulated interval.
///
/// Thread-safe for robustness, but the determinism contract only holds
/// when Poll() is driven from points that are serial in program order
/// (they are: barriers, the router loop, merges, failure handling).
class MetricsSampler {
 public:
  struct Options {
    Metrics* metrics = nullptr;        ///< registry to scrape (required)
    RpcTelemetry* rpc = nullptr;       ///< optional byte-total source
    int64_t interval_ticks = 0;        ///< <= 0 disables the sampler
    size_t capacity = 256;
  };

  /// Default-constructed samplers are disabled (every call a no-op).
  MetricsSampler() = default;
  explicit MetricsSampler(Options options) { Configure(options); }

  /// (Re)arms the sampler; resets any stored points. Call before the
  /// first Poll().
  void Configure(Options options);

  bool enabled() const { return options_.interval_ticks > 0; }
  const Options& options() const { return options_; }

  /// Registers an extra scrape source under `name` (evaluated every
  /// point, in sorted-name order). Used for quantities that live
  /// outside the Metrics registry, e.g. MemoryAccountant watermarks.
  void AddSource(std::string name, std::function<double()> fn);

  /// Invoked after each appended point with the point's boundary tick —
  /// the SLO watchdog evaluates its rules here.
  void set_scrape_callback(std::function<void(int64_t)> callback) {
    scrape_callback_ = std::move(callback);
  }

  /// Appends one point per scrape boundary crossed up to `now_ticks`
  /// (all with the values read now — between boundaries of one poll no
  /// simulated work happened). No-op when disabled or no boundary due.
  void Poll(int64_t now_ticks);

  /// Poll(now_ticks), then unconditionally scrape one extra point at
  /// the next boundary (keeps the grid uniform). Benches call this at
  /// capture time so even sub-interval runs report a non-empty series.
  void ForceSample(int64_t now_ticks);

  const TimeSeriesStore& store() const { return store_; }

 private:
  void ScrapeInto(std::map<std::string, double>* out) const;
  void AppendLocked(const std::map<std::string, double>& values);

  Options options_;
  mutable std::mutex mu_;
  TimeSeriesStore store_;
  std::map<std::string, std::function<double()>> sources_;
  std::function<void(int64_t)> scrape_callback_;
};

}  // namespace psgraph

#endif  // PSGRAPH_COMMON_TIMESERIES_H_
