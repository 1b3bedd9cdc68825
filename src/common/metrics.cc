#include "common/metrics.h"

#include <algorithm>
#include <bit>

namespace psgraph {

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, nearest-rank with interpolation
  // toward the bucket's value range).
  const double target = q * static_cast<double>(count);
  double seen = 0.0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets[i]);
    if (seen + in_bucket >= target) {
      const uint64_t lo = Histogram::BucketLowerBound(i);
      const uint64_t hi = Histogram::BucketUpperBound(i);
      const double frac =
          in_bucket == 0.0 ? 0.0 : (target - seen) / in_bucket;
      double v = static_cast<double>(lo) +
                 frac * (static_cast<double>(hi) - static_cast<double>(lo));
      // Exact bounds beat bucket interpolation at the extremes (single
      // sample, overflow bucket).
      v = std::max(v, static_cast<double>(min));
      v = std::min(v, static_cast<double>(max));
      return v;
    }
    seen += in_bucket;
  }
  return static_cast<double>(max);
}

HistogramPercentiles HistogramSnapshot::Percentiles() const {
  HistogramPercentiles out;
  if (count == 0) return out;
  // Ascending quantiles share one walk; each fill reproduces Quantile()
  // exactly (same target rank, same interpolation, same clamping).
  const double qs[] = {0.50, 0.95, 0.99, 0.999};
  double* slots[] = {&out.p50, &out.p95, &out.p99, &out.p999};
  size_t next = 0;
  double seen = 0.0;
  for (size_t i = 0; i < buckets.size() && next < 4; ++i) {
    if (buckets[i] == 0) continue;
    const double in_bucket = static_cast<double>(buckets[i]);
    while (next < 4 &&
           seen + in_bucket >= qs[next] * static_cast<double>(count)) {
      const double target = qs[next] * static_cast<double>(count);
      const uint64_t lo = Histogram::BucketLowerBound(i);
      const uint64_t hi = Histogram::BucketUpperBound(i);
      const double frac = (target - seen) / in_bucket;
      double v = static_cast<double>(lo) +
                 frac * (static_cast<double>(hi) - static_cast<double>(lo));
      v = std::max(v, static_cast<double>(min));
      v = std::min(v, static_cast<double>(max));
      *slots[next] = v;
      ++next;
    }
    seen += in_bucket;
  }
  for (; next < 4; ++next) *slots[next] = static_cast<double>(max);
  return out;
}

size_t Histogram::BucketOf(uint64_t v) {
  if (v < kSubBuckets) return static_cast<size_t>(v);
  // Octave = position of the most significant bit; sub-bucket = the
  // kSubBucketBits bits below it.
  const int msb = 63 - std::countl_zero(v);
  const uint64_t sub = (v >> (msb - kSubBucketBits)) & (kSubBuckets - 1);
  const size_t idx = static_cast<size_t>(msb - kSubBucketBits + 1) *
                         kSubBuckets +
                     static_cast<size_t>(sub);
  return std::min(idx, kNumBuckets - 1);
}

uint64_t Histogram::BucketLowerBound(size_t i) {
  if (i < kSubBuckets) return i;
  const uint64_t group = i >> kSubBucketBits;
  const uint64_t sub = i & (kSubBuckets - 1);
  return (kSubBuckets + sub) << (group - 1);
}

uint64_t Histogram::BucketUpperBound(size_t i) {
  if (i + 1 >= kNumBuckets) return UINT64_MAX;
  return BucketLowerBound(i + 1);
}

void Histogram::Record(uint64_t value) { RecordN(value, 1); }

void Histogram::RecordN(uint64_t value, uint64_t n) {
  if (n == 0) return;
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(value * n, std::memory_order_relaxed);
  buckets_[BucketOf(value)].fetch_add(n, std::memory_order_relaxed);
  uint64_t cur = min_.load(std::memory_order_relaxed);
  while (value < cur &&
         !min_.compare_exchange_weak(cur, value,
                                     std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (value > cur &&
         !max_.compare_exchange_weak(cur, value,
                                     std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  const uint64_t mn = min_.load(std::memory_order_relaxed);
  snap.min = mn == UINT64_MAX ? 0 : mn;
  snap.max = max_.load(std::memory_order_relaxed);
  size_t last = 0;
  snap.buckets.resize(kNumBuckets, 0);
  for (size_t i = 0; i < kNumBuckets; ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    if (snap.buckets[i] != 0) last = i + 1;
  }
  snap.buckets.resize(last);
  return snap;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

void Metrics::Add(const std::string& name, uint64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

uint64_t Metrics::Get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

std::map<std::string, uint64_t> Metrics::CounterSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void Metrics::SetGauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

double Metrics::GetGauge(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

std::map<std::string, double> Metrics::GaugeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return gauges_;
}

Histogram& Metrics::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Metrics::Observe(const std::string& name, uint64_t value) {
  GetHistogram(name).Record(value);
}

std::map<std::string, HistogramSnapshot> Metrics::HistogramSnapshots()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, HistogramSnapshot> out;
  for (const auto& [name, hist] : histograms_) {
    if (hist->count() > 0) out.emplace(name, hist->Snapshot());
  }
  return out;
}

void Metrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  for (auto& [_, hist] : histograms_) hist->Reset();
}

}  // namespace psgraph
