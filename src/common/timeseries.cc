#include "common/timeseries.h"

#include <algorithm>
#include <utility>

namespace psgraph {

TimeSeriesStore::TimeSeriesStore(int64_t base_interval_ticks,
                                 size_t capacity)
    : base_interval_ticks_(std::max<int64_t>(1, base_interval_ticks)),
      interval_ticks_(base_interval_ticks_),
      capacity_(std::max<size_t>(4, capacity + (capacity & 1))) {}

void TimeSeriesStore::Append(const std::map<std::string, double>& values) {
  ++points_;
  // Existing series get the scraped value, or zero when the scrape no
  // longer carries them (registry reset): every series always has
  // exactly points_ values.
  for (auto& [name, vec] : series_) {
    auto it = values.find(name);
    vec.push_back(it == values.end() ? 0.0 : it->second);
  }
  // New series are zero-backfilled: a counter/gauge that did not exist
  // at earlier boundaries held its default value there.
  for (const auto& [name, value] : values) {
    auto [it, inserted] = series_.try_emplace(name);
    if (!inserted) continue;
    it->second.assign(points_ - 1, 0.0);
    it->second.push_back(value);
  }
  if (points_ < capacity_) return;
  // Compaction: keeping the second point of each pair leaves exactly
  // the points that sit on the doubled grid — the series a sampler with
  // interval 2x would have recorded.
  for (auto& [name, vec] : series_) {
    for (size_t i = 1; i < vec.size(); i += 2) vec[i / 2] = vec[i];
    vec.resize(vec.size() / 2);
  }
  points_ /= 2;
  interval_ticks_ *= 2;
  ++compactions_;
}

const std::vector<double>* TimeSeriesStore::Series(
    const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

double TimeSeriesStore::Latest(const std::string& name) const {
  const std::vector<double>* s = Series(name);
  return s == nullptr || s->empty() ? 0.0 : s->back();
}

TimeSeriesSnapshot TimeSeriesStore::Snapshot() const {
  TimeSeriesSnapshot snap;
  snap.base_interval_ticks = base_interval_ticks_;
  snap.interval_ticks = interval_ticks_;
  snap.compactions = compactions_;
  snap.points = points_;
  snap.series = series_;
  return snap;
}

void TimeSeriesStore::Reset() {
  points_ = 0;
  compactions_ = 0;
  interval_ticks_ = base_interval_ticks_;
  series_.clear();
}

void MetricsSampler::Configure(Options options) {
  std::lock_guard<std::mutex> lock(mu_);
  options_ = options;
  store_ = TimeSeriesStore(options.interval_ticks, options.capacity);
}

void MetricsSampler::AddSource(std::string name,
                               std::function<double()> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  sources_[std::move(name)] = std::move(fn);
}

void MetricsSampler::ScrapeInto(std::map<std::string, double>* out) const {
  if (options_.metrics != nullptr) {
    for (const auto& [name, value] : options_.metrics->CounterSnapshot()) {
      (*out)["counter." + name] = static_cast<double>(value);
    }
    for (const auto& [name, value] : options_.metrics->GaugeSnapshot()) {
      (*out)["gauge." + name] = value;
    }
    for (const auto& [name, hist] :
         options_.metrics->HistogramSnapshots()) {
      const HistogramPercentiles p = hist.Percentiles();
      (*out)["hist." + name + ".p50"] = p.p50;
      (*out)["hist." + name + ".p99"] = p.p99;
      (*out)["hist." + name + ".p999"] = p.p999;
    }
  }
  if (options_.rpc != nullptr) {
    double calls = 0.0;
    double req_bytes = 0.0;
    double resp_bytes = 0.0;
    std::map<std::string, double> per_method;
    for (const RpcTelemetry::MethodStat& m : options_.rpc->Snapshot()) {
      calls += static_cast<double>(m.calls);
      req_bytes += static_cast<double>(m.request_bytes);
      resp_bytes += static_cast<double>(m.response_bytes);
      per_method["rpc." + m.method + ".bytes"] +=
          static_cast<double>(m.request_bytes + m.response_bytes);
    }
    (*out)["rpc.total.calls"] = calls;
    (*out)["rpc.total.request_bytes"] = req_bytes;
    (*out)["rpc.total.response_bytes"] = resp_bytes;
    for (auto& [name, value] : per_method) (*out)[name] = value;
  }
  for (const auto& [name, fn] : sources_) (*out)[name] = fn();
}

void MetricsSampler::AppendLocked(
    const std::map<std::string, double>& values) {
  const int64_t boundary = store_.NextBoundaryTicks();
  store_.Append(values);
  if (scrape_callback_) scrape_callback_(boundary);
}

void MetricsSampler::Poll(int64_t now_ticks) {
  if (!enabled()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (store_.NextBoundaryTicks() > now_ticks) return;
  // One scrape serves every boundary this poll crosses: the values
  // cannot have changed between boundaries that all lie in the past of
  // this single program point.
  std::map<std::string, double> values;
  ScrapeInto(&values);
  while (store_.NextBoundaryTicks() <= now_ticks) AppendLocked(values);
}

void MetricsSampler::ForceSample(int64_t now_ticks) {
  if (!enabled()) return;
  Poll(now_ticks);
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> values;
  ScrapeInto(&values);
  AppendLocked(values);
}

}  // namespace psgraph
