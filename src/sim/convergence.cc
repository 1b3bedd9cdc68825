#include "sim/convergence.h"

namespace psgraph::sim {

bool ConvergenceLog::Record(const std::string& series, int64_t iteration,
                            double value) {
  std::lock_guard<std::mutex> lock(mu_);
  Series& s = series_[series];
  if (!s.empty() && iteration <= s.back().iteration) {
    ++rejected_;
    return false;
  }
  s.push_back({iteration, value});
  return true;
}

void ConvergenceLog::Rewind(const std::string& series, int64_t iteration) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end()) return;
  Series& s = it->second;
  while (!s.empty() && s.back().iteration >= iteration) s.pop_back();
}

std::map<std::string, ConvergenceLog::Series> ConvergenceLog::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_;
}

uint64_t ConvergenceLog::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

void ConvergenceLog::Merge(const ConvergenceLog& other,
                           const std::string& prefix) {
  auto theirs = other.Snapshot();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, points] : theirs) {
    Series& s = series_[prefix + name];
    for (const Point& p : points) {
      if (s.empty() || p.iteration > s.back().iteration) s.push_back(p);
    }
  }
}

void ConvergenceLog::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  rejected_ = 0;
}

}  // namespace psgraph::sim
