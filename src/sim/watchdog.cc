#include "sim/watchdog.h"

#include <algorithm>
#include <utility>

namespace psgraph::sim {

const char* WatchdogRuleFormName(WatchdogRuleForm form) {
  switch (form) {
    case WatchdogRuleForm::kThreshold: return "threshold";
    case WatchdogRuleForm::kDelta: return "delta";
    case WatchdogRuleForm::kBurnRate: return "burn_rate";
  }
  return "unknown";
}

size_t Watchdog::AddRule(WatchdogRule rule) {
  rules_.push_back(std::move(rule));
  open_.push_back(-1);
  return rules_.size() - 1;
}

bool Watchdog::IsActive(size_t rule_index) const {
  return rule_index < open_.size() && open_[rule_index] >= 0;
}

uint64_t Watchdog::FireCount(const std::string& rule_name) const {
  uint64_t n = 0;
  for (const AlertFiring& f : firings_) {
    if (rules_[f.rule].name == rule_name) ++n;
  }
  return n;
}

uint64_t Watchdog::ClearCount(const std::string& rule_name) const {
  uint64_t n = 0;
  for (const AlertFiring& f : firings_) {
    if (rules_[f.rule].name == rule_name && f.clear_ticks >= 0) ++n;
  }
  return n;
}

namespace {

/// Windowed delta of one series: latest minus the value `window` points
/// back (clamped to the first point). False when under 2 points.
bool WindowedDelta(const TimeSeriesStore& store, const std::string& name,
                   uint64_t window, double* delta) {
  const std::vector<double>* s = store.Series(name);
  if (s == nullptr || s->size() < 2) return false;
  const size_t n = s->size();
  const size_t base =
      n - 1 >= window ? n - 1 - static_cast<size_t>(window) : 0;
  *delta = (*s)[n - 1] - (*s)[base];
  return true;
}

}  // namespace

bool Watchdog::Condition(const WatchdogRule& rule, double* value) const {
  switch (rule.form) {
    case WatchdogRuleForm::kThreshold: {
      *value = store_->Latest(rule.series);
      return rule.fire_above ? *value > rule.threshold
                             : *value < rule.threshold;
    }
    case WatchdogRuleForm::kDelta: {
      double delta = 0.0;
      if (!WindowedDelta(*store_, rule.series, rule.window, &delta)) {
        return false;
      }
      *value = delta;
      return rule.fire_above ? delta > rule.threshold
                             : delta < rule.threshold;
    }
    case WatchdogRuleForm::kBurnRate: {
      double bad = 0.0;
      double total = 0.0;
      if (!WindowedDelta(*store_, rule.bad_series, rule.window, &bad) ||
          !WindowedDelta(*store_, rule.total_series, rule.window,
                         &total) ||
          total <= 0.0) {
        return false;  // no traffic in the window: nothing to burn
      }
      const double rate = bad / total;
      *value = rule.error_budget > 0.0 ? rate / rule.error_budget
                                       : (rate > 0.0 ? 1e300 : 0.0);
      return *value >= rule.burn_threshold;
    }
  }
  return false;
}

void Watchdog::Evaluate(int64_t ticks) {
  for (size_t i = 0; i < rules_.size(); ++i) {
    double value = 0.0;
    const bool firing = Condition(rules_[i], &value);
    if (firing && open_[i] < 0) {
      open_[i] = static_cast<int64_t>(firings_.size());
      AlertFiring f;
      f.rule = i;
      f.fire_ticks = ticks;
      f.value = value;
      firings_.push_back(f);
      journal_->Record(JournalEventType::kAlertFire, /*node=*/-1, ticks,
                       static_cast<int64_t>(i));
    } else if (!firing && open_[i] >= 0) {
      firings_[static_cast<size_t>(open_[i])].clear_ticks = ticks;
      open_[i] = -1;
      journal_->Record(JournalEventType::kAlertClear, /*node=*/-1, ticks,
                       static_cast<int64_t>(i));
    }
  }
}

void Watchdog::Reset() {
  firings_.clear();
  std::fill(open_.begin(), open_.end(), -1);
}

}  // namespace psgraph::sim
