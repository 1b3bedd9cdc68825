// Deterministic SLO watchdog: declarative rules evaluated against the
// continuous-telemetry series at every scrape boundary.
//
// Rules come in three forms, mirroring the alerting shapes production
// monitoring stacks use:
//   threshold  — fire while series > threshold (or < with
//                fire_above = false). "Executor memory above 90% of
//                budget."
//   delta      — fire while series[n] - series[n - window] > threshold.
//                "Any node restarted within the last 4 scrape points."
//   burn_rate  — fire while (d bad / d total) / error_budget >=
//                burn_threshold over the window. "Windowed cache miss
//                rate at 10x the 5% miss budget (i.e. >= 50%)."
// Windows are measured in scrape *points*, not ticks, so the same rule
// is meaningful across benches whose makespans span 20 ms to 4 s of
// simulated time (after a store compaction a window simply covers twice
// the sim time — the rule degrades with the resolution, deliberately).
//
// The watchdog runs inside the sampler's scrape callback, which is
// driven from single-threaded orchestration points on the simulated
// clock — so evaluation order, fire ticks and clear ticks are
// bit-identical at any thread parallelism. Fire/clear transitions are
// appended to the control-plane EventJournal (kAlertFire/kAlertClear,
// value = rule index) and therefore show up on the same Perfetto
// timeline as node kills and recoveries; bench_util names the markers
// "alert_fire:<rule>" using rules() at export time.

#ifndef PSGRAPH_SIM_WATCHDOG_H_
#define PSGRAPH_SIM_WATCHDOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/timeseries.h"
#include "sim/event_journal.h"

namespace psgraph::sim {

enum class WatchdogRuleForm : uint8_t {
  kThreshold = 0,
  kDelta,
  kBurnRate,
};

/// Stable wire name of a rule form ("threshold", "delta", "burn_rate").
const char* WatchdogRuleFormName(WatchdogRuleForm form);

struct WatchdogRule {
  std::string name;
  WatchdogRuleForm form = WatchdogRuleForm::kThreshold;

  /// Series watched by the threshold and delta forms.
  std::string series;
  /// threshold form: fire while value > threshold (fire_above) or
  /// < threshold; delta form: fire while the windowed delta > threshold
  /// (fire_above) or < threshold.
  double threshold = 0.0;
  bool fire_above = true;

  /// Lookback in scrape points for the delta and burn_rate forms
  /// (clamped to the points available; both need at least 2 points to
  /// evaluate at all).
  uint64_t window = 4;

  /// burn_rate form: rate = d(bad_series) / d(total_series) over the
  /// window; fires while rate / error_budget >= burn_threshold.
  std::string bad_series;
  std::string total_series;
  double error_budget = 1.0;
  double burn_threshold = 1.0;
};

/// One alert episode: fired at fire_ticks, cleared at clear_ticks (-1
/// while still active). `value` is the rule's measured quantity at fire
/// time (threshold: the series value; delta: the delta; burn_rate: the
/// burn multiple).
struct AlertFiring {
  uint64_t rule = 0;  ///< index into rules()
  int64_t fire_ticks = 0;
  int64_t clear_ticks = -1;
  double value = 0.0;
};

class Watchdog {
 public:
  /// Evaluates rules against `store` and appends transitions to
  /// `journal`; both must outlive the watchdog.
  Watchdog(const TimeSeriesStore* store, EventJournal* journal)
      : store_(store), journal_(journal) {}

  /// Registers a rule; returns its index (the journal event payload).
  size_t AddRule(WatchdogRule rule);

  const std::vector<WatchdogRule>& rules() const { return rules_; }
  const std::vector<AlertFiring>& firings() const { return firings_; }

  /// True while the rule's latest evaluation fired without clearing.
  bool IsActive(size_t rule_index) const;
  /// Fire / completed-clear episode counts for the named rule (0 for
  /// unknown names — benches assert on these).
  uint64_t FireCount(const std::string& rule_name) const;
  uint64_t ClearCount(const std::string& rule_name) const;

  /// Evaluates every rule against the store at scrape boundary `ticks`,
  /// recording fire/clear transitions in the journal. Invoked by the
  /// sampler's scrape callback.
  void Evaluate(int64_t ticks);

  void Reset();

 private:
  bool Condition(const WatchdogRule& rule, double* value) const;

  const TimeSeriesStore* store_;
  EventJournal* journal_;
  std::vector<WatchdogRule> rules_;
  /// Index into firings_ of each rule's open episode, -1 when inactive.
  std::vector<int64_t> open_;
  std::vector<AlertFiring> firings_;
};

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_WATCHDOG_H_
