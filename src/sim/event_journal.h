// Control-plane event journal: a deterministic, sim-clock-stamped record
// of everything the failure-recovery machinery does (paper §III-B /
// Table II) — node kills and restarts, master health-check verdicts,
// checkpoint saves and restores, barrier entries, recovery episodes and
// consistent-model rollbacks.
//
// Events are appended by the orchestration path (failure injector,
// SimCluster kill/revive, PsMaster, PsServer checkpoint/restore, the
// sync controller), which runs single-threaded per context, so the
// journal order is the program order of the run and identical at any
// parallelism level. Each event carries the iteration the orchestration
// loop was in (set_iteration(), stamped by PsGraphContext/FailureInjector
// at iteration start) and a simulated-clock tick stamp, so tooling can
// render a recovery timeline next to the trace spans.

#ifndef PSGRAPH_SIM_EVENT_JOURNAL_H_
#define PSGRAPH_SIM_EVENT_JOURNAL_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace psgraph::sim {

enum class JournalEventType : uint8_t {
  kNodeKilled = 0,        ///< container died (failure injection / test)
  kNodeRestarted,         ///< resource manager relaunched the container
  kHealthCheck,           ///< master verdict; value = dead servers found
  kCheckpointSave,        ///< one server checkpointed; value = bytes
  kCheckpointRestore,     ///< one server restored; value = bytes
  kBarrierEntry,          ///< BSP barrier taken; value = wait ticks
  kRecoveryBegin,         ///< repairs started; value = dead nodes
  kRecoveryEnd,           ///< repairs done; value = nodes restarted
  kRollback,              ///< consistent rollback; value = target iteration
  kAlertFire,             ///< SLO watchdog rule fired; value = rule index
  kAlertClear,            ///< SLO watchdog rule cleared; value = rule index
  kEpochIngest,           ///< mutation epoch applied; value = mutation count
  kEpochPublish,          ///< epoch served after republish; value = version
};

/// Stable wire name of an event type ("node_killed", ...).
const char* JournalEventTypeName(JournalEventType type);

struct JournalEvent {
  JournalEventType type = JournalEventType::kHealthCheck;
  int32_t node = -1;       ///< affected node, -1 for cluster-wide events
  int64_t iteration = -1;  ///< orchestration iteration, -1 if unknown
  int64_t ticks = 0;       ///< simulated-clock stamp (1 tick = 1 ps)
  int64_t value = 0;       ///< type-specific payload (see enum comments)
};

class EventJournal {
 public:
  /// Cap on retained events; appends past it are counted in dropped().
  static constexpr size_t kMaxEvents = 1 << 16;

  /// Appends one event, stamped with the current iteration context.
  void Record(JournalEventType type, int32_t node, int64_t ticks,
              int64_t value = 0);

  /// Iteration context stamped onto subsequent events. Set by the
  /// orchestration loop at the start of each iteration.
  void set_iteration(int64_t iteration) {
    iteration_.store(iteration, std::memory_order_relaxed);
  }
  int64_t iteration() const {
    return iteration_.load(std::memory_order_relaxed);
  }

  std::vector<JournalEvent> Snapshot() const;
  /// Event count per type name (only types that occurred).
  std::map<std::string, uint64_t> Counts() const;
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  void Reset();

  /// Derived recovery metrics from paired recovery_begin/recovery_end
  /// events: episode count and total/max time-to-recovery ticks.
  struct RecoverySummary {
    uint64_t episodes = 0;
    int64_t total_ticks = 0;  ///< sum over episodes of (end - begin)
    int64_t max_ticks = 0;
  };
  static RecoverySummary SummarizeRecovery(
      const std::vector<JournalEvent>& events);

  /// True for event types that only occur on failure paths (the
  /// "events.failures" report section). Health checks qualify only with
  /// a non-zero verdict, which the caller checks via `value`.
  static bool IsFailureEvent(const JournalEvent& e);

 private:
  std::atomic<int64_t> iteration_{-1};
  std::atomic<uint64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<JournalEvent> events_;
};

}  // namespace psgraph::sim

#endif  // PSGRAPH_SIM_EVENT_JOURNAL_H_
