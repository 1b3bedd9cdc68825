#include "sim/event_journal.h"

#include <algorithm>

namespace psgraph::sim {

const char* JournalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kNodeKilled: return "node_killed";
    case JournalEventType::kNodeRestarted: return "node_restarted";
    case JournalEventType::kHealthCheck: return "health_check";
    case JournalEventType::kCheckpointSave: return "checkpoint_save";
    case JournalEventType::kCheckpointRestore: return "checkpoint_restore";
    case JournalEventType::kBarrierEntry: return "barrier_entry";
    case JournalEventType::kRecoveryBegin: return "recovery_begin";
    case JournalEventType::kRecoveryEnd: return "recovery_end";
    case JournalEventType::kRollback: return "rollback";
    case JournalEventType::kAlertFire: return "alert_fire";
    case JournalEventType::kAlertClear: return "alert_clear";
    case JournalEventType::kEpochIngest: return "epoch_ingest";
    case JournalEventType::kEpochPublish: return "epoch_publish";
  }
  return "unknown";
}

void EventJournal::Record(JournalEventType type, int32_t node,
                          int64_t ticks, int64_t value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  JournalEvent e;
  e.type = type;
  e.node = node;
  e.iteration = iteration();
  e.ticks = ticks;
  e.value = value;
  events_.push_back(e);
}

std::vector<JournalEvent> EventJournal::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::map<std::string, uint64_t> EventJournal::Counts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> counts;
  for (const JournalEvent& e : events_) {
    counts[JournalEventTypeName(e.type)]++;
  }
  return counts;
}

void EventJournal::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  iteration_.store(-1, std::memory_order_relaxed);
}

EventJournal::RecoverySummary EventJournal::SummarizeRecovery(
    const std::vector<JournalEvent>& events) {
  RecoverySummary summary;
  int64_t begin_ticks = 0;
  bool open = false;
  for (const JournalEvent& e : events) {
    if (e.type == JournalEventType::kRecoveryBegin) {
      begin_ticks = e.ticks;
      open = true;
    } else if (e.type == JournalEventType::kRecoveryEnd && open) {
      const int64_t dur = std::max<int64_t>(0, e.ticks - begin_ticks);
      summary.episodes++;
      summary.total_ticks += dur;
      summary.max_ticks = std::max(summary.max_ticks, dur);
      open = false;
    }
  }
  return summary;
}

bool EventJournal::IsFailureEvent(const JournalEvent& e) {
  switch (e.type) {
    case JournalEventType::kNodeKilled:
    case JournalEventType::kNodeRestarted:
    case JournalEventType::kCheckpointRestore:
    case JournalEventType::kRecoveryBegin:
    case JournalEventType::kRecoveryEnd:
    case JournalEventType::kRollback:
      return true;
    case JournalEventType::kHealthCheck:
      return e.value > 0;  // a verdict that actually found dead servers
    case JournalEventType::kCheckpointSave:
    case JournalEventType::kBarrierEntry:
    // Watchdog alerts are observability, not failure handling — a rule
    // can fire on a perfectly healthy run (cache cold start).
    case JournalEventType::kAlertFire:
    case JournalEventType::kAlertClear:
    // Epoch markers chart the steady-state freshness pipeline.
    case JournalEventType::kEpochIngest:
    case JournalEventType::kEpochPublish:
      return false;
  }
  return false;
}

}  // namespace psgraph::sim
