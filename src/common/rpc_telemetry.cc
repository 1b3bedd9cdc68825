#include "common/rpc_telemetry.h"

namespace psgraph {

void RpcTelemetry::RecordCall(const std::string& method, int32_t node,
                              uint64_t request_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Stat& s = stats_[{method, node}];
  s.calls++;
  s.request_bytes += request_bytes;
}

void RpcTelemetry::RecordResponse(const std::string& method, int32_t node,
                                  uint64_t response_bytes,
                                  int64_t busy_ticks, int64_t wait_ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  Stat& s = stats_[{method, node}];
  s.response_bytes += response_bytes;
  s.callee_busy_ticks += busy_ticks;
  s.caller_wait_ticks += wait_ticks;
}

void RpcTelemetry::RecordError(const std::string& method, int32_t node,
                               bool unavailable, int64_t busy_ticks) {
  std::lock_guard<std::mutex> lock(mu_);
  Stat& s = stats_[{method, node}];
  if (unavailable) {
    s.errors_unavailable++;
  } else {
    s.errors_handler++;
  }
  s.callee_busy_ticks += busy_ticks;
}

std::vector<RpcTelemetry::MethodStat> RpcTelemetry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MethodStat> out;
  out.reserve(stats_.size());
  for (const auto& [key, stat] : stats_) {  // std::map: (method, node) order
    MethodStat m;
    static_cast<Stat&>(m) = stat;
    m.method = key.first;
    m.node = key.second;
    out.push_back(std::move(m));
  }
  return out;
}

void RpcTelemetry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.clear();
}

}  // namespace psgraph
