#include "net/rpc.h"

#include <algorithm>

#include "common/rpc_telemetry.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "sim/cost_ledger.h"
#include "sim/sim_clock.h"

namespace psgraph::net {

void RpcEndpoint::Register(const std::string& method, Handler handler) {
  std::lock_guard<std::mutex> lock(handlers_mu_);
  handlers_[method] = std::move(handler);
}

Result<ByteBuffer> RpcEndpoint::DispatchUnlocked(
    const std::string& method, const std::vector<uint8_t>& request) {
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(handlers_mu_);
    auto it = handlers_.find(method);
    if (it == handlers_.end()) {
      return Status::NotFound("rpc: no handler for method '" + method + "'");
    }
    handler = it->second;  // copy so re-registration is safe
  }
  return handler(request);
}

void RpcFabric::Bind(sim::NodeId node, std::shared_ptr<RpcEndpoint> endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  endpoints_[node] = std::move(endpoint);
}

namespace {
/// Wire time excluding latency, in clock ticks: serialization onto the NIC.
/// A pure function of the byte count, so every execution mode charges the
/// same tick amounts.
int64_t WireTicks(const sim::CostModel& cost, uint64_t bytes) {
  return sim::SimClock::TicksOf(
      static_cast<double>(bytes) /
      cost.config().network_bandwidth_bytes_per_sec);
}
}  // namespace

Result<std::vector<uint8_t>> RpcFabric::Call(sim::NodeId from, sim::NodeId to,
                                             const std::string& method,
                                             const ByteBuffer& request) {
  std::vector<ParallelCall> calls;
  calls.push_back({to, method, request});
  PSG_ASSIGN_OR_RETURN(auto responses, CallParallel(from, std::move(calls)));
  return std::move(responses[0]);
}

Result<std::vector<std::vector<uint8_t>>> RpcFabric::CallParallel(
    sim::NodeId from, std::vector<ParallelCall> calls) {
  const size_t n = calls.size();
  const bool timed = from >= 0;
  Tracer& tracer = cluster_->tracer();
  RpcTelemetry& telemetry = cluster_->rpc_telemetry();
  // The caller's innermost open span (e.g. "agent.pull"), captured on
  // the calling thread so handler spans dispatched on pool threads still
  // parent to it — the cross-node causal link the trace exporter renders
  // as a Perfetto flow event. At parallelism 1 the dispatch runs on this
  // same thread and the explicit parent equals the thread-local one, so
  // the exported trace stays byte-identical.
  const uint64_t caller_span = tracer.CurrentSpanId();
  const int64_t latency_ticks =
      sim::SimClock::TicksOf(cluster_->cost().config().network_latency_sec);
  const int64_t t0 = timed ? cluster_->clock().NowTicks(from) : 0;

  // Validates liveness/binding for one call and accounts its send. Returns
  // the endpoint, or an error. `send_cursor` models the caller's NIC:
  // sends serialize, flights overlap.
  int64_t send_cursor = 0;
  auto plan_call = [&](const ParallelCall& call, int64_t* arrival)
      -> Result<std::shared_ptr<RpcEndpoint>> {
    if (!cluster_->IsAlive(call.to)) {
      telemetry.RecordError(call.method, call.to, /*unavailable=*/true);
      return Status::Unavailable("rpc: node " + std::to_string(call.to) +
                                 " is down");
    }
    std::shared_ptr<RpcEndpoint> endpoint;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = endpoints_.find(call.to);
      if (it != endpoints_.end()) endpoint = it->second;
    }
    if (!endpoint) {
      telemetry.RecordError(call.method, call.to, /*unavailable=*/true);
      return Status::Unavailable("rpc: node " + std::to_string(call.to) +
                                 " has no endpoint bound");
    }
    telemetry.RecordCall(call.method, call.to, call.request.size());
    if (timed) {
      send_cursor += WireTicks(cluster_->cost(), call.request.size());
      *arrival = t0 + send_cursor + latency_ticks;
    }
    return endpoint;
  };

  // Executes one planned call. The per-endpoint serial mutex is held
  // around the whole charge bracket, so the busy-time difference below
  // contains exactly this request's charges even when other callers hit
  // the same server concurrently — one shard is one logical event loop.
  // On success stores the response payload and the callee's service time.
  auto execute_call = [&](const ParallelCall& call, RpcEndpoint& endpoint,
                          int64_t arrival_ticks,
                          std::vector<uint8_t>* response_out,
                          int64_t* service_out) -> Status {
    std::lock_guard<std::mutex> serial(endpoint.serial_mutex());
    int64_t busy_before = 0;
    int64_t wire_ticks = 0;
    if (timed) {
      busy_before = cluster_->clock().NowTicks(call.to);
      // Receiving/deserializing the request keeps the server busy too.
      wire_ticks = WireTicks(cluster_->cost(), call.request.size());
      cluster_->clock().AdvanceTicks(call.to, wire_ticks);
    }
    ScopedSpan span(&tracer, "rpc." + call.method, call.to, busy_before,
                    caller_span, [&]() -> int64_t {
                      return timed ? cluster_->clock().NowTicks(call.to) : 0;
                    });
    auto response = endpoint.DispatchUnlocked(call.method, call.request.data());
    if (!response.ok()) {
      // The callee still burned the busy time it accrued before failing
      // (request deserialization + partial handler compute).
      telemetry.RecordError(
          call.method, call.to, /*unavailable=*/false,
          timed ? cluster_->clock().NowTicks(call.to) - busy_before : 0);
      return response.status();
    }
    if (timed) {
      // A server's clock accumulates pure *busy* time (handler compute
      // charged inside the handler, plus serializing the response onto
      // the wire). Concurrent callers are not serialized through the
      // server clock; if a server saturates, its busy-time clock
      // dominates the makespan, which is the throughput bound.
      const int64_t resp_wire = WireTicks(cluster_->cost(), response->size());
      wire_ticks += resp_wire;
      cluster_->clock().AdvanceTicks(call.to, resp_wire);
      *service_out = cluster_->clock().NowTicks(call.to) - busy_before;
      // Makespan attribution: the wire portion of the callee's busy
      // bracket is serialization; replica-merge handler compute is its
      // own category (everything else stays residual compute).
      const int64_t wire = std::min(*service_out, wire_ticks);
      cluster_->cost_ledger().Record(call.to,
                                     sim::CostCategory::kRpcSerialize, wire);
      if (call.method == "ps.merge") {
        cluster_->cost_ledger().Record(
            call.to, sim::CostCategory::kReplicationMerge,
            *service_out - wire);
      } else if (call.method == "ps.mutate") {
        cluster_->cost_ledger().Record(call.to,
                                       sim::CostCategory::kStreamApply,
                                       *service_out - wire);
      }
    }
    // Caller wait = send serialization + latency + service + latency,
    // all deterministic per call: service is bracketed under the
    // endpoint's serial lock, and queueing behind other callers (which
    // depends on dispatch interleaving) is excluded.
    telemetry.RecordResponse(
        call.method, call.to, response->size(), *service_out,
        timed ? arrival_ticks + *service_out + latency_ticks - t0 : 0);
    *response_out = std::move(*response).TakeData();
    return Status::OK();
  };

  std::vector<std::vector<uint8_t>> responses(n);
  std::vector<int64_t> arrival(n, 0);
  std::vector<int64_t> service(n, 0);

  // Plan sequentially (send order is part of the model), stopping at the
  // first plan failure; then dispatch every planned call to completion —
  // sequentially or overlapped on the global pool — and return the first
  // handler error in call order, else the plan error. Both modes run the
  // same plan/execute schedule, so per-callee charges and telemetry
  // aggregates are identical at any parallelism even on error paths.
  std::vector<std::shared_ptr<RpcEndpoint>> endpoints;
  endpoints.reserve(n);
  Status plan_error = Status::OK();
  for (size_t k = 0; k < n; ++k) {
    auto endpoint = plan_call(calls[k], &arrival[k]);
    if (!endpoint.ok()) {
      plan_error = endpoint.status();
      break;
    }
    endpoints.push_back(std::move(*endpoint));
  }
  const size_t launched = endpoints.size();
  std::vector<Status> statuses(launched, Status::OK());
  const size_t parallelism = GlobalParallelism();
  if (parallelism <= 1 || launched <= 1) {
    for (size_t k = 0; k < launched; ++k) {
      statuses[k] = execute_call(calls[k], *endpoints[k], arrival[k],
                                 &responses[k], &service[k]);
    }
  } else {
    GlobalThreadPool().ParallelForBounded(
        launched, parallelism - 1, [&](size_t k) {
          statuses[k] = execute_call(calls[k], *endpoints[k], arrival[k],
                                     &responses[k], &service[k]);
        });
  }
  for (size_t k = 0; k < launched; ++k) {
    if (!statuses[k].ok()) return statuses[k];
  }
  if (!plan_error.ok()) return plan_error;

  if (timed) {
    // Completion of the slowest call; evaluated in call order after all
    // dispatches finished, so the result is independent of interleaving.
    int64_t t_end = t0;
    size_t slowest = 0;
    for (size_t k = 0; k < n; ++k) {
      const int64_t done = arrival[k] + service[k] + latency_ticks;
      if (done > t_end) {
        t_end = done;
        slowest = k;
      }
    }
    // Makespan attribution for the caller's stall: the NIC
    // send-serialization prefix is rpc.serialize, the remainder is
    // waiting on the slowest callee. The applied jump (not t_end - t0)
    // keeps the ledger exact even if the caller's clock moved.
    const int64_t jump = cluster_->clock().AdvanceToTicksJump(from, t_end);
    if (jump > 0) {
      const int64_t serialize = std::min(jump, send_cursor);
      cluster_->cost_ledger().Record(
          from, sim::CostCategory::kRpcSerialize, serialize);
      cluster_->cost_ledger().Record(
          from, sim::WaitCategoryForMethod(calls[slowest].method),
          jump - serialize);
    }
  }
  return responses;
}

}  // namespace psgraph::net
