// In-process RPC fabric between simulated nodes.
//
// The paper's PS agents talk to parameter servers via RPC; here a call is
// a function dispatch that (1) serializes request/response through
// ByteBuffers, (2) charges both transfers to the simulated clocks of
// caller and callee, and (3) fails with Unavailable when the target node
// has been killed — which is what drives the failure-recovery path.
//
// Execution model: when the global parallelism (common/thread_pool.h) is
// greater than 1, CallParallel dispatches its calls concurrently on the
// process-wide pool — a PS agent's per-server requests genuinely overlap,
// as in the paper. Handler execution stays serialized *per endpoint* (one
// shard = one single-threaded event loop, like Angel) via a per-endpoint
// serial mutex that also brackets the callee's busy-time measurement, so
// the simulated-clock totals are identical at any parallelism level.

#ifndef PSGRAPH_NET_RPC_H_
#define PSGRAPH_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/byte_buffer.h"
#include "common/result.h"
#include "common/status.h"
#include "sim/cluster.h"

namespace psgraph::net {

/// A service bound to one node. Handlers receive the raw request payload
/// and return a response payload. Handler execution is serialized per
/// endpoint through serial_mutex().
class RpcEndpoint {
 public:
  using Handler =
      std::function<Result<ByteBuffer>(const std::vector<uint8_t>&)>;

  /// Registers a handler; overwrites any existing one for `method`.
  void Register(const std::string& method, Handler handler);

  /// Runs the handler for `method`; NotFound if the method is unknown.
  /// The caller holds serial_mutex() (the fabric brackets clock charging
  /// and dispatch under one lock).
  Result<ByteBuffer> DispatchUnlocked(const std::string& method,
                                      const std::vector<uint8_t>& request);

  /// The endpoint's logical event-loop lock: whoever holds it is the one
  /// request this shard is processing.
  std::mutex& serial_mutex() { return serial_mu_; }

 private:
  std::mutex handlers_mu_;
  std::mutex serial_mu_;
  std::map<std::string, Handler> handlers_;
};

/// The cluster-wide message fabric. Thread-safe.
class RpcFabric {
 public:
  /// `cluster` supplies liveness, clocks and the telemetry sinks; it
  /// must outlive the fabric.
  explicit RpcFabric(sim::SimCluster* cluster) : cluster_(cluster) {}

  void Bind(sim::NodeId node, std::shared_ptr<RpcEndpoint> endpoint);

  /// Synchronous call from `from` to `to`. Charges request and response
  /// transfer times; returns Unavailable when `to` is dead or unbound.
  /// The callee is only charged for the time it is actually busy
  /// (handler compute + serialization of bytes onto the wire); network
  /// latency delays the caller, not the server.
  Result<std::vector<uint8_t>> Call(sim::NodeId from, sim::NodeId to,
                                    const std::string& method,
                                    const ByteBuffer& request);

  struct ParallelCall {
    sim::NodeId to;
    std::string method;
    ByteBuffer request;
  };

  /// Fan-out: issues all calls concurrently (a PS agent's per-server
  /// requests overlap on the wire). The caller's clock advances to the
  /// completion of the *slowest* call instead of the sum; each callee is
  /// charged its own busy time. Error semantics are identical at every
  /// parallelism level: calls are planned in order until the first plan
  /// failure (dead/unbound callee), every planned call is dispatched to
  /// completion, and the first handler error in call order — else the
  /// plan error — is returned. At parallelism > 1 the dispatches run
  /// concurrently on the global pool (still serialized per endpoint), so
  /// per-callee charges and telemetry aggregates match the sequential
  /// mode even on error paths.
  ///
  /// Telemetry: every call is metered into the cluster's RpcTelemetry
  /// sink (per-(method, callee) calls/bytes/busy/wait/error counters),
  /// and the caller's open trace span id rides with the request so the
  /// server-side "rpc.<method>" span links across the node boundary
  /// even when it runs on a pool thread.
  Result<std::vector<std::vector<uint8_t>>> CallParallel(
      sim::NodeId from, std::vector<ParallelCall> calls);

 private:
  sim::SimCluster* cluster_;
  std::mutex mu_;
  std::map<sim::NodeId, std::shared_ptr<RpcEndpoint>> endpoints_;
};

}  // namespace psgraph::net

#endif  // PSGRAPH_NET_RPC_H_
