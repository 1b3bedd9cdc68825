#include "serving/router.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "common/varint.h"
#include "sim/sim_clock.h"

namespace psgraph::serving {

namespace {

const char* MethodOf(RequestType type) {
  return type == RequestType::kLookup ? "serve.lookup" : "serve.infer";
}

}  // namespace

ServingRouter::ServingRouter(sim::SimCluster* cluster,
                             net::RpcFabric* fabric, sim::NodeId node,
                             std::vector<sim::NodeId> shard_nodes,
                             RouterOptions options)
    : cluster_(cluster),
      fabric_(fabric),
      node_(node),
      shard_nodes_(std::move(shard_nodes)),
      options_(options),
      partitioner_(ps::PartitionScheme::kHash, options.key_space,
                   options.num_shards),
      max_delay_ticks_(sim::SimClock::TicksOf(options.max_delay_sec)),
      pending_(static_cast<size_t>(options.num_shards)) {}

Status ServingRouter::Submit(const ServingRequest& request) {
  PSG_RETURN_NOT_OK(FlushDue(request.arrival_ticks));

  const size_t request_index = records_.size();
  RequestRecord record;
  record.arrival_ticks = request.arrival_ticks;
  records_.push_back(record);
  pending_subs_.push_back(0);
  metrics().Add("serving.requests", 1);

  // Split keys by serving shard, preserving key order within a shard.
  std::map<int32_t, std::vector<uint64_t>> by_shard;
  for (uint64_t key : request.keys) {
    by_shard[partitioner_.PartitionOf(key)].push_back(key);
  }
  if (by_shard.empty()) {
    // Empty request: completes instantly at its arrival time.
    records_[request_index].done = true;
    records_[request_index].completion_ticks = request.arrival_ticks;
    return Status::OK();
  }
  pending_subs_[request_index] = static_cast<int32_t>(by_shard.size());

  const size_t type_idx = static_cast<size_t>(request.type);
  std::vector<std::pair<int32_t, RequestType>> full;
  for (auto& [shard, keys] : by_shard) {
    Batch& batch = pending_[static_cast<size_t>(shard)][type_idx];
    if (batch.items.empty()) {
      batch.deadline_ticks = request.arrival_ticks + max_delay_ticks_;
    }
    batch.items.push_back(SubItem{request_index, std::move(keys)});
    if (batch.items.size() >= options_.max_batch) {
      full.emplace_back(shard, request.type);
    }
  }
  if (!full.empty()) {
    const int64_t trigger = std::max(NowTicks(), request.arrival_ticks);
    PSG_RETURN_NOT_OK(FlushBatches(full, trigger));
  }
  // The router is the serial event loop of the serving tier: refresh
  // the queue gauges and scrape the telemetry series once per arrival.
  // The open-loop "now" is the arrival stamp (the router clock itself
  // only advances on flush triggers).
  PollTelemetry(std::max(NowTicks(), request.arrival_ticks));
  return Status::OK();
}

void ServingRouter::PollTelemetry(int64_t now_ticks) {
  uint64_t queued_subs = 0;
  uint64_t open_batches = 0;
  for (const auto& per_shard : pending_) {
    for (const Batch& batch : per_shard) {
      queued_subs += batch.items.size();
      open_batches += batch.items.empty() ? 0 : 1;
    }
  }
  metrics().SetGauge("serving.router.queue_depth",
                     static_cast<double>(queued_subs));
  metrics().SetGauge("serving.router.open_batches",
                     static_cast<double>(open_batches));
  cluster_->sampler().Poll(now_ticks);
}

Status ServingRouter::FlushDue(int64_t now_ticks) {
  std::vector<std::pair<int32_t, RequestType>> due;
  int64_t min_deadline = 0;
  for (size_t shard = 0; shard < pending_.size(); ++shard) {
    for (size_t t = 0; t < 2; ++t) {
      const Batch& batch = pending_[shard][t];
      if (batch.items.empty() || batch.deadline_ticks > now_ticks) {
        continue;
      }
      if (due.empty() || batch.deadline_ticks < min_deadline) {
        min_deadline = batch.deadline_ticks;
      }
      due.emplace_back(static_cast<int32_t>(shard),
                       static_cast<RequestType>(t));
    }
  }
  if (due.empty()) return Status::OK();
  // The earliest expired deadline triggers the flush; co-due batches
  // ride along in the same fan-out round.
  return FlushBatches(due, std::max(NowTicks(), min_deadline));
}

Status ServingRouter::Flush() {
  std::vector<std::pair<int32_t, RequestType>> due;
  // The router clock only advances on flush triggers, so it can sit
  // behind the newest arrivals still queued; a drain must not complete
  // a request before it arrived.
  int64_t latest_arrival = 0;
  for (size_t shard = 0; shard < pending_.size(); ++shard) {
    for (size_t t = 0; t < 2; ++t) {
      const Batch& batch = pending_[shard][t];
      if (batch.items.empty()) continue;
      for (const SubItem& item : batch.items) {
        latest_arrival = std::max(
            latest_arrival, records_[item.request_index].arrival_ticks);
      }
      due.emplace_back(static_cast<int32_t>(shard),
                       static_cast<RequestType>(t));
    }
  }
  if (due.empty()) return Status::OK();
  PSG_RETURN_NOT_OK(FlushBatches(due, std::max(NowTicks(), latest_arrival)));
  PollTelemetry(NowTicks());
  return Status::OK();
}

Status ServingRouter::FlushBatches(
    const std::vector<std::pair<int32_t, RequestType>>& due,
    int64_t trigger_ticks) {
  // Waiting for a batch to fill (or its deadline) is queue delay, not
  // router compute — attribute the idle jump to serving.queue.
  cluster_->cost_ledger().Record(
      node_, sim::CostCategory::kServingQueue,
      cluster_->clock().AdvanceToTicksJump(node_, trigger_ticks));

  Status result = Status::OK();
  // One CallParallel per request type: at most one in-flight call per
  // shard endpoint per round, so each shard sees a deterministic
  // request sequence (and therefore deterministic cache state).
  for (const RequestType type :
       {RequestType::kLookup, RequestType::kInfer}) {
    std::vector<int32_t> shards;
    std::vector<std::vector<SubItem>> taken;
    std::vector<net::RpcFabric::ParallelCall> calls;
    for (const auto& [shard, batch_type] : due) {
      if (batch_type != type) continue;
      Batch& batch = pending_[static_cast<size_t>(shard)]
                             [static_cast<size_t>(type)];
      if (batch.items.empty()) continue;
      metrics().Observe("serving.batch.occupancy", batch.items.size());
      metrics().Add("serving.batches", 1);
      flush_keys_.clear();
      for (const SubItem& item : batch.items) {
        flush_keys_.insert(flush_keys_.end(), item.keys.begin(),
                           item.keys.end());
      }
      ByteBuffer req;
      PutDeltaList(&req, flush_keys_);
      calls.push_back({shard_nodes_[static_cast<size_t>(shard)],
                       MethodOf(type), std::move(req)});
      shards.push_back(shard);
      taken.push_back(std::move(batch.items));
      batch.items.clear();
      batch.deadline_ticks = 0;
    }
    if (calls.empty()) continue;

    const int64_t t0 = NowTicks();
    ScopedSpan span(&cluster_->tracer(), "router.flush", node_, t0,
                    [this] { return NowTicks(); });
    Result<std::vector<std::vector<uint8_t>>> responses =
        fabric_->CallParallel(node_, std::move(calls));
    const int64_t completion = NowTicks();
    if (!responses.ok()) {
      for (const std::vector<SubItem>& items : taken) {
        for (const SubItem& item : items) {
          FailSub(item.request_index, completion);
        }
      }
      if (result.ok()) result = responses.status();
      continue;
    }
    for (size_t i = 0; i < responses.value().size(); ++i) {
      const std::vector<uint8_t>& resp = responses.value()[i];
      ByteReader reader(resp.data(), resp.size());
      int64_t version = -1;
      Status st = reader.Read(&version);
      if (!st.ok()) {
        for (const SubItem& item : taken[i]) {
          FailSub(item.request_index, completion);
        }
        if (result.ok()) result = st;
        continue;
      }
      for (const SubItem& item : taken[i]) {
        CompleteSub(item.request_index, version, completion);
      }
    }
  }
  return result;
}

void ServingRouter::CompleteSub(size_t request_index, int64_t version,
                                int64_t completion_ticks) {
  RequestRecord& record = records_[request_index];
  if (record.version == -1) {
    record.version = version;
  } else if (record.version != version) {
    record.torn = true;
    metrics().Add("serving.torn_reads", 1);
  }
  record.completion_ticks =
      std::max(record.completion_ticks, completion_ticks);
  if (--pending_subs_[request_index] == 0 && !record.done) {
    record.done = true;
    metrics().Add("serving.requests_completed", 1);
    metrics().Observe(
        "serving.request.latency_ticks",
        static_cast<uint64_t>(
            std::max<int64_t>(0, record.completion_ticks -
                                     record.arrival_ticks)));
  }
}

void ServingRouter::FailSub(size_t request_index,
                            int64_t completion_ticks) {
  RequestRecord& record = records_[request_index];
  record.failed = true;
  record.completion_ticks =
      std::max(record.completion_ticks, completion_ticks);
  if (--pending_subs_[request_index] == 0 && !record.done) {
    record.done = true;
    metrics().Add("serving.requests_failed", 1);
  }
}

Status ServingRouter::SwapTo(int64_t version) {
  const int64_t t0 = NowTicks();
  ScopedSpan span(&cluster_->tracer(), "router.swap", node_, t0,
                  [this] { return NowTicks(); });
  // Preload everywhere while the active version keeps serving.
  {
    std::vector<net::RpcFabric::ParallelCall> calls;
    calls.reserve(shard_nodes_.size());
    for (sim::NodeId shard_node : shard_nodes_) {
      ByteBuffer req;
      req.Write<int64_t>(version);
      calls.push_back({shard_node, "serve.load", std::move(req)});
    }
    PSG_RETURN_NOT_OK(fabric_->CallParallel(node_, std::move(calls))
                          .status());
  }
  // Drain: no request may straddle the flip.
  PSG_RETURN_NOT_OK(Flush());
  {
    std::vector<net::RpcFabric::ParallelCall> calls;
    calls.reserve(shard_nodes_.size());
    for (sim::NodeId shard_node : shard_nodes_) {
      ByteBuffer req;
      req.Write<int64_t>(version);
      calls.push_back({shard_node, "serve.activate", std::move(req)});
    }
    PSG_RETURN_NOT_OK(fabric_->CallParallel(node_, std::move(calls))
                          .status());
  }
  metrics().Add("serving.swaps", 1);
  PollTelemetry(NowTicks());
  return Status::OK();
}

uint64_t ServingRouter::failed_requests() const {
  uint64_t n = 0;
  for (const RequestRecord& r : records_) n += r.failed ? 1 : 0;
  return n;
}

uint64_t ServingRouter::torn_requests() const {
  uint64_t n = 0;
  for (const RequestRecord& r : records_) n += r.torn ? 1 : 0;
  return n;
}

}  // namespace psgraph::serving
