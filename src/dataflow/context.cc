#include "dataflow/context.h"

#include "common/metrics.h"

namespace psgraph::dataflow {

void DataflowContext::ChargeCompute(int32_t partition, uint64_t ops) {
  const double t = cluster_->cost().ComputeTime(ops);
  cluster_->clock().Advance(ExecutorOf(partition), t);
}

void DataflowContext::ChargeDiskWrite(int32_t partition, uint64_t bytes) {
  metrics().Add("dataflow.shuffle_bytes_written", bytes);
  const double t = cluster_->cost().DiskWriteTime(bytes);
  cluster_->clock().Advance(ExecutorOf(partition), t);
}

void DataflowContext::ChargeDiskRead(int32_t partition, uint64_t bytes) {
  metrics().Add("dataflow.shuffle_bytes_read", bytes);
  const double t = cluster_->cost().DiskReadTime(bytes);
  cluster_->clock().Advance(ExecutorOf(partition), t);
}

void DataflowContext::ChargeTransfer(int32_t from_part, int32_t to_part,
                                     uint64_t bytes) {
  int32_t from = ExecutorOf(from_part);
  int32_t to = ExecutorOf(to_part);
  if (from == to) return;  // local fetch
  metrics().Add("dataflow.network_bytes", bytes);
  double t = cluster_->cost().NetworkTime(bytes);
  const int64_t wire = sim::SimClock::TicksOf(t);
  cluster_->clock().Advance(from, t);
  cluster_->cost_ledger().Record(from, sim::CostCategory::kRpcSerialize,
                                 wire);
  const int64_t jump = cluster_->clock().AdvanceToTicksJump(
      to, cluster_->clock().NowTicks(from));
  cluster_->cost_ledger().Record(to, sim::CostCategory::kRpcWait, jump);
}

Status DataflowContext::AllocatePartitionMemory(int32_t partition,
                                                uint64_t bytes,
                                                const char* what) {
  return cluster_->memory().Allocate(ExecutorOf(partition), bytes, what);
}

void DataflowContext::ReleasePartitionMemory(int32_t partition,
                                             uint64_t bytes) {
  cluster_->memory().Release(ExecutorOf(partition), bytes);
}

uint64_t DataflowContext::PartitionHeadroom(int32_t partition) const {
  return cluster_->memory().Headroom(ExecutorOf(partition));
}

void DataflowContext::StageBarrier() {
  std::vector<int32_t> executors;
  executors.reserve(cluster_->config().num_executors);
  for (int32_t e = 0; e < cluster_->config().num_executors; ++e) {
    executors.push_back(e);
  }
  if (executors.empty()) return;
  cluster_->clock().Barrier(executors);
  // Stage fences are serial driver points: scrape the telemetry series
  // up to the barrier (all executor clocks are equal now).
  cluster_->sampler().Poll(cluster_->clock().NowTicks(executors[0]));
}

RecordCharges::RecordCharges(DataflowContext* ctx, int32_t partition,
                             const char* what)
    : ctx_(ctx),
      partition_(partition),
      what_(what),
      headroom_(ctx->PartitionHeadroom(partition)) {}

Status RecordCharges::AddAlone(uint64_t delta) {
  PSG_RETURN_NOT_OK(Commit());
  PSG_RETURN_NOT_OK(ctx_->AllocatePartitionMemory(partition_, delta, what_));
  // Only reachable if something else freed this executor's memory.
  charged_ += delta;
  headroom_ = ctx_->PartitionHeadroom(partition_);
  return Status::OK();
}

Status RecordCharges::Commit() {
  if (pending_ == 0) return Status::OK();
  const uint64_t bytes = pending_;
  pending_ = 0;
  headroom_ -= bytes;
  PSG_RETURN_NOT_OK(ctx_->AllocatePartitionMemory(partition_, bytes, what_));
  charged_ += bytes;
  return Status::OK();
}

void RecordCharges::Release() {
  (void)Commit();
  ctx_->ReleasePartitionMemory(partition_, charged_);
  charged_ = 0;
}

}  // namespace psgraph::dataflow
