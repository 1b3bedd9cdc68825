#include "stream/pipeline.h"

#include <algorithm>

#include "common/logging.h"
#include "sim/event_journal.h"

namespace psgraph::stream {

FreshnessPipeline::FreshnessPipeline(core::PsGraphContext* ctx,
                                     DeltaPageRankEngine* engine,
                                     IncrementalEmbedder* embedder,
                                     PipelineOptions options)
    : ctx_(ctx),
      engine_(engine),
      embedder_(embedder),
      options_(std::move(options)) {}

Status FreshnessPipeline::Init() {
  PSG_ASSIGN_OR_RETURN(
      watermark_,
      ctx_->ps().CreateMatrix(options_.watermark_matrix, 1, 1));
  PSG_RETURN_NOT_OK(SetWatermark(0));
  return ctx_->master().CheckpointAll();
}

Result<int64_t> FreshnessPipeline::Watermark() {
  ps::PsAgent driver_agent(&ctx_->ps(), ctx_->cluster().config().driver());
  PSG_ASSIGN_OR_RETURN(std::vector<float> row,
                       driver_agent.PullRows(watermark_, {0}));
  return static_cast<int64_t>(row[0]);
}

Status FreshnessPipeline::SetWatermark(int64_t epoch) {
  ps::PsAgent driver_agent(&ctx_->ps(), ctx_->cluster().config().driver());
  // Float storage is exact for any realistic epoch count (< 2^24).
  return driver_agent.PushAssign(watermark_, {0},
                                 {static_cast<float>(epoch)});
}

Result<EpochResult> FreshnessPipeline::RunEpoch(
    const MutationEpoch& epoch) {
  EpochResult result;
  result.epoch = epoch.epoch;

  // Fire scheduled failures and repair before touching state; on a
  // consistent recovery everything (adjacency, ranks, embeddings AND
  // the watermark) rolled back to the last epoch boundary together.
  PSG_ASSIGN_OR_RETURN(auto recovery,
                       ctx_->HandleFailures(epoch.epoch, options_.recovery));
  if (recovery.servers_restarted > 0) {
    PSG_LOG(Info) << "stream: recovered " << recovery.servers_restarted
                  << " server(s) before epoch " << epoch.epoch;
  }

  // Exactly-once: an epoch at or below the watermark was already applied
  // by a previous (possibly pre-kill) pass over the log.
  PSG_ASSIGN_OR_RETURN(int64_t watermark, Watermark());
  if (epoch.epoch <= watermark) {
    result.skipped = true;
    return result;
  }
  if (epoch.epoch != watermark + 1) {
    return Status::FailedPrecondition(
        "stream: epoch " + std::to_string(epoch.epoch) +
        " offered with watermark " + std::to_string(watermark) +
        " (epochs must be replayed in order)");
  }

  // Ingest happens once the epoch window closes; the driver cannot act
  // on an event before it arrives.
  ctx_->cluster().clock().AdvanceToTicks(ctx_->cluster().config().driver(),
                                         epoch.end_ticks);

  std::vector<ps::EdgeMutation> mutations;
  mutations.reserve(epoch.events.size());
  for (const MutationEvent& ev : epoch.events) {
    mutations.push_back(ev.mutation);
  }
  result.mutations = mutations.size();

  ctx_->events().set_iteration(epoch.epoch);
  ctx_->events().Record(sim::JournalEventType::kEpochIngest, /*node=*/-1,
                        ctx_->cluster().clock().MakespanTicks(),
                        static_cast<int64_t>(mutations.size()));

  if (engine_ != nullptr) {
    engine_->set_epoch(epoch.epoch);
    PSG_ASSIGN_OR_RETURN(result.recompute,
                         engine_->ApplyMutationsAndRecompute(mutations));
    if (embedder_ != nullptr) {
      embedder_->set_epoch(epoch.epoch);
      PSG_ASSIGN_OR_RETURN(result.reembed_rows,
                           embedder_->ReembedDirty(result.recompute.affected));
    }
  }

  PSG_RETURN_NOT_OK(SetWatermark(epoch.epoch));
  // Every server checkpoints after each applied epoch, so the epoch is the
  // recovery granularity: consistent restores land on an epoch boundary
  // and the watermark replay is exact.
  PSG_RETURN_NOT_OK(ctx_->master().CheckpointAll());

  if (publisher_ != nullptr) {
    PSG_ASSIGN_OR_RETURN(auto manifest, publisher_->Publish());
    result.version = manifest.version;
    if (router_ != nullptr) {
      PSG_RETURN_NOT_OK(router_->SwapTo(manifest.version));
    }
  }
  result.publish_ticks =
      ctx_->cluster().clock().NowTicks(ctx_->cluster().config().driver());
  ctx_->events().Record(sim::JournalEventType::kEpochPublish, /*node=*/-1,
                        ctx_->cluster().clock().MakespanTicks(),
                        result.version);

  result.staleness_ticks.reserve(epoch.events.size());
  for (const MutationEvent& ev : epoch.events) {
    result.staleness_ticks.push_back(
        std::max<int64_t>(0, result.publish_ticks - ev.arrival_ticks));
  }
  return result;
}

}  // namespace psgraph::stream
