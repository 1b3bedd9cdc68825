// The continuous freshness pipeline: ingest epoch -> incremental retrain
// -> snapshot republish -> zero-torn-read hot swap on the serving tier.
//
// Exactly-once across kill/restart: the applied-epoch watermark is a
// one-row PS matrix that checkpoints and rolls back WITH the adjacency,
// ranks, deltas and embeddings (PsServer::Checkpoint serializes rows and
// neighbor tables together), so after a consistent recovery the driver
// reads the watermark and skips every epoch at or below it — replaying
// the deterministic MutationLog then re-applies exactly the lost
// epochs, never a duplicate. Epoch boundaries are journaled through the
// EventJournal (epoch_ingest with the mutation count, epoch_publish with
// the committed snapshot version) so trace tooling can chart the
// pipeline next to recovery timelines.
//
// Staleness: an edge event arriving at tick `a` becomes visible in a
// served embedding when the post-retrain snapshot swap completes at tick
// `p` on the serving tier; its staleness is `p - a`. RunEpoch returns
// the per-event samples; bench_freshness reduces them to the SLO-gated
// p50/p99.

#ifndef PSGRAPH_STREAM_PIPELINE_H_
#define PSGRAPH_STREAM_PIPELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/psgraph_context.h"
#include "serving/router.h"
#include "serving/snapshot.h"
#include "stream/incremental.h"
#include "stream/mutation_log.h"

namespace psgraph::stream {

struct PipelineOptions {
  std::string watermark_matrix = "stream.watermark";
  ps::RecoveryMode recovery = ps::RecoveryMode::kConsistent;
};

/// What one RunEpoch call did.
struct EpochResult {
  int64_t epoch = 0;
  /// True when the watermark said this epoch was already applied (a
  /// replay after recovery); nothing else in the struct is meaningful.
  bool skipped = false;
  uint64_t mutations = 0;
  DeltaStats recompute;
  uint64_t reembed_rows = 0;
  int64_t version = 0;        ///< committed snapshot version (0 = none)
  int64_t publish_ticks = 0;  ///< driver tick after the serving swap
  /// Per-event staleness (publish_ticks - arrival), event order.
  std::vector<int64_t> staleness_ticks;
};

class FreshnessPipeline {
 public:
  /// `engine` and `embedder` must outlive the pipeline; either may be
  /// null to skip that retrain stage (tests). Serving is attached
  /// separately — without it, epochs apply and retrain but "publish" is
  /// just the watermark commit.
  FreshnessPipeline(core::PsGraphContext* ctx, DeltaPageRankEngine* engine,
                    IncrementalEmbedder* embedder, PipelineOptions options);

  /// Creates the watermark matrix and checkpoints the bootstrap state.
  /// Call after the initial full recompute, before the first epoch.
  Status Init();

  /// Hooks up the serving tier: each applied epoch publishes a snapshot
  /// version and hot-swaps the router to it.
  void AttachServing(serving::SnapshotPublisher* publisher,
                     serving::ServingRouter* router) {
    publisher_ = publisher;
    router_ = router;
  }

  /// Applies one epoch end-to-end (failure handling first, then the
  /// exactly-once watermark check, mutate, incremental recompute,
  /// re-embed, watermark commit, checkpoint, publish + swap).
  Result<EpochResult> RunEpoch(const MutationEpoch& epoch);

  /// The applied-epoch watermark as the PS currently holds it.
  Result<int64_t> Watermark();

 private:
  Status SetWatermark(int64_t epoch);

  core::PsGraphContext* ctx_;
  DeltaPageRankEngine* engine_;
  IncrementalEmbedder* embedder_;
  PipelineOptions options_;
  ps::MatrixMeta watermark_;
  serving::SnapshotPublisher* publisher_ = nullptr;
  serving::ServingRouter* router_ = nullptr;
};

}  // namespace psgraph::stream

#endif  // PSGRAPH_STREAM_PIPELINE_H_
