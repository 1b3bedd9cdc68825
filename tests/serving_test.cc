// Tests for the online serving subsystem: snapshot publish/load
// round-trips, checksum verification, retention, the shard LRU cache,
// router micro-batching, hot snapshot swaps and the determinism of the
// serving run report across thread-pool parallelism.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/varint.h"
#include "net/ps_wire.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/partitioner.h"
#include "serving/load_gen.h"
#include "serving/router.h"
#include "serving/shard.h"
#include "serving/snapshot.h"
#include "sim/report.h"
#include "sim/sim_clock.h"
#include "storage/hdfs.h"

namespace psgraph {
namespace {

constexpr uint64_t kKeySpace = 32;
constexpr uint32_t kDim = 4;
constexpr uint32_t kOutDim = 3;
constexpr int32_t kNumShards = 2;
const char* kRoot = "serving/test";

sim::ClusterConfig Config2x2() {
  sim::ClusterConfig cfg;
  cfg.num_executors = 2;
  cfg.num_servers = 2;
  cfg.executor_mem_bytes = 8 << 20;
  cfg.server_mem_bytes = 8 << 20;
  return cfg;
}

/// Training-side stack: cluster + fabric + HDFS + PS with one embedding
/// matrix, one neighbor table and one replicated dense weight matrix.
struct Stack {
  sim::SimCluster cluster;
  net::RpcFabric fabric;
  storage::Hdfs hdfs;
  ps::PsContext ps;

  Stack()
      : cluster(Config2x2()),
        fabric(&cluster),
        hdfs(&cluster),
        ps(&cluster, &fabric, &hdfs) {
    PSG_CHECK_OK(ps.Start());
    PSG_CHECK_OK(
        ps.CreateMatrix("emb", kKeySpace, kDim).status());
    PSG_CHECK_OK(ps.CreateMatrix("adj", kKeySpace, 1,
                                 ps::StorageKind::kNeighbors)
                     .status());
    PSG_CHECK_OK(ps.CreateMatrix("w1", 2 * kDim, kOutDim).status());
  }

  sim::NodeId driver() const { return cluster.config().driver(); }
};

/// The embedding row every test expects for (key, bias).
std::vector<float> EmbRow(uint64_t key, float bias) {
  std::vector<float> row(kDim);
  for (uint32_t c = 0; c < kDim; ++c) {
    row[c] = bias + static_cast<float>(key) * 0.5f +
             static_cast<float>(c) * 0.25f;
  }
  return row;
}

void PushTrainingState(Stack& s, float bias) {
  ps::PsAgent agent(&s.ps, 0);
  ps::MatrixMeta emb = s.ps.GetMatrix("emb").value();
  std::vector<uint64_t> keys;
  std::vector<float> values;
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    keys.push_back(k);
    const std::vector<float> row = EmbRow(k, bias);
    values.insert(values.end(), row.begin(), row.end());
  }
  PSG_CHECK_OK(agent.PushAssign(emb, keys, values));

  ps::MatrixMeta adj = s.ps.GetMatrix("adj").value();
  std::vector<graph::NeighborList> tables;
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    graph::NeighborList list;
    list.vertex = k;
    list.neighbors = {(k + 1) % kKeySpace, (k + 7) % kKeySpace};
    tables.push_back(std::move(list));
  }
  PSG_CHECK_OK(agent.PushNeighbors(adj, tables));

  ps::MatrixMeta w1 = s.ps.GetMatrix("w1").value();
  std::vector<uint64_t> w_keys;
  std::vector<float> w_values;
  for (uint64_t r = 0; r < 2 * kDim; ++r) {
    w_keys.push_back(r);
    for (uint32_t c = 0; c < kOutDim; ++c) {
      w_values.push_back(0.01f * static_cast<float>(r * kOutDim + c + 1));
    }
  }
  PSG_CHECK_OK(agent.PushAssign(w1, w_keys, w_values));
}

serving::SnapshotOptions PublishOptions(int32_t keep_versions = 0) {
  serving::SnapshotOptions options;
  options.root = kRoot;
  options.num_shards = kNumShards;
  options.keep_versions = keep_versions;
  options.matrices = {{"emb", false}, {"adj", false}, {"w1", true}};
  return options;
}

serving::ShardOptions ServeOptions() {
  serving::ShardOptions options;
  options.root = kRoot;
  options.lookup_matrix = "emb";
  options.adjacency_matrix = "adj";
  options.weight_matrix = "w1";
  return options;
}

TEST(SnapshotTest, PathLayout) {
  EXPECT_EQ(serving::SnapshotVersionDir("r", 3), "r/v3");
  EXPECT_EQ(serving::SnapshotManifestPath("r", 3), "r/v3/MANIFEST.json");
  EXPECT_EQ(serving::SnapshotBlobPath("r", 3, 1), "r/v3/shard_1.blob");
  EXPECT_EQ(serving::SnapshotCurrentPath("r"), "r/CURRENT");
}

TEST(SnapshotTest, PublishLoadRoundTripIsBitIdentical) {
  Stack s;
  PushTrainingState(s, /*bias=*/1.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  auto manifest = publisher.Publish();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->version, 1);
  EXPECT_EQ(manifest->num_shards, kNumShards);
  EXPECT_EQ(manifest->key_space, kKeySpace);  // derived from "emb"
  EXPECT_EQ(manifest->quant, QuantMode::kNone);  // empty quant means none
  ASSERT_EQ(manifest->shards.size(), static_cast<size_t>(kNumShards));

  auto current = serving::ReadCurrentVersion(&s.hdfs, kRoot, s.driver());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1);

  // Re-read the manifest through the loader path and load both shards.
  auto loaded_manifest =
      serving::ReadManifest(&s.hdfs, kRoot, 1, s.driver());
  ASSERT_TRUE(loaded_manifest.ok()) << loaded_manifest.status().ToString();
  std::vector<serving::LoadedShard> shards;
  for (int32_t i = 0; i < kNumShards; ++i) {
    auto shard = serving::LoadShardBlob(&s.hdfs, kRoot, *loaded_manifest,
                                        i, s.driver());
    ASSERT_TRUE(shard.ok()) << shard.status().ToString();
    shards.push_back(std::move(*shard));
  }

  // Every pushed row is bit-identical on its owning shard; the weight
  // matrix is replicated whole everywhere.
  ps::Partitioner part(ps::PartitionScheme::kHash, kKeySpace, kNumShards);
  for (uint64_t k = 0; k < kKeySpace; ++k) {
    const int32_t owner = part.PartitionOf(k);
    const serving::LoadedMatrix* emb =
        shards[static_cast<size_t>(owner)].Find("emb");
    ASSERT_NE(emb, nullptr);
    auto it = emb->rows.find(k);
    ASSERT_NE(it, emb->rows.end()) << "key " << k << " missing on owner";
    EXPECT_EQ(it->second, EmbRow(k, 1.0f)) << "key " << k;
    const serving::LoadedMatrix* adj =
        shards[static_cast<size_t>(owner)].Find("adj");
    ASSERT_NE(adj, nullptr);
    auto adj_it = adj->adjacency.find(k);
    ASSERT_NE(adj_it, adj->adjacency.end());
    EXPECT_EQ(adj_it->second.size(), 2u);
  }
  for (const serving::LoadedShard& shard : shards) {
    const serving::LoadedMatrix* w1 = shard.Find("w1");
    ASSERT_NE(w1, nullptr);
    EXPECT_TRUE(w1->info.replicated);
    EXPECT_EQ(w1->rows.size(), static_cast<size_t>(2 * kDim));
  }
}

// A snapshot published with SnapshotOptions::quant = "int8" loads on
// its serving shards, and every row they serve stays within the
// manifest's recorded max-abs error of the PS row it was cut from.
TEST(SnapshotTest, Int8SnapshotServesRowsWithinManifestError) {
  Stack s;
  PushTrainingState(s, /*bias=*/1.0f);
  serving::SnapshotOptions options = PublishOptions();
  options.quant = "int8";
  serving::SnapshotPublisher publisher(&s.ps, options);
  ASSERT_TRUE(publisher.Publish().ok());

  auto manifest = serving::ReadManifest(&s.hdfs, kRoot, 1, s.driver());
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->quant, QuantMode::kInt8);
  double max_error = -1.0;
  for (const serving::SnapshotMatrixInfo& info : manifest->matrices) {
    if (info.name == "emb") max_error = info.quant_max_abs_error;
    if (info.name == "w1") {
      EXPECT_EQ(info.quant_max_abs_error, 0.0) << "replicated stays fp32";
    }
  }
  ASSERT_GT(max_error, 0.0) << "int8 rows must record a nonzero error";

  ps::PsAgent agent(&s.ps, 0);
  ps::MatrixMeta emb = s.ps.GetMatrix("emb").value();
  ps::Partitioner part(ps::PartitionScheme::kHash, kKeySpace, kNumShards);
  size_t checked = 0;
  for (int32_t i = 0; i < kNumShards; ++i) {
    serving::ServingShard shard(i, &s.cluster, &s.hdfs, /*node=*/i,
                                ServeOptions());
    ASSERT_TRUE(shard.Preload(1).ok());
    ASSERT_TRUE(shard.Activate(1).ok());
    std::vector<uint64_t> owned;
    for (uint64_t k = 0; k < kKeySpace; ++k) {
      if (part.PartitionOf(k) == i) owned.push_back(k);
    }
    ASSERT_FALSE(owned.empty());
    int64_t version = -1;
    std::vector<float> served;
    ASSERT_TRUE(shard.Lookup(owned, &version, &served).ok());
    EXPECT_EQ(version, 1);
    auto pulled = agent.PullRows(emb, owned);
    ASSERT_TRUE(pulled.ok()) << pulled.status().ToString();
    ASSERT_EQ(served.size(), pulled->size());
    for (size_t j = 0; j < served.size(); ++j) {
      EXPECT_LE(std::abs(static_cast<double>(served[j]) -
                         static_cast<double>((*pulled)[j])),
                max_error)
          << "key " << owned[j / kDim] << " col " << j % kDim;
    }
    checked += owned.size();
  }
  EXPECT_EQ(checked, kKeySpace);
}

TEST(SnapshotTest, HaloRowsMakeInferShardLocal) {
  Stack s;
  PushTrainingState(s, /*bias=*/0.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  ASSERT_TRUE(publisher.Publish().ok());
  auto manifest = serving::ReadManifest(&s.hdfs, kRoot, 1, s.driver());
  ASSERT_TRUE(manifest.ok());

  ps::Partitioner part(ps::PartitionScheme::kHash, kKeySpace, kNumShards);
  for (int32_t i = 0; i < kNumShards; ++i) {
    auto shard =
        serving::LoadShardBlob(&s.hdfs, kRoot, *manifest, i, s.driver());
    ASSERT_TRUE(shard.ok());
    const serving::LoadedMatrix* emb = shard->Find("emb");
    const serving::LoadedMatrix* adj = shard->Find("adj");
    ASSERT_NE(emb, nullptr);
    ASSERT_NE(adj, nullptr);
    // Every neighbor referenced by shard-local adjacency has its feature
    // row in this blob, owned or halo.
    for (const auto& [key, neighbors] : adj->adjacency) {
      EXPECT_EQ(part.PartitionOf(key), i);
      for (uint64_t nb : neighbors) {
        EXPECT_TRUE(emb->rows.count(nb) > 0)
            << "neighbor " << nb << " of " << key << " missing on shard "
            << i;
      }
    }
  }
}

TEST(SnapshotTest, CorruptBlobFailsChecksumNamingTheShard) {
  Stack s;
  PushTrainingState(s, 0.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  ASSERT_TRUE(publisher.Publish().ok());
  auto manifest = serving::ReadManifest(&s.hdfs, kRoot, 1, s.driver());
  ASSERT_TRUE(manifest.ok());

  // Flip bytes in shard 1's blob; the manifest checksum must catch it.
  const std::string path = serving::SnapshotBlobPath(kRoot, 1, 1);
  auto bytes = s.hdfs.Read(path, -1);
  ASSERT_TRUE(bytes.ok());
  (*bytes)[bytes->size() / 2] ^= 0xff;
  ASSERT_TRUE(s.hdfs.Write(path, *bytes, -1).ok());

  auto shard0 =
      serving::LoadShardBlob(&s.hdfs, kRoot, *manifest, 0, s.driver());
  EXPECT_TRUE(shard0.ok()) << "shard 0 untouched, must still load";
  auto shard1 =
      serving::LoadShardBlob(&s.hdfs, kRoot, *manifest, 1, s.driver());
  ASSERT_FALSE(shard1.ok());
  EXPECT_NE(shard1.status().ToString().find("checksum mismatch"),
            std::string::npos)
      << shard1.status().ToString();
  EXPECT_NE(shard1.status().ToString().find("shard_1"), std::string::npos)
      << shard1.status().ToString();
}

TEST(SnapshotTest, CorruptExportResponseFailsBeforeSizingRows) {
  Stack s;
  PushTrainingState(s, 0.0f);
  const sim::NodeId server0 = s.ps.ServerNode(0);
  ByteBuffer req;
  net::EncodeMatrixRequest(s.ps.GetMatrix("emb")->id, &req);
  auto real = s.fabric.Call(s.driver(), server0, "ps.export", req);
  ASSERT_TRUE(real.ok());
  // [col_begin][slice_cols][row keys][rows]: three rows of 2^32 - 1
  // floats each (48 GiB) claimed by a 16-byte response.
  ByteBuffer inflated;
  inflated.Write<uint32_t>(0);
  inflated.Write<uint32_t>(0xFFFFFFFFu);
  PutDeltaList(&inflated, std::vector<uint64_t>{1, 2, 3});
  inflated.Write<float>(1.0f);
  // Server 0's real response, cut two bytes into its last row (the empty
  // adjacency list after the rows is one byte).
  ByteReader header(*real);
  uint32_t col_begin = 0, slice_cols = 0;
  std::vector<uint64_t> row_keys;
  ASSERT_TRUE(header.Read(&col_begin).ok());
  ASSERT_TRUE(header.Read(&slice_cols).ok());
  ASSERT_TRUE(GetDeltaList(&header, &row_keys).ok());
  ASSERT_EQ(slice_cols, kDim);
  ASSERT_FALSE(row_keys.empty());
  const size_t rows_at = header.position();
  std::vector<uint8_t> truncated = *real;
  truncated.resize(truncated.size() - 3);
  struct Case {
    const char* name;
    std::vector<uint8_t> response;
    std::string what;
  };
  const std::vector<Case> cases = {
      {"inflated", inflated.data(),
       "ps.export: 3 rows x 4294967295 floats at offset 12 exceed "
       "remaining 4 bytes"},
      {"truncated", truncated,
       "ps.export: " + std::to_string(row_keys.size()) +
           " rows x 4 floats at offset " + std::to_string(rows_at) +
           " exceed remaining " + std::to_string(truncated.size() - rows_at) +
           " bytes"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    auto endpoint = std::make_shared<net::RpcEndpoint>();
    endpoint->Register(
        "ps.export",
        [resp = c.response](const std::vector<uint8_t>&) -> Result<ByteBuffer> {
          return ByteBuffer(resp);
        });
    s.fabric.Bind(server0, endpoint);
    serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
    auto manifest = publisher.Publish();
    ASSERT_FALSE(manifest.ok());
    EXPECT_TRUE(manifest.status().code() == StatusCode::kOutOfRange)
        << manifest.status().ToString();
    EXPECT_NE(manifest.status().ToString().find(c.what), std::string::npos)
        << manifest.status().ToString();
    EXPECT_TRUE(publisher.CurrentVersion().status().IsNotFound());
  }
}

TEST(SnapshotTest, RetentionKeepsNewestAndCurrent) {
  Stack s;
  serving::SnapshotPublisher publisher(&s.ps,
                                       PublishOptions(/*keep_versions=*/2));
  for (int i = 0; i < 3; ++i) {
    PushTrainingState(s, static_cast<float>(i));
    auto manifest = publisher.Publish();
    ASSERT_TRUE(manifest.ok());
    EXPECT_EQ(manifest->version, i + 1);
  }
  auto current = serving::ReadCurrentVersion(&s.hdfs, kRoot, s.driver());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 3);

  // v1 is fully gone — no manifest, no blobs.
  EXPECT_FALSE(
      s.hdfs.Exists(serving::SnapshotManifestPath(kRoot, 1)));
  EXPECT_TRUE(
      s.hdfs.List(serving::SnapshotVersionDir(kRoot, 1) + "/").empty());
  // v2 and v3 both still load.
  for (int64_t v : {2, 3}) {
    auto manifest = serving::ReadManifest(&s.hdfs, kRoot, v, s.driver());
    ASSERT_TRUE(manifest.ok()) << "v" << v;
    EXPECT_TRUE(serving::LoadShardBlob(&s.hdfs, kRoot, *manifest, 0,
                                       s.driver())
                    .ok());
  }
  EXPECT_EQ(s.cluster.metrics().Get("serving.snapshots_retired"), 1u);
}

TEST(ServingShardTest, LookupCachesRowsWithLruEviction) {
  Stack s;
  PushTrainingState(s, 2.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  ASSERT_TRUE(publisher.Publish().ok());

  serving::ShardOptions options = ServeOptions();
  options.cache_rows = 2;
  serving::ServingShard shard(0, &s.cluster, &s.hdfs, /*node=*/0, options);
  ASSERT_TRUE(shard.Preload(1).ok());
  ASSERT_TRUE(shard.Activate(1).ok());
  EXPECT_EQ(shard.active_version(), 1);

  // Three shard-0-owned keys (any keys work for Lookup, but owned keys
  // have real rows so they are cacheable).
  ps::Partitioner part(ps::PartitionScheme::kHash, kKeySpace, kNumShards);
  std::vector<uint64_t> owned;
  for (uint64_t k = 0; k < kKeySpace && owned.size() < 3; ++k) {
    if (part.PartitionOf(k) == 0) owned.push_back(k);
  }
  ASSERT_EQ(owned.size(), 3u);

  int64_t version = -1;
  std::vector<float> out;
  ASSERT_TRUE(shard.Lookup(std::vector<uint64_t>{owned[0]}, &version, &out).ok());
  EXPECT_EQ(version, 1);
  EXPECT_EQ(out, EmbRow(owned[0], 2.0f));
  EXPECT_EQ(shard.cache_misses(), 1u);
  out.clear();
  ASSERT_TRUE(shard.Lookup(std::vector<uint64_t>{owned[0]}, &version, &out).ok());
  EXPECT_EQ(shard.cache_hits(), 1u) << "second touch must be a hit";

  // Touch two more rows: capacity 2 evicts owned[0]; re-touching it is a
  // miss again.
  ASSERT_TRUE(shard.Lookup(std::vector<uint64_t>{owned[1], owned[2]}, &version, &out).ok());
  const uint64_t misses_before = shard.cache_misses();
  ASSERT_TRUE(shard.Lookup(std::vector<uint64_t>{owned[0]}, &version, &out).ok());
  EXPECT_EQ(shard.cache_misses(), misses_before + 1)
      << "evicted row must re-miss";

  // A key the snapshot never saw comes back as init rows, not an error.
  out.clear();
  ASSERT_TRUE(shard.Lookup(std::vector<uint64_t>{kKeySpace + 100}, &version, &out).ok());
  EXPECT_EQ(out, std::vector<float>(kDim, 0.0f));

  // Activating a version that was never preloaded fails loudly.
  Status st = shard.Activate(7);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
}

TEST(ServingShardTest, InferRunsGraphSageForwardFromSnapshot) {
  Stack s;
  PushTrainingState(s, 1.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  ASSERT_TRUE(publisher.Publish().ok());

  serving::ServingShard shard(0, &s.cluster, &s.hdfs, 0, ServeOptions());
  ASSERT_TRUE(shard.Preload(1).ok());
  ASSERT_TRUE(shard.Activate(1).ok());

  ps::Partitioner part(ps::PartitionScheme::kHash, kKeySpace, kNumShards);
  uint64_t key = 0;
  while (part.PartitionOf(key) != 0) ++key;

  int64_t version = -1;
  std::vector<float> out;
  ASSERT_TRUE(shard.Infer(std::vector<uint64_t>{key}, &version, &out).ok());
  EXPECT_EQ(version, 1);
  ASSERT_EQ(out.size(), static_cast<size_t>(kOutDim));
  // All-positive inputs and weights: Relu passes through and the row is
  // L2-normalized.
  double norm = 0.0;
  for (float v : out) norm += static_cast<double>(v) * v;
  EXPECT_NEAR(norm, 1.0, 1e-4);
  EXPECT_GT(s.cluster.metrics().Get("serving.infer_nodes"), 0u);
}

/// Serving-side stack: shards started on the executor nodes + a router
/// on the driver.
struct ServingStack {
  std::vector<std::unique_ptr<serving::ServingShard>> shards;
  std::unique_ptr<serving::ServingRouter> router;

  ServingStack(Stack& s, uint64_t max_batch, double max_delay_sec,
               uint64_t cache_rows = 4096) {
    std::vector<sim::NodeId> shard_nodes;
    for (int32_t i = 0; i < kNumShards; ++i) {
      serving::ShardOptions options = ServeOptions();
      options.cache_rows = cache_rows;
      shards.push_back(std::make_unique<serving::ServingShard>(
          i, &s.cluster, &s.hdfs, /*node=*/i, options));
      PSG_CHECK_OK(shards.back()->Start(&s.fabric));
      shard_nodes.push_back(i);
    }
    serving::RouterOptions options;
    options.num_shards = kNumShards;
    options.key_space = kKeySpace;
    options.max_batch = max_batch;
    options.max_delay_sec = max_delay_sec;
    router = std::make_unique<serving::ServingRouter>(
        &s.cluster, &s.fabric, s.driver(), shard_nodes, options);
  }
};

TEST(ServingRouterTest, FlushesOnBatchSizeAndDeadline) {
  Stack s;
  PushTrainingState(s, 0.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  ASSERT_TRUE(publisher.Publish().ok());

  ServingStack serve(s, /*max_batch=*/2, /*max_delay_sec=*/1e-3);
  ASSERT_TRUE(serve.router->SwapTo(1).ok());

  // Two single-key requests to the same shard hit the size trigger.
  ps::Partitioner part(ps::PartitionScheme::kHash, kKeySpace, kNumShards);
  std::vector<uint64_t> shard0_keys;
  for (uint64_t k = 0; k < kKeySpace && shard0_keys.size() < 2; ++k) {
    if (part.PartitionOf(k) == 0) shard0_keys.push_back(k);
  }
  for (uint64_t key : shard0_keys) {
    serving::ServingRequest request;
    request.keys = {key};
    request.arrival_ticks = serve.router->records().empty()
                                ? 0
                                : sim::SimClock::TicksOf(1e-5);
    ASSERT_TRUE(serve.router->Submit(request).ok());
  }
  EXPECT_TRUE(serve.router->records()[0].done)
      << "size-triggered flush must complete the batch inline";
  EXPECT_TRUE(serve.router->records()[1].done);

  // A lone request flushes when a later arrival passes its deadline.
  serving::ServingRequest lone;
  lone.keys = {shard0_keys[0]};
  lone.arrival_ticks = sim::SimClock::TicksOf(0.1);
  ASSERT_TRUE(serve.router->Submit(lone).ok());
  EXPECT_FALSE(serve.router->records()[2].done);
  serving::ServingRequest late;
  late.keys = {shard0_keys[1]};
  late.arrival_ticks = sim::SimClock::TicksOf(0.2);  // past the deadline
  ASSERT_TRUE(serve.router->Submit(late).ok());
  EXPECT_TRUE(serve.router->records()[2].done)
      << "deadline must flush the stale batch before the new arrival";
  ASSERT_TRUE(serve.router->Flush().ok());
  EXPECT_TRUE(serve.router->records()[3].done);

  for (const serving::RequestRecord& r : serve.router->records()) {
    EXPECT_FALSE(r.failed);
    EXPECT_EQ(r.version, 1);
    EXPECT_GE(r.completion_ticks, r.arrival_ticks);
  }
  EXPECT_GT(s.cluster.metrics().Get("serving.batches"), 0u);
}

TEST(ServingRouterTest, HotSwapServesEveryRequestWithoutTornReads) {
  Stack s;
  PushTrainingState(s, 0.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  ASSERT_TRUE(publisher.Publish().ok());

  ServingStack serve(s, /*max_batch=*/4, /*max_delay_sec=*/1e-3);
  ASSERT_TRUE(serve.router->SwapTo(1).ok());

  serving::LoadGenOptions load;
  load.num_requests = 40;
  load.rate_per_sec = 20000.0;
  load.key_space = kKeySpace;
  load.keys_per_request = 2;
  load.seed = 7;
  std::vector<serving::ServingRequest> requests =
      serving::GenerateLoad(load);
  ASSERT_EQ(requests.size(), 40u);

  for (size_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(serve.router->Submit(requests[i]).ok());
  }
  // Publish v2 and swap while requests are in flight; the queued batches
  // drain at v1, everything after serves at v2.
  PushTrainingState(s, 100.0f);
  ASSERT_TRUE(publisher.Publish().ok());
  ASSERT_TRUE(serve.router->SwapTo(2).ok());
  for (size_t i = 20; i < requests.size(); ++i) {
    ASSERT_TRUE(serve.router->Submit(requests[i]).ok());
  }
  ASSERT_TRUE(serve.router->Flush().ok());

  EXPECT_EQ(serve.router->failed_requests(), 0u);
  EXPECT_EQ(serve.router->torn_requests(), 0u);
  EXPECT_EQ(s.cluster.metrics().Get("serving.torn_reads"), 0u);
  size_t v1 = 0;
  size_t v2 = 0;
  for (const serving::RequestRecord& r : serve.router->records()) {
    ASSERT_TRUE(r.done);
    if (r.version == 1) ++v1;
    if (r.version == 2) ++v2;
  }
  EXPECT_EQ(v1 + v2, serve.router->records().size());
  EXPECT_GT(v1, 0u) << "some requests must have served from v1";
  EXPECT_GT(v2, 0u) << "post-swap requests must serve from v2";
  EXPECT_EQ(serve.shards[0]->active_version(), 2);
  EXPECT_EQ(serve.shards[1]->active_version(), 2);

  // The swapped-in rows are actually served.
  int64_t version = -1;
  std::vector<float> out;
  ps::Partitioner part(ps::PartitionScheme::kHash, kKeySpace, kNumShards);
  uint64_t key = 0;
  while (part.PartitionOf(key) != 0) ++key;
  ASSERT_TRUE(serve.shards[0]
                  ->Lookup(std::vector<uint64_t>{key}, &version, &out)
                  .ok());
  EXPECT_EQ(version, 2);
  EXPECT_EQ(out, EmbRow(key, 100.0f));
}

/// One full pipeline — train-ish state, publish, serve a Zipfian load,
/// swap mid-stream — rendered as run-report JSON.
std::string RunServingPipelineReport() {
  Stack s;
  PushTrainingState(s, 0.0f);
  serving::SnapshotPublisher publisher(&s.ps, PublishOptions());
  PSG_CHECK_OK(publisher.Publish().status());

  ServingStack serve(s, /*max_batch=*/8, /*max_delay_sec=*/2e-3,
                     /*cache_rows=*/16);
  PSG_CHECK_OK(serve.router->SwapTo(1));

  serving::LoadGenOptions load;
  load.num_requests = 300;
  load.rate_per_sec = 10000.0;
  load.key_space = kKeySpace;
  load.zipfian = true;
  load.zipf_theta = 0.99;
  load.infer_fraction = 0.25;
  load.seed = 11;
  std::vector<serving::ServingRequest> requests =
      serving::GenerateLoad(load);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i == requests.size() / 2) {
      PushTrainingState(s, 50.0f);
      PSG_CHECK_OK(publisher.Publish().status());
      PSG_CHECK_OK(serve.router->SwapTo(2));
    }
    PSG_CHECK_OK(serve.router->Submit(requests[i]));
  }
  PSG_CHECK_OK(serve.router->Flush());
  if (serve.router->failed_requests() != 0 ||
      serve.router->torn_requests() != 0) {
    ADD_FAILURE() << "pipeline saw " << serve.router->failed_requests()
                  << " failed / " << serve.router->torn_requests()
                  << " torn requests";
  }

  sim::RunReport report =
      sim::CollectRunReport("serving_pipeline", &s.cluster);
  return sim::RunReportToJson(report).Dump(2);
}

TEST(ServingReportTest, PipelineReportValidatesWithServingMetrics) {
  const std::string text = RunServingPipelineReport();
  auto doc = JsonValue::Parse(text);
  ASSERT_TRUE(doc.ok());
  Status valid = sim::ValidateRunReportJson(*doc);
  EXPECT_TRUE(valid.ok()) << valid.ToString();

  // A counter that was never incremented is absent: it reads as 0.
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  auto counter = [counters](const char* name) -> int64_t {
    const JsonValue* v = counters->Find(name);
    return v == nullptr ? 0 : v->as_int();
  };
  EXPECT_EQ(counter("serving.requests_completed"), 300);
  EXPECT_EQ(counter("serving.requests_failed"), 0);
  // Every submitted request completed or failed, exactly once.
  EXPECT_EQ(counter("serving.requests"),
            counter("serving.requests_completed") +
                counter("serving.requests_failed"));
  EXPECT_EQ(counter("serving.torn_reads"), 0);
  EXPECT_EQ(counter("serving.swaps"), 2);
  EXPECT_EQ(counter("serving.snapshots_published"), 2);
  const int64_t hits = counter("serving.cache_hits");
  const int64_t misses = counter("serving.cache_misses");
  ASSERT_GT(hits + misses, 0);
  EXPECT_GT(static_cast<double>(hits) / static_cast<double>(hits + misses),
            0.5)
      << "Zipfian traffic over a 16-row cache must hit more than half";
  const JsonValue* latency =
      doc->Find("histograms")->Find("serving.request.latency_ticks");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->Find("count")->as_int(), 300);
  EXPECT_GT(latency->Find("p99")->as_double(), 0.0);
  EXPECT_GE(latency->Find("p999")->as_double(),
            latency->Find("p99")->as_double());
}

TEST(ServingReportTest, ReportIsByteIdenticalAcrossParallelism) {
  SetGlobalParallelism(1);
  const std::string sequential = RunServingPipelineReport();
  SetGlobalParallelism(8);
  const std::string threaded = RunServingPipelineReport();
  SetGlobalParallelism(0);  // restore the env/hardware default
  EXPECT_EQ(sequential, threaded)
      << "the serving pipeline must be deterministic at any parallelism";
}

}  // namespace
}  // namespace psgraph
