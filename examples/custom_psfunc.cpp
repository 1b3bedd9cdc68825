// Extending the parameter server with a user-defined psFunc (paper
// §III-A: "users can customize their operators via a user-defined
// function, called psFunc").
//
// This example registers "norm.clip" — a server-side operator that
// rescales every row whose L2 norm exceeds a threshold. Clipping runs
// next to the data: no embedding ever crosses the network.
//
// Build & run:  ./build/examples/custom_psfunc

#include <cmath>
#include <cstdio>

#include "common/random.h"
#include "core/psgraph_context.h"
#include "ps/agent.h"
#include "ps/server.h"

using namespace psgraph;  // NOLINT

namespace {

// The psFunc: args = [matrix id:i32][max_norm:f32]; response = [number
// of clipped rows:u64]. Runs once per server, over its shard only.
Result<ByteBuffer> NormClip(ps::PsServer& server, ByteReader& args) {
  ps::MatrixId id = -1;
  float max_norm = 0.0f;
  PSG_RETURN_NOT_OK(args.Read(&id));
  PSG_RETURN_NOT_OK(args.Read(&max_norm));
  PSG_ASSIGN_OR_RETURN(ps::MatrixShard * shard, server.GetShard(id));
  uint64_t clipped = 0;
  // Rows iterate in ascending key order as (key, std::span<float>).
  for (auto [key, row] : shard->rows) {
    double sq = 0.0;
    for (float v : row) sq += (double)v * v;
    double norm = std::sqrt(sq);
    if (norm > max_norm) {
      float scale = static_cast<float>(max_norm / norm);
      for (float& v : row) v *= scale;
      ++clipped;
    }
  }
  ByteBuffer resp;
  resp.Write<uint64_t>(clipped);
  return resp;
}

}  // namespace

int main() {
  // Register the operator once, before servers start handling requests.
  ps::PsFuncRegistry::Global().Register("norm.clip", NormClip);

  core::PsGraphContext::Options options;
  options.cluster.num_executors = 2;
  options.cluster.num_servers = 3;
  options.cluster.executor_mem_bytes = 128ull << 20;
  options.cluster.server_mem_bytes = 128ull << 20;
  auto ctx = core::PsGraphContext::Create(options);
  PSG_CHECK_OK(ctx.status());

  // A small embedding matrix with a few oversized rows.
  auto meta = (*ctx)->ps().CreateMatrix("emb", 1000, 8);
  PSG_CHECK_OK(meta.status());
  ps::PsAgent agent(&(*ctx)->ps(), (*ctx)->cluster().config().executor(0));
  Rng rng(5);
  std::vector<uint64_t> keys;
  std::vector<float> rows;
  for (uint64_t k = 0; k < 1000; ++k) {
    keys.push_back(k);
    float scale = (k % 10 == 0) ? 25.0f : 0.5f;  // every 10th row huge
    for (int c = 0; c < 8; ++c) {
      rows.push_back((float)rng.NextGaussian() * scale);
    }
  }
  PSG_CHECK_OK(agent.PushAssign(*meta, keys, rows));

  // Invoke the custom operator on every server and merge the counts.
  ByteBuffer args;
  args.Write<ps::MatrixId>(meta->id);
  args.Write<float>(5.0f);
  auto responses = agent.CallFuncAll("norm.clip", args);
  PSG_CHECK_OK(responses.status());
  uint64_t total_clipped = 0;
  for (const auto& resp : *responses) {
    ByteReader reader(resp.data(), resp.size());
    uint64_t c = 0;
    PSG_CHECK_OK(reader.Read(&c));
    total_clipped += c;
  }
  std::printf("norm.clip rescaled %llu of 1000 rows server-side\n",
              (unsigned long long)total_clipped);

  // Verify: every row norm is now within the bound.
  auto back = agent.PullRows(*meta, keys);
  PSG_CHECK_OK(back.status());
  double worst = 0.0;
  for (uint64_t k = 0; k < 1000; ++k) {
    double sq = 0.0;
    for (int c = 0; c < 8; ++c) {
      double v = (*back)[k * 8 + c];
      sq += v * v;
    }
    worst = std::max(worst, std::sqrt(sq));
  }
  std::printf("max row norm after clipping: %.3f (bound 5.0)\n", worst);
  return 0;
}
