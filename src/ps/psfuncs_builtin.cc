// Built-in psFuncs (paper §III-A "Data Operators" / §IV).
//
// A psFunc runs *on the server*, next to the data, so only scalars cross
// the network. The paper uses this for (a) the PageRank advance step
// ("PS adds deltas to ranks and resets deltas"), (b) LINE's partial dot
// products over column-partitioned embeddings, and (c) AdaGrad/Adam
// optimizers applied server-side to GNN weights.
//
// Wire formats are documented per function below. All matrix pairs that a
// function touches must share partitioning (created with the same shape
// and scheme), so co-partitioned keys resolve on the same server.
//
// Functions that write rows one at a time go through PsServer::RowBatch:
// each row is charged exactly like a one-key PushAdd/PushAssign, but the
// clock and metrics are taken once per call, not per row. Shard rows
// iterate in ascending key order as (key, std::span<float>) pairs, so
// every sum over a shard is a function of its state, not of the order
// its rows were materialized.

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/random.h"
#include "common/varint.h"
#include "ps/partitioner.h"
#include "ps/server.h"

namespace psgraph::ps {

namespace {

// "pagerank.advance": args = [delta_id:i32][ranks_id:i32]
// ranks += delta for every materialized delta row; deltas reset to zero.
// Response: [l1:double] — L1 norm of the applied deltas (convergence).
Result<ByteBuffer> PageRankAdvance(PsServer& server, ByteReader& args) {
  MatrixId delta_id = -1, ranks_id = -1;
  PSG_RETURN_NOT_OK(args.Read(&delta_id));
  PSG_RETURN_NOT_OK(args.Read(&ranks_id));
  PSG_ASSIGN_OR_RETURN(MatrixShard * delta, server.GetShard(delta_id));
  PSG_RETURN_NOT_OK(server.GetShard(ranks_id).status());

  double l1 = 0.0;
  PsServer::RowBatch batch(&server);
  for (auto [key, row] : delta->rows) {
    const float d = row[0];
    if (d == 0.0f) continue;
    l1 += std::fabs(d);
    PSG_RETURN_NOT_OK(batch.Add(ranks_id, key, {&d, 1}));
    row[0] = 0.0f;
  }
  ByteBuffer resp;
  resp.Write<double>(l1);
  return resp;
}

// "rows.count": args = [id:i32] — response [count:u64].
Result<ByteBuffer> RowsCount(PsServer& server, ByteReader& args) {
  MatrixId id = -1;
  PSG_RETURN_NOT_OK(args.Read(&id));
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, server.GetShard(id));
  ByteBuffer resp;
  resp.Write<uint64_t>(shard->rows.size());
  return resp;
}

// "sumsq": args = [id:i32] — response [sum of squares:double] over this
// shard's rows (used for the modularity Sigma_tot^2 term).
Result<ByteBuffer> SumSq(PsServer& server, ByteReader& args) {
  MatrixId id = -1;
  PSG_RETURN_NOT_OK(args.Read(&id));
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, server.GetShard(id));
  double sum = 0.0;
  for (const auto [_, row] : shard->rows) {
    for (float v : row) sum += static_cast<double>(v) * v;
  }
  ByteBuffer resp;
  resp.Write<double>(sum);
  return resp;
}

// "init.randn": args = [id:i32][scale:f32][seed:u64]
// Materializes EVERY row this server owns with deterministic Gaussian
// noise (value depends only on (seed, key, column), not on the layout).
// Used to random-initialize embedding matrices server-side instead of
// shipping |V| x dim floats over the network.
Result<ByteBuffer> InitRandn(PsServer& server, ByteReader& args) {
  MatrixId id = -1;
  float scale = 0.0f;
  uint64_t seed = 0;
  PSG_RETURN_NOT_OK(args.Read(&id));
  PSG_RETURN_NOT_OK(args.Read(&scale));
  PSG_RETURN_NOT_OK(args.Read(&seed));
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, server.GetShard(id));
  const MatrixMeta& meta = shard->meta;

  Partitioner part(meta.scheme, meta.num_rows, server.num_servers());
  std::vector<float> row(shard->slice_cols);
  PsServer::RowBatch batch(&server);
  // The store's window holds every key of [0, num_rows) this server owns.
  for (uint64_t key = shard->rows.window_begin();
       key < shard->rows.window_end(); ++key) {
    if (meta.layout == Layout::kRowPartitioned &&
        part.PartitionOf(key) != server.server_index()) {
      continue;
    }
    Rng rng(seed ^ Hash64(key));
    // Skip columns before this server's slice so values are
    // layout-independent.
    for (uint32_t c = 0; c < shard->col_begin; ++c) rng.NextGaussian();
    for (uint32_t c = 0; c < shard->slice_cols; ++c) {
      row[c] = static_cast<float>(rng.NextGaussian()) * scale;
    }
    if (float* dst = shard->FindRow(key)) {
      std::copy(row.begin(), row.end(), dst);
    } else {
      PSG_RETURN_NOT_OK(batch.Assign(id, key, row));
    }
  }
  return ByteBuffer();
}

// "init.fill": args = [id:i32][value:f32]
// Materializes every row this server owns with a constant. PageRank uses
// it to seed the delta vector with the reset mass for the whole id space
// ("the size of both vectors is equal to the maximal index of vertex",
// paper §IV-A).
Result<ByteBuffer> InitFill(PsServer& server, ByteReader& args) {
  MatrixId id = -1;
  float value = 0.0f;
  PSG_RETURN_NOT_OK(args.Read(&id));
  PSG_RETURN_NOT_OK(args.Read(&value));
  PSG_ASSIGN_OR_RETURN(MatrixShard * shard, server.GetShard(id));
  const MatrixMeta& meta = shard->meta;
  Partitioner part(meta.scheme, meta.num_rows, server.num_servers());
  std::vector<float> row(shard->slice_cols, value);
  PsServer::RowBatch batch(&server);
  // The store's window holds every key of [0, num_rows) this server owns.
  for (uint64_t key = shard->rows.window_begin();
       key < shard->rows.window_end(); ++key) {
    if (meta.layout == Layout::kRowPartitioned &&
        part.PartitionOf(key) != server.server_index()) {
      continue;
    }
    if (float* dst = shard->FindRow(key)) {
      std::fill_n(dst, shard->slice_cols, value);
    } else {
      PSG_RETURN_NOT_OK(batch.Assign(id, key, row));
    }
  }
  return ByteBuffer();
}

// "dot.partial": args = [a_id:i32][b_id:i32][pairs: delta list, flattened
// (i,j)...] — computes, for each pair, the dot product of a.row(i) and
// b.row(j) restricted to this server's column slice. Both matrices must
// be column-partitioned identically (paper §IV-D: "the same dimensions of
// u and c are co-located on the same server"). Response: vec<double>.
Result<ByteBuffer> DotPartial(PsServer& server, ByteReader& args) {
  MatrixId a_id = -1, b_id = -1;
  std::vector<uint64_t> flat;
  PSG_RETURN_NOT_OK(args.Read(&a_id));
  PSG_RETURN_NOT_OK(args.Read(&b_id));
  PSG_RETURN_NOT_OK(GetDeltaList(&args, &flat));
  if (flat.size() % 2 != 0) {
    return Status::InvalidArgument("dot.partial: odd pair vector");
  }
  PSG_ASSIGN_OR_RETURN(MatrixShard * a, server.GetShard(a_id));
  PSG_ASSIGN_OR_RETURN(MatrixShard * b, server.GetShard(b_id));
  if (a->slice_cols != b->slice_cols || a->col_begin != b->col_begin) {
    return Status::FailedPrecondition(
        "dot.partial: matrices are not co-partitioned");
  }
  std::vector<double> dots(flat.size() / 2, 0.0);
  for (size_t p = 0; p < dots.size(); ++p) {
    const float* ra = a->FindRow(flat[2 * p]);
    const float* rb = b->FindRow(flat[2 * p + 1]);
    if (ra == nullptr || rb == nullptr) continue;  // init rows: dot with 0
    double s = 0.0;
    for (uint32_t c = 0; c < a->slice_cols; ++c) {
      s += static_cast<double>(ra[c]) * static_cast<double>(rb[c]);
    }
    dots[p] = s;
  }
  ByteBuffer resp;
  resp.WriteVector(dots);
  return resp;
}

// "line.adjust": args = [emb_id:i32][ctx_id:i32][lr:f32]
//   [tuples: delta list, flattened (i, j)][coeffs: vec<f32>]
// For each (i, j, g): emb.row(i) += lr*g*ctx.row(j); ctx.row(j) +=
// lr*g*emb.row(i) — rank-1 SGD applied on the server's column slice so
// only scalars crossed the network. Uses the pre-update values of both
// rows, like a simultaneous SGD step.
Result<ByteBuffer> LineAdjust(PsServer& server, ByteReader& args) {
  MatrixId emb_id = -1, ctx_id = -1;
  float lr = 0.0f;
  std::vector<uint64_t> flat;
  std::vector<float> coeffs;
  PSG_RETURN_NOT_OK(args.Read(&emb_id));
  PSG_RETURN_NOT_OK(args.Read(&ctx_id));
  PSG_RETURN_NOT_OK(args.Read(&lr));
  PSG_RETURN_NOT_OK(GetDeltaList(&args, &flat));
  PSG_RETURN_NOT_OK(args.ReadVector(&coeffs));
  if (flat.size() != coeffs.size() * 2) {
    return Status::InvalidArgument("line.adjust: tuple/coeff mismatch");
  }
  PSG_ASSIGN_OR_RETURN(MatrixShard * emb, server.GetShard(emb_id));
  PSG_ASSIGN_OR_RETURN(MatrixShard * ctx, server.GetShard(ctx_id));
  if (emb->slice_cols != ctx->slice_cols) {
    return Status::FailedPrecondition(
        "line.adjust: matrices are not co-partitioned");
  }
  const uint32_t w = emb->slice_cols;
  std::vector<float> zero_row(w, 0.0f);
  PsServer::RowBatch batch(&server);
  auto ensure_row = [&](MatrixShard* shard, MatrixId id,
                        uint64_t key) -> Status {
    if (shard->FindRow(key) == nullptr) {
      // Materialize via a push of zeros so memory gets charged once.
      PSG_RETURN_NOT_OK(batch.Add(id, key, zero_row));
    }
    return Status::OK();
  };
  std::vector<float> tmp(w);
  for (size_t p = 0; p < coeffs.size(); ++p) {
    const uint64_t ui = flat[2 * p];
    const uint64_t cj = flat[2 * p + 1];
    // Materialize both rows before taking either pointer: a new row can
    // grow the store's array and move its rows, and emb/ctx may alias
    // the same shard.
    PSG_RETURN_NOT_OK(ensure_row(emb, emb_id, ui));
    PSG_RETURN_NOT_OK(ensure_row(ctx, ctx_id, cj));
    float* u = emb->FindRow(ui);
    float* c = ctx->FindRow(cj);
    const float g = lr * coeffs[p];
    std::copy_n(u, w, tmp.data());
    for (uint32_t k = 0; k < w; ++k) u[k] += g * c[k];
    for (uint32_t k = 0; k < w; ++k) c[k] += g * tmp[k];
  }
  return ByteBuffer();
}

// "adam.apply": args = [w_id:i32][m_id:i32][v_id:i32][lr:f32][beta1:f32]
//   [beta2:f32][eps:f32][t:i32][keys:vec<u64>][grads:vec<f32>]
// Applies one Adam step to the given rows; m/v are companion matrices
// with the same shape and partitioning as w.
Result<ByteBuffer> AdamApply(PsServer& server, ByteReader& args) {
  MatrixId w_id = -1, m_id = -1, v_id = -1;
  float lr, beta1, beta2, eps;
  int32_t t = 1;
  std::vector<uint64_t> keys;
  std::vector<float> grads;
  PSG_RETURN_NOT_OK(args.Read(&w_id));
  PSG_RETURN_NOT_OK(args.Read(&m_id));
  PSG_RETURN_NOT_OK(args.Read(&v_id));
  PSG_RETURN_NOT_OK(args.Read(&lr));
  PSG_RETURN_NOT_OK(args.Read(&beta1));
  PSG_RETURN_NOT_OK(args.Read(&beta2));
  PSG_RETURN_NOT_OK(args.Read(&eps));
  PSG_RETURN_NOT_OK(args.Read(&t));
  PSG_RETURN_NOT_OK(args.ReadVector(&keys));
  PSG_RETURN_NOT_OK(args.ReadVector(&grads));

  PSG_ASSIGN_OR_RETURN(MatrixShard * w, server.GetShard(w_id));
  const uint32_t cols = w->slice_cols;
  if (grads.size() != keys.size() * cols) {
    return Status::InvalidArgument("adam.apply: grads size mismatch");
  }
  PSG_ASSIGN_OR_RETURN(MatrixShard * m, server.GetShard(m_id));
  PSG_ASSIGN_OR_RETURN(MatrixShard * v, server.GetShard(v_id));
  // Materialize rows by pushing zeros (charges memory through one path).
  std::vector<float> zeros(cols, 0.0f);
  const double bc1 = 1.0 - std::pow(beta1, t);
  const double bc2 = 1.0 - std::pow(beta2, t);
  PsServer::RowBatch batch(&server);
  for (size_t i = 0; i < keys.size(); ++i) {
    PSG_RETURN_NOT_OK(batch.Add(w_id, keys[i], zeros));
    PSG_RETURN_NOT_OK(batch.Add(m_id, keys[i], zeros));
    PSG_RETURN_NOT_OK(batch.Add(v_id, keys[i], zeros));
    float* wr = w->FindRow(keys[i]);
    float* mr = m->FindRow(keys[i]);
    float* vr = v->FindRow(keys[i]);
    const float* g = grads.data() + i * cols;
    for (uint32_t c = 0; c < cols; ++c) {
      mr[c] = beta1 * mr[c] + (1.0f - beta1) * g[c];
      vr[c] = beta2 * vr[c] + (1.0f - beta2) * g[c] * g[c];
      double mhat = mr[c] / bc1;
      double vhat = vr[c] / bc2;
      wr[c] -= static_cast<float>(lr * mhat / (std::sqrt(vhat) + eps));
    }
  }
  return ByteBuffer();
}

// "adagrad.apply": args = [w_id:i32][g2_id:i32][lr:f32][eps:f32]
//   [keys:vec<u64>][grads:vec<f32>]
Result<ByteBuffer> AdagradApply(PsServer& server, ByteReader& args) {
  MatrixId w_id = -1, g2_id = -1;
  float lr, eps;
  std::vector<uint64_t> keys;
  std::vector<float> grads;
  PSG_RETURN_NOT_OK(args.Read(&w_id));
  PSG_RETURN_NOT_OK(args.Read(&g2_id));
  PSG_RETURN_NOT_OK(args.Read(&lr));
  PSG_RETURN_NOT_OK(args.Read(&eps));
  PSG_RETURN_NOT_OK(args.ReadVector(&keys));
  PSG_RETURN_NOT_OK(args.ReadVector(&grads));

  PSG_ASSIGN_OR_RETURN(MatrixShard * w, server.GetShard(w_id));
  const uint32_t cols = w->slice_cols;
  if (grads.size() != keys.size() * cols) {
    return Status::InvalidArgument("adagrad.apply: grads size mismatch");
  }
  PSG_ASSIGN_OR_RETURN(MatrixShard * g2, server.GetShard(g2_id));
  std::vector<float> zeros(cols, 0.0f);
  PsServer::RowBatch batch(&server);
  for (size_t i = 0; i < keys.size(); ++i) {
    PSG_RETURN_NOT_OK(batch.Add(w_id, keys[i], zeros));
    PSG_RETURN_NOT_OK(batch.Add(g2_id, keys[i], zeros));
    float* wr = w->FindRow(keys[i]);
    float* sr = g2->FindRow(keys[i]);
    const float* g = grads.data() + i * cols;
    for (uint32_t c = 0; c < cols; ++c) {
      sr[c] += g[c] * g[c];
      wr[c] -= lr * g[c] / (std::sqrt(sr[c]) + eps);
    }
  }
  return ByteBuffer();
}

}  // namespace

void RegisterBuiltinPsFuncs() {
  static bool registered = [] {
    auto& reg = PsFuncRegistry::Global();
    reg.Register("pagerank.advance", PageRankAdvance);
    reg.Register("sumsq", SumSq);
    reg.Register("init.randn", InitRandn);
    reg.Register("init.fill", InitFill);
    reg.Register("rows.count", RowsCount);
    reg.Register("dot.partial", DotPartial);
    reg.Register("line.adjust", LineAdjust);
    reg.Register("adam.apply", AdamApply);
    reg.Register("adagrad.apply", AdagradApply);
    return true;
  }();
  (void)registered;
}

}  // namespace psgraph::ps
