// RPC handler glue: decodes "ps.*" wire messages into PsServer calls.
//
// Hot-path framing (wire format v2): key batches are delta-encoded
// varint lists (common/varint.h) and value blocks are varint-counted
// raw fp32 (common/wire.h) — the agent encodes the matching side in
// ps/agent.cc. Decode scratch lives in the server's per-request arena,
// reset at the top of each handler; handlers run under the endpoint's
// serial mutex, so the arena never sees two requests at once.

#include "ps/server.h"

#include "common/varint.h"
#include "common/wire.h"
#include "net/ps_wire.h"

namespace psgraph::ps {

namespace {

Result<ByteBuffer> Empty() { return ByteBuffer(); }

}  // namespace

void PsServer::RegisterHandlers(net::RpcEndpoint* endpoint) {
  endpoint->Register(
      "ps.init", [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        MatrixMeta meta;
        PSG_RETURN_NOT_OK(DeserializeMeta(reader, &meta));
        PSG_RETURN_NOT_OK(InitMatrix(meta));
        return Empty();
      });

  endpoint->Register(
      "ps.drop", [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        PSG_RETURN_NOT_OK(reader.Read(&id));
        PSG_RETURN_NOT_OK(DropMatrix(id));
        return Empty();
      });

  endpoint->Register(
      "ps.pull", [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        request_arena_.Reset();
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        auto keys = MakeArenaVector<uint64_t>(&request_arena_);
        PSG_RETURN_NOT_OK(reader.Read(&id));
        PSG_RETURN_NOT_OK(GetDeltaList(&reader, &keys));
        pull_scratch_.clear();
        PSG_RETURN_NOT_OK(
            PullRows(id, {keys.data(), keys.size()}, &pull_scratch_));
        ByteBuffer resp;
        resp.Reserve(pull_scratch_.size() * sizeof(float) +
                     kMaxVarint64Bytes);
        WriteFloatBlock(&resp, pull_scratch_);
        return resp;
      });

  auto push_handler = [this](const std::vector<uint8_t>& req,
                             bool add) -> Result<ByteBuffer> {
    request_arena_.Reset();
    ByteReader reader(req.data(), req.size());
    MatrixId id = -1;
    auto keys = MakeArenaVector<uint64_t>(&request_arena_);
    auto values = MakeArenaVector<float>(&request_arena_);
    PSG_RETURN_NOT_OK(reader.Read(&id));
    PSG_RETURN_NOT_OK(GetDeltaList(&reader, &keys));
    PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &values));
    std::span<const uint64_t> key_span{keys.data(), keys.size()};
    std::span<const float> value_span{values.data(), values.size()};
    if (add) {
      PSG_RETURN_NOT_OK(PushAdd(id, key_span, value_span));
    } else {
      PSG_RETURN_NOT_OK(PushAssign(id, key_span, value_span));
    }
    return Empty();
  };
  endpoint->Register("ps.push_add",
                     [push_handler](const std::vector<uint8_t>& req) {
                       return push_handler(req, true);
                     });
  endpoint->Register("ps.push_assign",
                     [push_handler](const std::vector<uint8_t>& req) {
                       return push_handler(req, false);
                     });

  endpoint->Register(
      "ps.merge",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        request_arena_.Reset();
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        auto keys = MakeArenaVector<uint64_t>(&request_arena_);
        auto deltas = MakeArenaVector<float>(&request_arena_);
        PSG_RETURN_NOT_OK(
            net::DecodeMergeRequest(&reader, &id, &keys, &deltas));
        PSG_RETURN_NOT_OK(MergeRows(id, {keys.data(), keys.size()},
                                    {deltas.data(), deltas.size()}));
        return Empty();
      });

  endpoint->Register(
      "ps.push_nbrs",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        request_arena_.Reset();
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        auto keys = MakeArenaVector<uint64_t>(&request_arena_);
        PSG_RETURN_NOT_OK(reader.Read(&id));
        PSG_RETURN_NOT_OK(GetDeltaList(&reader, &keys));
        std::vector<NeighborEntry> entries(keys.size());
        for (auto& entry : entries) {
          PSG_RETURN_NOT_OK(GetDeltaList(&reader, &entry.neighbors));
          PSG_RETURN_NOT_OK(ReadFloatBlock(&reader, &entry.weights));
        }
        PSG_RETURN_NOT_OK(
            PushNeighbors(id, {keys.data(), keys.size()}, entries));
        return Empty();
      });

  endpoint->Register(
      "ps.mutate",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        request_arena_.Reset();
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        auto ins_src = MakeArenaVector<uint64_t>(&request_arena_);
        auto ins_dst = MakeArenaVector<uint64_t>(&request_arena_);
        auto ins_w = MakeArenaVector<float>(&request_arena_);
        auto del_src = MakeArenaVector<uint64_t>(&request_arena_);
        auto del_dst = MakeArenaVector<uint64_t>(&request_arena_);
        PSG_RETURN_NOT_OK(net::DecodeMutateRequest(
            &reader, &id, &ins_src, &ins_dst, &ins_w, &del_src, &del_dst));
        PSG_RETURN_NOT_OK(MutateNeighbors(
            id, {ins_src.data(), ins_src.size()},
            {ins_dst.data(), ins_dst.size()}, {ins_w.data(), ins_w.size()},
            {del_src.data(), del_src.size()},
            {del_dst.data(), del_dst.size()}));
        return Empty();
      });

  endpoint->Register(
      "ps.freeze_nbrs",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        PSG_RETURN_NOT_OK(reader.Read(&id));
        PSG_RETURN_NOT_OK(FreezeNeighbors(id));
        return Empty();
      });

  endpoint->Register(
      "ps.pull_nbrs",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        request_arena_.Reset();
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        auto keys = MakeArenaVector<uint64_t>(&request_arena_);
        PSG_RETURN_NOT_OK(reader.Read(&id));
        PSG_RETURN_NOT_OK(GetDeltaList(&reader, &keys));
        ByteBuffer resp;
        PSG_RETURN_NOT_OK(
            PullNeighbors(id, {keys.data(), keys.size()}, &resp));
        return resp;
      });

  endpoint->Register(
      "ps.func", [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        std::string name;
        PSG_RETURN_NOT_OK(reader.ReadString(&name));
        std::vector<uint8_t> args(req.begin() + reader.position(),
                                  req.end());
        return CallFunc(name, args);
      });

  endpoint->Register(
      "ps.checkpoint",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        std::string prefix;
        PSG_RETURN_NOT_OK(reader.ReadString(&prefix));
        PSG_RETURN_NOT_OK(Checkpoint(prefix));
        return Empty();
      });

  endpoint->Register(
      "ps.export",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        MatrixId id = -1;
        PSG_RETURN_NOT_OK(reader.Read(&id));
        ByteBuffer resp;
        PSG_RETURN_NOT_OK(ExportMatrix(id, &resp));
        return resp;
      });

  endpoint->Register(
      "ps.restore",
      [this](const std::vector<uint8_t>& req) -> Result<ByteBuffer> {
        ByteReader reader(req.data(), req.size());
        std::string prefix;
        PSG_RETURN_NOT_OK(reader.ReadString(&prefix));
        PSG_RETURN_NOT_OK(Restore(prefix));
        return Empty();
      });
}

}  // namespace psgraph::ps
