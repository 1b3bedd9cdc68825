// RPC handler glue: each "ps.*" handler decodes its request with the
// shape's codec in net/ps_wire.h, into this server's reused request
// struct, then calls the matching PsServer method. Handlers run under
// the endpoint's serial mutex, so a request struct never holds two
// requests at once. A psFunc call decodes into a local struct instead:
// its args are a view of the request bytes, which must not outlive the
// handler.

#include "ps/server.h"

#include "common/varint.h"
#include "common/wire.h"
#include "net/ps_wire.h"

namespace psgraph::ps {

void PsServer::RegisterHandlers(net::RpcEndpoint* endpoint) {
  using Request = const std::vector<uint8_t>&;

  endpoint->Register("ps.pull", [this](Request req) -> Result<ByteBuffer> {
    PSG_RETURN_NOT_OK(net::DecodeKeysRequest(req, &keys_request_));
    pull_scratch_.clear();
    PSG_RETURN_NOT_OK(
        PullRows(keys_request_.matrix, keys_request_.keys, &pull_scratch_));
    ByteBuffer resp;
    resp.Reserve(pull_scratch_.size() * sizeof(float) + kMaxVarint64Bytes);
    WriteFloatBlock(&resp, pull_scratch_);
    return resp;
  });

  auto push = [this](Request req, bool add) -> Result<ByteBuffer> {
    PSG_RETURN_NOT_OK(net::DecodeRowsRequest(req, &rows_request_));
    const net::RowsRequest& r = rows_request_;
    PSG_RETURN_NOT_OK(add ? PushAdd(r.matrix, r.keys, r.values)
                          : PushAssign(r.matrix, r.keys, r.values));
    return ByteBuffer();
  };
  endpoint->Register("ps.push_add",
                     [push](Request req) { return push(req, true); });
  endpoint->Register("ps.push_assign",
                     [push](Request req) { return push(req, false); });

  endpoint->Register("ps.merge", [this](Request req) -> Result<ByteBuffer> {
    PSG_RETURN_NOT_OK(net::DecodeRowsRequest(req, &rows_request_));
    const net::RowsRequest& r = rows_request_;
    PSG_RETURN_NOT_OK(MergeRows(r.matrix, r.keys, r.values));
    return ByteBuffer();
  });

  endpoint->Register(
      "ps.push_nbrs", [this](Request req) -> Result<ByteBuffer> {
        PSG_RETURN_NOT_OK(net::DecodeNeighborsRequest(req, &nbrs_request_));
        const auto& r = nbrs_request_;
        PSG_RETURN_NOT_OK(PushNeighbors(r.matrix, r.keys, r.entries));
        return ByteBuffer();
      });

  endpoint->Register("ps.mutate", [this](Request req) -> Result<ByteBuffer> {
    PSG_RETURN_NOT_OK(net::DecodeMutateRequest(req, &mutate_request_));
    const net::MutateRequest& r = mutate_request_;
    PSG_RETURN_NOT_OK(MutateNeighbors(r.matrix, r.insert_src, r.insert_dst,
                                      r.insert_weights, r.delete_src,
                                      r.delete_dst));
    return ByteBuffer();
  });

  endpoint->Register(
      "ps.freeze_nbrs", [this](Request req) -> Result<ByteBuffer> {
        MatrixId id = -1;
        PSG_RETURN_NOT_OK(net::DecodeMatrixRequest(req, &id));
        PSG_RETURN_NOT_OK(FreezeNeighbors(id));
        return ByteBuffer();
      });

  endpoint->Register(
      "ps.pull_nbrs", [this](Request req) -> Result<ByteBuffer> {
        PSG_RETURN_NOT_OK(net::DecodeKeysRequest(req, &keys_request_));
        ByteBuffer resp;
        PSG_RETURN_NOT_OK(
            PullNeighbors(keys_request_.matrix, keys_request_.keys, &resp));
        return resp;
      });

  endpoint->Register("ps.func", [this](Request req) -> Result<ByteBuffer> {
    net::FuncRequest func;
    PSG_RETURN_NOT_OK(net::DecodeFuncRequest(req, &func));
    return CallFunc(func.name, func.args);
  });

  endpoint->Register("ps.export", [this](Request req) -> Result<ByteBuffer> {
    MatrixId id = -1;
    PSG_RETURN_NOT_OK(net::DecodeMatrixRequest(req, &id));
    ByteBuffer resp;
    PSG_RETURN_NOT_OK(ExportMatrix(id, &resp));
    return resp;
  });
}

}  // namespace psgraph::ps
