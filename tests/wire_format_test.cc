// Tests for the varint/delta wire framing (common/varint.h,
// common/wire.h): LEB128 boundaries, fail-loud truncated/overlong
// decoding, delta-list round trips for sorted/unsorted/duplicate key
// lists, float blocks, and every strict prefix of real ps.pull_nbrs
// responses and key lists failing with the byte decoder's status.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_buffer.h"
#include "common/random.h"
#include "common/varint.h"
#include "common/wire.h"
#include "graph/types.h"
#include "net/ps_wire.h"
#include "net/rpc.h"
#include "ps/agent.h"
#include "ps/context.h"
#include "ps/server.h"
#include "sim/cluster.h"
#include "storage/hdfs.h"

namespace psgraph {
namespace {

uint64_t RoundTripVarint(uint64_t v, size_t* encoded_bytes = nullptr) {
  ByteBuffer buf;
  PutVarint64(&buf, v);
  if (encoded_bytes != nullptr) *encoded_bytes = buf.size();
  EXPECT_EQ(buf.size(), Varint64Size(v));
  ByteReader reader(buf);
  uint64_t out = 0;
  EXPECT_TRUE(GetVarint64(&reader, &out).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  return out;
}

TEST(VarintTest, BoundaryValuesRoundTrip) {
  // The LEB128 length steps at every 7-bit boundary.
  struct Case {
    uint64_t value;
    size_t bytes;
  };
  const Case cases[] = {
      {0, 1},
      {1, 1},
      {127, 1},
      {128, 2},
      {16383, 2},
      {16384, 3},
      {(1ull << 35) - 1, 5},
      {1ull << 35, 6},
      {(1ull << 63), 10},
      {std::numeric_limits<uint64_t>::max(), 10},
  };
  for (const Case& c : cases) {
    size_t bytes = 0;
    EXPECT_EQ(RoundTripVarint(c.value, &bytes), c.value);
    EXPECT_EQ(bytes, c.bytes) << "value " << c.value;
  }
}

TEST(VarintTest, ExhaustiveSmallAndRandomLargeRoundTrip) {
  for (uint64_t v = 0; v < 4096; ++v) {
    EXPECT_EQ(RoundTripVarint(v), v);
  }
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextU64();
    EXPECT_EQ(RoundTripVarint(v), v);
  }
}

TEST(VarintTest, TruncatedInputNamesOffset) {
  ByteBuffer buf;
  buf.Write<uint8_t>(0x42);          // one complete varint at offset 0
  PutVarint64(&buf, 5000000000ull);  // multi-byte varint at offset 1
  // Drop the final byte: the second varint is now truncated.
  ByteReader reader(buf.data().data(), buf.size() - 1);
  uint64_t out = 0;
  ASSERT_TRUE(GetVarint64(&reader, &out).ok());
  Status st = GetVarint64(&reader, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kOutOfRange) << st.ToString();
  EXPECT_NE(st.ToString().find("offset 1"), std::string::npos)
      << st.ToString();
}

TEST(VarintTest, OverlongAndOverflowingEncodingsRejected) {
  {
    // Eleven continuation bytes: no terminator within the legal window.
    ByteBuffer buf;
    for (int i = 0; i < 11; ++i) buf.Write<uint8_t>(0x80);
    ByteReader reader(buf);
    uint64_t out = 0;
    Status st = GetVarint64(&reader, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument) << st.ToString();
  }
  {
    // Ten bytes whose last contributes more than the single bit a
    // uint64_t has room for: value would overflow.
    ByteBuffer buf;
    for (int i = 0; i < 9; ++i) buf.Write<uint8_t>(0xff);
    buf.Write<uint8_t>(0x02);
    ByteReader reader(buf);
    uint64_t out = 0;
    Status st = GetVarint64(&reader, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.ToString().find("overflow"), std::string::npos);
  }
}

TEST(VarintTest, ZigZagIsBijectiveOnExtremes) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
  // Small magnitudes map to small codes (the compression property).
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
}

std::vector<uint64_t> RoundTripDeltaList(const std::vector<uint64_t>& in) {
  ByteBuffer buf;
  PutDeltaList(&buf, in);
  EXPECT_EQ(buf.size(), DeltaListSize(in.data(), in.size()));
  ByteReader reader(buf);
  std::vector<uint64_t> out;
  EXPECT_TRUE(GetDeltaList(&reader, &out).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  return out;
}

TEST(DeltaListTest, SortedUnsortedDuplicateAndEmptyListsRoundTrip) {
  const std::vector<std::vector<uint64_t>> cases = {
      {},
      {0},
      {42},
      {1, 2, 3, 100, 101, 1000000},
      // Unsorted: deltas go negative and must zigzag round-trip.
      {100, 1, 50, 0, std::numeric_limits<uint64_t>::max(), 7},
      // Duplicates: zero deltas.
      {5, 5, 5, 9, 9, 5},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(RoundTripDeltaList(c), c);
  }
  Rng rng(9);
  std::vector<uint64_t> random(5000);
  for (auto& v : random) v = rng.NextU64();
  EXPECT_EQ(RoundTripDeltaList(random), random);
}

TEST(DeltaListTest, SortedKeysCompressWellBelowFixedWidth) {
  // The PS batch common case: 4096 sorted keys from a 2^20 space fit
  // in ~2 bytes each vs 8 fixed — the whole point of the format.
  Rng rng(11);
  std::vector<uint64_t> keys(4096);
  for (auto& k : keys) k = rng.NextBounded(1ull << 20);
  std::sort(keys.begin(), keys.end());
  const size_t encoded = DeltaListSize(keys.data(), keys.size());
  EXPECT_LT(encoded, keys.size() * sizeof(uint64_t) / 2);
}

TEST(DeltaListTest, CorruptCountRejectedBeforeAllocation) {
  // A huge count with a tiny payload is corruption; the decoder must
  // reject it instead of reserving terabytes.
  ByteBuffer buf;
  PutVarint64(&buf, 1ull << 60);
  buf.Write<uint8_t>(0x01);
  ByteReader reader(buf);
  std::vector<uint64_t> out;
  Status st = GetDeltaList(&reader, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.code() == StatusCode::kOutOfRange) << st.ToString();
  EXPECT_NE(st.ToString().find("exceeds remaining"), std::string::npos);
}

TEST(DeltaListTest, TruncatedPayloadFailsLoud) {
  std::vector<uint64_t> keys = {10, 20, 30, 40};
  ByteBuffer buf;
  PutDeltaList(&buf, keys);
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    ByteReader reader(buf.data().data(), buf.size() - cut);
    std::vector<uint64_t> out;
    EXPECT_FALSE(GetDeltaList(&reader, &out).ok())
        << "cut " << cut << " bytes and still decoded";
  }
}

TEST(FloatBlockTest, RoundTripAndAppendSemantics) {
  std::vector<float> values = {0.0f, -1.5f, 3.25f, 1e-30f, -1e30f};
  ByteBuffer buf;
  WriteFloatBlock(&buf, values);
  ByteReader reader(buf);
  std::vector<float> out = {99.0f};  // decoder appends, never clobbers
  ASSERT_TRUE(ReadFloatBlock(&reader, &out).ok());
  ASSERT_EQ(out.size(), values.size() + 1);
  EXPECT_EQ(out[0], 99.0f);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(out[i + 1], values[i]);
  }
}

TEST(FloatBlockTest, CorruptCountAndTruncationRejected) {
  {
    ByteBuffer buf;
    PutVarint64(&buf, 1ull << 40);  // count no buffer could hold
    buf.Write<float>(1.0f);
    ByteReader reader(buf);
    std::vector<float> out;
    Status st = ReadFloatBlock(&reader, &out);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kOutOfRange) << st.ToString();
  }
  {
    std::vector<float> values(16, 2.0f);
    ByteBuffer buf;
    WriteFloatBlock(&buf, values);
    ByteReader reader(buf.data().data(), buf.size() - 3);
    std::vector<float> out;
    EXPECT_FALSE(ReadFloatBlock(&reader, &out).ok());
  }
}

TEST(WireFormatTest, MixedFramesDecodeInSequence) {
  // A pull-style payload: [delta keys][float block][delta keys] — each
  // frame must leave the reader exactly at the next frame's start.
  std::vector<uint64_t> keys = {3, 1, 4, 1, 5};
  std::vector<float> vals = {1.0f, 2.0f};
  std::vector<uint64_t> nbrs = {900, 901, 902};
  ByteBuffer buf;
  PutDeltaList(&buf, keys);
  WriteFloatBlock(&buf, vals);
  PutDeltaList(&buf, nbrs);
  ByteReader reader(buf);
  std::vector<uint64_t> keys_out, nbrs_out;
  std::vector<float> vals_out;
  ASSERT_TRUE(GetDeltaList(&reader, &keys_out).ok());
  ASSERT_TRUE(ReadFloatBlock(&reader, &vals_out).ok());
  ASSERT_TRUE(GetDeltaList(&reader, &nbrs_out).ok());
  EXPECT_EQ(reader.remaining(), 0u);
  EXPECT_EQ(keys_out, keys);
  EXPECT_EQ(vals_out, vals);
  EXPECT_EQ(nbrs_out, nbrs);
}

// --- Strict prefixes of real payloads -------------------------------
//
// The decoders as they read before the one-pass rewrite, one byte per
// ByteReader call: the oracle for the status every cut must produce.

Status RefVarint(ByteReader* reader, uint64_t* out) {
  const size_t start = reader->position();
  uint64_t value = 0;
  for (size_t i = 0; i < kMaxVarint64Bytes; ++i) {
    uint8_t byte = 0;
    if (!reader->Read(&byte).ok()) {
      return Status::OutOfRange("varint: truncated at offset " +
                                std::to_string(start));
    }
    if (i == kMaxVarint64Bytes - 1 && byte > 0x01) {
      return Status::InvalidArgument("varint: overflow at offset " +
                                     std::to_string(start));
    }
    value |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      *out = value;
      return Status::OK();
    }
  }
  return Status::InvalidArgument("varint: overlong encoding at offset " +
                                 std::to_string(start));
}

Status RefDeltaList(ByteReader* reader, std::vector<uint64_t>* out) {
  const size_t start = reader->position();
  uint64_t count = 0;
  PSG_RETURN_NOT_OK(RefVarint(reader, &count));
  if (count > reader->remaining()) {
    return Status::OutOfRange(
        "delta list: count " + std::to_string(count) + " at offset " +
        std::to_string(start) + " exceeds remaining " +
        std::to_string(reader->remaining()) + " bytes");
  }
  uint64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t raw = 0;
    PSG_RETURN_NOT_OK(RefVarint(reader, &raw));
    prev = (i == 0) ? raw : prev + static_cast<uint64_t>(ZigZagDecode(raw));
    out->push_back(prev);
  }
  return Status::OK();
}

Status RefFloatBlock(ByteReader* reader, std::vector<float>* out) {
  const size_t start = reader->position();
  uint64_t n = 0;
  PSG_RETURN_NOT_OK(RefVarint(reader, &n));
  if (n > reader->remaining() / sizeof(float)) {
    return Status::OutOfRange(
        "float block: count " + std::to_string(n) + " at offset " +
        std::to_string(start) + " exceeds remaining " +
        std::to_string(reader->remaining()) + " bytes");
  }
  const size_t base = out->size();
  out->resize(base + n);
  return reader->ReadRaw(out->data() + base, n * sizeof(float));
}

/// The byte decoder's reading of a ps.pull_nbrs response for `num_keys`.
Status RefPullResponse(const std::vector<uint8_t>& bytes, size_t num_keys) {
  ByteReader reader(bytes);
  std::vector<uint64_t> ids;
  std::vector<float> weights;
  for (size_t k = 0; k < num_keys; ++k) {
    PSG_RETURN_NOT_OK(RefDeltaList(&reader, &ids));
    PSG_RETURN_NOT_OK(RefFloatBlock(&reader, &weights));
  }
  return Status::OK();
}

/// The N of the "offset N" a decode error names (npos if none).
size_t NamedOffset(const Status& st) {
  const std::string msg = st.ToString();
  const size_t at = msg.find("offset ");
  if (at == std::string::npos) return std::string::npos;
  return std::stoull(msg.substr(at + 7));
}

/// A one-server PS holding a neighbor table whose lists mix small and
/// multi-byte ids, unsorted runs, an empty list and one weighted list.
class PullResponseTest : public ::testing::Test {
 protected:
  PullResponseTest() {
    sim::ClusterConfig cfg;
    cfg.num_executors = 1;
    cfg.num_servers = 1;
    cluster_ = std::make_unique<sim::SimCluster>(cfg);
    hdfs_ = std::make_unique<storage::Hdfs>(cluster_.get());
    fabric_ = std::make_unique<net::RpcFabric>(cluster_.get());
    ctx_ = std::make_unique<ps::PsContext>(cluster_.get(), fabric_.get(),
                                           hdfs_.get());
    PSG_CHECK_OK(ctx_->Start());
    agent_ = std::make_unique<ps::PsAgent>(ctx_.get(),
                                           cluster_->config().executor(0));
    auto meta = ctx_->CreateMatrix("nbrs", 0, 0, ps::StorageKind::kNeighbors,
                                   ps::Layout::kRowPartitioned,
                                   ps::PartitionScheme::kHash);
    PSG_CHECK_OK(meta.status());
    meta_ = *meta;
    std::vector<graph::NeighborList> tables = {
        {3, {4, 1, 900000, 5}, {}},
        {8, {}, {}},
        {20, {70000, 70001, 2}, {0.5f, -1.25f, 3.0f}},
        {1ull << 40, {1ull << 41, 7}, {}},
    };
    PSG_CHECK_OK(agent_->PushNeighbors(meta_, tables));
  }

  /// The server's response bytes for `keys`, as the handler returns them.
  std::vector<uint8_t> Pull() {
    ByteBuffer req;
    net::EncodeKeysRequest(meta_.id, keys_, &req);
    auto resp = fabric_->Call(cluster_->config().executor(0),
                              ctx_->ServerNode(0), "ps.pull_nbrs", req);
    PSG_CHECK_OK(resp.status());
    return *resp;
  }

  /// Block positions of every key, in request order.
  std::vector<uint32_t> AllKeys() const {
    std::vector<uint32_t> index(keys_.size());
    for (uint32_t i = 0; i < index.size(); ++i) index[i] = i;
    return index;
  }

  /// Decodes every strict prefix of `resp` with the block decoder and
  /// checks each against the byte decoder: same code, same message, and
  /// the named offset lies inside the prefix.
  void CheckEveryPrefix(const std::vector<uint8_t>& resp) {
    const std::vector<uint32_t> index = AllKeys();
    ps::NeighborBlock whole(keys_.size());
    ASSERT_TRUE(whole.DecodeResponse(resp, index).ok());
    ASSERT_TRUE(RefPullResponse(resp, keys_.size()).ok());
    for (size_t len = 0; len < resp.size(); ++len) {
      const std::vector<uint8_t> prefix(resp.begin(), resp.begin() + len);
      ps::NeighborBlock block(keys_.size());
      const Status got = block.DecodeResponse(prefix, index);
      const Status want = RefPullResponse(prefix, keys_.size());
      ASSERT_FALSE(got.ok()) << "prefix " << len << " decoded";
      EXPECT_TRUE(got.code() == want.code())
          << "prefix " << len << ": " << got.ToString() << " vs "
          << want.ToString();
      EXPECT_EQ(got.ToString(), want.ToString()) << "prefix " << len;
      EXPECT_LE(NamedOffset(got), len) << got.ToString();
    }
  }

  std::unique_ptr<sim::SimCluster> cluster_;
  std::unique_ptr<storage::Hdfs> hdfs_;
  std::unique_ptr<net::RpcFabric> fabric_;
  std::unique_ptr<ps::PsContext> ctx_;
  std::unique_ptr<ps::PsAgent> agent_;
  ps::MatrixMeta meta_;
  // Sorted like the agent's per-server batch; 99 is unknown.
  std::vector<uint64_t> keys_ = {3, 8, 20, 99, 1ull << 40};
};

TEST_F(PullResponseTest, EveryStrictPrefixFailsLikeTheByteDecoder) {
  const std::vector<uint8_t> mutable_resp = Pull();
  CheckEveryPrefix(mutable_resp);
  ASSERT_TRUE(agent_->FreezeNeighbors(meta_).ok());
  const std::vector<uint8_t> frozen_resp = Pull();
  // The frozen image pads the unweighted lists with unit weights.
  EXPECT_GT(frozen_resp.size(), mutable_resp.size());
  CheckEveryPrefix(frozen_resp);

  // A real key list, as the agent encodes a per-server batch.
  ByteBuffer key_list;
  PutDeltaList(&key_list, keys_);
  const std::vector<uint8_t>& bytes = key_list.data();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader got_reader(bytes.data(), len);
    ByteReader want_reader(bytes.data(), len);
    std::vector<uint64_t> got_keys, want_keys;
    const Status got = GetDeltaList(&got_reader, &got_keys);
    const Status want = RefDeltaList(&want_reader, &want_keys);
    ASSERT_FALSE(got.ok()) << "prefix " << len << " decoded";
    EXPECT_EQ(got.ToString(), want.ToString()) << "prefix " << len;
    EXPECT_LE(NamedOffset(got), len) << got.ToString();
  }
}

TEST_F(PullResponseTest, InflatedPerKeyCountRejectedBeforeAllocation) {
  const std::vector<uint8_t> resp = Pull();
  // Walk to key 2's frames: [delta list][float block] per key.
  ByteReader reader(resp);
  std::vector<uint64_t> ids;
  std::vector<float> weights;
  for (int k = 0; k < 2; ++k) {
    ASSERT_TRUE(RefDeltaList(&reader, &ids).ok());
    ASSERT_TRUE(RefFloatBlock(&reader, &weights).ok());
  }
  const size_t list_at = reader.position();
  ASSERT_TRUE(RefDeltaList(&reader, &ids).ok());
  const size_t block_at = reader.position();
  // Key 2's counts (3 ids, 3 weights) are one-byte varints.
  ASSERT_EQ(resp[list_at], 3);
  ASSERT_EQ(resp[block_at], 3);

  // Replaces the one-byte count at `at` with 2^40: that many ids (or
  // floats) would be terabytes, so the count check has to come before
  // anything is sized from it.
  auto inflate = [&](size_t at) {
    ByteBuffer buf;
    buf.WriteRaw(resp.data(), at);
    PutVarint64(&buf, 1ull << 40);
    buf.WriteRaw(resp.data() + at + 1, resp.size() - at - 1);
    return buf.data();
  };
  const std::vector<uint32_t> index = AllKeys();
  for (const auto& [at, what] : {std::pair{list_at, "delta list"},
                                 std::pair{block_at, "float block"}}) {
    const std::vector<uint8_t> bad = inflate(at);
    ps::NeighborBlock block(keys_.size());
    const Status st = block.DecodeResponse(bad, index);
    ASSERT_FALSE(st.ok());
    EXPECT_TRUE(st.code() == StatusCode::kOutOfRange) << st.ToString();
    EXPECT_NE(st.ToString().find(std::string(what) + ": count 1099511627776"
                                 " at offset " + std::to_string(at)),
              std::string::npos)
        << st.ToString();
    EXPECT_EQ(st.ToString(), RefPullResponse(bad, keys_.size()).ToString());
  }
}

// --- Garbage input for every "ps.*" request codec (net/ps_wire.h) -----

/// One decode of possibly corrupt bytes: its Status and the largest
/// element count of any vector it filled.
struct Decoded {
  Status status;
  size_t max_elements = 0;
};

/// Feeds `decode` (the function a ps.* handler calls) `encoded`, which
/// must decode, then every strict prefix and every single-bit flip of
/// it, each in an exactly sized buffer so an overread trips the
/// sanitizers. Every input must come back with a Status and no decoded
/// vector may hold more elements than the input has bytes. A strict
/// prefix shorter than `shortest_valid` must fail; longer ones may pass
/// (a psFunc's arguments are opaque to the codec).
void FeedGarbage(
    const std::vector<uint8_t>& encoded,
    const std::function<Decoded(std::span<const uint8_t>)>& decode,
    size_t shortest_valid) {
  ASSERT_TRUE(decode(encoded).status.ok());
  for (size_t len = 0; len < encoded.size(); ++len) {
    const std::vector<uint8_t> prefix(encoded.begin(), encoded.begin() + len);
    const Decoded got = decode(prefix);
    if (len < shortest_valid) {
      EXPECT_FALSE(got.status.ok()) << "prefix " << len << " decoded";
    }
    EXPECT_LE(got.max_elements, len) << "prefix " << len;
  }
  for (size_t bit = 0; bit < encoded.size() * 8; ++bit) {
    std::vector<uint8_t> flipped = encoded;
    flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const Decoded got = decode(flipped);
    EXPECT_LE(got.max_elements, flipped.size()) << "bit " << bit;
  }
}

TEST(PsRequestCodecTest, MatrixRequestSurvivesGarbage) {
  ByteBuffer buf;
  net::EncodeMatrixRequest(-7, &buf);
  int32_t matrix = 0;
  ASSERT_TRUE(net::DecodeMatrixRequest(buf.data(), &matrix).ok());
  EXPECT_EQ(matrix, -7);
  FeedGarbage(
      buf.data(),
      [&](std::span<const uint8_t> in) {
        return Decoded{net::DecodeMatrixRequest(in, &matrix)};
      },
      buf.size());
}

TEST(PsRequestCodecTest, KeysRequestSurvivesGarbage) {
  const std::vector<uint64_t> keys = {3, 70000, 1ull << 40, 5};
  ByteBuffer buf;
  net::EncodeKeysRequest(4, keys, &buf);
  net::KeysRequest req;
  ASSERT_TRUE(net::DecodeKeysRequest(buf.data(), &req).ok());
  EXPECT_EQ(req.matrix, 4);
  EXPECT_EQ(req.keys, keys);
  FeedGarbage(
      buf.data(),
      [&](std::span<const uint8_t> in) {
        return Decoded{net::DecodeKeysRequest(in, &req), req.keys.size()};
      },
      buf.size());
}

TEST(PsRequestCodecTest, RowsRequestSurvivesGarbage) {
  const std::vector<uint64_t> keys = {1, 2, 900};
  const std::vector<float> values = {0.5f, -1.0f, 2.0f, 3.5f, 1e9f, -0.0f};
  ByteBuffer buf;
  net::EncodeRowsRequest(2, keys, values, &buf);
  net::RowsRequest req;
  ASSERT_TRUE(net::DecodeRowsRequest(buf.data(), &req).ok());
  EXPECT_EQ(req.matrix, 2);
  EXPECT_EQ(req.keys, keys);
  EXPECT_EQ(req.values, values);
  FeedGarbage(
      buf.data(),
      [&](std::span<const uint8_t> in) {
        return Decoded{net::DecodeRowsRequest(in, &req),
                       std::max<size_t>({req.keys.size(), req.values.size()})};
      },
      buf.size());
}

TEST(PsRequestCodecTest, NeighborsRequestSurvivesGarbage) {
  const std::vector<graph::NeighborList> tables = {
      {3, {4, 1, 900000}, {}},
      {8, {}, {}},
      {20, {70000, 70001, 2}, {0.5f, -1.25f, 3.0f}},
  };
  const std::vector<uint32_t> index = {2, 0, 1};
  ByteBuffer buf;
  net::EncodeNeighborsRequest(9, tables, index, &buf);
  net::NeighborsRequest<ps::NeighborEntry> req;
  ASSERT_TRUE(net::DecodeNeighborsRequest(buf.data(), &req).ok());
  EXPECT_EQ(req.matrix, 9);
  EXPECT_EQ(req.keys, (std::vector<uint64_t>{20, 3, 8}));
  ASSERT_EQ(req.entries.size(), 3u);
  for (size_t i = 0; i < index.size(); ++i) {
    EXPECT_EQ(req.entries[i].neighbors, tables[index[i]].neighbors);
    EXPECT_EQ(req.entries[i].weights, tables[index[i]].weights);
  }
  FeedGarbage(
      buf.data(),
      [&](std::span<const uint8_t> in) {
        Decoded got{net::DecodeNeighborsRequest(in, &req),
                    std::max<size_t>({req.keys.size(), req.entries.size()})};
        for (const ps::NeighborEntry& e : req.entries) {
          got.max_elements = std::max<size_t>(
              {got.max_elements, e.neighbors.size(), e.weights.size()});
        }
        return got;
      },
      buf.size());
}

TEST(PsRequestCodecTest, MutateRequestSurvivesGarbage) {
  net::MutateRequest want;
  want.matrix = 5;
  want.insert_src = {1, 1, 40};
  want.insert_dst = {9, 2, 700000};
  want.insert_weights = {0.25f, 1.0f, -2.0f};
  want.delete_src = {3, 8, 8};
  want.delete_dst = {1ull << 33, 4, 0};
  ByteBuffer buf;
  net::EncodeMutateRequest(want, &buf);
  net::MutateRequest req;
  ASSERT_TRUE(net::DecodeMutateRequest(buf.data(), &req).ok());
  EXPECT_EQ(req.matrix, want.matrix);
  EXPECT_EQ(req.insert_src, want.insert_src);
  EXPECT_EQ(req.insert_dst, want.insert_dst);
  EXPECT_EQ(req.insert_weights, want.insert_weights);
  EXPECT_EQ(req.delete_src, want.delete_src);
  EXPECT_EQ(req.delete_dst, want.delete_dst);
  FeedGarbage(
      buf.data(),
      [&](std::span<const uint8_t> in) {
        return Decoded{net::DecodeMutateRequest(in, &req),
                       std::max<size_t>({req.insert_src.size(),
                                         req.insert_dst.size(),
                                         req.insert_weights.size(),
                                         req.delete_src.size(),
                                         req.delete_dst.size()})};
      },
      buf.size());
}

TEST(PsRequestCodecTest, FuncRequestSurvivesGarbage) {
  ByteBuffer args;
  args.Write<int32_t>(1);
  args.Write<float>(0.85f);
  PutDeltaList(&args, std::vector<uint64_t>{4, 9, 12});
  const std::string name = "pagerank.advance";
  ByteBuffer buf;
  net::EncodeFuncRequest(name, args.data(), &buf);
  net::FuncRequest req;
  ASSERT_TRUE(net::DecodeFuncRequest(buf.data(), &req).ok());
  EXPECT_EQ(req.name, name);
  EXPECT_EQ(std::vector<uint8_t>(req.args.begin(), req.args.end()),
            args.data());
  // [u64 length][name]; any prefix past the name is a shorter argument
  // payload, which only the psFunc itself can reject.
  FeedGarbage(
      buf.data(),
      [&](std::span<const uint8_t> in) {
        return Decoded{net::DecodeFuncRequest(in, &req),
                       std::max<size_t>({req.name.size(), req.args.size()})};
      },
      8 + name.size());
}

}  // namespace
}  // namespace psgraph
