// Tests for the common layer: Status/Result, ByteBuffer, Rng, hashing,
// alias sampling, metrics, thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/alias_table.h"
#include "common/byte_buffer.h"
#include "common/flat_hash.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/quant.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace psgraph {
namespace {

TEST(LoggingTest, PrefixNamesFileButNotLine) {
  testing::internal::CaptureStderr();
  PSG_LOG(Info) << "published v" << 3;
  PSG_LOG(Debug) << "below the default level";
  const std::string out = testing::internal::GetCapturedStderr();
  EXPECT_EQ(out, "[INFO  common_test.cc] published v3\n");
}

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::MemoryLimitExceeded("executor 3 over budget");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsMemoryLimitExceeded());
  EXPECT_EQ(s.code(), StatusCode::kMemoryLimitExceeded);
  EXPECT_EQ(s.ToString(),
            "MemoryLimitExceeded: executor 3 over budget");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = [] { return Status::NotFound("x"); };
  auto wrapper = [&]() -> Status {
    PSG_RETURN_NOT_OK(fails());
    return Status::Internal("unreachable");
  };
  EXPECT_TRUE(wrapper().IsNotFound());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::IoError("disk gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto produce = [](bool ok) -> Result<std::string> {
    if (ok) return std::string("value");
    return Status::NotFound("nope");
  };
  auto consume = [&](bool ok) -> Result<size_t> {
    PSG_ASSIGN_OR_RETURN(std::string s, produce(ok));
    return s.size();
  };
  ASSERT_TRUE(consume(true).ok());
  EXPECT_EQ(*consume(true), 5u);
  EXPECT_TRUE(consume(false).status().IsNotFound());
}

TEST(ByteBufferTest, PrimitiveRoundTrip) {
  ByteBuffer buf;
  buf.Write<uint64_t>(123456789ULL);
  buf.Write<float>(3.25f);
  buf.Write<int32_t>(-7);
  ByteReader reader(buf);
  uint64_t a = 0;
  float b = 0;
  int32_t c = 0;
  ASSERT_TRUE(reader.Read(&a).ok());
  ASSERT_TRUE(reader.Read(&b).ok());
  ASSERT_TRUE(reader.Read(&c).ok());
  EXPECT_EQ(a, 123456789ULL);
  EXPECT_EQ(b, 3.25f);
  EXPECT_EQ(c, -7);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(ByteBufferTest, StringAndVectorRoundTrip) {
  ByteBuffer buf;
  buf.WriteString("hello psgraph");
  buf.WriteVector(std::vector<uint64_t>{1, 2, 3});
  buf.WriteVector(std::vector<float>{});
  ByteReader reader(buf);
  std::string s;
  std::vector<uint64_t> v;
  std::vector<float> f;
  ASSERT_TRUE(reader.ReadString(&s).ok());
  ASSERT_TRUE(reader.ReadVector(&v).ok());
  ASSERT_TRUE(reader.ReadVector(&f).ok());
  EXPECT_EQ(s, "hello psgraph");
  EXPECT_EQ(v, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(f.empty());
}

TEST(ByteBufferTest, TruncatedReadsFailCleanly) {
  ByteBuffer buf;
  buf.Write<uint32_t>(5);
  ByteReader reader(buf);
  uint64_t v = 0;
  EXPECT_FALSE(reader.Read(&v).ok());

  // A huge claimed vector length must not crash.
  ByteBuffer evil;
  evil.Write<uint64_t>(UINT64_MAX / 2);
  ByteReader r2(evil);
  std::vector<uint64_t> out;
  EXPECT_FALSE(r2.ReadVector(&out).ok());
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.NextU64();
    EXPECT_EQ(va, b.NextU64());
  }
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0, sumsq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sumsq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sumsq / n, 1.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStreams) {
  Rng base(9);
  Rng f0 = base.Fork(0);
  Rng f1 = base.Fork(1);
  EXPECT_NE(f0.NextU64(), f1.NextU64());
}

TEST(HashTest, Deterministic) {
  EXPECT_EQ(Hash64(12345), Hash64(12345));
  EXPECT_NE(Hash64(12345), Hash64(12346));
  EXPECT_EQ(HashBytes("abc"), HashBytes("abc"));
  EXPECT_NE(HashBytes("abc"), HashBytes("abd"));
}

TEST(AliasTableTest, MatchesDistribution) {
  std::vector<double> weights{1.0, 2.0, 3.0, 4.0};
  AliasTable table(weights);
  Rng rng(3);
  std::vector<int> counts(4, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) counts[table.Sample(rng)]++;
  for (int i = 0; i < 4; ++i) {
    double expect = weights[i] / 10.0;
    EXPECT_NEAR(counts[i] / (double)n, expect, 0.01) << "bucket " << i;
  }
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  AliasTable table({0.0, 1.0, 0.0, 1.0});
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    uint64_t s = table.Sample(rng);
    EXPECT_TRUE(s == 1 || s == 3);
  }
}

TEST(AliasTableTest, EmptyAndDegenerate) {
  AliasTable empty;
  EXPECT_TRUE(empty.empty());
  Rng rng(1);
  EXPECT_EQ(empty.Sample(rng), 0u);
  AliasTable zeros(std::vector<double>{0.0, 0.0});
  EXPECT_TRUE(zeros.empty());
}

TEST(MetricsTest, AddAndSnapshot) {
  Metrics m;
  m.Add("a", 5);
  m.Add("a", 7);
  m.Add("b", 1);
  EXPECT_EQ(m.Get("a"), 12u);
  EXPECT_EQ(m.Get("missing"), 0u);
  auto snap = m.CounterSnapshot();
  EXPECT_EQ(snap.size(), 2u);
  m.Reset();
  EXPECT_EQ(m.Get("a"), 0u);
}

TEST(MetricsTest, GaugesHoldLastSetValue) {
  Metrics m;
  EXPECT_EQ(m.GetGauge("p"), 0.0);
  m.SetGauge("p", 4.0);
  m.SetGauge("p", 8.0);
  EXPECT_EQ(m.GetGauge("p"), 8.0);
  auto snap = m.GaugeSnapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap["p"], 8.0);
  m.Reset();
  EXPECT_EQ(m.GetGauge("p"), 0.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  Histogram h;
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.mean(), 0.0);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
}

TEST(HistogramTest, SingleSampleQuantilesCollapse) {
  Histogram h;
  h.Record(1234);
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_EQ(snap.min, 1234u);
  EXPECT_EQ(snap.max, 1234u);
  // Every quantile of a single sample is that sample (the clamp to
  // [min, max] guarantees it despite bucket interpolation).
  EXPECT_EQ(snap.Quantile(0.0), 1234.0);
  EXPECT_EQ(snap.Quantile(0.5), 1234.0);
  EXPECT_EQ(snap.Quantile(1.0), 1234.0);
}

TEST(HistogramTest, SmallValuesAreExactBuckets) {
  // Values below kSubBuckets get one bucket each.
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) {
    EXPECT_EQ(Histogram::BucketOf(v), v) << v;
    EXPECT_EQ(Histogram::BucketLowerBound(v), v);
    EXPECT_EQ(Histogram::BucketUpperBound(v), v + 1);
  }
}

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  for (uint64_t v : {0ull, 1ull, 7ull, 8ull, 9ull, 100ull, 1000ull,
                     123456789ull, 1ull << 40, (1ull << 63) + 5}) {
    size_t i = Histogram::BucketOf(v);
    ASSERT_LT(i, Histogram::kNumBuckets);
    EXPECT_GE(v, Histogram::BucketLowerBound(i)) << v;
    EXPECT_LT(v, Histogram::BucketUpperBound(i)) << v;
  }
}

TEST(HistogramTest, OverflowBucketCatchesHugeValues) {
  Histogram h;
  h.Record(UINT64_MAX);
  h.Record(UINT64_MAX - 1);
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.max, UINT64_MAX);
  // Quantiles stay clamped to observed range even in the last bucket.
  EXPECT_LE(snap.Quantile(0.99), static_cast<double>(UINT64_MAX));
  EXPECT_GE(snap.Quantile(0.01),
            static_cast<double>(UINT64_MAX - 1));
}

TEST(HistogramTest, QuantilesTrackDistribution) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  auto snap = h.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  // 1/kSubBuckets = 12.5% relative bucket error; allow a bit more.
  EXPECT_NEAR(snap.Quantile(0.5), 500.0, 90.0);
  EXPECT_NEAR(snap.Quantile(0.95), 950.0, 150.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 150.0);
  EXPECT_NEAR(snap.mean(), 500.5, 1e-9);
}

TEST(HistogramTest, ResetZeroesInPlace) {
  Metrics m;
  Histogram& h = m.GetHistogram("x");
  h.Record(42);
  m.Reset();
  // The reference must stay valid and empty after Reset.
  EXPECT_EQ(h.count(), 0u);
  h.Record(7);
  EXPECT_EQ(m.GetHistogram("x").count(), 1u);
}

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  Metrics m;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  ThreadPool pool(kThreads);
  pool.ParallelFor(kThreads, [&](size_t t) {
    for (int i = 0; i < kPerThread; ++i) {
      m.Observe("lat", t * kPerThread + i);
    }
  });
  auto snap = m.GetHistogram("lat").Snapshot();
  EXPECT_EQ(snap.count, uint64_t{kThreads} * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(MetricsTest, HistogramSnapshotsSkipEmpty) {
  Metrics m;
  m.GetHistogram("empty");
  m.Observe("used", 3);
  auto snaps = m.HistogramSnapshots();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps.count("used"), 1u);
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  pool.ParallelFor(100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitReturnsFuture) {
  ThreadPool pool(2);
  auto fut = pool.Submit([] {});
  fut.get();  // must not hang
}

TEST(FlatHashMapTest, InsertFindEraseBasics) {
  FlatHashMap<int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(7), map.end());
  map[7] = 70;
  map[9] = 90;
  EXPECT_EQ(map.size(), 2u);
  EXPECT_TRUE(map.contains(7));
  EXPECT_EQ(map.at(9), 90);
  EXPECT_EQ(map.count(8), 0u);
  auto [it, inserted] = map.try_emplace(7, -1);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, 70);  // try_emplace never overwrites
  EXPECT_EQ(map.erase(7), 1u);
  EXPECT_EQ(map.erase(7), 0u);
  EXPECT_FALSE(map.contains(7));
  EXPECT_EQ(map.size(), 1u);
  EXPECT_THROW(map.at(7), std::out_of_range);
}

TEST(FlatHashMapTest, GrowthKeepsEveryEntry) {
  FlatHashMap<uint64_t> map;
  Rng rng(101);
  std::map<uint64_t, uint64_t> model;
  for (int i = 0; i < 20000; ++i) {
    uint64_t k = rng.NextBounded(1ull << 50);
    map[k] = static_cast<uint64_t>(i);
    model[k] = static_cast<uint64_t>(i);
  }
  ASSERT_EQ(map.size(), model.size());
  // Power-of-two capacity, load below the 7/8 ceiling.
  EXPECT_EQ(map.capacity() & (map.capacity() - 1), 0u);
  EXPECT_GE(map.capacity() - map.capacity() / 8, map.size());
  for (const auto& [k, v] : model) {
    auto it = map.find(k);
    ASSERT_NE(it, map.end()) << "lost key " << k;
    EXPECT_EQ(it->second, v);
  }
}

TEST(FlatHashMapTest, BackwardShiftEraseKeepsChainsReachable) {
  // Heavy interleaved insert/erase traffic: tombstone-free deletion
  // must never strand a live key behind a hole.
  FlatHashMap<int> map;
  std::map<uint64_t, int> model;
  Rng rng(77);
  for (int round = 0; round < 50000; ++round) {
    uint64_t k = rng.NextBounded(512);  // tight space forces collisions
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(map.erase(k), model.erase(k));
    } else {
      map[k] = round;
      model[k] = round;
    }
  }
  ASSERT_EQ(map.size(), model.size());
  for (const auto& [k, v] : model) {
    auto it = map.find(k);
    ASSERT_NE(it, map.end());
    EXPECT_EQ(it->second, v);
  }
}

TEST(FlatHashMapTest, IterationIsSlotOrderDeterministic) {
  // Two maps fed the same operation sequence iterate identically —
  // the byte-identical report contract depends on this.
  auto build = [] {
    FlatHashMap<int> m;
    Rng rng(5);
    for (int i = 0; i < 3000; ++i) {
      m[rng.NextBounded(4096)] = i;
    }
    for (int i = 0; i < 500; ++i) {
      m.erase(rng.NextBounded(4096));
    }
    return m;
  };
  FlatHashMap<int> a = build();
  FlatHashMap<int> b = build();
  ASSERT_EQ(a.size(), b.size());
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    EXPECT_EQ(ia->first, ib->first);
    EXPECT_EQ(ia->second, ib->second);
  }
  EXPECT_EQ(ib, b.end());
}

TEST(FlatHashMapTest, CopyMoveClearReserve) {
  FlatHashMap<std::string> map;
  for (uint64_t k = 0; k < 100; ++k) map[k] = std::to_string(k);
  FlatHashMap<std::string> copy = map;
  EXPECT_EQ(copy.size(), 100u);
  EXPECT_EQ(copy.at(42), "42");
  FlatHashMap<std::string> moved = std::move(map);
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(moved.at(99), "99");
  moved.clear();
  EXPECT_TRUE(moved.empty());
  EXPECT_FALSE(moved.contains(42));
  FlatHashMap<int> reserved;
  reserved.reserve(1000);
  const size_t cap = reserved.capacity();
  EXPECT_GE(cap - cap / 8, 1000u);
  for (uint64_t k = 0; k < 1000; ++k) reserved[k] = 1;
  EXPECT_EQ(reserved.capacity(), cap);  // no rehash under the reserve
}

TEST(QuantTest, Fp16RoundTripBoundsError) {
  // Half precision has 11 significand bits: relative error <= 2^-11
  // for normal values.
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    float f = static_cast<float>(rng.NextDouble() * 8.0 - 4.0);
    float back = Fp16ToFloat(Fp16FromFloat(f));
    EXPECT_LE(std::fabs(back - f), std::fabs(f) * 0x1p-10f + 1e-7f)
        << "f=" << f;
  }
  // Exact values survive exactly.
  for (float f : {0.0f, -0.0f, 1.0f, -1.0f, 0.5f, 2.0f, 65504.0f}) {
    EXPECT_EQ(Fp16ToFloat(Fp16FromFloat(f)), f);
  }
  // Overflow saturates to infinity, subnormals round-trip finitely.
  EXPECT_TRUE(std::isinf(Fp16ToFloat(Fp16FromFloat(1e6f))));
  EXPECT_NEAR(Fp16ToFloat(Fp16FromFloat(1e-7f)), 1e-7f, 6e-8f);
}

TEST(QuantTest, RowRoundTripReportsHonestError) {
  Rng rng(32);
  std::vector<float> row(64);
  // Several rows: int8 decodes each value as the float q * scale, and
  // on many rows that rounding moves some value further from its source
  // than the exact product is; the reported error must include it.
  for (int r = 0; r < 16; ++r) {
    for (float& f : row) {
      f = static_cast<float>(rng.NextGaussian());
    }
    for (QuantMode mode :
         {QuantMode::kNone, QuantMode::kFp16, QuantMode::kInt8}) {
      ByteBuffer buf;
      const double reported =
          QuantizeRowAppend(mode, row.data(), row.size(), &buf);
      EXPECT_EQ(buf.size(), QuantizedRowBytes(mode, row.size()));
      ByteReader reader(buf);
      std::vector<float> back;
      ASSERT_TRUE(
          DequantizeRowAppend(mode, &reader, row.size(), &back).ok());
      ASSERT_EQ(back.size(), row.size());
      double max_err = 0.0;
      float max_abs = 0.0f;
      for (size_t i = 0; i < row.size(); ++i) {
        max_err = std::max(
            max_err, std::fabs(static_cast<double>(back[i]) - row[i]));
        max_abs = std::max(max_abs, std::fabs(row[i]));
      }
      // The reported error is exactly the realized round-trip error.
      EXPECT_EQ(reported, max_err) << QuantModeName(mode) << " row " << r;
      if (mode == QuantMode::kNone) {
        EXPECT_EQ(max_err, 0.0);
      } else if (mode == QuantMode::kInt8) {
        // Error bounded by half a quantization step.
        EXPECT_LE(max_err, 0.5 * max_abs / 127.0 + 1e-9);
      }
    }
  }
}

TEST(QuantTest, Int8ZeroRowAndTruncation) {
  std::vector<float> zeros(8, 0.0f);
  ByteBuffer buf;
  EXPECT_EQ(QuantizeRowAppend(QuantMode::kInt8, zeros.data(),
                              zeros.size(), &buf),
            0.0);
  ByteReader reader(buf);
  std::vector<float> back;
  ASSERT_TRUE(
      DequantizeRowAppend(QuantMode::kInt8, &reader, zeros.size(), &back)
          .ok());
  EXPECT_EQ(back, zeros);
  // A truncated row fails loudly instead of fabricating floats.
  ByteReader short_reader(buf.data().data(), buf.size() - 2);
  std::vector<float> partial;
  EXPECT_FALSE(DequantizeRowAppend(QuantMode::kInt8, &short_reader,
                                   zeros.size(), &partial)
                   .ok());
}

TEST(QuantTest, ParseQuantModeFailsLoudOnGarbage) {
  EXPECT_EQ(*ParseQuantMode(""), QuantMode::kNone);
  EXPECT_EQ(*ParseQuantMode("none"), QuantMode::kNone);
  EXPECT_EQ(*ParseQuantMode("fp16"), QuantMode::kFp16);
  EXPECT_EQ(*ParseQuantMode("int8"), QuantMode::kInt8);
  auto bad = ParseQuantMode("fp8");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("fp8"), std::string::npos);
}

}  // namespace
}  // namespace psgraph
