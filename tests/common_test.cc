#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/table_printer.h"

namespace deca {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.NextBounded(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(RngTest, BoundedCoversRange) {
  Rng rng(9);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 8000; ++i) counts[rng.NextBounded(8)]++;
  EXPECT_EQ(counts.size(), 8u);
  for (const auto& [k, c] : counts) EXPECT_GT(c, 700) << "bucket " << k;
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(ZipfTest, RankZeroMostPopular) {
  ZipfSampler z(1000, 1.0, 5);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 50000; ++i) counts[z.Next()]++;
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[1], counts[100]);
}

TEST(ZipfTest, AllSamplesInRange) {
  ZipfSampler z(50, 1.2, 6);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Next(), 50u);
}

TEST(ZipfTest, LargeNUsesTailApproximation) {
  ZipfSampler z(100'000'000, 1.0, 8);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(z.Next(), 100'000'000u);
}

TEST(BytesTest, VarintRoundTrip) {
  ByteWriter w;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20, 0xffffffffull,
                             0xdeadbeefcafeull};
  for (uint64_t v : values) w.WriteVarU64(v);
  ByteReader r(w.data(), w.size());
  for (uint64_t v : values) EXPECT_EQ(r.ReadVarU64(), v);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, SignedVarintRoundTrip) {
  ByteWriter w;
  const int64_t values[] = {0, -1, 1, -64, 63, -1000000, 1000000,
                            INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.WriteVarI64(v);
  ByteReader r(w.data(), w.size());
  for (int64_t v : values) EXPECT_EQ(r.ReadVarI64(), v);
}

TEST(BytesTest, StringAndRawRoundTrip) {
  ByteWriter w;
  w.WriteString("hello world");
  w.Write<double>(3.25);
  w.Write<uint32_t>(77);
  ByteReader r(w.data(), w.size());
  EXPECT_EQ(r.ReadString(), "hello world");
  EXPECT_EQ(r.Read<double>(), 3.25);
  EXPECT_EQ(r.Read<uint32_t>(), 77u);
}

TEST(BytesTest, AlignUp) {
  EXPECT_EQ(AlignUp(0, 8), 0u);
  EXPECT_EQ(AlignUp(1, 8), 8u);
  EXPECT_EQ(AlignUp(8, 8), 8u);
  EXPECT_EQ(AlignUp(9, 8), 16u);
}

TEST(BytesTest, HumanBytes) {
  EXPECT_EQ(HumanBytes(512), "512B");
  EXPECT_EQ(HumanBytes(2048), "2.0KB");
  EXPECT_EQ(HumanBytes(3 * 1024 * 1024), "3.0MB");
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(h.Percentile(99), 99, 1.1);
}

TEST(HistogramTest, PercentilesAreOrderedAndNeverAboveMax) {
  // Ten equal samples: interpolating as lo * (1 - f) + hi * f put p99 at
  // 0.007000000000000001, above Max(), which RunReport validation rejects.
  Histogram same;
  for (int i = 0; i < 10; ++i) same.Add(0.007);
  EXPECT_EQ(same.Percentile(50), 0.007);
  EXPECT_EQ(same.Percentile(99), 0.007);
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    Histogram h;
    const uint64_t n = 1 + rng.NextBounded(50);
    const double v = rng.NextDouble(0, 10);
    for (uint64_t i = 0; i < n; ++i) {
      h.Add(rng.NextBounded(3) == 0 ? rng.NextDouble(0, 10) : v);
    }
    double prev = h.Min();
    for (int p = 0; p <= 100; ++p) {
      const double q = h.Percentile(p);
      EXPECT_LE(prev, q) << "round " << round << " p" << p;
      EXPECT_LE(q, h.Max()) << "round " << round << " p" << p;
      prev = q;
    }
  }
}

TEST(StopwatchTest, PauseExcludesTime) {
  Stopwatch sw;
  sw.Stop();
  int64_t t0 = sw.ElapsedNanos();
  // Busy-wait a little while stopped.
  volatile uint64_t x = 0;
  for (int i = 0; i < 1000000; ++i) {
    x = x + static_cast<uint64_t>(i);
  }
  EXPECT_EQ(sw.ElapsedNanos(), t0);
  sw.Start();
  EXPECT_GE(sw.ElapsedNanos(), t0);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddRow({"longer", "22"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

}  // namespace
}  // namespace deca
