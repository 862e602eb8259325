// Unit tests for recd::common — hashing, byte streams, RNG, histograms.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rng.h"

namespace recd::common {
namespace {

// ---------------------------------------------------------------- hash --

TEST(HashTest, DeterministicAcrossCalls) {
  const std::vector<std::int64_t> ids = {1, 2, 3, 42, -7};
  EXPECT_EQ(HashIds(ids), HashIds(ids));
  EXPECT_EQ(HashString("feature_a"), HashString("feature_a"));
}

TEST(HashTest, DifferentInputsDiffer) {
  EXPECT_NE(HashIds(std::vector<std::int64_t>{1, 2, 3}),
            HashIds(std::vector<std::int64_t>{1, 2, 4}));
  EXPECT_NE(HashIds(std::vector<std::int64_t>{1, 2, 3}),
            HashIds(std::vector<std::int64_t>{3, 2, 1}));
  EXPECT_NE(HashString("a"), HashString("b"));
}

TEST(HashTest, SeedChangesHash) {
  const std::vector<std::int64_t> ids = {10, 20};
  EXPECT_NE(HashIds(ids, 0), HashIds(ids, 1));
}

TEST(HashTest, EmptyInputsHashConsistently) {
  EXPECT_EQ(HashIds({}), HashIds({}));
  EXPECT_EQ(HashString(""), HashString(""));
  EXPECT_NE(HashIds({}), HashIds(std::vector<std::int64_t>{0}));
}

TEST(HashTest, LengthExtensionDiffers) {
  // [1] vs [1, 0] must hash differently (length is part of identity).
  EXPECT_NE(HashIds(std::vector<std::int64_t>{1}),
            HashIds(std::vector<std::int64_t>{1, 0}));
}

TEST(HashTest, CombineIsOrderDependent) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(HashTest, Mix64SpreadsSmallInts) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 1000; ++i) outputs.insert(Mix64(i));
  EXPECT_EQ(outputs.size(), 1000u);
}

// --------------------------------------------------------------- bytes --

TEST(BytesTest, FixedWidthRoundTrip) {
  ByteWriter w;
  w.PutU8(0xAB);
  w.PutU32(0xDEADBEEF);
  w.PutU64(0x0123456789ABCDEFull);
  w.PutF32(3.25f);
  w.PutF64(-1.5e300);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetU8(), 0xAB);
  EXPECT_EQ(r.GetU32(), 0xDEADBEEF);
  EXPECT_EQ(r.GetU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.GetF32(), 3.25f);
  EXPECT_EQ(r.GetF64(), -1.5e300);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, VarintRoundTripEdgeCases) {
  const std::vector<std::uint64_t> cases = {
      0, 1, 127, 128, 300, (1ull << 14) - 1, 1ull << 14,
      (1ull << 35) + 12345, std::numeric_limits<std::uint64_t>::max()};
  ByteWriter w;
  for (const auto v : cases) w.PutVarint(v);
  ByteReader r(w.bytes());
  for (const auto v : cases) EXPECT_EQ(r.GetVarint(), v);
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, SignedVarintRoundTrip) {
  const std::vector<std::int64_t> cases = {
      0, 1, -1, 63, -64, 64, -65,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  ByteWriter w;
  for (const auto v : cases) w.PutSVarint(v);
  ByteReader r(w.bytes());
  for (const auto v : cases) EXPECT_EQ(r.GetSVarint(), v);
}

TEST(BytesTest, SmallMagnitudesEncodeShort) {
  ByteWriter w;
  w.PutSVarint(-3);
  EXPECT_EQ(w.size(), 1u);
}

TEST(BytesTest, StringRoundTrip) {
  ByteWriter w;
  w.PutString("feature_a");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.GetString(), "feature_a");
  EXPECT_EQ(r.GetString(), "");
  EXPECT_EQ(r.GetString(), std::string(1000, 'x'));
}

TEST(BytesTest, ReadPastEndThrows) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.bytes());
  (void)r.GetU8();
  EXPECT_THROW((void)r.GetU32(), ByteStreamError);
}

TEST(BytesTest, MalformedVarintThrows) {
  // 11 continuation bytes: longer than any valid 64-bit varint.
  std::vector<std::byte> bad(11, std::byte{0x80});
  ByteReader r(bad);
  EXPECT_THROW((void)r.GetVarint(), ByteStreamError);
}

TEST(BytesTest, ZigZagMapping) {
  EXPECT_EQ(ZigZagEncode(0), 0u);
  EXPECT_EQ(ZigZagEncode(-1), 1u);
  EXPECT_EQ(ZigZagEncode(1), 2u);
  EXPECT_EQ(ZigZagEncode(-2), 3u);
  for (std::int64_t v : {-1000000, -1, 0, 1, 999999}) {
    EXPECT_EQ(ZigZagDecode(ZigZagEncode(v)), v);
  }
}

// ----------------------------------------------------------------- rng --

TEST(RngTest, UniformStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.Uniform(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformInvalidRangeThrows) {
  Rng rng(1);
  EXPECT_THROW((void)rng.Uniform(3, 2), std::invalid_argument);
}

TEST(RngTest, DeterministicWithSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1'000'000), b.Uniform(0, 1'000'000));
  }
}

TEST(RngTest, ZipfStaysInRangeAndIsSkewed) {
  Rng rng(7);
  const std::int64_t n = 10'000;
  std::int64_t low_rank = 0;
  const int draws = 20'000;
  for (int i = 0; i < draws; ++i) {
    const auto v = rng.Zipf(n, 1.1);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    if (v < n / 100) ++low_rank;
  }
  // Zipf(1.1): the top 1% of ranks should carry far more than 1% of mass.
  EXPECT_GT(low_rank, draws / 4);
}

TEST(RngTest, ZipfInvalidArgsThrow) {
  Rng rng(1);
  EXPECT_THROW((void)rng.Zipf(0, 1.0), std::invalid_argument);
  EXPECT_THROW((void)rng.Zipf(10, 0.0), std::invalid_argument);
}

TEST(RngTest, SessionSizeMeanMatchesTarget) {
  Rng rng(123);
  double total = 0;
  const int n = 50'000;
  std::int64_t max_size = 0;
  for (int i = 0; i < n; ++i) {
    const auto s = SampleSessionSize(rng, 16.5);
    ASSERT_GE(s, 1);
    total += static_cast<double>(s);
    max_size = std::max(max_size, s);
  }
  const double mean = total / n;
  // Paper: mean 16.5 samples/session with a tail beyond 1000.
  EXPECT_NEAR(mean, 16.5, 3.0);
  EXPECT_GT(max_size, 500);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// ----------------------------------------------------------- histogram --

TEST(HistogramTest, BucketsArePowerOfTwoRanges) {
  Histogram h;
  h.Add(1);
  h.Add(2);
  h.Add(3);
  h.Add(1000);
  const auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].lo, 1);
  EXPECT_EQ(buckets[0].hi, 1);
  EXPECT_EQ(buckets[0].count, 1);
  EXPECT_EQ(buckets[1].lo, 2);
  EXPECT_EQ(buckets[1].hi, 3);
  EXPECT_EQ(buckets[1].count, 2);
  EXPECT_EQ(buckets[2].lo, 512);
  EXPECT_EQ(buckets[2].hi, 1023);
}

TEST(HistogramTest, MeanAndMax) {
  Histogram h;
  h.Add(10, 3);
  h.Add(20);
  EXPECT_DOUBLE_EQ(h.mean(), (30.0 + 20.0) / 4.0);
  EXPECT_EQ(h.max(), 20);
  EXPECT_EQ(h.total_count(), 4);
}

TEST(HistogramTest, RejectsNonPositiveValues) {
  Histogram h;
  EXPECT_THROW(h.Add(0), std::invalid_argument);
  EXPECT_THROW(h.Add(-5), std::invalid_argument);
}

TEST(HistogramTest, PercentileMonotonic) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  const double p50 = h.Percentile(0.5);
  const double p90 = h.Percentile(0.9);
  const double p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_GT(p50, 100);  // rough sanity given log buckets
}

TEST(HistogramTest, PercentileEmptyHistogramIsZero) {
  const Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 0.0);
}

TEST(HistogramTest, PercentileSingleObservation) {
  Histogram h;
  h.Add(5);  // bucket [4, 7]
  // Both extremes clamp to the exactly-tracked min/max, never the
  // bucket bounds 4 and 7.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 5.0);
  // Any quantile collapses to the single observation.
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 5.0);
}

TEST(HistogramTest, PercentileQueriesAreClampedToUnitRange) {
  Histogram h;
  h.Add(100, 10);
  EXPECT_DOUBLE_EQ(h.Percentile(-0.5), h.Percentile(0.0));
  EXPECT_DOUBLE_EQ(h.Percentile(2.0), h.Percentile(1.0));
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
}

TEST(HistogramTest, PercentileInterpolatesAcrossBuckets) {
  Histogram h;
  h.Add(2, 50);    // bucket [2, 3]
  h.Add(100, 50);  // bucket [64, 127]
  // Exactly half the mass sits in the low bucket: q=0.5 must resolve
  // inside it, and anything above must land in the high bucket.
  EXPECT_LE(h.Percentile(0.5), 3.0);
  EXPECT_GE(h.Percentile(0.51), 64.0);
  // Within-bucket interpolation is monotone in q.
  EXPECT_LT(h.Percentile(0.6), h.Percentile(0.9));
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 100.0);
}

TEST(HistogramTest, PercentileNeverExceedsObservedMax) {
  Histogram h;
  h.Add(1'000'000);  // bucket [2^19, 2^20-1]: hi > the observation
  h.Add(3, 5);
  for (const double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_LE(h.Percentile(q), static_cast<double>(h.max()));
  }
}

TEST(HistogramTest, MinIsExactAcrossBucketBoundaries) {
  Histogram h;
  EXPECT_EQ(h.min(), 0);  // empty sentinel
  h.Add(100);
  EXPECT_EQ(h.min(), 100);
  h.Add(5);  // lower bucket
  EXPECT_EQ(h.min(), 5);
  h.Add(7);  // same bucket [4,7], larger value: min unchanged
  EXPECT_EQ(h.min(), 5);
  h.Add(1000);
  EXPECT_EQ(h.min(), 5);
  // q=0 resolves to the exact min, not the bucket floor 4.
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 5.0);
}

TEST(HistogramTest, MergeEqualsObservingEverythingInOne) {
  Histogram a;
  a.Add(3, 4);
  a.Add(900);
  Histogram b;
  b.Add(17, 2);
  b.Add(2);

  Histogram merged = a;
  merged.Merge(b);

  Histogram oracle;
  oracle.Add(3, 4);
  oracle.Add(900);
  oracle.Add(17, 2);
  oracle.Add(2);

  EXPECT_EQ(merged.total_count(), oracle.total_count());
  EXPECT_DOUBLE_EQ(merged.mean(), oracle.mean());
  EXPECT_EQ(merged.min(), oracle.min());
  EXPECT_EQ(merged.max(), oracle.max());
  const auto mb = merged.buckets();
  const auto ob = oracle.buckets();
  ASSERT_EQ(mb.size(), ob.size());
  for (std::size_t i = 0; i < mb.size(); ++i) {
    EXPECT_EQ(mb[i].lo, ob[i].lo);
    EXPECT_EQ(mb[i].count, ob[i].count);
  }
}

TEST(HistogramTest, MergeIsAssociativeAndCommutativeAndEmptySafe) {
  Histogram a, b, c;
  a.Add(1, 3);
  b.Add(64, 2);
  c.Add(7);

  const auto summary = [](const Histogram& h) {
    return std::tuple(h.total_count(), h.mean(), h.min(), h.max(),
                      h.Percentile(0.5), h.Percentile(0.99));
  };

  Histogram ab_c = a;  // (a + b) + c
  ab_c.Merge(b);
  ab_c.Merge(c);
  Histogram bc = b;  // a + (b + c)
  bc.Merge(c);
  Histogram a_bc = a;
  a_bc.Merge(bc);
  EXPECT_EQ(summary(ab_c), summary(a_bc));

  Histogram ba = b;  // commutes
  ba.Merge(a);
  Histogram ab = a;
  ab.Merge(b);
  EXPECT_EQ(summary(ab), summary(ba));

  // Merging an empty histogram in either direction is the identity —
  // in particular it must not drag min to the empty sentinel 0.
  Histogram empty;
  Histogram a_plus_empty = a;
  a_plus_empty.Merge(empty);
  EXPECT_EQ(summary(a_plus_empty), summary(a));
  Histogram empty_plus_a = empty;
  empty_plus_a.Merge(a);
  EXPECT_EQ(summary(empty_plus_a), summary(a));
  EXPECT_EQ(empty_plus_a.min(), 1);
}

TEST(HistogramTest, AsciiRendersNonEmpty) {
  Histogram h;
  h.Add(5, 10);
  h.Add(100, 2);
  const auto art = h.ToAscii();
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(RngTest, ZipfLowerExponentIsLessSkewed) {
  Rng rng(11);
  auto top_share = [&](double s) {
    Rng local(11);
    int low = 0;
    const int draws = 10'000;
    for (int i = 0; i < draws; ++i) {
      if (local.Zipf(10'000, s) < 100) ++low;
    }
    return static_cast<double>(low) / draws;
  };
  EXPECT_GT(top_share(1.5), top_share(1.01));
}

TEST(RngTest, PoissonMeanRoughlyMatches) {
  Rng rng(13);
  double total = 0;
  for (int i = 0; i < 20'000; ++i) {
    total += static_cast<double>(rng.Poisson(7.5));
  }
  EXPECT_NEAR(total / 20'000, 7.5, 0.2);
  EXPECT_EQ(rng.Poisson(0.0), 0);
  EXPECT_EQ(rng.Poisson(-3.0), 0);
}

TEST(RngTest, SessionSizeScalesWithMean) {
  Rng rng(17);
  auto mean_of = [](double target) {
    Rng local(17);
    double t = 0;
    for (int i = 0; i < 20'000; ++i) {
      t += static_cast<double>(SampleSessionSize(local, target));
    }
    return t / 20'000;
  };
  EXPECT_NEAR(mean_of(6.0), 6.0, 1.5);
  EXPECT_NEAR(mean_of(16.5), 16.5, 3.0);
  EXPECT_EQ(SampleSessionSize(rng, 1.0), 1);
}

class HistogramSweep : public ::testing::TestWithParam<int> {};

TEST_P(HistogramSweep, CountsArePreservedAcrossBuckets) {
  Rng rng(GetParam());
  Histogram h;
  std::int64_t expected = 0;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.Uniform(1, 1 << 20);
    h.Add(v);
    ++expected;
  }
  std::int64_t bucketed = 0;
  for (const auto& b : h.buckets()) {
    EXPECT_LE(b.lo, b.hi);
    bucketed += b.count;
  }
  EXPECT_EQ(bucketed, expected);
  EXPECT_EQ(h.total_count(), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramSweep, ::testing::Range(1, 6));

}  // namespace
}  // namespace recd::common
