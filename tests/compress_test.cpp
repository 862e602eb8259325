// Tests for the compression substrate: LZ77 block codec (zstd stand-in)
// and the ORC-style integer stream encodings.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "compress/codec.h"
#include "compress/int_codec.h"
#include "compress/lz77.h"

namespace recd::compress {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::byte(s[i]);
  return out;
}

void ExpectRoundTrip(const Codec& codec,
                     const std::vector<std::byte>& input) {
  const auto compressed = codec.Compress(input);
  const auto output = codec.Decompress(compressed);
  ASSERT_EQ(output.size(), input.size());
  EXPECT_TRUE(std::equal(input.begin(), input.end(), output.begin()));
}

// ----------------------------------------------------------------- LZ77 --

TEST(Lz77Test, EmptyInput) {
  Lz77Codec codec;
  ExpectRoundTrip(codec, {});
}

TEST(Lz77Test, SingleByte) {
  Lz77Codec codec;
  ExpectRoundTrip(codec, Bytes("x"));
}

TEST(Lz77Test, ShortIncompressible) {
  Lz77Codec codec;
  ExpectRoundTrip(codec, Bytes("abc"));
}

TEST(Lz77Test, RepeatedPatternCompresses) {
  Lz77Codec codec;
  std::vector<std::byte> input;
  for (int i = 0; i < 500; ++i) {
    const auto chunk = Bytes("session_feature_values_");
    input.insert(input.end(), chunk.begin(), chunk.end());
  }
  const auto compressed = codec.Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 5);
  ExpectRoundTrip(codec, input);
}

TEST(Lz77Test, RunOfIdenticalBytes) {
  // Overlapping match (distance < length) — the RLE-like LZ case.
  Lz77Codec codec;
  std::vector<std::byte> input(10'000, std::byte{0x55});
  const auto compressed = codec.Compress(input);
  EXPECT_LT(compressed.size(), 100u);
  ExpectRoundTrip(codec, input);
}

TEST(Lz77Test, RandomDataRoundTrips) {
  Lz77Codec codec;
  std::mt19937_64 rng(99);
  std::vector<std::byte> input(64 * 1024);
  for (auto& b : input) b = std::byte(rng() & 0xff);
  ExpectRoundTrip(codec, input);
}

TEST(Lz77Test, DistantDuplicatesStillMatch) {
  // Two identical 4KB blocks separated by 512KB of random data: the 1MiB
  // window must catch the second copy (the clustering mechanism relies on
  // long-range matches within a stripe).
  std::mt19937_64 rng(7);
  std::vector<std::byte> block(4096);
  for (auto& b : block) b = std::byte(rng() & 0xff);
  std::vector<std::byte> filler(512 * 1024);
  for (auto& b : filler) b = std::byte(rng() & 0xff);
  std::vector<std::byte> input;
  input.insert(input.end(), block.begin(), block.end());
  input.insert(input.end(), filler.begin(), filler.end());
  input.insert(input.end(), block.begin(), block.end());

  Lz77Codec codec;
  const auto compressed = codec.Compress(input);
  // Second copy of `block` should compress to ~nothing.
  EXPECT_LT(compressed.size(), input.size() - block.size() / 2);
  ExpectRoundTrip(codec, input);
}

TEST(Lz77Test, CorruptedInputThrows) {
  Lz77Codec codec;
  const auto compressed = codec.Compress(Bytes("hello hello hello hello"));
  // Truncate: decoder must notice the size mismatch / hit end of buffer.
  std::vector<std::byte> truncated(compressed.begin(),
                                   compressed.begin() + 3);
  EXPECT_THROW((void)codec.Decompress(truncated), std::runtime_error);
}

// A frame that declares far more output than its tokens can produce
// must be refused before anything is allocated for it.
TEST(Lz77Test, HugeDeclaredSizeIsRejected) {
  common::ByteWriter w;
  w.PutVarint(std::uint64_t{1} << 62);
  w.PutVarint(0);  // no literals
  w.PutVarint(0);  // terminator
  const auto frame = std::move(w).Take();
  EXPECT_THROW((void)Lz77Codec().Decompress(frame), common::ByteStreamError);
}

// Lengths are checked against what is left of raw_size and max_match
// before any byte is copied: a small frame cannot grow without bound.
TEST(Lz77Test, OversizedLiteralOrMatchIsRejected) {
  const auto frame = [](std::uint64_t raw_size, std::uint64_t literals,
                        std::uint64_t match_len) {
    common::ByteWriter w;
    w.PutVarint(raw_size);
    w.PutVarint(literals);
    for (std::uint64_t i = 0; i < literals; ++i) w.PutU8('a');
    w.PutVarint(match_len);
    w.PutVarint(1);  // distance
    w.PutVarint(0);
    w.PutVarint(0);
    return std::move(w).Take();
  };
  // A 2^40-byte match in a frame that declares 16 bytes.
  EXPECT_THROW((void)Lz77Codec().Decompress(frame(16, 1, 1ull << 40)),
               common::ByteStreamError);
  // Five literals where two are declared.
  EXPECT_THROW((void)Lz77Codec().Decompress(frame(2, 5, 0)),
               common::ByteStreamError);
  // A match within raw_size but longer than max_match.
  Lz77Codec::Options opts;
  opts.max_match = 64;
  EXPECT_THROW((void)Lz77Codec(opts).Decompress(frame(100, 1, 99)),
               common::ByteStreamError);
  // The same frame shape within every bound decodes.
  const auto ok = Lz77Codec(opts).Decompress(frame(64, 1, 63));
  EXPECT_EQ(ok, std::vector<std::byte>(64, std::byte{'a'}));
}

TEST(Lz77Test, DuplicateRowsCompressBetterThanInterleaved) {
  // The storage-level mechanism behind O2 in miniature: the same 200
  // "rows", adjacent vs interleaved with noise rows.
  std::mt19937_64 rng(13);
  const auto row = Bytes("user_feature_list:1,2,3,4,5,6,7,8,9,10;");
  auto noise_row = [&] {
    std::vector<std::byte> r(row.size());
    for (auto& b : r) b = std::byte(rng() & 0xff);
    return r;
  };
  std::vector<std::byte> clustered;
  std::vector<std::byte> interleaved;
  std::vector<std::vector<std::byte>> noise;
  for (int i = 0; i < 200; ++i) noise.push_back(noise_row());
  for (int i = 0; i < 200; ++i) {
    clustered.insert(clustered.end(), row.begin(), row.end());
  }
  for (int i = 0; i < 200; ++i) {
    clustered.insert(clustered.end(), noise[i].begin(), noise[i].end());
  }
  for (int i = 0; i < 200; ++i) {
    interleaved.insert(interleaved.end(), row.begin(), row.end());
    interleaved.insert(interleaved.end(), noise[i].begin(),
                       noise[i].end());
  }
  Lz77Codec codec;
  // Same content, different order -> clustered compresses at least as
  // well (usually better since matches are nearby).
  EXPECT_LE(codec.Compress(clustered).size(),
            codec.Compress(interleaved).size() + 16);
  ExpectRoundTrip(codec, clustered);
  ExpectRoundTrip(codec, interleaved);
}

TEST(IdentityCodecTest, PassThrough) {
  IdentityCodec codec;
  const auto input = Bytes("raw");
  EXPECT_EQ(codec.Compress(input), input);
  EXPECT_EQ(codec.Decompress(input), input);
}

TEST(CodecRegistryTest, ReturnsRequestedKinds) {
  EXPECT_EQ(GetCodec(CodecKind::kIdentity).kind(), CodecKind::kIdentity);
  EXPECT_EQ(GetCodec(CodecKind::kLz77).kind(), CodecKind::kLz77);
  EXPECT_EQ(GetCodec(CodecKind::kLz77).name(), "lz77");
}

TEST(CompressionRatioTest, Basics) {
  EXPECT_DOUBLE_EQ(CompressionRatio(100, 50), 2.0);
  EXPECT_DOUBLE_EQ(CompressionRatio(0, 0), 0.0);
}

// ----------------------------------------------------------- int codecs --

std::vector<std::int64_t> DecodeAll(const common::ByteWriter& w) {
  common::ByteReader r(w.bytes());
  auto out = DecodeInts(r);
  EXPECT_TRUE(r.AtEnd());
  return out;
}

TEST(IntCodecTest, VarintRoundTrip) {
  const std::vector<std::int64_t> vals = {0, -5, 12345678901234,
                                          -987654321, 7};
  common::ByteWriter w;
  EncodeInts(vals, IntEncoding::kVarint, w);
  EXPECT_EQ(DecodeAll(w), vals);
}

TEST(IntCodecTest, DeltaRoundTrip) {
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 1000; ++i) vals.push_back(1'000'000 + i * 3);
  common::ByteWriter w;
  EncodeInts(vals, IntEncoding::kDeltaVarint, w);
  EXPECT_EQ(DecodeAll(w), vals);
}

TEST(IntCodecTest, RleRoundTrip) {
  std::vector<std::int64_t> vals(500, 42);
  vals.push_back(7);
  vals.insert(vals.end(), 200, -1);
  common::ByteWriter w;
  EncodeInts(vals, IntEncoding::kRle, w);
  EXPECT_EQ(DecodeAll(w), vals);
}

TEST(IntCodecTest, EmptyStream) {
  common::ByteWriter w;
  EncodeInts({}, IntEncoding::kVarint, w);
  EXPECT_TRUE(DecodeAll(w).empty());
}

TEST(IntCodecTest, DeclaredCountBeyondInputThrowsByteStreamError) {
  for (const auto encoding :
       {IntEncoding::kVarint, IntEncoding::kDeltaVarint}) {
    for (const std::uint64_t count :
         {std::uint64_t{4}, std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      // Three one-byte values behind a count that claims more.
      common::ByteWriter w;
      w.PutU8(static_cast<std::uint8_t>(encoding));
      w.PutVarint(count);
      for (int i = 0; i < 3; ++i) w.PutSVarint(i);
      common::ByteReader r(w.bytes());
      EXPECT_THROW((void)DecodeInts(r), common::ByteStreamError)
          << "encoding " << static_cast<int>(encoding) << ", count " << count;
    }
  }
}

TEST(IntCodecTest, DeltaRoundTripsEveryInt64Extreme) {
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const std::vector<std::int64_t> vals = {kMax, kMin, kMax, -1, kMin, 0,
                                          kMin, kMin + 1, kMax - 1, kMax};
  common::ByteWriter w;
  EncodeInts(vals, IntEncoding::kDeltaVarint, w);
  EXPECT_EQ(DecodeAll(w), vals);
  common::ByteWriter a;
  EncodeIntsAuto(vals, a);
  EXPECT_EQ(DecodeAll(a), vals);
}

TEST(IntCodecTest, AutoPicksRleForConstantRuns) {
  std::vector<std::int64_t> vals(10'000, 5);
  common::ByteWriter a;
  EncodeIntsAuto(vals, a);
  common::ByteWriter plain;
  EncodeInts(vals, IntEncoding::kVarint, plain);
  EXPECT_LT(a.size(), plain.size() / 100);
  EXPECT_EQ(DecodeAll(a), vals);
}

TEST(IntCodecTest, AutoPicksDeltaForSortedSequences) {
  std::vector<std::int64_t> vals;
  for (int i = 0; i < 5000; ++i) vals.push_back(1'000'000'000LL + i * 2);
  common::ByteWriter a;
  EncodeIntsAuto(vals, a);
  common::ByteWriter plain;
  EncodeInts(vals, IntEncoding::kVarint, plain);
  EXPECT_LT(a.size(), plain.size() / 2);
  EXPECT_EQ(DecodeAll(a), vals);
}

class IntCodecSweep : public ::testing::TestWithParam<
                          std::tuple<IntEncoding, int>> {};

TEST_P(IntCodecSweep, RandomRoundTrip) {
  const auto [encoding, seed] = GetParam();
  common::Rng rng(static_cast<std::uint64_t>(seed));
  std::vector<std::int64_t> vals;
  const auto n = static_cast<std::size_t>(rng.Uniform(0, 3000));
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng.Uniform(0, 2)) {
      case 0:
        vals.push_back(rng.Uniform(-10, 10));
        break;
      case 1:
        vals.push_back(rng.Uniform(-1'000'000'000, 1'000'000'000));
        break;
      default:
        vals.push_back(vals.empty() ? 0 : vals.back());
        break;
    }
  }
  common::ByteWriter w;
  EncodeInts(vals, encoding, w);
  EXPECT_EQ(DecodeAll(w), vals);
  common::ByteWriter a;
  EncodeIntsAuto(vals, a);
  EXPECT_EQ(DecodeAll(a), vals);
  EXPECT_LE(a.size(), w.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntCodecSweep,
    ::testing::Combine(::testing::Values(IntEncoding::kVarint,
                                         IntEncoding::kDeltaVarint,
                                         IntEncoding::kRle),
                       ::testing::Range(1, 6)));

TEST(Lz77Test, CustomOptionsStillRoundTrip) {
  // Smaller window / shorter chains trade ratio for speed but must stay
  // correct.
  Lz77Codec::Options opts;
  opts.window = 1 << 12;
  opts.max_chain = 4;
  opts.max_match = 64;
  Lz77Codec codec(opts);
  std::mt19937_64 rng(5);
  std::vector<std::byte> input(32 * 1024);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = std::byte((i / 100) & 0xff);
  }
  ExpectRoundTrip(codec, input);
}

TEST(Lz77Test, WindowLimitsMatchDistance) {
  // With a 1 KiB window, duplicates 100 KiB apart cannot match, so the
  // output stays near input size; the default 1 MiB window collapses it.
  std::mt19937_64 rng(6);
  std::vector<std::byte> block(2048);
  for (auto& b : block) b = std::byte(rng() & 0xff);
  std::vector<std::byte> filler(100 * 1024);
  for (auto& b : filler) b = std::byte(rng() & 0xff);
  std::vector<std::byte> input;
  for (const auto& part : {block, filler, block}) {
    input.insert(input.end(), part.begin(), part.end());
  }
  Lz77Codec::Options small_window;
  small_window.window = 1 << 10;
  const auto small = Lz77Codec(small_window).Compress(input);
  const auto big = Lz77Codec().Compress(input);
  EXPECT_LT(big.size() + block.size() / 2, small.size() + 16);
  ExpectRoundTrip(Lz77Codec(small_window), input);
}

// LZ77 round-trip sweep across sizes and data shapes.
class Lz77Sweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Lz77Sweep, RoundTrip) {
  const auto [size_kb, mode] = GetParam();
  std::mt19937_64 rng(size_kb * 31 + mode);
  std::vector<std::byte> input(static_cast<std::size_t>(size_kb) * 1024);
  switch (mode) {
    case 0:  // random
      for (auto& b : input) b = std::byte(rng() & 0xff);
      break;
    case 1:  // low-entropy text-ish
      for (auto& b : input) b = std::byte('a' + (rng() % 4));
      break;
    case 2: {  // repeated 100-byte records with occasional mutation
      std::vector<std::byte> record(100);
      for (auto& b : record) b = std::byte(rng() & 0xff);
      for (std::size_t i = 0; i < input.size(); ++i) {
        if (i % 4096 == 0) record[rng() % 100] = std::byte(rng() & 0xff);
        input[i] = record[i % 100];
      }
      break;
    }
    default:
      break;
  }
  Lz77Codec codec;
  ExpectRoundTrip(codec, input);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Lz77Sweep,
                         ::testing::Combine(::testing::Values(1, 16, 256),
                                            ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace recd::compress
