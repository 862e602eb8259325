// LZ77 block codec with a hash-chain match finder.
//
// This is the repository's zstd stand-in (see docs/ARCHITECTURE.md §1). The format:
//   [varint raw_size] then a token stream; each token is
//   [varint literal_len][literal bytes][varint match_len][varint distance]
// A match_len of 0 terminates (trailing literals only). Minimum match is
// 4 bytes; window is 1 MiB so duplicate feature rows that land in the
// same stripe — even hundreds of KB apart — still match, which is exactly
// the mechanism the paper's clustering optimization (O2) exploits.
//
// The decoder is total: a raw_size the input cannot produce, a literal
// or match longer than what is left of raw_size, or a match longer than
// max_match raises common::ByteStreamError. Decode with the max_match
// the frame was encoded with.
#pragma once

#include "compress/codec.h"

namespace recd::compress {

class Lz77Codec final : public Codec {
 public:
  /// Tuning knobs; defaults balance speed and ratio for stripe-sized
  /// blocks (tens of KB to a few MB).
  struct Options {
    std::size_t window = 1 << 20;    // max match distance
    std::size_t min_match = 4;       // shortest usable match
    std::size_t max_match = 1 << 16; // cap to bound token magnitude
    int max_chain = 32;              // match-finder effort
  };

  Lz77Codec() = default;
  explicit Lz77Codec(Options options) : options_(options) {}

  [[nodiscard]] std::vector<std::byte> Compress(
      std::span<const std::byte> input) const override;
  [[nodiscard]] std::vector<std::byte> Decompress(
      std::span<const std::byte> input) const override;
  [[nodiscard]] CodecKind kind() const override { return CodecKind::kLz77; }
  [[nodiscard]] std::string name() const override { return "lz77"; }

 private:
  Options options_;
};

}  // namespace recd::compress
