#include "compress/lz77.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/bytes.h"

namespace recd::compress {

namespace {

constexpr std::size_t kHashBits = 16;
constexpr std::size_t kHashSize = 1u << kHashBits;

std::uint32_t HashQuad(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

std::size_t MatchLength(const std::byte* a, const std::byte* b,
                        std::size_t limit) {
  std::size_t n = 0;
  while (n + 8 <= limit) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a + n, 8);
    std::memcpy(&vb, b + n, 8);
    if (va != vb) {
      return n + static_cast<std::size_t>(
                     std::countr_zero(va ^ vb) >> 3);
    }
    n += 8;
  }
  while (n < limit && a[n] == b[n]) ++n;
  return n;
}

}  // namespace

std::vector<std::byte> Lz77Codec::Compress(
    std::span<const std::byte> input) const {
  common::ByteWriter out;
  out.PutVarint(input.size());
  const std::size_t n = input.size();
  if (n == 0) return std::move(out).Take();
  const std::byte* base = input.data();

  // head[h] = most recent position with hash h; chain[i] = previous
  // position with the same hash as i. Positions offset by +1, 0 = none.
  std::vector<std::uint32_t> head(kHashSize, 0);
  std::vector<std::uint32_t> chain(n, 0);

  std::size_t literal_start = 0;
  std::size_t i = 0;
  auto emit = [&](std::size_t match_len, std::size_t distance) {
    out.PutVarint(i - literal_start);
    out.PutBytes(input.subspan(literal_start, i - literal_start));
    out.PutVarint(match_len);
    if (match_len > 0) out.PutVarint(distance);
  };

  while (i + options_.min_match <= n) {
    const std::uint32_t h = HashQuad(base + i);
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    std::uint32_t cand = head[h];
    int chain_left = options_.max_chain;
    const std::size_t limit = std::min(n - i, options_.max_match);
    while (cand != 0 && chain_left-- > 0) {
      const std::size_t pos = cand - 1;
      const std::size_t dist = i - pos;
      if (dist > options_.window) break;
      const std::size_t len = MatchLength(base + pos, base + i, limit);
      if (len > best_len) {
        best_len = len;
        best_dist = dist;
        if (len >= limit) break;
      }
      cand = chain[pos];
    }
    if (best_len >= options_.min_match) {
      emit(best_len, best_dist);
      // Insert hash entries for the matched region (sparsely for speed).
      const std::size_t end = i + best_len;
      const std::size_t step = best_len > 64 ? 4 : 1;
      while (i < end && i + 4 <= n) {
        const std::uint32_t hh = HashQuad(base + i);
        chain[i] = head[hh];
        head[hh] = static_cast<std::uint32_t>(i + 1);
        i += step;
      }
      i = end;
      literal_start = i;
    } else {
      chain[i] = head[h];
      head[h] = static_cast<std::uint32_t>(i + 1);
      ++i;
    }
  }
  i = n;
  // Final token: trailing literals, match_len 0.
  out.PutVarint(i - literal_start);
  out.PutBytes(input.subspan(literal_start, i - literal_start));
  out.PutVarint(0);
  return std::move(out).Take();
}

std::vector<std::byte> Lz77Codec::Decompress(
    std::span<const std::byte> input) const {
  common::ByteReader in(input);
  const std::uint64_t raw_size = in.GetVarint();
  // Each token takes at least 2 input bytes (two varints) and emits its
  // literals plus at most max_match match bytes, so the rest of the
  // input bounds what it can produce. Saturating, so a huge max_match
  // cannot wrap the bound.
  const std::uint64_t rest = in.remaining();
  const std::uint64_t tokens = rest / 2;
  const std::uint64_t max_match = options_.max_match;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t bound =
      tokens != 0 && max_match > (kMax - rest) / tokens
          ? kMax
          : rest + tokens * max_match;
  if (raw_size > bound) {
    throw common::ByteStreamError("Lz77: declared size exceeds input bound");
  }
  std::vector<std::byte> out;
  // Reserve only what the input itself could hold; real output beyond
  // that grows with the bytes actually decoded.
  out.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(raw_size, 8 * input.size())));
  while (out.size() < raw_size || !in.AtEnd()) {
    const std::uint64_t literal_len = in.GetVarint();
    if (literal_len > raw_size - out.size()) {
      throw common::ByteStreamError("Lz77: literal run past declared size");
    }
    auto lit = in.GetBytes(literal_len);
    out.insert(out.end(), lit.begin(), lit.end());
    const std::uint64_t match_len = in.GetVarint();
    if (match_len == 0) break;
    if (match_len > max_match || match_len > raw_size - out.size()) {
      throw common::ByteStreamError("Lz77: invalid match length");
    }
    const std::uint64_t distance = in.GetVarint();
    if (distance == 0 || distance > out.size()) {
      throw common::ByteStreamError("Lz77: invalid match distance");
    }
    // Byte-by-byte copy: overlapping matches (distance < match_len)
    // replicate runs, matching standard LZ semantics.
    std::size_t src = out.size() - distance;
    for (std::uint64_t k = 0; k < match_len; ++k) {
      out.push_back(out[src + k]);
    }
  }
  if (out.size() != raw_size) {
    throw common::ByteStreamError("Lz77: size mismatch after decompress");
  }
  return out;
}

}  // namespace recd::compress
