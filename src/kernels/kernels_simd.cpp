// AVX2 implementations of the kernel layer.
//
// Bitwise contract with the scalar oracle (kernels.cpp): SIMD lanes run
// only across non-reduction axes, so every output element sees exactly
// the scalar path's float-op sequence —
//   * pooling / SGD / elementwise ops: 8 dim-columns per lane set, ids
//     and rows still visited in scalar order;
//   * MatmulABt: a 4-row x 16-column register tile (8 accumulators);
//     each lane's k-chain is the scalar `acc += a*b` chain in ascending
//     k (b is packed k-major per 16-column panel so the inner loads are
//     contiguous);
//   * MatmulAB / AccumulateOuter: the nonzero a(i,k) / g(r,o) are
//     compacted once per row / column, in ascending order, then walked
//     over 64-column register tiles — the scalar zero-skip, without a
//     branch per (i,k);
//   * InteractionForward: lanes across j of a transposed d x F tile,
//     each lane one ascending-c dot chain; InteractionBackward: lanes
//     across c, pairs in the scalar (i, j) order;
//   * comparisons (max pooling, ReLU, clamp) use cmp+blend/andnot
//     sequences chosen to reproduce the scalar branch bit-for-bit,
//     including -0.0 and NaN behavior (documented per helper).
// Separate mul/add intrinsics (never FMA) pair with the tree-wide
// -ffp-contract=off so neither path contracts where the other does not.
//
// Tails: the elementwise helpers finish dim % 8 with the scalar loop over
// the exact remaining elements; the register tiles mask their last
// vector (maskload/maskstore), so no tail reads or writes past a row.
//
// Everything is compiled for the baseline target; the AVX2 functions
// carry a per-function target attribute and are only reached when
// VectorizedAvailable() said the CPU can run them.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "kernels/impl.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define RECD_KERNELS_AVX2 1
#include <immintrin.h>
#endif

namespace recd::kernels::simd {

#if defined(RECD_KERNELS_AVX2)

#define RECD_AVX2 __attribute__((target("avx2")))

namespace {

constexpr std::size_t kLanes = 8;

// dst[0..d) += src[0..d)
RECD_AVX2 inline void AddRows(float* dst, const float* src,
                              std::size_t d) {
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    _mm256_storeu_ps(dst + c,
                     _mm256_add_ps(_mm256_loadu_ps(dst + c),
                                   _mm256_loadu_ps(src + c)));
  }
  for (; c < d; ++c) dst[c] += src[c];
}

// dst[0..d) = max(dst, src) with std::max(a,b) = (a<b)?b:a semantics:
// blendv picks src only where dst < src (ordered, quiet), so NaN in
// either operand and ±0 ties resolve exactly like the scalar branch.
RECD_AVX2 inline void MaxRows(float* dst, const float* src,
                              std::size_t d) {
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    const __m256 a = _mm256_loadu_ps(dst + c);
    const __m256 b = _mm256_loadu_ps(src + c);
    const __m256 lt = _mm256_cmp_ps(a, b, _CMP_LT_OQ);
    _mm256_storeu_ps(dst + c, _mm256_blendv_ps(a, b, lt));
  }
  for (; c < d; ++c) dst[c] = std::max(dst[c], src[c]);
}

// dst[0..d) *= s
RECD_AVX2 inline void ScaleRow(float* dst, float s, std::size_t d) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    _mm256_storeu_ps(dst + c,
                     _mm256_mul_ps(_mm256_loadu_ps(dst + c), sv));
  }
  for (; c < d; ++c) dst[c] *= s;
}

// dst[0..d) -= s * src[0..d)  (mul then sub, like the scalar update)
RECD_AVX2 inline void SubScaledRow(float* dst, const float* src, float s,
                                   std::size_t d) {
  const __m256 sv = _mm256_set1_ps(s);
  std::size_t c = 0;
  for (; c + kLanes <= d; c += kLanes) {
    _mm256_storeu_ps(
        dst + c,
        _mm256_sub_ps(_mm256_loadu_ps(dst + c),
                      _mm256_mul_ps(sv, _mm256_loadu_ps(src + c))));
  }
  for (; c < d; ++c) dst[c] -= s * src[c];
}

// Lane mask selecting the first n (0..8) lanes.
RECD_AVX2 inline __m256i TailMask(std::size_t n) {
  static constexpr std::int32_t kRamp[2 * kLanes] = {-1, -1, -1, -1, -1,
                                                     -1, -1, -1, 0,  0,
                                                     0,  0,  0,  0,  0,
                                                     0};
  return _mm256_loadu_si256(
      reinterpret_cast<const __m256i*>(kRamp + kLanes - n));
}

// Loads/stores vector v of an NV-vector tile; with kMaskLast the last
// vector touches only the lanes in `mask`.
template <int NV, bool kMaskLast>
RECD_AVX2 inline __m256 TileLoad(const float* p, int v, __m256i mask) {
  if (kMaskLast && v == NV - 1) return _mm256_maskload_ps(p, mask);
  return _mm256_loadu_ps(p);
}

template <int NV, bool kMaskLast>
RECD_AVX2 inline void TileStore(float* p, int v, __m256i mask, __m256 x) {
  if (kMaskLast && v == NV - 1) {
    _mm256_maskstore_ps(p, mask, x);
  } else {
    _mm256_storeu_ps(p, x);
  }
}

// Runs fn's NV-vector masked tile for the runtime count nv <= NV.
template <int NV, typename Fn>
RECD_AVX2 inline void TailTile(std::size_t nv, std::size_t col,
                               __m256i mask, Fn& fn) {
  if constexpr (NV > 1) {
    if (nv < static_cast<std::size_t>(NV)) {
      TailTile<NV - 1>(nv, col, mask, fn);
      return;
    }
  }
  fn.template operator()<NV, true>(col, mask);
}

// Calls fn.template operator()<NV, kMaskLast>(col, mask) for each
// register tile of `width` columns: full tiles of kMaxVecs vectors, then
// one tail tile of ceil(rest / 8) vectors whose last is masked.
template <int kMaxVecs, typename Fn>
RECD_AVX2 inline void ForEachTile(std::size_t width, Fn&& fn) {
  constexpr std::size_t kCols = kMaxVecs * kLanes;
  std::size_t col = 0;
  for (; col + kCols <= width; col += kCols) {
    fn.template operator()<kMaxVecs, false>(col, _mm256_setzero_si256());
  }
  const std::size_t rest = width - col;
  if (rest == 0) return;
  const std::size_t nv = (rest + kLanes - 1) / kLanes;
  TailTile<kMaxVecs>(nv, col, TailMask(rest - (nv - 1) * kLanes), fn);
}

// Sparse scaled-row sums in compressed form: output row q combines the
// entries offsets[q] .. offsets[q+1), each a source row index (ascending
// within a list) and its scale.
struct ScaledRowLists {
  std::vector<std::size_t> offsets;
  std::unique_ptr<std::uint32_t[]> src_rows;
  std::unique_ptr<float[]> vals;
};

// Lists, for each output row q < num_rows, the nonzero
// coef[q * q_stride + s * s_stride] over source rows s < src_rows in
// ascending s: exactly the terms the scalar loops keep after their
// `== 0` skip (-0 is dropped, NaN is kept). Branch-free, so a random
// ReLU zero pattern costs no mispredicts: every value is written and the
// cursor moves past nonzeros only. The slot after a list may hold a
// dropped value until the next list overwrites it, hence one spare slot.
RECD_AVX2 ScaledRowLists CompactNonzero(const float* coef,
                                        std::size_t num_rows,
                                        std::size_t q_stride,
                                        std::size_t src_rows,
                                        std::size_t s_stride) {
  ScaledRowLists lists;
  lists.offsets.resize(num_rows + 1);
  lists.src_rows =
      std::make_unique_for_overwrite<std::uint32_t[]>(num_rows * src_rows + 1);
  lists.vals = std::make_unique_for_overwrite<float[]>(num_rows * src_rows + 1);
  std::size_t t = 0;
  for (std::size_t q = 0; q < num_rows; ++q) {
    lists.offsets[q] = t;
    const float* cq = coef + q * q_stride;
    for (std::size_t s = 0; s < src_rows; ++s) {
      const float v = cq[s * s_stride];
      lists.src_rows[t] = static_cast<std::uint32_t>(s);
      lists.vals[t] = v;
      t += v != 0.0f ? 1 : 0;
    }
  }
  lists.offsets[num_rows] = t;
  return lists;
}

// Source rows per cache block of AddScaledRows: one 64-column tile of
// 64 source rows is 16 KiB, resident in L1 while every output row
// walks its entries in that block.
constexpr std::size_t kSrcBlock = 64;

// dst row q [0..width) += vals[t] * src row src_rows[t] [0..width) over
// q's entries in order, one mul-then-add per entry — per element, exactly
// the scalar `dst[j] += val * src[j]` loop over the same entries (the
// partial sum of a block goes through memory as the float it is). Both
// matrices have row stride `width`.
RECD_AVX2 void AddScaledRows(const ScaledRowLists& lists, const float* src,
                             std::size_t src_rows, float* dst,
                             std::size_t width) {
  const std::size_t num_rows = lists.offsets.size() - 1;
  std::vector<std::size_t> cursor(num_rows);
  ForEachTile<8>(width, [&]<int NV, bool kMaskLast>(
                            std::size_t col, __m256i mask) RECD_AVX2 {
    std::copy(lists.offsets.begin(), lists.offsets.end() - 1,
              cursor.begin());
    for (std::size_t end = kSrcBlock;; end += kSrcBlock) {
      for (std::size_t q = 0; q < num_rows; ++q) {
        std::size_t t = cursor[q];
        const std::size_t hi = lists.offsets[q + 1];
        if (t == hi || lists.src_rows[t] >= end) continue;
        float* out = dst + q * width + col;
        __m256 acc[NV];
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
          acc[v] = TileLoad<NV, kMaskLast>(out + v * kLanes, v, mask);
        }
        for (; t < hi && lists.src_rows[t] < end; ++t) {
          const __m256 s = _mm256_set1_ps(lists.vals[t]);
          const float* row = src + lists.src_rows[t] * width + col;
#pragma GCC unroll 8
          for (int v = 0; v < NV; ++v) {
            const __m256 x =
                TileLoad<NV, kMaskLast>(row + v * kLanes, v, mask);
            acc[v] = _mm256_add_ps(acc[v], _mm256_mul_ps(s, x));
          }
        }
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
          TileStore<NV, kMaskLast>(out + v * kLanes, v, mask, acc[v]);
        }
        cursor[q] = t;
      }
      if (end >= src_rows) break;
    }
  });
}

constexpr std::size_t kPanel = 2 * kLanes;  // MatmulABt packed columns
constexpr std::size_t kRowBlock = 4;        // rows per PanelTile

// out[ii][0 .. cols) = sum over ascending kk of
// a_rows[ii][kk] * panel[kk * panel_stride + 0 .. cols), one mul-then-add
// chain per output element: MR rows x NV lane vectors, so MR * NV
// independent chains advance per kk. The panel is read in whole vectors
// (its rows must hold NV * 8 floats); only the first `cols` columns of
// each output row are stored.
template <int MR, int NV>
RECD_AVX2 void PanelTile(const float* const* a_rows, std::size_t k,
                         const float* panel, std::size_t panel_stride,
                         float* out, std::size_t out_stride,
                         std::size_t cols) {
  __m256 acc[MR][NV];
#pragma GCC unroll 4
  for (int ii = 0; ii < MR; ++ii) {
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) acc[ii][v] = _mm256_setzero_ps();
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    __m256 bv[NV];
#pragma GCC unroll 2
    for (int v = 0; v < NV; ++v) {
      bv[v] = _mm256_loadu_ps(panel + kk * panel_stride + v * kLanes);
    }
#pragma GCC unroll 4
    for (int ii = 0; ii < MR; ++ii) {
      const __m256 av = _mm256_set1_ps(a_rows[ii][kk]);
#pragma GCC unroll 2
      for (int v = 0; v < NV; ++v) {
        acc[ii][v] = _mm256_add_ps(acc[ii][v], _mm256_mul_ps(av, bv[v]));
      }
    }
  }
  for (int ii = 0; ii < MR; ++ii) {
    for (int v = 0; v < NV; ++v) {
      float* dst = out + ii * out_stride + v * kLanes;
      const std::size_t lanes = std::min(kLanes, cols - v * kLanes);
      if (lanes == kLanes) {
        _mm256_storeu_ps(dst, acc[ii][v]);
      } else {
        _mm256_maskstore_ps(dst, TailMask(lanes), acc[ii][v]);
      }
    }
  }
}

// PanelTile over mr <= kRowBlock rows and 1 or 2 lane vectors (cols > 8).
RECD_AVX2 void PanelRowBlock(std::size_t mr, const float* const* a_rows,
                             std::size_t k, const float* panel,
                             std::size_t panel_stride, float* out,
                             std::size_t out_stride, std::size_t cols) {
  const auto run = [&]<int NV>() RECD_AVX2 {
    switch (mr) {
      case 1: PanelTile<1, NV>(a_rows, k, panel, panel_stride, out,
                               out_stride, cols); break;
      case 2: PanelTile<2, NV>(a_rows, k, panel, panel_stride, out,
                               out_stride, cols); break;
      case 3: PanelTile<3, NV>(a_rows, k, panel, panel_stride, out,
                               out_stride, cols); break;
      default: PanelTile<4, NV>(a_rows, k, panel, panel_stride, out,
                                out_stride, cols); break;
    }
  };
  if (cols > kLanes) {
    run.template operator()<2>();
  } else {
    run.template operator()<1>();
  }
}

}  // namespace

RECD_AVX2 void PooledLookup(const tensor::JaggedTensor& batch,
                            const float* weights, std::size_t hash_size,
                            std::size_t dim, Pool pool, float* out) {
  const std::size_t rows = batch.num_rows();
  std::fill_n(out, rows * dim, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto ids = batch.row(r);
    if (ids.empty()) continue;
    float* orow = out + r * dim;
    switch (pool) {
      case Pool::kSum:
      case Pool::kMean: {
        for (const auto id : ids) {
          AddRows(orow, weights + TableRow(id, hash_size) * dim, dim);
        }
        if (pool == Pool::kMean) {
          ScaleRow(orow, 1.0f / static_cast<float>(ids.size()), dim);
        }
        break;
      }
      case Pool::kMax: {
        std::memcpy(orow, weights + TableRow(ids[0], hash_size) * dim,
                    dim * sizeof(float));
        for (std::size_t i = 1; i < ids.size(); ++i) {
          MaxRows(orow, weights + TableRow(ids[i], hash_size) * dim, dim);
        }
        break;
      }
    }
  }
}

RECD_AVX2 void SumPoolGroup(std::span<const GroupFeature> group,
                            std::size_t dim, float* out) {
  const std::size_t rows = group.front().jt->num_rows();
  std::fill_n(out, rows * dim, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    float* orow = out + r * dim;
    for (const auto& f : group) {
      for (const auto id : f.jt->row(r)) {
        AddRows(orow, f.weights + TableRow(id, f.hash_size) * dim, dim);
      }
    }
  }
}

RECD_AVX2 void FusedPooledLookup(std::span<const GroupFeature> group,
                                 std::span<const std::int64_t> inverse,
                                 std::size_t dim, float* out) {
  const std::size_t unique_rows = group.front().jt->num_rows();
  const detail::InverseBuckets buckets =
      detail::BucketInverse(inverse, unique_rows);
  std::vector<float> buf(dim);
  for (std::size_t u = 0; u < unique_rows; ++u) {
    std::memset(buf.data(), 0, dim * sizeof(float));
    for (const auto& f : group) {
      for (const auto id : f.jt->row(u)) {
        AddRows(buf.data(), f.weights + TableRow(id, f.hash_size) * dim,
                dim);
      }
    }
    for (std::size_t s = buckets.offsets[u]; s < buckets.offsets[u + 1];
         ++s) {
      std::memcpy(out + static_cast<std::size_t>(buckets.slots[s]) * dim,
                  buf.data(), dim * sizeof(float));
    }
  }
}

RECD_AVX2 void ScatterSgdUpdate(const tensor::JaggedTensor& batch,
                                const float* grad, Pool pool, float lr,
                                float* weights, std::size_t hash_size,
                                std::size_t dim) {
  const std::size_t rows = batch.num_rows();
  for (std::size_t r = 0; r < rows; ++r) {
    const auto ids = batch.row(r);
    if (ids.empty()) continue;
    const float* g = grad + r * dim;
    const float scale = pool == Pool::kMean
                            ? lr / static_cast<float>(ids.size())
                            : lr;
    for (const auto id : ids) {
      SubScaledRow(weights + TableRow(id, hash_size) * dim, g, scale, dim);
    }
  }
}

RECD_AVX2 void MatmulABt(const float* a, std::size_t m, std::size_t k,
                         const float* b, std::size_t n, float* c) {
  // Pack 16 rows of b (16 output columns) k-major, zero-padded past n,
  // then sweep every a row block over the panel: the pack is reused
  // across all m rows and each k step feeds 8 independent chains.
  std::vector<float> pack(k * kPanel);
  for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
    const std::size_t cols = std::min(kPanel, n - j0);
    for (std::size_t jj = 0; jj < kPanel; ++jj) {
      for (std::size_t kk = 0; kk < k; ++kk) {
        pack[kk * kPanel + jj] = jj < cols ? b[(j0 + jj) * k + kk] : 0.0f;
      }
    }
    for (std::size_t i0 = 0; i0 < m; i0 += kRowBlock) {
      const std::size_t mr = std::min(kRowBlock, m - i0);
      const float* a_rows[kRowBlock];
      for (std::size_t ii = 0; ii < mr; ++ii) a_rows[ii] = a + (i0 + ii) * k;
      PanelRowBlock(mr, a_rows, k, pack.data(), kPanel, c + i0 * n + j0, n,
                    cols);
    }
  }
}

RECD_AVX2 void MatmulAB(const float* a, std::size_t m, std::size_t k,
                        const float* b, std::size_t n, float* c) {
  // Row i lists the nonzero a(i,kk) in ascending kk: the terms of the
  // scalar loop's `if (av == 0) continue`.
  const ScaledRowLists lists = CompactNonzero(a, m, k, k, 1);
  std::fill_n(c, m * n, 0.0f);
  AddScaledRows(lists, b, k, c, n);
}

RECD_AVX2 void AccumulateOuter(const float* g, std::size_t rows,
                               std::size_t out_dim, const float* x,
                               std::size_t in_dim, float* grad_w,
                               float* grad_b) {
  // Output row o lists the nonzero g(r,o) in ascending r — the batch
  // rows the scalar loop does not skip, in the order it visits them.
  const ScaledRowLists lists = CompactNonzero(g, out_dim, 1, rows, out_dim);
  AddScaledRows(lists, x, rows, grad_w, in_dim);
  for (std::size_t o = 0; o < out_dim; ++o) {
    for (std::size_t t = lists.offsets[o]; t < lists.offsets[o + 1]; ++t) {
      grad_b[o] += lists.vals[t];
    }
  }
}

RECD_AVX2 void InteractionForward(std::span<const float* const> inputs,
                                  std::size_t rows, std::size_t d,
                                  float* out) {
  const std::size_t f = inputs.size();
  const std::size_t width = d + f * (f - 1) / 2;
  // Per row: x_j transposed into xt (d x stride, lanes across j, zero
  // past f), then register tiles of the Gram matrix restricted to the
  // lane vectors that hold some j > i. The pairs of row i are the
  // contiguous run gram[i][i+1 .. f).
  const std::size_t stride = (f + kLanes - 1) / kLanes * kLanes;
  const std::size_t vecs = stride / kLanes;
  std::vector<float> xt(d * stride, 0.0f);
  std::vector<float> gram(f * stride);
  std::vector<const float*> xi(f);
  for (std::size_t r = 0; r < rows; ++r) {
    float* orow = out + r * width;
    std::memcpy(orow, inputs[0] + r * d, d * sizeof(float));
    if (f < 2) continue;
    for (std::size_t j = 0; j < f; ++j) {
      xi[j] = inputs[j] + r * d;
      for (std::size_t c = 0; c < d; ++c) xt[c * stride + j] = xi[j][c];
    }
    for (std::size_t i0 = 0; i0 + 1 < f; i0 += kRowBlock) {
      const std::size_t mr = std::min(kRowBlock, f - 1 - i0);
      for (std::size_t v = (i0 + 1) / kLanes; v < vecs; v += 2) {
        PanelRowBlock(mr, xi.data() + i0, d, xt.data() + v * kLanes, stride,
                      gram.data() + i0 * stride + v * kLanes, stride,
                      std::min(kPanel, stride - v * kLanes));
      }
    }
    float* pairs = orow + d;
    for (std::size_t i = 0; i + 1 < f; ++i) {
      const std::size_t cnt = f - 1 - i;
      std::memcpy(pairs, gram.data() + i * stride + i + 1,
                  cnt * sizeof(float));
      pairs += cnt;
    }
  }
}

RECD_AVX2 void InteractionBackward(const float* grad_out,
                                   std::span<const float* const> inputs,
                                   std::size_t rows, std::size_t d,
                                   std::span<float* const> grads) {
  const std::size_t f = inputs.size();
  const std::size_t width = d + f * (f - 1) / 2;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* g = grad_out + r * width;
    const std::size_t off = r * d;
    AddRows(grads[0] + off, g, d);
    // Up to 32 columns at a time: grad_i and x_i stay in registers
    // while j sweeps; every element still sees the pairs in (i, j)
    // order.
    ForEachTile<4>(d, [&]<int NV, bool kMaskLast>(
                          std::size_t col, __m256i mask) RECD_AVX2 {
      const std::size_t at = off + col;
      const float* gp = g + d;  // pair gradients of row i
      for (std::size_t i = 0; i + 1 < f; ++i) {
        __m256 xv[NV];
        __m256 gi[NV];
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          xv[v] = TileLoad<NV, kMaskLast>(inputs[i] + at + v * kLanes, v,
                                          mask);
          gi[v] = TileLoad<NV, kMaskLast>(grads[i] + at + v * kLanes, v,
                                          mask);
        }
        for (std::size_t j = i + 1; j < f; ++j) {
          const float gd = *gp++;
          if (gd == 0.0f) continue;
          const __m256 s = _mm256_set1_ps(gd);
          const float* xj = inputs[j] + at;
          float* gj = grads[j] + at;
#pragma GCC unroll 4
          for (int v = 0; v < NV; ++v) {
            const __m256 x = TileLoad<NV, kMaskLast>(xj + v * kLanes, v,
                                                     mask);
            gi[v] = _mm256_add_ps(gi[v], _mm256_mul_ps(s, x));
            const __m256 gjv = TileLoad<NV, kMaskLast>(gj + v * kLanes, v,
                                                       mask);
            TileStore<NV, kMaskLast>(
                gj + v * kLanes, v, mask,
                _mm256_add_ps(gjv, _mm256_mul_ps(s, xv[v])));
          }
        }
#pragma GCC unroll 4
        for (int v = 0; v < NV; ++v) {
          TileStore<NV, kMaskLast>(grads[i] + at + v * kLanes, v, mask,
                                   gi[v]);
        }
      }
    });
  }
}

RECD_AVX2 double BceLossSum(const float* logits, const float* labels,
                            std::size_t n) {
  // SIMD computes the algebraic parts alg = max(z,0) - z*y and
  // t = -|z|; log1p/exp stay scalar libm (a vector exp would not be
  // bit-identical). The double accumulation runs in row order, and
  // alg + log1p(exp(t)) reproduces the scalar expression's float
  // evaluation order.
  constexpr std::size_t kBlock = 256;
  alignas(32) float alg[kBlock];
  alignas(32) float t[kBlock];
  const __m256 zero = _mm256_setzero_ps();
  const __m256 sign = _mm256_set1_ps(-0.0f);
  double total = 0.0;
  for (std::size_t base = 0; base < n; base += kBlock) {
    const std::size_t len = std::min(kBlock, n - base);
    std::size_t i = 0;
    for (; i + kLanes <= len; i += kLanes) {
      const __m256 z = _mm256_loadu_ps(logits + base + i);
      const __m256 y = _mm256_loadu_ps(labels + base + i);
      // max(z, 0.0f) as vmaxps(0, z): ±0 and NaN resolve to the second
      // operand, matching std::max's (a<b)?b:a with a==z.
      const __m256 mz = _mm256_max_ps(zero, z);
      _mm256_storeu_ps(alg + i,
                       _mm256_sub_ps(mz, _mm256_mul_ps(z, y)));
      // -|z| = z with the sign bit forced on — bit-exact.
      _mm256_storeu_ps(t + i, _mm256_or_ps(_mm256_andnot_ps(sign, z),
                                           sign));
    }
    for (; i < len; ++i) {
      const float z = logits[base + i];
      alg[i] = std::max(z, 0.0f) - z * labels[base + i];
      t[i] = -std::abs(z);
    }
    for (std::size_t r = 0; r < len; ++r) {
      total += alg[r] + std::log1p(std::exp(t[r]));
    }
  }
  return total;
}

RECD_AVX2 void BceGrad(const float* logits, const float* labels,
                       std::size_t n, float inv_denom, float* grad) {
  // The branchy stable sigmoid stays scalar; the (s - y) * inv_denom
  // epilogue runs vectorized over rows (elementwise — no reduction).
  for (std::size_t r = 0; r < n; ++r) {
    const float z = logits[r];
    if (z >= 0.0f) {
      grad[r] = 1.0f / (1.0f + std::exp(-z));
    } else {
      const float e = std::exp(z);
      grad[r] = e / (1.0f + e);
    }
  }
  const __m256 inv = _mm256_set1_ps(inv_denom);
  std::size_t r = 0;
  for (; r + kLanes <= n; r += kLanes) {
    const __m256 s = _mm256_loadu_ps(grad + r);
    const __m256 y = _mm256_loadu_ps(labels + r);
    _mm256_storeu_ps(grad + r,
                     _mm256_mul_ps(_mm256_sub_ps(s, y), inv));
  }
  for (; r < n; ++r) grad[r] = (grad[r] - labels[r]) * inv_denom;
}

RECD_AVX2 void SgdUpdate(float* w, const float* g, std::size_t n,
                         float lr) {
  SubScaledRow(w, g, lr, n);
}

RECD_AVX2 void AddInPlace(float* dst, const float* src, std::size_t n) {
  AddRows(dst, src, n);
}

RECD_AVX2 void AddRowBias(float* y, std::size_t rows, std::size_t cols,
                          const float* bias) {
  for (std::size_t r = 0; r < rows; ++r) {
    AddRows(y + r * cols, bias, cols);
  }
}

RECD_AVX2 void ReluInPlace(float* v, std::size_t n) {
  // Zero exactly where v < 0 (ordered: NaN stays, -0 stays) — the
  // scalar branch, lane-parallel.
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 x = _mm256_loadu_ps(v + i);
    const __m256 neg = _mm256_cmp_ps(x, zero, _CMP_LT_OQ);
    _mm256_storeu_ps(v + i, _mm256_andnot_ps(neg, x));
  }
  for (; i < n; ++i) {
    if (v[i] < 0.0f) v[i] = 0.0f;
  }
}

RECD_AVX2 void ReluMask(float* g, const float* pre, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 p = _mm256_loadu_ps(pre + i);
    const __m256 off = _mm256_cmp_ps(p, zero, _CMP_LE_OQ);
    _mm256_storeu_ps(g + i,
                     _mm256_andnot_ps(off, _mm256_loadu_ps(g + i)));
  }
  for (; i < n; ++i) {
    if (pre[i] <= 0.0f) g[i] = 0.0f;
  }
}

RECD_AVX2 void DenseNormalize(float* x, std::size_t n, float mean,
                              float inv_scale) {
  const __m256 mv = _mm256_set1_ps(mean);
  const __m256 iv = _mm256_set1_ps(inv_scale);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    _mm256_storeu_ps(
        x + i,
        _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(x + i), mv), iv));
  }
  for (; i < n; ++i) x[i] = (x[i] - mean) * inv_scale;
}

RECD_AVX2 void DenseClamp(float* x, std::size_t n, float lo, float hi) {
  // std::clamp is (v < lo) ? lo : (hi < v) ? hi : v — apply the hi
  // replacement first, then lo, so lo has the same priority as the
  // nested ternary; NaN fails both ordered compares and passes through.
  const __m256 lov = _mm256_set1_ps(lo);
  const __m256 hiv = _mm256_set1_ps(hi);
  std::size_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256 gt = _mm256_cmp_ps(hiv, v, _CMP_LT_OQ);
    const __m256 lt = _mm256_cmp_ps(v, lov, _CMP_LT_OQ);
    __m256 r = _mm256_blendv_ps(v, hiv, gt);
    r = _mm256_blendv_ps(r, lov, lt);
    _mm256_storeu_ps(x + i, r);
  }
  for (; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

#undef RECD_AVX2

#else  // !RECD_KERNELS_AVX2

// Non-x86 (or non-GNU) builds: the dispatcher never selects simd::
// (VectorizedAvailable() is false), but the symbols must exist.
void PooledLookup(const tensor::JaggedTensor& batch, const float* weights,
                  std::size_t hash_size, std::size_t dim, Pool pool,
                  float* out) {
  detail::PooledLookup(batch, weights, hash_size, dim, pool, out);
}
void SumPoolGroup(std::span<const GroupFeature> group, std::size_t dim,
                  float* out) {
  detail::SumPoolGroup(group, dim, out);
}
void FusedPooledLookup(std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out) {
  detail::FusedPooledLookup(group, inverse, dim, out);
}
void ScatterSgdUpdate(const tensor::JaggedTensor& batch, const float* grad,
                      Pool pool, float lr, float* weights,
                      std::size_t hash_size, std::size_t dim) {
  detail::ScatterSgdUpdate(batch, grad, pool, lr, weights, hash_size, dim);
}
void MatmulABt(const float* a, std::size_t m, std::size_t k, const float* b,
               std::size_t n, float* c) {
  detail::MatmulABt(a, m, k, b, n, c);
}
void MatmulAB(const float* a, std::size_t m, std::size_t k, const float* b,
              std::size_t n, float* c) {
  detail::MatmulAB(a, m, k, b, n, c);
}
void AccumulateOuter(const float* g, std::size_t rows, std::size_t out_dim,
                     const float* x, std::size_t in_dim, float* grad_w,
                     float* grad_b) {
  detail::AccumulateOuter(g, rows, out_dim, x, in_dim, grad_w, grad_b);
}
void InteractionForward(std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out) {
  detail::InteractionForward(inputs, rows, d, out);
}
void InteractionBackward(const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads) {
  detail::InteractionBackward(grad_out, inputs, rows, d, grads);
}
double BceLossSum(const float* logits, const float* labels, std::size_t n) {
  return detail::BceLossSum(logits, labels, n);
}
void BceGrad(const float* logits, const float* labels, std::size_t n,
             float inv_denom, float* grad) {
  detail::BceGrad(logits, labels, n, inv_denom, grad);
}
void SgdUpdate(float* w, const float* g, std::size_t n, float lr) {
  detail::SgdUpdate(w, g, n, lr);
}
void AddInPlace(float* dst, const float* src, std::size_t n) {
  detail::AddInPlace(dst, src, n);
}
void AddRowBias(float* y, std::size_t rows, std::size_t cols,
                const float* bias) {
  detail::AddRowBias(y, rows, cols, bias);
}
void ReluInPlace(float* v, std::size_t n) { detail::ReluInPlace(v, n); }
void ReluMask(float* g, const float* pre, std::size_t n) {
  detail::ReluMask(g, pre, n);
}
void DenseNormalize(float* x, std::size_t n, float mean, float inv_scale) {
  detail::DenseNormalize(x, n, mean, inv_scale);
}
void DenseClamp(float* x, std::size_t n, float lo, float hi) {
  detail::DenseClamp(x, n, lo, hi);
}

#endif  // RECD_KERNELS_AVX2

}  // namespace recd::kernels::simd
