// Bitwise parity suite for the kernel layer (src/kernels/): every
// vectorized kernel must produce output bit-identical to the scalar
// oracle — memcmp-level equality, not tolerance — across awkward shapes
// (odd dims, tail lanes shorter than the vector width, empty rows,
// single-id pools, unaligned slices) and the exact-semantics hazards
// (signed zeros, the zero-skip GEMM branches, NaN pass-through).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "datagen/generator.h"
#include "datagen/presets.h"
#include "etl/etl.h"
#include "kernels/backend.h"
#include "kernels/kernels.h"
#include "nn/embedding.h"
#include "nn/interaction.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "reader/reader_pool.h"
#include "storage/table.h"
#include "tensor/jagged_ops.h"
#include "train/model.h"
#include "train/reference.h"

namespace recd::kernels {
namespace {

using tensor::JaggedTensor;

constexpr KernelBackend kS = KernelBackend::kScalar;
constexpr KernelBackend kV = KernelBackend::kVectorized;

// Sizes straddling the 8-lane AVX2 width: below, exact, above, and
// odd/prime tails.
const std::vector<std::size_t> kDims = {1, 3, 7, 8, 9, 16, 17, 31, 33, 64};

std::vector<float> RandVec(std::size_t n, common::Rng& rng) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.UniformReal() * 2.0 - 1.0);
    if (i % 7 == 3) v[i] = 0.0f;    // exercise zero-skip branches
    if (i % 11 == 5) v[i] = -0.0f;  // signed-zero hazard
  }
  return v;
}

::testing::AssertionResult BitwiseEq(std::span<const float> a,
                                     std::span<const float> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size mismatch";
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "first diff at " << i << ": " << a[i] << " vs " << b[i];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// Rows cover: empty, single id, duplicate ids, long (> 8) sequences.
JaggedTensor AwkwardBatch() {
  return JaggedTensor::FromRows(
      {{}, {5}, {1, 2, 3}, {7, 7, 7, 7}, {0}, {},
       {9, 11, 13, 2, 4, 6, 8, 10, 12, 14, 16}, {3, 3}});
}

// -------------------------------------------------------------- backend --

TEST(KernelBackendTest, ParseAndName) {
  EXPECT_EQ(ParseBackend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(ParseBackend("vectorized"), KernelBackend::kVectorized);
  EXPECT_STREQ(BackendName(KernelBackend::kScalar), "scalar");
  EXPECT_STREQ(BackendName(KernelBackend::kVectorized), "vectorized");
  EXPECT_THROW((void)ParseBackend("avx9000"), std::invalid_argument);
  EXPECT_THROW((void)ParseBackend(""), std::invalid_argument);
}

TEST(KernelBackendTest, DefaultBackendIsStable) {
  // Whatever it resolves to (env-dependent), it must not change between
  // calls — layer objects cache it at construction.
  EXPECT_EQ(DefaultBackend(), DefaultBackend());
}

// ------------------------------------------------------- pooled lookups --

// EmbeddingTable::PooledForward's path: one table as a one-feature group.
TEST(KernelParityTest, SumPoolGroupOneFeatureAllDims) {
  common::Rng rng(7);
  const auto batch = AwkwardBatch();
  const std::size_t hash_size = 17;
  for (const auto dim : kDims) {
    const auto weights = RandVec(hash_size * dim, rng);
    const GroupFeature group[] = {{&batch, weights.data(), hash_size}};
    std::vector<float> a(batch.num_rows() * dim, -1.0f);
    std::vector<float> b(batch.num_rows() * dim, 1.0f);
    SumPoolGroup(kS, group, dim, a.data());
    SumPoolGroup(kV, group, dim, b.data());
    EXPECT_TRUE(BitwiseEq(a, b)) << "dim " << dim;
  }
}

TEST(KernelParityTest, SumPoolGroupOneFeatureUnalignedWeights) {
  // Offset the weights base pointer off the allocation start so SIMD
  // loads cross cachelines; loadu semantics must not care.
  common::Rng rng(11);
  const std::size_t dim = 16;
  const std::size_t hash_size = 13;
  const auto storage = RandVec(hash_size * dim + 3, rng);
  const float* weights = storage.data() + 3;
  const auto batch = AwkwardBatch();
  const GroupFeature group[] = {{&batch, weights, hash_size}};
  std::vector<float> a(batch.num_rows() * dim);
  std::vector<float> b(batch.num_rows() * dim);
  SumPoolGroup(kS, group, dim, a.data());
  SumPoolGroup(kV, group, dim, b.data());
  EXPECT_TRUE(BitwiseEq(a, b));
}

TEST(KernelParityTest, SumPoolGroupAndFusedLookup) {
  common::Rng rng(13);
  const auto jt1 = AwkwardBatch();
  const auto jt2 = JaggedTensor::FromRows(
      {{2, 4}, {}, {6}, {1, 1, 1}, {8, 16, 24}, {5}, {}, {0}});
  for (const auto dim : kDims) {
    const auto w1 = RandVec(17 * dim, rng);
    const auto w2 = RandVec(23 * dim, rng);
    const GroupFeature group[] = {{&jt1, w1.data(), 17},
                                  {&jt2, w2.data(), 23}};
    const std::size_t unique_rows = jt1.num_rows();
    std::vector<float> pa(unique_rows * dim), pb(unique_rows * dim);
    SumPoolGroup(kS, group, dim, pa.data());
    SumPoolGroup(kV, group, dim, pb.data());
    EXPECT_TRUE(BitwiseEq(pa, pb)) << "SumPoolGroup dim " << dim;

    // Inverse with duplicate, out-of-order, and never-referenced slots.
    const std::vector<std::int64_t> inverse = {3, 0, 0, 7, 5, 2, 2, 2,
                                               1, 6, 3, 0};
    std::vector<float> fa(inverse.size() * dim), fb(inverse.size() * dim);
    FusedPooledLookup(kS, group, inverse, dim, fa.data());
    FusedPooledLookup(kV, group, inverse, dim, fb.data());
    EXPECT_TRUE(BitwiseEq(fa, fb)) << "Fused dim " << dim;

    // Fused == pool-unique-then-gather, bit for bit.
    std::vector<float> gathered(inverse.size() * dim);
    GatherRows(kS, pa.data(), dim, inverse, gathered.data());
    EXPECT_TRUE(BitwiseEq(fa, gathered)) << "Fused vs gather dim " << dim;
  }
}

TEST(KernelParityTest, ScatterSgdUpdate) {
  common::Rng rng(17);
  const auto batch = AwkwardBatch();
  const std::size_t hash_size = 17;
  for (const auto dim : kDims) {
    auto wa = RandVec(hash_size * dim, rng);
    auto wb = wa;
    const auto grad = RandVec(batch.num_rows() * dim, rng);
    ScatterSgdUpdate(kS, batch, grad.data(), 0.05f, wa.data(), hash_size,
                     dim);
    ScatterSgdUpdate(kV, batch, grad.data(), 0.05f, wb.data(), hash_size,
                     dim);
    EXPECT_TRUE(BitwiseEq(wa, wb)) << "dim " << dim;
  }
}

// ----------------------------------------------------------------- GEMM --

TEST(KernelParityTest, MatmulABt) {
  common::Rng rng(19);
  for (const auto m : {1u, 3u, 8u}) {
    for (const auto k : kDims) {
      for (const auto n : kDims) {
        const auto a = RandVec(m * k, rng);
        const auto b = RandVec(n * k, rng);
        std::vector<float> ca(m * n, -2.0f), cb(m * n, 2.0f);
        MatmulABt(kS, a.data(), m, k, b.data(), n, ca.data());
        MatmulABt(kV, a.data(), m, k, b.data(), n, cb.data());
        EXPECT_TRUE(BitwiseEq(ca, cb))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, MatmulABWithZeroSkips) {
  common::Rng rng(23);
  for (const auto m : {1u, 5u}) {
    for (const auto k : kDims) {
      for (const auto n : kDims) {
        auto a = RandVec(m * k, rng);  // RandVec plants exact zeros
        const auto b = RandVec(k * n, rng);
        std::vector<float> ca(m * n), cb(m * n);
        MatmulAB(kS, a.data(), m, k, b.data(), n, ca.data());
        MatmulAB(kV, a.data(), m, k, b.data(), n, cb.data());
        EXPECT_TRUE(BitwiseEq(ca, cb))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, AccumulateOuter) {
  common::Rng rng(29);
  for (const auto rows : {1u, 6u}) {
    for (const auto out_dim : {1u, 7u, 9u}) {
      for (const auto in_dim : kDims) {
        const auto g = RandVec(rows * out_dim, rng);  // has exact zeros
        const auto x = RandVec(rows * in_dim, rng);
        auto gwa = RandVec(out_dim * in_dim, rng);
        auto gwb = gwa;
        auto gba = RandVec(out_dim, rng);
        auto gbb = gba;
        AccumulateOuter(kS, g.data(), rows, out_dim, x.data(), in_dim,
                        gwa.data(), gba.data());
        AccumulateOuter(kV, g.data(), rows, out_dim, x.data(), in_dim,
                        gwb.data(), gbb.data());
        EXPECT_TRUE(BitwiseEq(gwa, gwb));
        EXPECT_TRUE(BitwiseEq(gba, gbb));
      }
    }
  }
}

// Register-tile edges of the vectorized GEMMs: a-row counts around the
// 4-row block, and column counts around the 16-column panel, the
// 64-column tile and its masked tail.
const std::vector<std::size_t> kTileRows = {1, 2, 3, 4,  5,
                                            6, 7, 8, 9, 13, 128};
const std::vector<std::size_t> kTileCols = {63, 64, 65, 127, 359};

// NaN, ±Inf and -0 — values a skipped term must never touch.
void PlantSpecials(float* row, std::size_t n) {
  const float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             -0.0f};
  for (std::size_t j = 0; j < n; ++j) row[j] = kSpecials[j % 4];
}

bool AllFinite(std::span<const float> v) {
  for (const float x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

TEST(KernelParityTest, MatmulABtTileEdges) {
  common::Rng rng(71);
  for (const auto m : kTileRows) {
    for (const auto k : kTileCols) {
      for (const auto n : kTileCols) {
        const auto a = RandVec(m * k, rng);
        const auto b = RandVec(n * k, rng);
        std::vector<float> ca(m * n, -2.0f), cb(m * n, 2.0f);
        MatmulABt(kS, a.data(), m, k, b.data(), n, ca.data());
        MatmulABt(kV, a.data(), m, k, b.data(), n, cb.data());
        EXPECT_TRUE(BitwiseEq(ca, cb))
            << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, MatmulABTileEdgesSkipNonFiniteRows) {
  // Every 5th column of a is zero (+0 and -0) and the matching row of b
  // holds NaN/±Inf/-0: the zero-skip must keep them out of c entirely.
  common::Rng rng(73);
  for (const auto m : kTileRows) {
    for (const auto k : kTileCols) {
      for (const auto n : kTileCols) {
        auto a = RandVec(m * k, rng);
        auto b = RandVec(k * n, rng);
        for (std::size_t kk = 2; kk < k; kk += 5) {
          for (std::size_t i = 0; i < m; ++i) {
            a[i * k + kk] = i % 2 == 0 ? 0.0f : -0.0f;
          }
          PlantSpecials(b.data() + kk * n, n);
        }
        std::vector<float> ca(m * n, -2.0f), cb(m * n, 2.0f);
        MatmulAB(kS, a.data(), m, k, b.data(), n, ca.data());
        MatmulAB(kV, a.data(), m, k, b.data(), n, cb.data());
        EXPECT_TRUE(BitwiseEq(ca, cb))
            << "m=" << m << " k=" << k << " n=" << n;
        EXPECT_TRUE(AllFinite(cb)) << "m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(KernelParityTest, AccumulateOuterTileEdgesSkipNonFiniteRows) {
  // Every 5th batch row of g is zero (+0 and -0) and the matching row of
  // x holds NaN/±Inf/-0: neither grad_w nor grad_b may see them.
  common::Rng rng(79);
  for (const auto rows : kTileRows) {
    for (const auto out_dim : {1u, 9u, 64u}) {
      for (const auto in_dim : kTileCols) {
        auto g = RandVec(rows * out_dim, rng);
        auto x = RandVec(rows * in_dim, rng);
        for (std::size_t r = 2; r < rows; r += 5) {
          for (std::size_t o = 0; o < out_dim; ++o) {
            g[r * out_dim + o] = o % 2 == 0 ? 0.0f : -0.0f;
          }
          PlantSpecials(x.data() + r * in_dim, in_dim);
        }
        auto gwa = RandVec(out_dim * in_dim, rng);
        auto gwb = gwa;
        auto gba = RandVec(out_dim, rng);
        auto gbb = gba;
        AccumulateOuter(kS, g.data(), rows, out_dim, x.data(), in_dim,
                        gwa.data(), gba.data());
        AccumulateOuter(kV, g.data(), rows, out_dim, x.data(), in_dim,
                        gwb.data(), gbb.data());
        EXPECT_TRUE(BitwiseEq(gwa, gwb))
            << "rows=" << rows << " out=" << out_dim << " in=" << in_dim;
        EXPECT_TRUE(BitwiseEq(gba, gbb));
        EXPECT_TRUE(AllFinite(gwb));
      }
    }
  }
}

// ---------------------------------------------------------- interaction --

TEST(KernelParityTest, FeatureInteractionForwardBackward) {
  // Inputs carry signed zeros (RandVec) and a sparse quiet NaN; grad_out
  // carries exact ±0 so the pair-gradient skip is exercised.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  common::Rng rng(83);
  const std::size_t rows = 3;
  for (const std::size_t f : {1u, 2u, 7u, 8u, 9u, 22u, 33u}) {
    for (const std::size_t d : {1u, 5u, 8u, 13u, 128u}) {
      std::vector<nn::DenseMatrix> x(f, nn::DenseMatrix(rows, d));
      std::vector<const nn::DenseMatrix*> ptrs;
      for (std::size_t i = 0; i < f; ++i) {
        const auto v = RandVec(rows * d, rng);
        std::copy(v.begin(), v.end(), x[i].data().begin());
        if (i % 5 == 3) x[i].data()[(i * 7) % (rows * d)] = nan;
        ptrs.push_back(&x[i]);
      }
      nn::FeatureInteraction sa;
      nn::FeatureInteraction sb;
      sa.set_backend(kS);
      sb.set_backend(kV);
      const auto ya = sa.Forward(ptrs);
      const auto yb = sb.Forward(ptrs);
      EXPECT_TRUE(BitwiseEq(ya.data(), yb.data()))
          << "forward F=" << f << " d=" << d;

      nn::DenseMatrix grad(rows, ya.cols());
      const auto gv = RandVec(grad.size(), rng);
      std::copy(gv.begin(), gv.end(), grad.data().begin());
      std::vector<nn::DenseMatrix> ga, gb;
      sa.Backward(grad, ptrs, ga);
      sb.Backward(grad, ptrs, gb);
      ASSERT_EQ(ga.size(), f);
      ASSERT_EQ(gb.size(), f);
      for (std::size_t i = 0; i < f; ++i) {
        EXPECT_TRUE(BitwiseEq(ga[i].data(), gb[i].data()))
            << "backward input " << i << " F=" << f << " d=" << d;
      }
    }
  }
}

// ----------------------------------------------------------------- loss --

TEST(KernelParityTest, BceLossSumAcrossBlockBoundaries) {
  common::Rng rng(31);
  // 256 is the vectorized path's internal block; straddle it.
  for (const auto n : {1u, 7u, 8u, 9u, 255u, 256u, 257u, 1000u}) {
    std::vector<float> logits(n), labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      logits[i] = static_cast<float>((rng.UniformReal() * 2.0 - 1.0) * 20);
      labels[i] = rng.UniformReal() < 0.5 ? 0.0f : 1.0f;
    }
    logits[0] = 0.0f;
    if (n > 2) logits[2] = -0.0f;
    const double a = BceLossSum(kS, logits.data(), labels.data(), n);
    const double b = BceLossSum(kV, logits.data(), labels.data(), n);
    EXPECT_EQ(a, b) << "n=" << n;  // exact double equality
  }
}

TEST(KernelParityTest, BceGrad) {
  common::Rng rng(37);
  for (const auto n : {1u, 8u, 9u, 300u}) {
    std::vector<float> logits(n), labels(n);
    for (std::size_t i = 0; i < n; ++i) {
      logits[i] = static_cast<float>((rng.UniformReal() * 2.0 - 1.0) * 10);
      labels[i] = rng.UniformReal() < 0.5 ? 0.0f : 1.0f;
    }
    std::vector<float> ga(n), gb(n);
    BceGrad(kS, logits.data(), labels.data(), n, 1.0f / 64.0f, ga.data());
    BceGrad(kV, logits.data(), labels.data(), n, 1.0f / 64.0f, gb.data());
    EXPECT_TRUE(BitwiseEq(ga, gb)) << "n=" << n;
  }
}

// ----------------------------------------------------------- elementwise --

TEST(KernelParityTest, ElementwiseKernels) {
  common::Rng rng(41);
  for (const auto n : kDims) {
    const auto src = RandVec(n, rng);
    auto da = RandVec(n, rng);
    auto db = da;

    SgdUpdate(kS, da.data(), src.data(), n, 0.05f);
    SgdUpdate(kV, db.data(), src.data(), n, 0.05f);
    EXPECT_TRUE(BitwiseEq(da, db)) << "SgdUpdate n=" << n;

    AddInPlace(kS, da.data(), src.data(), n);
    AddInPlace(kV, db.data(), src.data(), n);
    EXPECT_TRUE(BitwiseEq(da, db)) << "AddInPlace n=" << n;

    DenseNormalize(kS, da.data(), n, 0.25f, 1.5f);
    DenseNormalize(kV, db.data(), n, 0.25f, 1.5f);
    EXPECT_TRUE(BitwiseEq(da, db)) << "DenseNormalize n=" << n;
  }
}

TEST(KernelParityTest, AddRowBias) {
  common::Rng rng(43);
  for (const auto cols : kDims) {
    const std::size_t rows = 5;
    const auto bias = RandVec(cols, rng);
    auto ya = RandVec(rows * cols, rng);
    auto yb = ya;
    AddRowBias(kS, ya.data(), rows, cols, bias.data());
    AddRowBias(kV, yb.data(), rows, cols, bias.data());
    EXPECT_TRUE(BitwiseEq(ya, yb)) << "cols=" << cols;
  }
}

TEST(KernelParityTest, ReluPreservesSignedZeroAndNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  common::Rng rng(47);
  for (const auto n : {3u, 8u, 11u}) {
    std::vector<float> va(n, 0.0f);
    va[0] = -0.0f;
    va[1] = -1.5f;
    if (n > 2) va[2] = nan;
    if (n > 9) va[9] = 2.5f;
    auto vb = va;
    auto pre = va;
    ReluInPlace(kS, va.data(), n);
    ReluInPlace(kV, vb.data(), n);
    EXPECT_TRUE(BitwiseEq(va, vb)) << "ReluInPlace n=" << n;
    // The scalar branch keeps -0 (since -0 < 0 is false) and NaN.
    EXPECT_TRUE(std::signbit(va[0]));
    if (n > 2) {
      EXPECT_TRUE(std::isnan(va[2]));
    }

    auto ga = RandVec(n, rng);
    auto gb = ga;
    ReluMask(kS, ga.data(), pre.data(), n);
    ReluMask(kV, gb.data(), pre.data(), n);
    EXPECT_TRUE(BitwiseEq(ga, gb)) << "ReluMask n=" << n;
  }
}

// ------------------------------------------------- layer-level parity --

TEST(KernelLayerParityTest, EmbeddingTableTrainLoop) {
  common::Rng rng_a(51);
  common::Rng rng_b(51);
  nn::EmbeddingTable ta(29, 17, rng_a);
  nn::EmbeddingTable tb(29, 17, rng_b);
  ta.set_backend(kS);
  tb.set_backend(kV);
  const auto batch = AwkwardBatch();
  common::Rng grad_rng(53);
  for (int step = 0; step < 4; ++step) {
    const auto fa = ta.PooledForward(batch);
    const auto fb = tb.PooledForward(batch);
    EXPECT_TRUE(fa == fb) << "forward step " << step;
    nn::DenseMatrix grad(batch.num_rows(), 17);
    const auto g = RandVec(grad.size(), grad_rng);
    std::copy(g.begin(), g.end(), grad.data().begin());
    ta.ApplyPooledGradient(batch, grad, 0.05f);
    tb.ApplyPooledGradient(batch, grad, 0.05f);
    EXPECT_TRUE(ta.weights() == tb.weights()) << "weights step " << step;
  }
}

TEST(KernelLayerParityTest, EmbeddingFusedMatchesPoolThenGather) {
  common::Rng rng_a(57);
  common::Rng rng_b(57);
  nn::EmbeddingTable ta(31, 9, rng_a);
  nn::EmbeddingTable tb(31, 9, rng_b);
  ta.set_backend(kS);
  tb.set_backend(kV);
  const auto unique = AwkwardBatch();
  const std::vector<std::int64_t> inverse = {1, 1, 4, 0, 7, 3, 3, 2, 6,
                                             5, 0, 0, 7};
  const auto fused_a = ta.FusedPooledForward(unique, inverse);
  const auto fused_b = tb.FusedPooledForward(unique, inverse);
  EXPECT_TRUE(fused_a == fused_b);
  const auto two_step = train::ExpandRows(ta.PooledForward(unique), inverse);
  EXPECT_TRUE(fused_a == two_step);
}

TEST(KernelLayerParityTest, MlpTrainLoop) {
  common::Rng rng_a(61);
  common::Rng rng_b(61);
  nn::Mlp ma({7, 9, 5, 1}, rng_a);
  nn::Mlp mb({7, 9, 5, 1}, rng_b);
  ma.set_backend(kS);
  mb.set_backend(kV);
  common::Rng data_rng(63);
  for (int step = 0; step < 4; ++step) {
    nn::DenseMatrix x(6, 7);
    const auto xv = RandVec(x.size(), data_rng);
    std::copy(xv.begin(), xv.end(), x.data().begin());
    const auto ya = ma.Forward(x);
    const auto yb = mb.Forward(x);
    EXPECT_TRUE(ya == yb) << "forward step " << step;
    nn::DenseMatrix grad(6, 1);
    const auto gv = RandVec(grad.size(), data_rng);
    std::copy(gv.begin(), gv.end(), grad.data().begin());
    const auto gxa = ma.Backward(grad);
    const auto gxb = mb.Backward(grad);
    EXPECT_TRUE(gxa == gxb) << "backward step " << step;
    ma.Step(0.05f);
    mb.Step(0.05f);
    for (std::size_t l = 0; l < ma.num_layers(); ++l) {
      EXPECT_TRUE(ma.layer(l).weights() == mb.layer(l).weights())
          << "layer " << l << " step " << step;
    }
  }
}

TEST(KernelLayerParityTest, LossOverloadsMatch) {
  common::Rng rng(67);
  nn::DenseMatrix logits(33, 1);
  std::vector<float> labels(33);
  const auto lv = RandVec(logits.size(), rng);
  std::copy(lv.begin(), lv.end(), logits.data().begin());
  for (auto& y : labels) y = rng.UniformReal() < 0.5 ? 0.0f : 1.0f;
  EXPECT_EQ(nn::BceWithLogitsLossSum(kS, logits, labels),
            nn::BceWithLogitsLossSum(kV, logits, labels));
  EXPECT_TRUE(nn::BceWithLogitsGrad(kS, logits, labels, 64) ==
              nn::BceWithLogitsGrad(kV, logits, labels, 64));
}

// --------------------------------------------- end-to-end model parity --

TEST(KernelModelParityTest, ReferenceDlrmTrainStepsBitwiseAcrossBackends) {
  // Full model, both batch forms: scalar and vectorized replicas start
  // from identical seeds and must stay bitwise-equal through real
  // TrainSteps — losses and every parameter.
  auto spec = datagen::RmDataset(datagen::RmKind::kRm1, 0.05);
  spec.concurrent_sessions = 8;
  auto model = train::RmModel(datagen::RmKind::kRm1, spec);
  model.emb_hash_size = 2'000;
  datagen::TrafficGenerator gen(spec);
  const auto traffic = gen.Generate(96);
  auto samples = etl::JoinLogs(traffic.features, traffic.events);
  etl::ClusterBySession(samples);
  storage::StorageSchema schema;
  schema.num_dense = spec.num_dense;
  for (const auto& f : spec.sparse) schema.sparse_names.push_back(f.name);
  storage::BlobStore store;
  auto landed =
      storage::LandTable(store, "t", schema, {std::move(samples)});

  for (const bool use_ikjt : {false, true}) {
    reader::ReaderPool reader(
        store, landed.table,
        train::MakeDataLoaderConfig(model, 48, use_ikjt),
        reader::ReaderOptions{.use_ikjt = use_ikjt});
    const auto batch = *reader.NextBatch();

    train::ReferenceDlrm scalar(model, /*seed=*/42);
    train::ReferenceDlrm vectorized(model, /*seed=*/42);
    scalar.SetKernelBackend(kS);
    vectorized.SetKernelBackend(kV);
    for (int step = 0; step < 3; ++step) {
      const float la = scalar.TrainStep(batch, 0.05f);
      const float lb = vectorized.TrainStep(batch, 0.05f);
      EXPECT_EQ(la, lb) << "loss step " << step << " ikjt " << use_ikjt;
    }
    for (std::size_t l = 0; l < scalar.bottom_mlp().num_layers(); ++l) {
      EXPECT_TRUE(scalar.bottom_mlp().layer(l).weights() ==
                  vectorized.bottom_mlp().layer(l).weights());
    }
    for (std::size_t l = 0; l < scalar.top_mlp().num_layers(); ++l) {
      EXPECT_TRUE(scalar.top_mlp().layer(l).weights() ==
                  vectorized.top_mlp().layer(l).weights());
    }
    for (const auto& f : train::ModelTableOrder(model)) {
      EXPECT_TRUE(scalar.table(f).weights() ==
                  vectorized.table(f).weights())
          << "table " << f << " ikjt " << use_ikjt;
    }
    // The recd forward equivalence must also hold cross-backend:
    // vectorized recd forward == scalar baseline forward.
    if (use_ikjt) {
      const auto fa = scalar.Forward(batch, /*recd=*/true);
      const auto fb = vectorized.Forward(batch, /*recd=*/false);
      EXPECT_TRUE(fa == fb);
    }
  }
}

}  // namespace
}  // namespace recd::kernels
