// Tests for the real-math nn substrate: matrices, MLPs (with numeric
// gradient checks), embedding tables, attention pooling, interaction,
// and the BCE loss.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "nn/attention.h"
#include "nn/dense_matrix.h"
#include "nn/embedding.h"
#include "nn/interaction.h"
#include "nn/loss.h"
#include "nn/mlp.h"
#include "tensor/jagged.h"

namespace recd::nn {
namespace {

using tensor::JaggedTensor;

JaggedTensor FromRows(const std::vector<std::vector<tensor::Id>>& rows) {
  return JaggedTensor::FromRows(rows);
}

// --------------------------------------------------------- DenseMatrix --

TEST(DenseMatrixTest, BasicAccessors) {
  DenseMatrix m(2, 3, 1.5f);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.byte_size(), 24u);
  m.at(1, 2) = 7.0f;
  EXPECT_EQ(m.at(1, 2), 7.0f);
  EXPECT_EQ(m.row(0)[0], 1.5f);
}

TEST(DenseMatrixTest, MatmulABtKnownValues) {
  DenseMatrix a(2, 2);
  a.at(0, 0) = 1;
  a.at(0, 1) = 2;
  a.at(1, 0) = 3;
  a.at(1, 1) = 4;
  DenseMatrix b(1, 2);
  b.at(0, 0) = 5;
  b.at(0, 1) = 6;
  DenseMatrix c;
  MatmulABt(a, b, c);
  ASSERT_EQ(c.rows(), 2u);
  ASSERT_EQ(c.cols(), 1u);
  EXPECT_FLOAT_EQ(c.at(0, 0), 17.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 39.0f);
}

TEST(DenseMatrixTest, MatmulABKnownValues) {
  DenseMatrix a(1, 2);
  a.at(0, 0) = 2;
  a.at(0, 1) = 3;
  DenseMatrix b(2, 2);
  b.at(0, 0) = 1;
  b.at(0, 1) = 0;
  b.at(1, 0) = 0;
  b.at(1, 1) = 1;
  DenseMatrix c;
  MatmulAB(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 3.0f);
}

TEST(DenseMatrixTest, MatmulShapeMismatchThrows) {
  DenseMatrix a(2, 3);
  DenseMatrix b(2, 4);
  DenseMatrix c;
  EXPECT_THROW(MatmulABt(a, b, c), std::invalid_argument);
  EXPECT_THROW(MatmulAB(a, b, c), std::invalid_argument);
}

// ----------------------------------------------------------------- MLP --

TEST(MlpTest, ForwardShapes) {
  common::Rng rng(1);
  Mlp mlp({8, 16, 4}, rng);
  DenseMatrix x(5, 8, 0.1f);
  const auto y = mlp.Forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 4u);
  EXPECT_EQ(mlp.in_dim(), 8u);
  EXPECT_EQ(mlp.out_dim(), 4u);
}

TEST(MlpTest, NeedsTwoDims) {
  common::Rng rng(1);
  EXPECT_THROW(Mlp({4}, rng), std::invalid_argument);
}

TEST(MlpTest, FlopsCounted) {
  common::Rng rng(1);
  Mlp mlp({8, 16, 4}, rng);
  DenseMatrix x(2, 8, 0.5f);
  (void)mlp.Forward(x);
  // 2*2*8*16 + 2*2*16*4 = 512 + 256 = 768.
  EXPECT_EQ(mlp.stats().flops, 768u);
  mlp.ResetStats();
  EXPECT_EQ(mlp.stats().flops, 0u);
}

// Numeric gradient check on a tiny MLP: analytic dL/dx from Backward
// must match central differences through Forward.
TEST(MlpTest, BackwardMatchesNumericGradient) {
  common::Rng rng(3);
  Mlp mlp({3, 5, 1}, rng);
  DenseMatrix x(2, 3);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      x.at(r, c) = static_cast<float>(rng.Gaussian(0, 1));
    }
  }
  // Loss = sum of outputs -> grad_out = ones.
  const auto y0 = mlp.Forward(x);
  DenseMatrix grad_out(y0.rows(), y0.cols(), 1.0f);
  const auto grad_x = mlp.Backward(grad_out);

  const float eps = 1e-3f;
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      DenseMatrix xp = x;
      DenseMatrix xm = x;
      xp.at(r, c) += eps;
      xm.at(r, c) -= eps;
      float sum_p = 0;
      float sum_m = 0;
      const auto yp = mlp.Forward(xp);
      for (const float v : yp.data()) sum_p += v;
      const auto ym = mlp.Forward(xm);
      for (const float v : ym.data()) sum_m += v;
      const float numeric = (sum_p - sum_m) / (2 * eps);
      EXPECT_NEAR(grad_x.at(r, c), numeric, 5e-2f)
          << "at (" << r << "," << c << ")";
    }
  }
}

TEST(MlpTest, SgdStepReducesSimpleLoss) {
  common::Rng rng(5);
  Mlp mlp({2, 8, 1}, rng);
  DenseMatrix x(4, 2);
  std::vector<float> targets = {0.0f, 1.0f, 1.0f, 0.0f};
  x.at(0, 0) = 0;
  x.at(0, 1) = 0;
  x.at(1, 0) = 0;
  x.at(1, 1) = 1;
  x.at(2, 0) = 1;
  x.at(2, 1) = 0;
  x.at(3, 0) = 1;
  x.at(3, 1) = 1;
  float first_loss = 0;
  float last_loss = 0;
  for (int step = 0; step < 300; ++step) {
    const auto logits = mlp.Forward(x);
    const float loss = BceWithLogitsLoss(logits, targets);
    if (step == 0) first_loss = loss;
    last_loss = loss;
    (void)mlp.Backward(BceWithLogitsGrad(logits, targets));
    mlp.Step(0.5f);
  }
  EXPECT_LT(last_loss, first_loss * 0.8f);
}

// ------------------------------------------------------------ Embedding --

TEST(EmbeddingTest, InvalidConstruction) {
  common::Rng rng(1);
  EXPECT_THROW(EmbeddingTable(0, 4, rng), std::invalid_argument);
  EXPECT_THROW(EmbeddingTable(4, 0, rng), std::invalid_argument);
}

TEST(EmbeddingTest, LookupIsHashedModulo) {
  common::Rng rng(1);
  EmbeddingTable table(10, 4, rng);
  // id and id + hash_size map to the same row.
  const auto a = table.Lookup(3);
  const auto b = table.Lookup(13);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(EmbeddingTest, SumPoolingMatchesManual) {
  common::Rng rng(2);
  EmbeddingTable table(100, 3, rng);
  const auto batch = FromRows({{1, 2}, {}, {5}});
  const auto out = table.PooledForward(batch);
  ASSERT_EQ(out.rows(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(out.at(0, c),
                    table.Lookup(1)[c] + table.Lookup(2)[c]);
    EXPECT_FLOAT_EQ(out.at(1, c), 0.0f);  // empty row pools to zero
    EXPECT_FLOAT_EQ(out.at(2, c), table.Lookup(5)[c]);
  }
}

TEST(EmbeddingTest, SequenceForwardLaysOutRowsInOrder) {
  common::Rng rng(2);
  EmbeddingTable table(100, 2, rng);
  const auto batch = FromRows({{4, 5}, {6}});
  const auto seq = table.SequenceForward(batch);
  ASSERT_EQ(seq.rows(), 3u);
  EXPECT_FLOAT_EQ(seq.at(0, 0), table.Lookup(4)[0]);
  EXPECT_FLOAT_EQ(seq.at(1, 0), table.Lookup(5)[0]);
  EXPECT_FLOAT_EQ(seq.at(2, 0), table.Lookup(6)[0]);
}

TEST(EmbeddingTest, LookupsCounted) {
  common::Rng rng(2);
  EmbeddingTable table(100, 2, rng);
  (void)table.PooledForward(FromRows({{1, 2, 3}, {4}}));
  EXPECT_EQ(table.stats().lookups, 4u);
}

TEST(EmbeddingTest, PooledGradientMovesWeights) {
  common::Rng rng(2);
  EmbeddingTable table(100, 2, rng);
  const auto batch = FromRows({{11}});
  const std::vector<float> before(table.Lookup(11).begin(),
                                  table.Lookup(11).end());
  DenseMatrix grad(1, 2, 1.0f);
  table.ApplyPooledGradient(batch, grad, 0.1f);
  const auto after = table.Lookup(11);
  EXPECT_FLOAT_EQ(after[0], before[0] - 0.1f);
  EXPECT_FLOAT_EQ(after[1], before[1] - 0.1f);
}

TEST(EmbeddingTest, DuplicateIdsGetCompoundedUpdates) {
  // The §6.2 accuracy mechanism: an ID appearing in k rows of the batch
  // receives k gradient applications.
  common::Rng rng(2);
  EmbeddingTable table(100, 1, rng);
  const float before = table.Lookup(9)[0];
  DenseMatrix grad(3, 1, 1.0f);
  table.ApplyPooledGradient(FromRows({{9}, {9}, {9}}), grad, 0.1f);
  EXPECT_NEAR(table.Lookup(9)[0], before - 0.3f, 1e-6f);
}

// ------------------------------------------------------------ Attention --

TEST(AttentionTest, SingleElementSequenceIsIdentity) {
  // With L=1 softmax yields weight 1 and mean-over-1: output == input.
  SelfAttentionPooling attn(3);
  const std::vector<float> seq = {1.0f, -2.0f, 0.5f};
  std::vector<float> out(3);
  attn.PoolRow(seq, 1, out);
  EXPECT_FLOAT_EQ(out[0], 1.0f);
  EXPECT_FLOAT_EQ(out[1], -2.0f);
  EXPECT_FLOAT_EQ(out[2], 0.5f);
}

TEST(AttentionTest, EmptySequencePoolsToZero) {
  SelfAttentionPooling attn(2);
  std::vector<float> out(2, 99.0f);
  attn.PoolRow({}, 0, out);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(AttentionTest, IdenticalTokensPoolToToken) {
  // All tokens equal -> attention output equals the token for any L.
  SelfAttentionPooling attn(2);
  std::vector<float> seq;
  for (int i = 0; i < 5; ++i) {
    seq.push_back(0.3f);
    seq.push_back(-1.2f);
  }
  std::vector<float> out(2);
  attn.PoolRow(seq, 5, out);
  EXPECT_NEAR(out[0], 0.3f, 1e-5f);
  EXPECT_NEAR(out[1], -1.2f, 1e-5f);
}

TEST(AttentionTest, OutputIsConvexCombinationBound) {
  // Pooled output must lie within the min/max range of token values per
  // dimension (softmax weights are a convex combination; mean keeps it).
  common::Rng rng(4);
  SelfAttentionPooling attn(4);
  std::vector<float> seq(6 * 4);
  for (auto& v : seq) v = static_cast<float>(rng.Gaussian(0, 1));
  std::vector<float> out(4);
  attn.PoolRow(seq, 6, out);
  for (std::size_t c = 0; c < 4; ++c) {
    float lo = 1e30f;
    float hi = -1e30f;
    for (std::size_t i = 0; i < 6; ++i) {
      lo = std::min(lo, seq[i * 4 + c]);
      hi = std::max(hi, seq[i * 4 + c]);
    }
    EXPECT_GE(out[c], lo - 1e-5f);
    EXPECT_LE(out[c], hi + 1e-5f);
  }
}

TEST(AttentionTest, ForwardOverJaggedBatch) {
  common::Rng rng(4);
  SelfAttentionPooling attn(2);
  const auto batch = FromRows({{1, 2, 3}, {}, {4}});
  DenseMatrix seq_emb(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    seq_emb.at(r, 0) = static_cast<float>(r);
    seq_emb.at(r, 1) = 1.0f;
  }
  const auto out = attn.Forward(batch, seq_emb);
  ASSERT_EQ(out.rows(), 3u);
  EXPECT_FLOAT_EQ(out.at(1, 0), 0.0f);  // empty row
  EXPECT_FLOAT_EQ(out.at(2, 0), 3.0f);  // single token row
  EXPECT_GT(attn.stats().flops, 0u);
  EXPECT_GT(attn.peak_score_bytes(), 0u);
}

TEST(AttentionTest, QuadraticFlopScaling) {
  SelfAttentionPooling attn(8);
  std::vector<float> seq_small(4 * 8, 0.1f);
  std::vector<float> out(8);
  attn.PoolRow(seq_small, 4, out);
  const auto small_flops = attn.stats().flops;
  attn.ResetStats();
  std::vector<float> seq_big(16 * 8, 0.1f);
  attn.PoolRow(seq_big, 16, out);
  // 4x longer sequence -> 16x the flops.
  EXPECT_EQ(attn.stats().flops, small_flops * 16);
}

TEST(AttentionTest, BadShapesThrow) {
  SelfAttentionPooling attn(4);
  std::vector<float> out(3);
  EXPECT_THROW(attn.PoolRow({}, 0, out), std::invalid_argument);
  std::vector<float> out4(4);
  std::vector<float> seq(7);  // not a multiple of dim
  EXPECT_THROW(attn.PoolRow(seq, 2, out4), std::invalid_argument);
}

// ---------------------------------------------------------- Interaction --

TEST(InteractionTest, OutputLayout) {
  DenseMatrix x0(1, 2);
  x0.at(0, 0) = 1;
  x0.at(0, 1) = 2;
  DenseMatrix x1(1, 2);
  x1.at(0, 0) = 3;
  x1.at(0, 1) = 4;
  DenseMatrix x2(1, 2);
  x2.at(0, 0) = 5;
  x2.at(0, 1) = 6;
  FeatureInteraction inter;
  const auto out = inter.Forward({&x0, &x1, &x2});
  // Layout: [x0 | <x0,x1> <x0,x2> <x1,x2>] = [1 2 | 11 17 39].
  ASSERT_EQ(out.cols(), FeatureInteraction::OutputDim(3, 2));
  EXPECT_FLOAT_EQ(out.at(0, 0), 1);
  EXPECT_FLOAT_EQ(out.at(0, 1), 2);
  EXPECT_FLOAT_EQ(out.at(0, 2), 11);
  EXPECT_FLOAT_EQ(out.at(0, 3), 17);
  EXPECT_FLOAT_EQ(out.at(0, 4), 39);
}

TEST(InteractionTest, ShapeMismatchThrows) {
  DenseMatrix a(2, 2);
  DenseMatrix b(3, 2);
  FeatureInteraction inter;
  EXPECT_THROW((void)inter.Forward({&a, &b}), std::invalid_argument);
  EXPECT_THROW((void)inter.Forward({}), std::invalid_argument);
}

TEST(InteractionTest, BackwardMatchesNumericGradient) {
  common::Rng rng(6);
  const std::size_t d = 3;
  DenseMatrix x0(2, d);
  DenseMatrix x1(2, d);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      x0.at(r, c) = static_cast<float>(rng.Gaussian(0, 1));
      x1.at(r, c) = static_cast<float>(rng.Gaussian(0, 1));
    }
  }
  FeatureInteraction inter;
  std::vector<const DenseMatrix*> inputs = {&x0, &x1};
  const auto y = inter.Forward(inputs);
  DenseMatrix grad_out(y.rows(), y.cols(), 1.0f);
  std::vector<DenseMatrix> grads;
  inter.Backward(grad_out, inputs, grads);

  const float eps = 1e-3f;
  auto loss_sum = [&](const DenseMatrix& a, const DenseMatrix& b) {
    float sum = 0;
    const auto y = inter.Forward({&a, &b});
    for (const float v : y.data()) sum += v;
    return sum;
  };
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      DenseMatrix xp = x0;
      DenseMatrix xm = x0;
      xp.at(r, c) += eps;
      xm.at(r, c) -= eps;
      const float numeric =
          (loss_sum(xp, x1) - loss_sum(xm, x1)) / (2 * eps);
      EXPECT_NEAR(grads[0].at(r, c), numeric, 5e-2f);
    }
  }
}

TEST(MlpTest, ParamCountMatchesDims) {
  common::Rng rng(1);
  Mlp mlp({8, 16, 4}, rng);
  // (8*16 + 16) + (16*4 + 4) = 144 + 68 = 212.
  EXPECT_EQ(mlp.num_params(), 212u);
}

class AttentionSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(AttentionSweep, PooledBatchRowsMatchPerRowPooling) {
  const auto [dim, rows] = GetParam();
  common::Rng rng(dim * 100 + rows);
  SelfAttentionPooling attn(static_cast<std::size_t>(dim));
  // Random jagged batch + matching sequence embeddings.
  JaggedTensor batch;
  std::vector<tensor::Id> row;
  for (int r = 0; r < rows; ++r) {
    row.resize(static_cast<std::size_t>(rng.Uniform(0, 6)));
    for (auto& v : row) v = rng.Uniform(0, 100);
    batch.AppendRow(row);
  }
  DenseMatrix seq(batch.total_values(), static_cast<std::size_t>(dim));
  for (auto& v : seq.data()) v = static_cast<float>(rng.Gaussian(0, 1));
  const auto pooled = attn.Forward(batch, seq);
  // Re-pool each row independently; must agree exactly.
  std::size_t pos = 0;
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    const auto len = static_cast<std::size_t>(batch.length(r));
    std::vector<float> out(static_cast<std::size_t>(dim));
    attn.PoolRow(seq.data().subspan(pos * dim, len * dim), len, out);
    for (int c = 0; c < dim; ++c) {
      ASSERT_EQ(pooled.at(r, static_cast<std::size_t>(c)),
                out[static_cast<std::size_t>(c)]);
    }
    pos += len;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AttentionSweep,
                         ::testing::Combine(::testing::Values(2, 8),
                                            ::testing::Values(1, 7, 32)));

// ----------------------------------------------------------------- Loss --

TEST(LossTest, SigmoidBasics) {
  EXPECT_FLOAT_EQ(Sigmoid(0.0f), 0.5f);
  EXPECT_GT(Sigmoid(10.0f), 0.999f);
  EXPECT_LT(Sigmoid(-10.0f), 0.001f);
}

TEST(LossTest, PerfectPredictionsGiveLowLoss) {
  DenseMatrix logits(2, 1);
  logits.at(0, 0) = 20.0f;
  logits.at(1, 0) = -20.0f;
  const std::vector<float> labels = {1.0f, 0.0f};
  EXPECT_LT(BceWithLogitsLoss(logits, labels), 1e-6f);
}

TEST(LossTest, KnownValueAtZeroLogit) {
  DenseMatrix logits(1, 1);
  const std::vector<float> labels = {1.0f};
  EXPECT_NEAR(BceWithLogitsLoss(logits, labels), std::log(2.0f), 1e-6f);
}

TEST(LossTest, GradSignAndMagnitude) {
  DenseMatrix logits(2, 1);
  logits.at(0, 0) = 0.0f;
  logits.at(1, 0) = 0.0f;
  const std::vector<float> labels = {1.0f, 0.0f};
  const auto grad = BceWithLogitsGrad(logits, labels);
  EXPECT_FLOAT_EQ(grad.at(0, 0), (0.5f - 1.0f) / 2.0f);
  EXPECT_FLOAT_EQ(grad.at(1, 0), (0.5f - 0.0f) / 2.0f);
}

TEST(LossTest, ShapeMismatchThrows) {
  DenseMatrix logits(2, 1);
  const std::vector<float> labels = {1.0f};
  EXPECT_THROW((void)BceWithLogitsLoss(logits, labels),
               std::invalid_argument);
  EXPECT_THROW((void)BceWithLogitsGrad(logits, labels),
               std::invalid_argument);
}

}  // namespace
}  // namespace recd::nn
