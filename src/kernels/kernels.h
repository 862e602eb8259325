// The fused/vectorized kernel layer (docs/ARCHITECTURE.md §12).
//
// Every kernel takes an explicit KernelBackend and is implemented twice:
// kernels.cpp holds the scalar reference loops (the bitwise oracle) and
// kernels_simd.cpp the AVX2 implementations, selected at runtime. The
// bitwise contract — vectorized output identical to scalar output, bit
// for bit — holds because SIMD is applied only along non-reduction axes:
// pooling and SGD vectorize across the embedding-dim axis while ids are
// still visited in row order, the GEMMs vectorize across output columns
// while the k-reduction of each output element stays a single scalar
// chain in ascending-k order, and elementwise ops have no cross-lane
// dependence at all. Nothing here reassociates a float sum, and the
// build compiles with -ffp-contract=off so no path can fuse a*b+c into
// an FMA the other path did not.
//
// Callers (nn::EmbeddingTable, nn::Linear, loss, transforms) own all
// shape validation and OpStats accounting; kernels trust their
// arguments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "kernels/backend.h"
#include "tensor/jagged.h"

namespace recd::kernels {

enum class Pool : std::uint8_t { kSum, kMean, kMax };

/// Table row for id under the modulo hash-trick shared by every caller.
[[nodiscard]] inline std::size_t TableRow(tensor::Id id,
                                          std::size_t hash_size) {
  return static_cast<std::size_t>(static_cast<std::uint64_t>(id) %
                                  hash_size);
}

// ---------------------------------------------------------------------------
// Pooled embedding lookup
// ---------------------------------------------------------------------------

/// out(r, :) = pool(weights rows of batch row r); out is
/// batch.num_rows() x dim and is zero-filled first (empty rows pool to
/// zero). Ids accumulate in row order; lanes run across dim.
void PooledLookup(KernelBackend backend, const tensor::JaggedTensor& batch,
                  const float* weights, std::size_t hash_size,
                  std::size_t dim, Pool pool, float* out);

/// One feature of a synchronized group: a (possibly deduplicated) jagged
/// tensor plus the embedding table it looks up into. All features of a
/// group share `dim` and row count.
struct GroupFeature {
  const tensor::JaggedTensor* jt = nullptr;
  const float* weights = nullptr;
  std::size_t hash_size = 0;
};

/// Concatenated-group sum pooling at batch rows:
/// out(r, :) = sum over features k, then ids of jt_k row r, of the
/// looked-up embedding — the float-op sequence of
/// train::SumPoolConcatGroup. out is rows x dim, zero-filled first.
void SumPoolGroup(KernelBackend backend,
                  std::span<const GroupFeature> group, std::size_t dim,
                  float* out);

/// Fused dedup-aware pooled lookup (RecD O5+O6 in one pass): pools each
/// *unique* row exactly once — features' ids in concatenation order,
/// identical to SumPoolGroup on the expanded rows — then writes the
/// pooled vector into every batch slot i with inverse[i] == u. The
/// expanded KJT is never materialized and no unique row is pooled
/// twice. `group` features are the IKJT's unique tensors; out is
/// inverse.size() x dim. Every inverse entry must be in
/// [0, unique rows).
void FusedPooledLookup(KernelBackend backend,
                       std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out);

/// Sparse SGD scatter-update for sum/mean pooling: for each batch row r
/// (in order) and each id of the row (in order),
/// weights[row(id)] -= scale_r * grad(r, :), scale_r = lr or lr/len for
/// mean pooling — the float-op sequence of
/// EmbeddingTable::ApplyPooledGradient. `pool` must be kSum or kMean.
void ScatterSgdUpdate(KernelBackend backend,
                      const tensor::JaggedTensor& batch, const float* grad,
                      Pool pool, float lr, float* weights,
                      std::size_t hash_size, std::size_t dim);

/// out(i, :) = src(index[i], :) — the RecD post-pooling expansion and
/// checkpoint gather. Pure row copies (no float arithmetic), so both
/// backends share one implementation.
void GatherRows(KernelBackend backend, const float* src, std::size_t dim,
                std::span<const std::int64_t> index, float* out);

// ---------------------------------------------------------------------------
// GEMM (the MLP forward/backward shapes)
// ---------------------------------------------------------------------------

/// c = a * b^T (a: m x k, b: n x k, c: m x n) — Linear::Forward. Each
/// c(i,j) is one scalar chain over ascending k; the vectorized path
/// packs b into k-major 16-column panels and advances a 4-row x
/// 16-column register tile (8 accumulators) per k step, preserving each
/// chain's order exactly.
void MatmulABt(KernelBackend backend, const float* a, std::size_t m,
               std::size_t k, const float* b, std::size_t n, float* c);

/// c = a * b (a: m x k, b: k x n, c: m x n), c zero-filled first —
/// Linear::Backward's dX. Preserves the scalar path's a(i,k)==0 row
/// skip (skipping changes bits when b holds non-finite values or -0
/// outputs, so both paths must skip identically); the vectorized path
/// compacts each row's nonzero a(i,k) once and walks that list.
void MatmulAB(KernelBackend backend, const float* a, std::size_t m,
              std::size_t k, const float* b, std::size_t n, float* c);

/// Linear::Backward's accumulation: for each batch row r in order,
/// grad_w(o, :) += g(r, o) * x(r, :) and grad_b[o] += g(r, o), with the
/// scalar path's g(r,o)==0 skip. g is rows x out_dim, x is rows x
/// in_dim, grad_w is out_dim x in_dim.
void AccumulateOuter(KernelBackend backend, const float* g,
                     std::size_t rows, std::size_t out_dim, const float* x,
                     std::size_t in_dim, float* grad_w, float* grad_b);

// ---------------------------------------------------------------------------
// Feature interaction (DLRM pairwise dot products)
// ---------------------------------------------------------------------------

/// nn::FeatureInteraction::Forward over f = inputs.size() matrices of
/// rows x d: out(r, :) = [x_0(r, :) | <x_i(r, :), x_j(r, :)> for i < j],
/// pairs in (i, j) order, each dot one scalar chain over ascending c.
/// out is rows x (d + f(f-1)/2). The vectorized path runs lanes across
/// j, never across c.
void InteractionForward(KernelBackend backend,
                        std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out);

/// nn::FeatureInteraction::Backward: per row, grads[0] += the x_0 block
/// of grad_out, then for each pair (i < j) in output order with
/// gd = grad_out(r, pair) != 0, grads[i] += gd * x_j and
/// grads[j] += gd * x_i. grads (rows x d each, aligned with inputs)
/// accumulate; callers zero-fill them. The vectorized path runs lanes
/// across c in the same (i, j) order.
void InteractionBackward(KernelBackend backend, const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads);

// ---------------------------------------------------------------------------
// Loss
// ---------------------------------------------------------------------------

/// Sum over rows of the stable BCE-with-logits term
/// max(z,0) - z*y + log1p(exp(-|z|)), accumulated into double in row
/// order. The transcendentals stay scalar libm calls (a vector exp
/// would not be bit-identical); the vectorized path precomputes the
/// algebraic parts max(z,0) - z*y and -|z| with SIMD.
[[nodiscard]] double BceLossSum(KernelBackend backend, const float* logits,
                                const float* labels, std::size_t n);

/// grad[r] = (sigmoid(logits[r]) - labels[r]) * inv_denom, with the
/// branchy numerically-stable sigmoid evaluated scalar per row.
void BceGrad(KernelBackend backend, const float* logits,
             const float* labels, std::size_t n, float inv_denom,
             float* grad);

// ---------------------------------------------------------------------------
// Elementwise (SGD step, gradient combine, MLP epilogues, transforms)
// ---------------------------------------------------------------------------

/// w[i] -= lr * g[i] — the dense SGD row update (Linear::Step).
void SgdUpdate(KernelBackend backend, float* w, const float* g,
               std::size_t n, float lr);

/// dst[i] += src[i] — gradient accumulation / the chunk combine.
void AddInPlace(KernelBackend backend, float* dst, const float* src,
                std::size_t n);

/// y(r, :) += bias — the Linear::Forward bias epilogue.
void AddRowBias(KernelBackend backend, float* y, std::size_t rows,
                std::size_t cols, const float* bias);

/// v = (v < 0) ? 0 : v, preserving the scalar branch exactly
/// (-0 and NaN pass through unchanged).
void ReluInPlace(KernelBackend backend, float* v, std::size_t n);

/// g[i] = 0 where pre[i] <= 0 — the ReLU backward mask.
void ReluMask(KernelBackend backend, float* g, const float* pre,
              std::size_t n);

/// x = (x - mean) * inv_scale — reader kDenseNormalize.
void DenseNormalize(KernelBackend backend, float* x, std::size_t n,
                    float mean, float inv_scale);

/// x = clamp(x, lo, hi) with std::clamp's exact comparison order
/// (x < lo ? lo : hi < x ? hi : x).
void DenseClamp(KernelBackend backend, float* x, std::size_t n, float lo,
                float hi);

}  // namespace recd::kernels
