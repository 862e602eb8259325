// Scalar reference implementations (the bitwise oracle) and the public
// per-call dispatchers. Every loop here is the honest scalar baseline
// the SIMD path is diffed against: bounds hoisted, no hidden
// re-computation, and exactly the float-op sequence documented in
// kernels.h.
#include "kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/impl.h"

namespace recd::kernels {

namespace detail {

InverseBuckets BucketInverse(std::span<const std::int64_t> inverse,
                             std::size_t unique_rows) {
  InverseBuckets b;
  b.offsets.assign(unique_rows + 1, 0);
  for (const auto u : inverse) {
    b.offsets[static_cast<std::size_t>(u) + 1] += 1;
  }
  for (std::size_t u = 0; u < unique_rows; ++u) {
    b.offsets[u + 1] += b.offsets[u];
  }
  b.slots.resize(inverse.size());
  std::vector<std::size_t> cursor(b.offsets.begin(), b.offsets.end() - 1);
  for (std::size_t i = 0; i < inverse.size(); ++i) {
    b.slots[cursor[static_cast<std::size_t>(inverse[i])]++] =
        static_cast<std::int64_t>(i);
  }
  return b;
}

void PooledLookup(const tensor::JaggedTensor& batch, const float* weights,
                  std::size_t hash_size, std::size_t dim, Pool pool,
                  float* out) {
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
          const float* w = weights + TableRow(id, hash_size) * dim;
          for (std::size_t c = 0; c < dim; ++c) orow[c] += w[c];
        }
        if (pool == Pool::kMean) {
          const float inv = 1.0f / static_cast<float>(ids.size());
          for (std::size_t c = 0; c < dim; ++c) orow[c] *= inv;
        }
        break;
      }
      case Pool::kMax: {
        const float* w0 = weights + TableRow(ids[0], hash_size) * dim;
        std::memcpy(orow, w0, dim * sizeof(float));
        for (std::size_t i = 1; i < ids.size(); ++i) {
          const float* w = weights + TableRow(ids[i], hash_size) * dim;
          for (std::size_t c = 0; c < dim; ++c) {
            orow[c] = std::max(orow[c], w[c]);
          }
        }
        break;
      }
    }
  }
}

void SumPoolGroup(std::span<const GroupFeature> group, std::size_t dim,
                  float* out) {
  const std::size_t rows = group.front().jt->num_rows();
  std::fill_n(out, rows * dim, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    float* orow = out + r * dim;
    for (const auto& f : group) {
      for (const auto id : f.jt->row(r)) {
        const float* w = f.weights + TableRow(id, f.hash_size) * dim;
        for (std::size_t c = 0; c < dim; ++c) orow[c] += w[c];
      }
    }
  }
}

void FusedPooledLookup(std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out) {
  const std::size_t unique_rows = group.front().jt->num_rows();
  const InverseBuckets buckets = BucketInverse(inverse, unique_rows);
  std::vector<float> buf(dim);
  for (std::size_t u = 0; u < unique_rows; ++u) {
    std::memset(buf.data(), 0, dim * sizeof(float));
    for (const auto& f : group) {
      for (const auto id : f.jt->row(u)) {
        const float* w = f.weights + TableRow(id, f.hash_size) * dim;
        for (std::size_t c = 0; c < dim; ++c) buf[c] += w[c];
      }
    }
    for (std::size_t s = buckets.offsets[u]; s < buckets.offsets[u + 1];
         ++s) {
      std::memcpy(out + static_cast<std::size_t>(buckets.slots[s]) * dim,
                  buf.data(), dim * sizeof(float));
    }
  }
}

void ScatterSgdUpdate(const tensor::JaggedTensor& batch, const float* grad,
                      Pool pool, float lr, float* weights,
                      std::size_t hash_size, std::size_t dim) {
  const std::size_t rows = batch.num_rows();
  for (std::size_t r = 0; r < rows; ++r) {
    const auto ids = batch.row(r);
    if (ids.empty()) continue;
    const float* g = grad + r * dim;
    const float scale = pool == Pool::kMean
                            ? lr / static_cast<float>(ids.size())
                            : lr;
    for (const auto id : ids) {
      float* w = weights + TableRow(id, hash_size) * dim;
      for (std::size_t c = 0; c < dim; ++c) w[c] -= scale * g[c];
    }
  }
}

void MatmulABt(const float* a, std::size_t m, std::size_t k, const float* b,
               std::size_t n, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* ar = a + i * k;
    float* cr = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      const float* br = b + j * k;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) acc += ar[kk] * br[kk];
      cr[j] = acc;
    }
  }
}

void MatmulAB(const float* a, std::size_t m, std::size_t k, const float* b,
              std::size_t n, float* c) {
  std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    const float* ar = a + i * k;
    float* cr = c + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float av = ar[kk];
      if (av == 0.0f) continue;
      const float* br = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) cr[j] += av * br[j];
    }
  }
}

void AccumulateOuter(const float* g, std::size_t rows, std::size_t out_dim,
                     const float* x, std::size_t in_dim, float* grad_w,
                     float* grad_b) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* gr = g + r * out_dim;
    const float* xr = x + r * in_dim;
    for (std::size_t o = 0; o < out_dim; ++o) {
      const float gv = gr[o];
      if (gv == 0.0f) continue;
      float* wr = grad_w + o * in_dim;
      for (std::size_t i = 0; i < in_dim; ++i) wr[i] += gv * xr[i];
      grad_b[o] += gv;
    }
  }
}

void InteractionForward(std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out) {
  const std::size_t f = inputs.size();
  const std::size_t width = d + f * (f - 1) / 2;
  for (std::size_t r = 0; r < rows; ++r) {
    float* orow = out + r * width;
    std::memcpy(orow, inputs[0] + r * d, d * sizeof(float));
    std::size_t k = d;
    for (std::size_t i = 0; i < f; ++i) {
      const float* xi = inputs[i] + r * d;
      for (std::size_t j = i + 1; j < f; ++j) {
        const float* xj = inputs[j] + r * d;
        float dot = 0.0f;
        for (std::size_t c = 0; c < d; ++c) dot += xi[c] * xj[c];
        orow[k++] = dot;
      }
    }
  }
}

void InteractionBackward(const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads) {
  const std::size_t f = inputs.size();
  const std::size_t width = d + f * (f - 1) / 2;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* g = grad_out + r * width;
    // Pass-through of the copied x_0 block.
    float* g0 = grads[0] + r * d;
    for (std::size_t c = 0; c < d; ++c) g0[c] += g[c];
    std::size_t k = d;
    for (std::size_t i = 0; i < f; ++i) {
      const float* xi = inputs[i] + r * d;
      float* gi = grads[i] + r * d;
      for (std::size_t j = i + 1; j < f; ++j) {
        const float* xj = inputs[j] + r * d;
        float* gj = grads[j] + r * d;
        const float gd = g[k++];
        if (gd == 0.0f) continue;
        for (std::size_t c = 0; c < d; ++c) {
          gi[c] += gd * xj[c];
          gj[c] += gd * xi[c];
        }
      }
    }
  }
}

double BceLossSum(const float* logits, const float* labels, std::size_t n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    const float z = logits[r];
    const float y = labels[r];
    total += std::max(z, 0.0f) - z * y +
             std::log1p(std::exp(-std::abs(z)));
  }
  return total;
}

namespace {

// Matches nn::Sigmoid exactly (loss.cpp keeps the public symbol).
float StableSigmoid(float x) {
  if (x >= 0.0f) {
    return 1.0f / (1.0f + std::exp(-x));
  }
  const float e = std::exp(x);
  return e / (1.0f + e);
}

}  // namespace

void BceGrad(const float* logits, const float* labels, std::size_t n,
             float inv_denom, float* grad) {
  for (std::size_t r = 0; r < n; ++r) {
    grad[r] = (StableSigmoid(logits[r]) - labels[r]) * inv_denom;
  }
}

void SgdUpdate(float* w, const float* g, std::size_t n, float lr) {
  for (std::size_t i = 0; i < n; ++i) w[i] -= lr * g[i];
}

void AddInPlace(float* dst, const float* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
}

void AddRowBias(float* y, std::size_t rows, std::size_t cols,
                const float* bias) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* yr = y + r * cols;
    for (std::size_t c = 0; c < cols; ++c) yr[c] += bias[c];
  }
}

void ReluInPlace(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (v[i] < 0.0f) v[i] = 0.0f;
  }
}

void ReluMask(float* g, const float* pre, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (pre[i] <= 0.0f) g[i] = 0.0f;
  }
}

void DenseNormalize(float* x, std::size_t n, float mean, float inv_scale) {
  for (std::size_t i = 0; i < n; ++i) x[i] = (x[i] - mean) * inv_scale;
}

void DenseClamp(float* x, std::size_t n, float lo, float hi) {
  for (std::size_t i = 0; i < n; ++i) x[i] = std::clamp(x[i], lo, hi);
}

}  // namespace detail

namespace {

[[nodiscard]] bool UseSimd(KernelBackend backend) {
  return backend == KernelBackend::kVectorized && VectorizedAvailable();
}

}  // namespace

void PooledLookup(KernelBackend backend, const tensor::JaggedTensor& batch,
                  const float* weights, std::size_t hash_size,
                  std::size_t dim, Pool pool, float* out) {
  if (UseSimd(backend)) {
    simd::PooledLookup(batch, weights, hash_size, dim, pool, out);
  } else {
    detail::PooledLookup(batch, weights, hash_size, dim, pool, out);
  }
}

void SumPoolGroup(KernelBackend backend,
                  std::span<const GroupFeature> group, std::size_t dim,
                  float* out) {
  if (UseSimd(backend)) {
    simd::SumPoolGroup(group, dim, out);
  } else {
    detail::SumPoolGroup(group, dim, out);
  }
}

void FusedPooledLookup(KernelBackend backend,
                       std::span<const GroupFeature> group,
                       std::span<const std::int64_t> inverse,
                       std::size_t dim, float* out) {
  if (UseSimd(backend)) {
    simd::FusedPooledLookup(group, inverse, dim, out);
  } else {
    detail::FusedPooledLookup(group, inverse, dim, out);
  }
}

void ScatterSgdUpdate(KernelBackend backend,
                      const tensor::JaggedTensor& batch, const float* grad,
                      Pool pool, float lr, float* weights,
                      std::size_t hash_size, std::size_t dim) {
  if (UseSimd(backend)) {
    simd::ScatterSgdUpdate(batch, grad, pool, lr, weights, hash_size, dim);
  } else {
    detail::ScatterSgdUpdate(batch, grad, pool, lr, weights, hash_size,
                             dim);
  }
}

void GatherRows(KernelBackend backend, const float* src, std::size_t dim,
                std::span<const std::int64_t> index, float* out) {
  // Row copies carry no float arithmetic; one implementation serves
  // both backends.
  (void)backend;
  for (std::size_t i = 0; i < index.size(); ++i) {
    std::memcpy(out + i * dim,
                src + static_cast<std::size_t>(index[i]) * dim,
                dim * sizeof(float));
  }
}

void MatmulABt(KernelBackend backend, const float* a, std::size_t m,
               std::size_t k, const float* b, std::size_t n, float* c) {
  if (UseSimd(backend)) {
    simd::MatmulABt(a, m, k, b, n, c);
  } else {
    detail::MatmulABt(a, m, k, b, n, c);
  }
}

void MatmulAB(KernelBackend backend, const float* a, std::size_t m,
              std::size_t k, const float* b, std::size_t n, float* c) {
  if (UseSimd(backend)) {
    simd::MatmulAB(a, m, k, b, n, c);
  } else {
    detail::MatmulAB(a, m, k, b, n, c);
  }
}

void AccumulateOuter(KernelBackend backend, const float* g,
                     std::size_t rows, std::size_t out_dim, const float* x,
                     std::size_t in_dim, float* grad_w, float* grad_b) {
  if (UseSimd(backend)) {
    simd::AccumulateOuter(g, rows, out_dim, x, in_dim, grad_w, grad_b);
  } else {
    detail::AccumulateOuter(g, rows, out_dim, x, in_dim, grad_w, grad_b);
  }
}

void InteractionForward(KernelBackend backend,
                        std::span<const float* const> inputs,
                        std::size_t rows, std::size_t d, float* out) {
  if (UseSimd(backend)) {
    simd::InteractionForward(inputs, rows, d, out);
  } else {
    detail::InteractionForward(inputs, rows, d, out);
  }
}

void InteractionBackward(KernelBackend backend, const float* grad_out,
                         std::span<const float* const> inputs,
                         std::size_t rows, std::size_t d,
                         std::span<float* const> grads) {
  if (UseSimd(backend)) {
    simd::InteractionBackward(grad_out, inputs, rows, d, grads);
  } else {
    detail::InteractionBackward(grad_out, inputs, rows, d, grads);
  }
}

double BceLossSum(KernelBackend backend, const float* logits,
                  const float* labels, std::size_t n) {
  if (UseSimd(backend)) return simd::BceLossSum(logits, labels, n);
  return detail::BceLossSum(logits, labels, n);
}

void BceGrad(KernelBackend backend, const float* logits,
             const float* labels, std::size_t n, float inv_denom,
             float* grad) {
  if (UseSimd(backend)) {
    simd::BceGrad(logits, labels, n, inv_denom, grad);
  } else {
    detail::BceGrad(logits, labels, n, inv_denom, grad);
  }
}

void SgdUpdate(KernelBackend backend, float* w, const float* g,
               std::size_t n, float lr) {
  if (UseSimd(backend)) {
    simd::SgdUpdate(w, g, n, lr);
  } else {
    detail::SgdUpdate(w, g, n, lr);
  }
}

void AddInPlace(KernelBackend backend, float* dst, const float* src,
                std::size_t n) {
  if (UseSimd(backend)) {
    simd::AddInPlace(dst, src, n);
  } else {
    detail::AddInPlace(dst, src, n);
  }
}

void AddRowBias(KernelBackend backend, float* y, std::size_t rows,
                std::size_t cols, const float* bias) {
  if (UseSimd(backend)) {
    simd::AddRowBias(y, rows, cols, bias);
  } else {
    detail::AddRowBias(y, rows, cols, bias);
  }
}

void ReluInPlace(KernelBackend backend, float* v, std::size_t n) {
  if (UseSimd(backend)) {
    simd::ReluInPlace(v, n);
  } else {
    detail::ReluInPlace(v, n);
  }
}

void ReluMask(KernelBackend backend, float* g, const float* pre,
              std::size_t n) {
  if (UseSimd(backend)) {
    simd::ReluMask(g, pre, n);
  } else {
    detail::ReluMask(g, pre, n);
  }
}

void DenseNormalize(KernelBackend backend, float* x, std::size_t n,
                    float mean, float inv_scale) {
  if (UseSimd(backend)) {
    simd::DenseNormalize(x, n, mean, inv_scale);
  } else {
    detail::DenseNormalize(x, n, mean, inv_scale);
  }
}

void DenseClamp(KernelBackend backend, float* x, std::size_t n, float lo,
                float hi) {
  if (UseSimd(backend)) {
    simd::DenseClamp(x, n, lo, hi);
  } else {
    detail::DenseClamp(x, n, lo, hi);
  }
}

}  // namespace recd::kernels
