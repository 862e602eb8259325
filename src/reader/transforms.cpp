#include "reader/transforms.h"

#include <stdexcept>

#include "common/hash.h"
#include "kernels/kernels.h"

namespace recd::reader {

void ApplySparseTransform(const TransformSpec& spec,
                          std::span<tensor::Id> values) {
  switch (spec.kind) {
    case TransformKind::kSparseHash: {
      const auto domain = static_cast<std::uint64_t>(spec.a);
      if (domain == 0) {
        throw std::invalid_argument("kSparseHash: domain must be positive");
      }
      for (auto& v : values) {
        v = static_cast<tensor::Id>(
            common::Mix64(static_cast<std::uint64_t>(v)) % domain);
      }
      return;
    }
    case TransformKind::kDenseNormalize:
      throw std::invalid_argument(
          "ApplySparseTransform: dense transform on sparse values");
  }
}

void ApplyDenseTransform(const TransformSpec& spec, std::span<float> dense) {
  switch (spec.kind) {
    case TransformKind::kDenseNormalize: {
      if (spec.b == 0) {
        throw std::invalid_argument("kDenseNormalize: zero scale");
      }
      const float mean = static_cast<float>(spec.a);
      const float inv = 1.0f / static_cast<float>(spec.b);
      kernels::DenseNormalize(kernels::DefaultBackend(), dense.data(),
                              dense.size(), mean, inv);
      return;
    }
    case TransformKind::kSparseHash:
      throw std::invalid_argument(
          "ApplyDenseTransform: sparse transform on dense values");
  }
}

}  // namespace recd::reader
