// DLRM feature-interaction layer: pairwise dot products (paper §2.2).
#pragma once

#include <vector>

#include "kernels/backend.h"
#include "nn/dense_matrix.h"
#include "nn/op_stats.h"

namespace recd::nn {

/// Computes, per batch row, the concatenation of the first input's row
/// with all pairwise dot products among the inputs' rows:
///   out = [x_0 | <x_i, x_j> for i < j]
/// where x_0 is conventionally the bottom-MLP output and x_1..x_F the
/// pooled embeddings. All inputs must share rows and cols.
class FeatureInteraction {
 public:
  [[nodiscard]] DenseMatrix Forward(
      const std::vector<const DenseMatrix*>& inputs);

  /// Backward: fills `grad_inputs` (same shapes as the forward inputs)
  /// from dL/dout. Requires the most recent Forward's inputs.
  void Backward(const DenseMatrix& grad_out,
                const std::vector<const DenseMatrix*>& inputs,
                std::vector<DenseMatrix>& grad_inputs);

  /// Output width for F inputs of dimension d: d + F*(F-1)/2.
  [[nodiscard]] static std::size_t OutputDim(std::size_t num_inputs,
                                             std::size_t dim);

  [[nodiscard]] const OpStats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

  /// Kernel backend for the dot products and their gradients (defaults
  /// to the process-wide kernels::DefaultBackend()); bitwise-neutral.
  void set_backend(kernels::KernelBackend b) { backend_ = b; }

 private:
  kernels::KernelBackend backend_ = kernels::DefaultBackend();
  OpStats stats_;
};

}  // namespace recd::nn
