// Embedding tables with pooled lookups — the sparse half of a DLRM.
//
// EMBs translate each sparse ID into a dense vector; sum pooling
// aggregates a row's vectors (paper §2.2). RecD's O5 performs lookups on
// *deduplicated* values slices, cutting lookups, activation memory, and
// memory bandwidth by DedupeFactor(f); the trainer simulation exercises
// both paths through this class and tests assert they agree exactly.
//
// Storage backends (docs/ARCHITECTURE.md §13): by default a table owns
// its weights as one dense in-memory matrix. UseTieredStore swaps that
// for an embstore::TieredRowStore — a bounded hot-row cache over
// compressed cold segments — after which every lookup/update path
// gathers the referenced rows, runs the identical kernel float-op
// sequence on the gathered scratch, and writes updates back through
// the store. Because rows are bit-exact in both tiers and the gather
// preserves id order, results are bitwise identical to the dense
// backend for every hot capacity and eviction schedule (the
// tier-placement determinism rule).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/rng.h"
#include "embstore/tiered_store.h"
#include "kernels/backend.h"
#include "nn/dense_matrix.h"
#include "nn/op_stats.h"
#include "tensor/jagged.h"

namespace recd::kernels {
struct GroupFeature;
}  // namespace recd::kernels

namespace recd::nn {

class EmbeddingTable {
 public:
  /// `hash_size` rows of `dim` floats; IDs are mapped by modulo (the
  /// standard hash-trick used when the raw domain exceeds table rows).
  EmbeddingTable(std::size_t hash_size, std::size_t dim, common::Rng& rng);

  [[nodiscard]] std::size_t hash_size() const {
    return store_ ? store_->rows() : weights_.rows();
  }
  [[nodiscard]] std::size_t dim() const {
    return store_ ? store_->dim() : weights_.cols();
  }
  /// Logical fp32 parameter bytes (tier-independent).
  [[nodiscard]] std::size_t param_bytes() const {
    return hash_size() * dim() * sizeof(float);
  }

  /// Row view for one ID. Dense backend: a view into the weight
  /// matrix, valid until the next update. Tiered backend: the row is
  /// fetched into a per-table scratch — valid until the next Lookup or
  /// any forward/backward call on this table.
  [[nodiscard]] std::span<const float> Lookup(tensor::Id id) const;

  /// Sum-pooled lookup over a jagged batch: out(r, :) = sum of the rows
  /// of batch row r's ids (kernels::SumPoolGroup over a one-feature
  /// group). Empty rows pool to zero.
  [[nodiscard]] DenseMatrix PooledForward(const tensor::JaggedTensor& batch);

  /// Un-pooled lookup: concatenated sequence embeddings, one row per
  /// value in the jagged batch (feeds attention pooling).
  [[nodiscard]] DenseMatrix SequenceForward(const tensor::JaggedTensor& batch);

  /// Fused dedup-aware sum-pooled lookup (RecD O5+O7 in one pass):
  /// pools each *unique* row once and writes the pooled vector into
  /// every batch slot i with inverse[i] == u — bitwise-identical to
  /// PooledForward(unique) followed by a row gather through
  /// `inverse`, without materializing the unique-row matrix. Every
  /// inverse entry must be in [0, unique.num_rows()). On a tiered
  /// backend the inverse multiplicities double as hot-tier admission
  /// weights (RecD's skew shapes the hot set).
  [[nodiscard]] DenseMatrix FusedPooledForward(
      const tensor::JaggedTensor& unique,
      std::span<const std::int64_t> inverse);

  /// Sparse SGD for sum pooling: applies -lr * grad(r) to every ID of
  /// row r.
  void ApplyPooledGradient(const tensor::JaggedTensor& batch,
                           const DenseMatrix& grad, float lr);

  /// Full weight matrix (hash_size x dim) — the bitwise-equality
  /// surface of the distributed determinism tests and the checkpoint
  /// path. Tiered backend: materialized on each call (hot rows overlaid
  /// on cold), valid until the next mutating call.
  [[nodiscard]] const DenseMatrix& weights() const;

  /// Replaces the table's weights — the checkpoint-restore path
  /// (train/checkpoint.h). The shape must match this table exactly;
  /// throws std::invalid_argument otherwise. On a tiered backend the
  /// cold segments are rebuilt and the hot tier reset.
  void LoadWeights(DenseMatrix weights);

  [[nodiscard]] const OpStats& stats() const { return stats_; }
  void ResetStats() { stats_ = {}; }

  /// Kernel backend for lookups/updates (defaults to the process-wide
  /// kernels::DefaultBackend()). Both backends are bitwise-identical;
  /// the setter exists so parity tests can pin each path explicitly.
  void set_backend(kernels::KernelBackend b) { backend_ = b; }
  [[nodiscard]] kernels::KernelBackend backend() const { return backend_; }

  // --- Tiered row store (docs/ARCHITECTURE.md §13) --------------------

  /// Converts this table's storage to a two-tier row store: weights
  /// move into compressed cold segments under a bounded hot cache,
  /// preserved bitwise. Throws std::logic_error if already tiered.
  void UseTieredStore(const embstore::TierConfig& config);

  [[nodiscard]] bool tiered() const { return store_ != nullptr; }

  /// Tier counters; all-zero for the dense backend.
  [[nodiscard]] embstore::TierStats tier_stats() const;
  void ResetTierStats();

  /// Kernel-ready view of `jt` against this table's storage, for the
  /// grouped kernels (SumPoolGroup / FusedPooledLookup) that read raw
  /// weight pointers. Dense backend: a pass-through (store_backed ==
  /// false; feed the original jt and weights). Tiered backend: the
  /// referenced rows are gathered once into `gathered` and `remapped`
  /// holds the same jagged structure with ids rewritten to gathered
  /// positions — feeding (remapped, gathered) to a kernel runs the
  /// identical float-op sequence. `row_weights` (one per jt row; empty
  /// = 1) are hot-tier admission weights — pass the IKJT inverse
  /// multiplicities on dedup paths.
  struct KernelFeature {
    bool store_backed = false;
    tensor::JaggedTensor remapped;
    DenseMatrix gathered;
    std::vector<std::size_t> row_ids;  // table rows, in gathered order
  };
  [[nodiscard]] KernelFeature MakeKernelFeature(
      const tensor::JaggedTensor& jt,
      std::span<const std::uint64_t> row_weights = {}) const;

  /// Assembles the kernels::GroupFeature for `view` (which must have
  /// been built from `original` by MakeKernelFeature on this table).
  /// The result borrows from `view`/`original`/this — keep all three
  /// alive across the kernel call.
  [[nodiscard]] kernels::GroupFeature GroupFeatureFor(
      const KernelFeature& view, const tensor::JaggedTensor& original) const;

 private:
  [[nodiscard]] std::size_t RowIndex(tensor::Id id) const;

  DenseMatrix weights_;  // dense backend; empty when store_ is set
  std::unique_ptr<embstore::TieredRowStore> store_;
  mutable DenseMatrix materialized_;  // weights() surface when tiered
  mutable common::AlignedVector<float> lookup_scratch_;
  OpStats stats_;
  kernels::KernelBackend backend_ = kernels::DefaultBackend();
};

}  // namespace recd::nn
