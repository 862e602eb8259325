#include "nn/embedding.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "kernels/kernels.h"

namespace recd::nn {

EmbeddingTable::EmbeddingTable(std::size_t hash_size, std::size_t dim,
                               common::Rng& rng) {
  if (hash_size == 0 || dim == 0) {
    throw std::invalid_argument("EmbeddingTable: zero hash_size or dim");
  }
  weights_ = DenseMatrix::Xavier(hash_size, dim, rng);
}

void EmbeddingTable::UseTieredStore(const embstore::TierConfig& config) {
  if (store_) {
    throw std::logic_error("EmbeddingTable: already tiered");
  }
  store_ = std::make_unique<embstore::TieredRowStore>(weights_, config);
  weights_ = DenseMatrix();
}

embstore::TierStats EmbeddingTable::tier_stats() const {
  return store_ ? store_->stats() : embstore::TierStats{};
}

void EmbeddingTable::ResetTierStats() {
  if (store_) store_->ResetStats();
}

const DenseMatrix& EmbeddingTable::weights() const {
  if (!store_) return weights_;
  materialized_ = store_->Materialize();
  return materialized_;
}

void EmbeddingTable::LoadWeights(DenseMatrix weights) {
  if (weights.rows() != hash_size() || weights.cols() != dim()) {
    throw std::invalid_argument("EmbeddingTable::LoadWeights: shape "
                                "mismatch");
  }
  if (store_) {
    store_->Load(weights);
    return;
  }
  weights_ = std::move(weights);
}

std::size_t EmbeddingTable::RowIndex(tensor::Id id) const {
  const auto u = static_cast<std::uint64_t>(id);
  return static_cast<std::size_t>(u % hash_size());
}

EmbeddingTable::KernelFeature EmbeddingTable::MakeKernelFeature(
    const tensor::JaggedTensor& jt,
    std::span<const std::uint64_t> row_weights) const {
  KernelFeature view;
  if (!store_) return view;  // dense pass-through
  view.store_backed = true;

  // Map each referenced table row to a gathered position (first
  // appearance order), rewriting ids in place; accumulate the per-row
  // admission weight as the sum of its occurrences' row weights.
  std::vector<tensor::Id> remapped_values(jt.total_values());
  std::vector<std::uint64_t> weights;
  std::unordered_map<std::size_t, std::size_t> position;
  std::size_t v = 0;
  for (std::size_t r = 0; r < jt.num_rows(); ++r) {
    const std::uint64_t w = row_weights.empty() ? 1 : row_weights[r];
    for (const auto id : jt.row(r)) {
      const std::size_t table_row = RowIndex(id);
      const auto [it, inserted] =
          position.try_emplace(table_row, view.row_ids.size());
      if (inserted) {
        view.row_ids.push_back(table_row);
        weights.push_back(0);
      }
      weights[it->second] += w;
      remapped_values[v++] = static_cast<tensor::Id>(it->second);
    }
  }

  view.gathered = DenseMatrix(view.row_ids.size(), dim());
  if (!view.row_ids.empty()) {
    store_->Gather(view.row_ids, weights, view.gathered.data().data());
  }
  view.remapped = tensor::JaggedTensor(
      std::move(remapped_values),
      std::vector<tensor::Offset>(jt.offsets().begin(), jt.offsets().end()));
  return view;
}

kernels::GroupFeature EmbeddingTable::GroupFeatureFor(
    const KernelFeature& view, const tensor::JaggedTensor& original) const {
  if (!view.store_backed) {
    return {&original, weights_.data().data(), weights_.rows()};
  }
  return {&view.remapped, view.gathered.data().data(),
          std::max<std::size_t>(view.gathered.rows(), 1)};
}

std::span<const float> EmbeddingTable::Lookup(tensor::Id id) const {
  if (!store_) return weights_.row(RowIndex(id));
  lookup_scratch_.resize(dim());
  const std::size_t row = RowIndex(id);
  store_->Gather(std::span<const std::size_t>(&row, 1), {},
                 lookup_scratch_.data());
  return {lookup_scratch_.data(), lookup_scratch_.size()};
}

DenseMatrix EmbeddingTable::PooledForward(const tensor::JaggedTensor& batch) {
  const std::size_t d = dim();
  DenseMatrix out(batch.num_rows(), d);
  // A one-feature group. Tiered: pools the gathered scratch, whose remap
  // preserves id order and row bits (bitwise-equal output).
  const auto view = MakeKernelFeature(batch);
  const kernels::GroupFeature gf[] = {GroupFeatureFor(view, batch)};
  kernels::SumPoolGroup(backend_, gf, d, out.data().data());
  stats_.lookups += batch.total_values();
  stats_.flops += 2ull * batch.total_values() * d;
  stats_.bytes_read += batch.total_values() * d * sizeof(float);
  stats_.bytes_written += out.byte_size();
  return out;
}

DenseMatrix EmbeddingTable::FusedPooledForward(
    const tensor::JaggedTensor& unique,
    std::span<const std::int64_t> inverse) {
  const std::size_t d = dim();
  DenseMatrix out(inverse.size(), d);
  // Tiered: inverse multiplicities are the admission weights, so a
  // unique row referenced by many batch slots charges its table rows
  // with the full dedup skew.
  std::vector<std::uint64_t> mult;
  if (store_) {
    mult.assign(unique.num_rows(), 0);
    for (const auto i : inverse) mult[static_cast<std::size_t>(i)] += 1;
  }
  const auto view = MakeKernelFeature(unique, mult);
  const kernels::GroupFeature gf[] = {GroupFeatureFor(view, unique)};
  kernels::FusedPooledLookup(backend_, gf, inverse, d, out.data().data());
  // Same accounting as PooledForward on the unique rows (the gather
  // writes no new float math and the old two-step path counted only the
  // unique-row pooling).
  stats_.lookups += unique.total_values();
  stats_.flops += 2ull * unique.total_values() * d;
  stats_.bytes_read += unique.total_values() * d * sizeof(float);
  stats_.bytes_written += unique.num_rows() * d * sizeof(float);
  return out;
}

DenseMatrix EmbeddingTable::SequenceForward(
    const tensor::JaggedTensor& batch) {
  const std::size_t d = dim();
  DenseMatrix out(batch.total_values(), d);
  std::size_t pos = 0;
  for (std::size_t r = 0; r < batch.num_rows(); ++r) {
    for (const auto id : batch.row(r)) {
      const auto w = Lookup(id);
      std::copy(w.begin(), w.end(), out.row(pos).begin());
      ++pos;
    }
  }
  stats_.lookups += batch.total_values();
  stats_.bytes_read += batch.total_values() * d * sizeof(float);
  stats_.bytes_written += out.byte_size();
  return out;
}

void EmbeddingTable::ApplyPooledGradient(const tensor::JaggedTensor& batch,
                                         const DenseMatrix& grad, float lr) {
  if (grad.rows() != batch.num_rows() || grad.cols() != dim()) {
    throw std::invalid_argument(
        "EmbeddingTable::ApplyPooledGradient: shape mismatch");
  }
  if (!store_) {
    kernels::ScatterSgdUpdate(backend_, batch, grad.data().data(), lr,
                              weights_.data().data(), weights_.rows(),
                              dim());
    return;
  }
  // Gather → identical scatter sequence on the scratch → exact
  // write-back. Two ids sharing a table row share one gathered row, so
  // their updates chain in batch order exactly as on the dense backend.
  auto view = MakeKernelFeature(batch);
  if (view.row_ids.empty()) return;
  kernels::ScatterSgdUpdate(backend_, view.remapped, grad.data().data(),
                            lr, view.gathered.data().data(),
                            view.gathered.rows(), dim());
  store_->Update(view.row_ids, view.gathered.data().data());
}

}  // namespace recd::nn
