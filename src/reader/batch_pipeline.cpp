#include "reader/batch_pipeline.h"

#include <span>
#include <string>

#include "reader/transforms.h"
#include "tensor/ikjt.h"
#include "tensor/partial_ikjt.h"

namespace recd::reader {

namespace {

storage::ReadProjection BuildProjection(const storage::StorageSchema& schema,
                                        const DataLoaderConfig& config) {
  storage::ReadProjection p;
  p.dense = config.dense;
  for (const auto& name : config.sparse_features) {
    p.sparse.push_back(schema.FeatureIndex(name));
  }
  for (const auto& group : config.dedup_sparse_features) {
    for (const auto& name : group) {
      p.sparse.push_back(schema.FeatureIndex(name));
    }
  }
  for (const auto& name : config.partial_dedup_features) {
    p.sparse.push_back(schema.FeatureIndex(name));
  }
  return p;
}

}  // namespace

BatchPipeline::BatchPipeline(const storage::StorageSchema& schema,
                             const DataLoaderConfig& config, bool use_ikjt)
    : schema_(&schema),
      config_(&config),
      use_ikjt_(use_ikjt),
      projection_(BuildProjection(schema, config)) {}

PreprocessedBatch BatchPipeline::Convert(
    std::vector<datagen::Sample> rows) const {
  PreprocessedBatch batch;
  batch.batch_size = rows.size();

  const auto& schema = *schema_;
  auto column = [&](const std::string& name) {
    const std::size_t f = schema.FeatureIndex(name);
    tensor::JaggedTensor jt;
    for (const auto& row : rows) jt.AppendRow(row.sparse[f]);
    return jt;
  };

  for (const auto& name : config_->sparse_features) {
    batch.kjt.AddFeature(name, column(name));
  }
  for (const auto& group : config_->dedup_sparse_features) {
    if (use_ikjt_) {
      // Feature conversion with duplicate detection (O3): rows feed the
      // dedup builder directly, so duplicate values are never copied
      // into a staging column (paper: "detecting and avoiding duplicate
      // copies during feature conversion").
      std::vector<std::size_t> feature_idx;
      feature_idx.reserve(group.size());
      for (const auto& name : group) {
        feature_idx.push_back(schema.FeatureIndex(name));
      }
      tensor::DedupStats stats;
      batch.groups.push_back(tensor::DeduplicateRows(
          group, rows.size(),
          [&](std::size_t row, std::size_t k) {
            return std::span<const tensor::Id>(
                rows[row].sparse[feature_idx[k]]);
          },
          &stats));
      batch.group_stats.push_back(stats);
    } else {
      for (const auto& name : group) {
        batch.kjt.AddFeature(name, column(name));
      }
    }
  }

  for (const auto& name : config_->partial_dedup_features) {
    if (use_ikjt_) {
      batch.partials.push_back(
          tensor::BuildPartialIkjt(name, column(name)));
    } else {
      batch.kjt.AddFeature(name, column(name));
    }
  }

  if (config_->dense) {
    batch.dense_dim = schema.num_dense;
    batch.dense.reserve(rows.size() * schema.num_dense);
    for (const auto& row : rows) {
      batch.dense.insert(batch.dense.end(), row.dense.begin(),
                         row.dense.end());
    }
  }
  batch.labels.reserve(rows.size());
  batch.session_ids.reserve(rows.size());
  for (const auto& row : rows) {
    batch.labels.push_back(row.label);
    batch.session_ids.push_back(row.session_id);
  }
  return batch;
}

std::size_t BatchPipeline::Process(PreprocessedBatch& batch) const {
  std::size_t elements = 0;
  for (const auto& spec : config_->transforms) {
    switch (spec.kind) {
      case TransformKind::kDenseNormalize:
        ApplyDenseTransform(spec, batch.dense);
        break;
      case TransformKind::kSparseHash: {
        // O4: if the feature was deduplicated, transform its unique
        // slice; the wrapper makes this transparent to the transform.
        bool applied = false;
        for (auto& group : batch.groups) {
          for (const auto& key : group.keys()) {
            if (key == spec.feature) {
              auto& unique = group.MutableUnique(key);
              ApplySparseTransform(spec, unique.mutable_values());
              elements += unique.total_values();
              applied = true;
              break;
            }
          }
          if (applied) break;
        }
        if (!applied && batch.kjt.Has(spec.feature)) {
          auto& jt = batch.kjt.MutableGet(spec.feature);
          ApplySparseTransform(spec, jt.mutable_values());
          elements += jt.total_values();
        }
        break;
      }
    }
  }
  return elements;
}

}  // namespace recd::reader
