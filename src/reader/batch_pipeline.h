// BatchPipeline: the Convert and Process stages of a reader (paper
// Fig 5) plus the storage projection its Fill stage reads. The reader
// scan — ReaderPool inline or on worker threads, and
// stream::TailingReader — runs the *same* object on every batch's rows
// (through reader::FillStripe / reader::PrepareBatch), which is what
// makes "N workers produce byte-identical batches" a structural
// property instead of a test-enforced coincidence.
#pragma once

#include <cstddef>
#include <vector>

#include "datagen/sample.h"
#include "reader/batch.h"
#include "reader/dataloader.h"
#include "storage/column_file.h"

namespace recd::reader {

class BatchPipeline {
 public:
  /// Holds references: `schema` and `config` must outlive the pipeline
  /// (both owners — ReaderPool and stream::TailingReader — keep them as
  /// members). Throws std::out_of_range if the config names a feature
  /// missing from the schema.
  BatchPipeline(const storage::StorageSchema& schema,
                const DataLoaderConfig& config, bool use_ikjt);

  /// Convert stage (O3): rows become KJTs / IKJTs / dense tensors.
  /// Pure: depends only on `rows`, so any thread may convert any batch.
  [[nodiscard]] PreprocessedBatch Convert(
      std::vector<datagen::Sample> rows) const;

  /// Process stage (O4): preprocessing transforms, run over
  /// deduplicated slices where an IKJT carries the feature. Returns the
  /// number of sparse elements the transforms touched.
  std::size_t Process(PreprocessedBatch& batch) const;

  [[nodiscard]] const storage::StorageSchema& schema() const {
    return *schema_;
  }
  /// The storage projection covering every feature the config consumes.
  [[nodiscard]] const storage::ReadProjection& projection() const {
    return projection_;
  }

 private:
  const storage::StorageSchema* schema_;
  const DataLoaderConfig* config_;
  bool use_ikjt_;
  storage::ReadProjection projection_;
};

}  // namespace recd::reader
