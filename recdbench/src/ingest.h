// The RecD write path shared by the train and preprocess workloads:
// session-sharded Scribe, ETL join + session clustering + partitioning,
// and the land into a columnar table.
#pragma once

#include <cstddef>
#include <memory>

#include "datagen/generator.h"
#include "harness.h"
#include "reader/batch.h"
#include "storage/blob_store.h"
#include "storage/table.h"

namespace recd::common {
class ThreadPool;
}  // namespace recd::common

namespace recd::bench {

struct Ingested {
  std::unique_ptr<storage::BlobStore> store;
  storage::LandResult landed;
  double scribe_compression_ratio = 0;
  /// Samples per session in the landed table (the paper's S).
  double samples_per_session = 0;
};

/// Runs the write path over `traffic` with the full RecD config (O1
/// session-sharded Scribe, O2 session clustering), landing partitions
/// of `samples_per_partition` samples; one span per call.
[[nodiscard]] Ingested Ingest(const datagen::TrafficGenerator::Traffic& traffic,
                              const datagen::DatasetSpec& dataset,
                              std::size_t samples_per_partition,
                              common::ThreadPool* pool, Spans& spans);

/// Order-sensitive digest of a batch stream: start from kDigestSeed and
/// fold every batch in with DigestBatch.
inline constexpr std::uint64_t kDigestSeed = 0x7265636462656e63ULL;

/// Folds every delivered field of `batch` into `digest`.
[[nodiscard]] std::uint64_t DigestBatch(std::uint64_t digest,
                                        const reader::PreprocessedBatch& batch);
}  // namespace recd::bench
